"""Polyline compression into segments and circular arcs with fixed vertices.

Dynamic programming over the vertex chain: every accepted primitive spans
two source vertices, segments cost 2 and arcs cost 3 (configurable), and the
optimum minimizes (total cost, total squared deviation) lexicographically.
Arc candidates are fitted in O(1) from prefix-moment differences; only the
tolerance / ordering validation of a candidate looks at the points between
its endpoints, and only once exact O(1) bounds have not shown that the
candidate cannot pass or cannot win. Before the DP, an O(n) table of vertex
triples gives, for each end vertex, the earliest start from which a
candidate could pass at all: windows that cross a corner are never tried.
Adjacent-vertex segments are always accepted, so a solution always exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fit as _fit
from .errors import NoArcExists, OutOfRange
from .fit import Circle, two_point_fit
from .moments import (MomentAccumulator, _on_grid, _scaled_div,
                      accumulate_point, difference, empty)
from .reference import _ENDPOINT_RTOL, Arc, check_tolerance_zigzag, exact_sse

__all__ = [
    "PrefixMoments",
    "Segment",
    "ArcPrim",
    "CompressedPath",
    "build_prefix",
    "candidate_segment",
    "fit_arc_candidate",
    "candidate_arc",
    "compress",
]

SEGMENT_PENALTY = 2.0
ARC_PENALTY = 3.0


@dataclass
class PrefixMoments:
    """Cumulative accumulators: prefix[k] covers the first k vertices.

    Sums are exact, so a range is recovered by subtraction with no
    cancellation regardless of where the polyline sits in the plane.
    range_queries counts extractions (used to audit the O(1) fit property).
    """

    prefix: list
    range_queries: int = 0

    @property
    def n(self) -> int:
        return len(self.prefix) - 1

    def range_moments(self, lo: int, hi: int) -> MomentAccumulator:
        """Accumulator over vertices[lo:hi]."""
        if not 0 <= lo <= hi <= self.n:
            raise IndexError(f"range ({lo}, {hi}) out of bounds for n={self.n}")
        self.range_queries += 1
        return difference(self.prefix[hi], self.prefix[lo])


def build_prefix(polyline) -> PrefixMoments:
    n = len(polyline)
    if n < 2:
        raise ValueError("polyline needs at least 2 vertices")
    prefix = [empty()]
    for k in range(n):
        prefix.append(accumulate_point(prefix[-1], polyline[k]))
    return PrefixMoments(prefix=prefix)


@dataclass(frozen=True)
class Segment:
    i: int
    j: int
    ssd: float

    @property
    def exact_ssd(self) -> float:
        return self.ssd


@dataclass(frozen=True)
class ArcPrim:
    i: int
    j: int
    circle: Circle
    ccw: bool
    ssd: float
    exact_ssd: float | None = None


@dataclass
class CompressedPath:
    primitives: list = field(default_factory=list)
    total_penalty: float = 0.0
    total_ssd: float = 0.0
    total_exact_ssd: float = 0.0

    @property
    def n_segments(self) -> int:
        return sum(isinstance(p, Segment) for p in self.primitives)

    @property
    def n_arcs(self) -> int:
        return sum(isinstance(p, ArcPrim) for p in self.primitives)

    def to_dict(self, polyline=None) -> dict:
        prims = []
        for p in self.primitives:
            rec = {"i": p.i, "j": p.j, "ssd": p.ssd, "exact_ssd": p.exact_ssd}
            if polyline is not None:
                rec["endpoints"] = [list(map(float, polyline[p.i])),
                                    list(map(float, polyline[p.j]))]
            if isinstance(p, ArcPrim):
                rec["type"] = "arc"
                rec["center"] = [p.circle.cx, p.circle.cy]
                rec["radius"] = p.circle.r
                rec["orientation"] = "ccw" if p.ccw else "cw"
            else:
                rec["type"] = "segment"
            prims.append(rec)
        return {
            "penalty": self.total_penalty,
            "ssd": self.total_ssd,
            "exact_ssd": self.total_exact_ssd,
            "segments": self.n_segments,
            "arcs": self.n_arcs,
            "primitives": prims,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CompressedPath":
        prims = []
        for rec in data["primitives"]:
            if rec["type"] == "arc":
                prims.append(ArcPrim(
                    i=rec["i"], j=rec["j"],
                    circle=Circle(rec["center"][0], rec["center"][1],
                                  rec["radius"]),
                    ccw=rec["orientation"] == "ccw",
                    ssd=rec["ssd"], exact_ssd=rec["exact_ssd"]))
            else:
                prims.append(Segment(i=rec["i"], j=rec["j"], ssd=rec["ssd"]))
        return cls(primitives=prims, total_penalty=data["penalty"],
                   total_ssd=data["ssd"], total_exact_ssd=data["exact_ssd"])


def candidate_segment(polyline, i: int, j: int, tol: float,
                      penalty: float = SEGMENT_PENALTY):
    """Segment from vertex i to j, accepted when every interior vertex is
    within tol (inclusive) of it. ssd is the exact sum of squared
    point-to-segment distances."""
    if not i < j:
        raise ValueError("need i < j")
    if j == i + 1:
        return penalty, 0.0, Segment(i, j, 0.0)
    window = np.asarray(polyline[i:j + 1], dtype=float)
    a = window[0]
    b = window[-1]
    interior = window[1:-1]
    ab = b - a
    len2 = float(ab @ ab)
    rel = interior - a
    if len2 == 0.0:
        d2 = np.sum(rel * rel, axis=1)
    else:
        tpar = np.clip((rel @ ab) / len2, 0.0, 1.0)
        off = rel - tpar[:, None] * ab
        d2 = np.sum(off * off, axis=1)
    max_dev = math.sqrt(float(np.max(d2)))
    if not max_dev <= tol:  # a NaN from overflowed distances fails too
        return None
    ssd = float(np.sum(d2))
    return penalty, ssd, Segment(i, j, ssd)


def fit_arc_candidate(polyline, prefix: PrefixMoments, i: int, j: int,
                      penalty: float = ARC_PENALTY):
    """O(1) fit phase of an arc candidate: circle through vertices i and j
    best fitting the interior vertices' moments, plus the moment-based ssd
    estimate. Touches only the two endpoint vertices and one moment range."""
    if j < i + 3:
        return None
    vi, vj = polyline[i], polyline[j]
    p_i = (float(vi[0]), float(vi[1]))
    p_j = (float(vj[0]), float(vj[1]))
    if p_i == p_j:
        return None
    interior = prefix.range_moments(i + 1, j)
    try:
        circle = two_point_fit(interior, p_i, p_j)
    except (NoArcExists, OutOfRange):
        return None
    ssd = _fit.penalty(interior, circle)
    return penalty, ssd, circle


# Per interior vertex, an absolute allowance on the squared-distance bounds
# below for what floats lose to underflow: squares and sums that land among
# the subnormals (spacing 2**-1074) are rounded by an absolute amount that no
# relative slack covers.
_SUBNORMAL_FLOOR = 2.0 ** -1070


def _arc_cannot_pass(ssd: float, m: int, r: float, tol: float) -> bool:
    """True when an arc fit of radius r whose O(1) ssd over its m interior
    vertices is `ssd` cannot pass validation at tol.

    Validation bounds each interior vertex's arc_deviation by tol, and
    arc_deviation >= |d - r| (d the vertex's distance from the center, up to
    the endpoint gap that Arc.from_endpoints allows). t is tol plus that gap
    plus validation's own float rounding. Each vertex contributes
    (d^2 - r^2)^2 / (4 r^2) = (d - r)^2 ((d + r) / (2r))^2 <= t^2 (1 + t/(2r))^2
    to the ssd; the last factor covers the ssd's and the bound's rounding."""
    t = tol + _ENDPOINT_RTOL * r * (1.0 + 1e-6) + 2.0 ** -50 * (r + tol)
    return ssd > m * (t * t * (1.0 + t / (2.0 * r)) ** 2
                      + _SUBNORMAL_FLOOR) * (1.0 + 1e-12)


def _line_sums(interior: MomentAccumulator, a, b) -> tuple[float, float, float]:
    """Sums over the interior points p, from their exact order <= 2 sums and
    each rounded once: squared distances to the line through a and b (to a
    when a == b), |b - a|^2, and |p - a|^2."""
    (ax, ay, bx, by), e = _on_grid(float(a[0]), float(a[1]),
                                   float(b[0]), float(b[1]))
    sh = -e
    n00, n10, n01, n20, n11, n02 = interior.sums[:6]
    ux, uy = bx - ax, by - ay
    len2 = ux * ux + uy * uy
    # sum |p - a|^2 and, with k = a x b, sum ((p - a) x u)^2 = sum (p x u - k)^2,
    # on the grid: the sums carry 2**exp, each length 2**-sh
    spread = ((((n20 + n02) << sh) - 2 * (ax * n10 + ay * n01)) << sh) \
        + (ax * ax + ay * ay) * n00
    exp = interior.exp - 2 * sh
    if len2:
        k = ax * by - ay * bx
        cross = ((((uy * uy * n20 - 2 * ux * uy * n11 + ux * ux * n02) << sh)
                  - 2 * k * (uy * n10 - ux * n01)) << sh) + k * k * n00
        line = _scaled_div(cross, len2, exp)
    else:
        line = _scaled_div(spread, 1, exp)
    return (line, _scaled_div(len2, 1, -2 * sh), _scaled_div(spread, 1, exp))


def _segment_cannot_pass(polyline, prefix: PrefixMoments, i: int, j: int,
                         tol: float) -> bool:
    """True when the segment from vertex i to j cannot pass
    candidate_segment at tol.

    A vertex's distance to the segment is at least its distance to the
    line through the endpoints, so an accepted segment has at most
    m * t^2 as the sum of squared line distances of its m interior
    vertices. t is tol plus the validation's float rounding, which
    scales with |b - a| and |p - a|."""
    m = j - i - 1
    if m <= 0:
        return False
    line, len2, spread = _line_sums(prefix.range_moments(i + 1, j),
                                    polyline[i], polyline[j])
    t = tol + 2.0 ** -48 * (math.sqrt(len2) + math.sqrt(spread))
    return line > m * (t * t + _SUBNORMAL_FLOOR)


def _orient_arc(circle: Circle, window: np.ndarray) -> Arc | None:
    """Arc between the window's endpoints whose sector covers the majority
    of the interior vertices."""
    theta = np.arctan2(window[:, 1] - circle.cy, window[:, 0] - circle.cx)
    two_pi = 2.0 * math.pi
    u_ccw = (theta - theta[0]) % two_pi
    u_cw = (theta[0] - theta) % two_pi
    inside_ccw = int(np.sum(u_ccw[1:-1] <= u_ccw[-1]))
    inside_cw = int(np.sum(u_cw[1:-1] <= u_cw[-1]))
    try:
        return Arc.from_endpoints(circle, window[0], window[-1],
                                  ccw=inside_ccw >= inside_cw)
    except ValueError:
        return None


def candidate_arc(polyline, prefix: PrefixMoments, i: int, j: int, tol: float,
                  penalty: float = ARC_PENALTY):
    """Arc candidate over window (i, j): O(1) fit via prefix moments, then the
    O(window) tolerance and ordering validation unless the fit's ssd already
    rules the arc out. Needs at least two interior vertices; a cheaper pair
    of segments always beats an arc below that."""
    fitted = fit_arc_candidate(polyline, prefix, i, j, penalty)
    if fitted is None:
        return None
    penalty, ssd, circle = fitted
    if _arc_cannot_pass(ssd, j - i - 1, circle.r, tol):
        return None
    window = np.asarray(polyline[i:j + 1], dtype=float)
    arc = _orient_arc(circle, window)
    if arc is None:
        return None
    report = check_tolerance_zigzag(window, arc, tol)
    if not report.ok:
        return None
    return penalty, ssd, ArcPrim(i, j, circle, arc.ccw, ssd)


# Radius cap of an accepted arc in bounding-box diagonals: two_point_fit
# keeps the center offset along the chord's bisector within
# _MAX_CENTER_SCALES * max(half chord, spread), both at most the diagonal.
_MAX_RADIUS_SCALES = 1.01 * _fit._MAX_CENTER_SCALES


def _triple_bounds(a, b, c, x, t: float):
    """Per vertex triple with sides a = |p1 - p0|, b = |p2 - p1|,
    c = |p2 - p0| and x = cross(p1 - p0, p2 - p0), given every vertex may
    move by up to t: the orientation the moved triangle must keep (+1, -1,
    or 0 for either or degenerate) and the range [lo, hi] its circumradius
    stays in. Moving the vertices changes each side by at most 2t and the
    cross product by at most d = 2t(a + c) + 4t^2; the circumradius is
    abc / (2|x|). The sides and x must be finite. A t so large that d is
    infinite or NaN constrains nothing: the comparisons with d fail and
    every side is within 2t, so sign 0, lo 0, hi inf."""
    with np.errstate(all="ignore"):
        d = (2.0 * t * (a + c) + 4.0 * t * t) * (1.0 + 1e-9) + 1e-9 * np.abs(x)
        ax = np.abs(x)
        sign = np.where(x > d, 1, np.where(x < -d, -1, 0))
        hi = np.where(ax > d, (a + 2.0 * t) * (b + 2.0 * t) * (c + 2.0 * t)
                      / (2.0 * (ax - d)) * (1.0 + 1e-9), math.inf)
        lo_den = 2.0 * (ax + d)
        lo = np.where(lo_den > 0.0,
                      np.maximum(a - 2.0 * t, 0.0) * np.maximum(b - 2.0 * t, 0.0)
                      * np.maximum(c - 2.0 * t, 0.0) / lo_den * (1.0 - 1e-9),
                      0.0)
    return sign, lo, hi


def _window_starts(polyline: np.ndarray, tol: float) -> tuple[list, list]:
    """For each end vertex j, the smallest start i of an arc and of a
    segment candidate (i, j) that validation could still accept; every
    candidate that starts earlier is rejected by candidate_arc or
    candidate_segment. O(n) table, then one downward scan per j that stops
    at the first conflict.

    Each rule reads the vertex triples (p[k-1], p[k], p[k+1]) of the window
    whose vertices validation holds within t of the primitive: an arc's
    interior ones, k in [i+2, j-2], and for a segment also its endpoints,
    which lie on its line, k in [i+1, j-1]. Adding triples only makes a rule
    harder to meet, so the windows that meet it at a given j are those with
    i at or above one start.

    Why the rules are necessary:
    - Arc. An accepted arc is monotone, so every interior vertex lies in the
      arc's sector, where validation's |hypot(p - c) - r| <= tol. Move each
      vertex radially onto the circle: it moves at most t, and the moved
      vertices keep validation's strict angular order, so three of them form
      a triangle of the arc's orientation whose circumradius is r. Hence
      every nonzero triple sign is the arc's orientation, and
      max lo <= r <= min hi over the window's triples.
    - Segment. Every interior vertex of an accepted segment lies within t
      of the chord's line (of the one endpoint when both coincide), and the
      endpoints lie on it. Moved onto it, three vertices have cross product
      0, so every triple sign is 0.
    - Slack. t is tol plus validation's rounding, 2**-48 of the largest
      magnitude it handles: the center lies within M + R of the origin,
      where M is the largest |coordinate| and R = _MAX_RADIUS_SCALES * E
      bounds the radius (E the bounding-box diagonal; a segment's lengths
      are within E), plus 2**-530 for squares that validation loses among
      the subnormals. The (1 + 1e-6) on t and the 1e-9 terms in
      _triple_bounds cover the table's own rounding.
    The table is evaluated on the vertices scaled by one power of two, to a
    largest |coordinate| m in [1/2, 1), which keeps every side and cross
    product in the float range; a vertex that underflows there moves by far
    less than t. A polyline with a non-finite coordinate is not cut."""
    n = len(polyline)
    arc_start = [0] * n
    seg_start = [0] * n
    big = float(np.max(np.abs(polyline)))
    if not math.isfinite(big):
        return arc_start, seg_start
    m, e = math.frexp(big)
    pts = np.ldexp(polyline, -e)
    span = float(np.hypot(*np.ptp(pts, axis=0)))
    with np.errstate(over="ignore"):
        tol_s = float(np.ldexp(tol, -e))
    base = tol_s + 2.0 ** -48 * (m + tol_s) + math.ldexp(2.0 ** -530, -e)
    t_arc = (base + 2.0 ** -48 * _MAX_RADIUS_SCALES * span) * (1.0 + 1e-6)
    t_seg = (base + 2.0 ** -48 * span) * (1.0 + 1e-6)

    p0, p1, p2 = pts[:-2], pts[1:-1], pts[2:]
    u, v = p1 - p0, p2 - p0
    a = np.hypot(u[:, 0], u[:, 1])
    b = np.hypot(p2[:, 0] - p1[:, 0], p2[:, 1] - p1[:, 1])
    c = np.hypot(v[:, 0], v[:, 1])
    x = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    # index k - 1 holds the triple centred on vertex k
    sign, lo, hi = (arr.tolist() for arr in _triple_bounds(a, b, c, x, t_arc))
    seg_sign = _triple_bounds(a, b, c, x, t_seg)[0].tolist()

    last_bent = 0
    for j in range(2, n):
        if seg_sign[j - 2]:
            last_bent = j - 1
        seg_start[j] = last_bent
        lo_max, hi_min, turn = 0.0, math.inf, 0
        k = j - 2
        while k >= 2:
            lo_max = max(lo_max, lo[k - 1])
            hi_min = min(hi_min, hi[k - 1])
            s = sign[k - 1]
            if lo_max > hi_min or (s and turn and s != turn):
                break
            turn = turn or s
            k -= 1
        arc_start[j] = max(k - 1, 0)
    return arc_start, seg_start


def compress(polyline, tol: float, *, segment_penalty: float = SEGMENT_PENALTY,
             arc_penalty: float = ARC_PENALTY) -> CompressedPath:
    """Optimal chain of segments and arcs from the first to the last vertex.

    Minimizes total penalty, then total squared deviation (arc deviations
    scored with the O(1) moment estimate; exact values are recomputed on the
    returned primitives).
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol!r}")
    # One conversion: every window below is then a view, not a copy.
    polyline = np.asarray(polyline, dtype=float)
    n = len(polyline)
    prefix = build_prefix(polyline)
    arc_start, seg_start = _window_starts(polyline, tol)

    best_pen = [math.inf] * n
    best_ssd = [0.0] * n
    back = [None] * n
    best_pen[0] = 0.0

    def offer(i, j, cand):
        if cand is None:
            return
        pen, ssd, prim = cand
        tot_pen = best_pen[i] + pen
        tot_ssd = best_ssd[i] + ssd
        if (tot_pen, tot_ssd) < (best_pen[j], best_ssd[j]):
            best_pen[j] = tot_pen
            best_ssd[j] = tot_ssd
            back[j] = prim

    for j in range(1, n):
        # The adjacent segment (j-1, j) is always accepted, so best_pen[j]
        # ends at most at cap. A candidate whose total penalty exceeds cap,
        # or the best found so far, cannot win: skip it before any work.
        # The test is strict and i keeps its order, so ties resolve as in a
        # search without it. An unreachable i (infinite penalty) never passes.
        # Starts below arc_start[j] / seg_start[j] cannot pass validation.
        cap = best_pen[j - 1] + segment_penalty
        for i in range(min(arc_start[j], seg_start[j]), j):
            if (i >= seg_start[j]
                    and best_pen[i] + segment_penalty <= min(cap, best_pen[j])
                    and not _segment_cannot_pass(polyline, prefix, i, j, tol)):
                offer(i, j, candidate_segment(polyline, i, j, tol,
                                              segment_penalty))
            if (j - i >= 3 and i >= arc_start[j]
                    and best_pen[i] + arc_penalty <= min(cap, best_pen[j])):
                offer(i, j, candidate_arc(polyline, prefix, i, j, tol,
                                          arc_penalty))

    prims = []
    k = n - 1
    while k > 0:
        prim = back[k]
        prims.append(prim)
        k = prim.i
    prims.reverse()

    final = []
    total_exact = 0.0
    for prim in prims:
        if isinstance(prim, ArcPrim):
            interior = np.asarray(polyline[prim.i + 1:prim.j], dtype=float)
            exact = exact_sse(interior, prim.circle) if len(interior) else 0.0
            prim = ArcPrim(prim.i, prim.j, prim.circle, prim.ccw, prim.ssd,
                           exact_ssd=exact)
        total_exact += prim.exact_ssd
        final.append(prim)

    return CompressedPath(primitives=final, total_penalty=best_pen[n - 1],
                          total_ssd=best_ssd[n - 1],
                          total_exact_ssd=total_exact)
