"""Polyline compression into segments and circular arcs with fixed vertices.

Dynamic programming over the vertex chain: every accepted primitive spans
two source vertices, segments cost 2 and arcs cost 3 (configurable), and the
optimum minimizes (total cost, total squared deviation) lexicographically.
Arc candidates are fitted in O(1) from prefix-moment differences; only the
tolerance / ordering validation of a candidate looks at the points between
its endpoints. Adjacent-vertex segments are always accepted, so a solution
always exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fit as _fit
from .errors import NoArcExists, OutOfRange
from .fit import Circle, two_point_fit
from .moments import MomentAccumulator, accumulate_point, difference, empty
from .reference import Arc, check_tolerance_zigzag, exact_sse

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
    O(window) tolerance and ordering validation. Needs at least two interior
    vertices; a cheaper pair of segments always beats an arc below that."""
    fitted = fit_arc_candidate(polyline, prefix, i, j, penalty)
    if fitted is None:
        return None
    penalty, ssd, circle = fitted
    window = np.asarray(polyline[i:j + 1], dtype=float)
    arc = _orient_arc(circle, window)
    if arc is None:
        return None
    report = check_tolerance_zigzag(window, arc, tol)
    if not report.ok:
        return None
    return penalty, ssd, ArcPrim(i, j, circle, arc.ccw, ssd)


def _seeded_arc_pairs(polyline, prefix: PrefixMoments, tol: float,
                      penalty: float) -> set:
    """Window-doubling probe pass: fit arcs to probe windows, keep the merged
    intervals where probes validate, and admit every pair inside them.
    Cheaper than exhaustive search but can miss solutions on noisy data."""
    n = len(polyline)
    hits = []
    for i in range(n - 3):
        width = 3
        while True:
            j = i + width
            clipped = min(j, n - 1)
            if candidate_arc(polyline, prefix, i, clipped, tol, penalty):
                hits.append((i, clipped))
            if j >= n - 1:
                break
            width *= 2
    if not hits:
        return set()
    hits.sort()
    merged = [list(hits[0])]
    for lo, hi in hits[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    pairs = set()
    for lo, hi in merged:
        for a in range(lo, hi - 2):
            for b in range(a + 3, hi + 1):
                pairs.add((a, b))
    return pairs


def compress(polyline, tol: float, *, segment_penalty: float = SEGMENT_PENALTY,
             arc_penalty: float = ARC_PENALTY,
             prefilter: bool = False) -> CompressedPath:
    """Optimal chain of segments and arcs from the first to the last vertex.

    Minimizes total penalty, then total squared deviation (arc deviations
    scored with the O(1) moment estimate; exact values are recomputed on the
    returned primitives). With prefilter=True arc candidates are restricted
    to seeded windows, trading optimality guarantees for speed.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol!r}")
    # One conversion: every window below is then a view, not a copy.
    polyline = np.asarray(polyline, dtype=float)
    n = len(polyline)
    prefix = build_prefix(polyline)
    arc_pairs = (_seeded_arc_pairs(polyline, prefix, tol, arc_penalty)
                 if prefilter else None)

    inf = math.inf
    best_pen = [inf] * n
    best_ssd = [0.0] * n
    back = [None] * n
    best_pen[0] = 0.0

    for j in range(1, n):
        for i in range(j):
            if not math.isfinite(best_pen[i]):
                continue
            for cand in _candidates(polyline, prefix, i, j, tol,
                                    segment_penalty, arc_penalty, arc_pairs):
                pen, ssd, prim = cand
                tot_pen = best_pen[i] + pen
                tot_ssd = best_ssd[i] + ssd
                if (tot_pen, tot_ssd) < (best_pen[j], best_ssd[j]):
                    best_pen[j] = tot_pen
                    best_ssd[j] = tot_ssd
                    back[j] = prim

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


def _candidates(polyline, prefix, i, j, tol, segment_penalty, arc_penalty,
                arc_pairs):
    seg = candidate_segment(polyline, i, j, tol, segment_penalty)
    if seg is not None:
        yield seg
    if j - i >= 3 and (arc_pairs is None or (i, j) in arc_pairs):
        arc = candidate_arc(polyline, prefix, i, j, tol, arc_penalty)
        if arc is not None:
            yield arc
