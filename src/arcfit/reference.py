"""Exact reference computations the moment paths are checked against.

Everything here works directly on the input points (no moments): the true
algebraic and geometric objectives, an iterative geometric fitter, and the
point-to-arc deviation / ordering checks that the compressor uses to accept
an arc candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, OutOfRange
from .fit import Circle

__all__ = [
    "Arc",
    "DeviationReport",
    "exact_objective_sq",
    "exact_sse",
    "geometric_fit",
    "arc_deviation",
    "check_tolerance_zigzag",
]

_TWO_PI = 2.0 * math.pi
# Largest relative gap between an arc's endpoint and its circle.
_ENDPOINT_RTOL = 1e-9


@dataclass(frozen=True)
class Arc:
    """Directed circular arc between two endpoint anchors.

    a0/a1 are the endpoint angles; the arc runs from a0 to a1 going
    counterclockwise when ccw is True, clockwise otherwise.
    """

    circle: Circle
    a0: float
    a1: float
    ccw: bool
    p0: tuple[float, float]
    p1: tuple[float, float]

    @classmethod
    def from_endpoints(cls, circle: Circle, p0, p1, ccw: bool) -> "Arc":
        p0 = (float(p0[0]), float(p0[1]))
        p1 = (float(p1[0]), float(p1[1]))
        for p in (p0, p1):
            gap = abs(math.hypot(p[0] - circle.cx, p[1] - circle.cy) - circle.r)
            if gap > _ENDPOINT_RTOL * circle.r:
                raise ValueError(f"endpoint {p} is not on the circle")
        # np.arctan2 throughout: position() must reproduce these angles bit
        # for bit so the endpoints land at parameters 0 and span exactly
        a0 = float(np.arctan2(p0[1] - circle.cy, p0[0] - circle.cx))
        a1 = float(np.arctan2(p1[1] - circle.cy, p1[0] - circle.cx))
        arc = cls(circle=circle, a0=a0, a1=a1, ccw=ccw, p0=p0, p1=p1)
        if not 0.0 < arc.span < _TWO_PI:
            raise ValueError("degenerate angular span")
        return arc

    @property
    def span(self) -> float:
        if self.ccw:
            return (self.a1 - self.a0) % _TWO_PI
        return (self.a0 - self.a1) % _TWO_PI

    def position(self, p) -> float:
        """Angular parameter of p along the arc's orientation, in [0, 2*pi);
        values <= span lie within the arc's sector."""
        theta = float(np.arctan2(p[1] - self.circle.cy, p[0] - self.circle.cx))
        if self.ccw:
            return (theta - self.a0) % _TWO_PI
        return (self.a0 - theta) % _TWO_PI

    def positions(self, pts: np.ndarray) -> np.ndarray:
        theta = np.arctan2(pts[:, 1] - self.circle.cy, pts[:, 0] - self.circle.cx)
        if self.ccw:
            return (theta - self.a0) % _TWO_PI
        return (self.a0 - theta) % _TWO_PI


@dataclass(frozen=True)
class DeviationReport:
    max_dev: float
    sum_sq: float
    monotone: bool
    ok: bool


def _pts(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
        raise ValueError("expected an (n, 2) array of points")
    return pts


def exact_objective_sq(points, c: Circle) -> float:
    """Sum over points of ((distance^2 to center) - r^2)^2."""
    pts = _pts(points)
    d2 = (pts[:, 0] - c.cx) ** 2 + (pts[:, 1] - c.cy) ** 2
    return float(np.sum((d2 - c.r * c.r) ** 2))


def exact_sse(points, c: Circle) -> float:
    """Sum of squared radial deviations: the true geometric misfit."""
    pts = _pts(points)
    d = np.hypot(pts[:, 0] - c.cx, pts[:, 1] - c.cy)
    return float(np.sum((d - c.r) ** 2))


def geometric_fit(points, start: Circle, max_iter: int = 200,
                  tol: float = 1e-12) -> Circle:
    """Local minimizer of the radial deviations e_i = |p_i - c| - r.

    Each iteration builds, from dot products of u = dx/d, v = dy/d and e
    over the points, the Gauss-Newton (GN) normal matrix J^T J and the full
    Hessian of SSE/2, which adds sum(w v^2), sum(w u^2) and -sum(w u v)
    (w = e/d) to the centre block. The Newton step is taken when a Cholesky
    factorization of that Hessian succeeds; it converges quadratically
    where GN, on this large-residual problem, converges only linearly.
    Otherwise, or when no halving of the Newton step lowers the SSE, the GN
    step is taken. A step is accepted at the first halving that does not
    raise the SSE, so the residual never increases.

    The fit ends with the first step whose predicted decrease of the SSE is
    at or below 4 log2(n) 2**-53 SSE, the rounding floor of the float sum:
    that step is taken whole when its SSE is within the floor of the
    current one. It also ends when the relative parameter change drops
    below tol or when no step lowers the SSE. Raises OutOfRange when an
    iterate leaves the float range and NonConvergence after max_iter
    iterations.
    """
    pts = _pts(points)
    n = pts.shape[0]
    if n < 3:
        raise ValueError("geometric fit needs at least 3 points")
    x = np.ascontiguousarray(pts[:, 0])
    y = np.ascontiguousarray(pts[:, 1])
    floor = 4.0 * math.log2(n) * 2.0 ** -53

    def residuals(q):
        dx = x - q[0]
        dy = y - q[1]
        d = np.hypot(dx, dy)
        e = d - q[2]
        return float(e @ e), dx, dy, d, e

    p = np.array([start.cx, start.cy, start.r])
    # Far out in the float range the squares overflow; such an iterate is
    # refused below, and numpy need not warn about it on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        current, dx, dy, d, e = residuals(p)
        if not math.isfinite(current):
            # Every step would compare inf <= inf and pass. Fit the points
            # and start scaled by a power of two instead (exact unless a
            # coordinate underflows) and scale the result back.
            big = max(float(np.max(np.abs(pts))), abs(start.cx),
                      abs(start.cy), start.r)
            k = math.frexp(big)[1] if math.isfinite(big) else 0
            if k:
                c = geometric_fit(np.ldexp(pts, -k), Circle(
                    math.ldexp(start.cx, -k), math.ldexp(start.cy, -k),
                    math.ldexp(start.r, -k)), max_iter, tol)
                try:
                    return Circle(math.ldexp(c.cx, k), math.ldexp(c.cy, k),
                                  math.ldexp(c.r, k))
                except OverflowError:
                    raise OutOfRange(
                        "geometric fit left the float range") from None
        # Rows u, v, 1, e, w u, w v: the products of the first four with
        # all six are every sum the steps need.
        rows = np.empty((6, n))
        rows[2] = 1.0
        for _ in range(max_iter):
            d = np.maximum(d, 1e-300)
            u = np.divide(dx, d, out=rows[0])
            v = np.divide(dy, d, out=rows[1])
            rows[3] = e
            w = e / d
            np.multiply(w, u, out=rows[4])
            np.multiply(w, v, out=rows[5])
            gram = rows[:4] @ rows.T
            jtj = gram[:3, :3]
            jte = gram[:3, 3]  # minus the gradient of SSE/2
            hess = jtj.copy()
            hess[0, 0] += gram[1, 5]
            hess[1, 1] += gram[0, 4]
            hess[0, 1] -= gram[1, 4]
            hess[1, 0] = hess[0, 1]
            for step in _steps(hess, jtj, jte):
                predicted = jte @ step
                if not predicted > 0.0:
                    continue  # rounding in a near-singular solve
                # A step whose predicted decrease is at the rounding floor is
                # the last. Float SSEs that close cannot be ordered, so it is
                # tried once, unhalved, and taken when its SSE is within the
                # floor of the current one.
                last = predicted <= floor * current
                bound = current * (1.0 + floor) if last else current
                lam = 1.0
                while lam >= (1.0 if last else 2.0 ** -40):
                    trial = p + lam * step
                    if trial[2] > 0.0:
                        res = residuals(trial)
                        if res[0] <= bound:
                            break
                    lam *= 0.5
                else:
                    if last:
                        return Circle(p[0], p[1], p[2])
                    continue
                break
            else:
                return Circle(p[0], p[1], p[2])
            if not np.all(np.isfinite(trial)):
                raise OutOfRange("geometric fit left the float range")
            moved = lam * float(np.linalg.norm(step))
            p = trial
            current, dx, dy, d, e = res
            if last or moved <= tol * (1.0 + float(np.linalg.norm(p))):
                return Circle(p[0], p[1], p[2])
    raise NonConvergence(f"geometric fit did not settle in {max_iter} iterations")


def _steps(hess: np.ndarray, jtj: np.ndarray, jte: np.ndarray):
    """Candidate steps in order: Newton when the Hessian is positive
    definite, then Gauss-Newton."""
    try:
        np.linalg.cholesky(hess)
        newton = np.linalg.solve(hess, jte)
    except np.linalg.LinAlgError:
        pass
    else:
        yield newton
    try:
        yield np.linalg.solve(jtj, jte)
    except np.linalg.LinAlgError:
        yield np.linalg.lstsq(jtj, jte, rcond=None)[0]


def arc_deviation(p, arc: Arc) -> float:
    """Distance from p to the arc: radial gap when p projects inside the
    arc's angular sector, distance to the nearer endpoint otherwise."""
    u = arc.position(p)
    if u <= arc.span:
        return abs(math.hypot(p[0] - arc.circle.cx, p[1] - arc.circle.cy)
                   - arc.circle.r)
    return min(math.hypot(p[0] - arc.p0[0], p[1] - arc.p0[1]),
               math.hypot(p[0] - arc.p1[0], p[1] - arc.p1[1]))


def check_tolerance_zigzag(points, arc: Arc, tol: float) -> DeviationReport:
    """Validate an arc candidate against the polyline window it would replace.

    points run from the arc's first anchor to its second; interior deviations
    are measured with arc_deviation and the angular parameters of the whole
    sequence must be strictly increasing along the arc's orientation (the
    zigzag rejection). Passes when max_dev <= tol (inclusive) and monotone.
    """
    pts = _pts(points)
    u = arc.positions(pts)
    monotone = bool(np.all(np.diff(u) > 0.0))

    interior = pts[1:-1]
    if interior.shape[0] == 0:
        max_dev = 0.0
        sum_sq = 0.0
    else:
        ui = u[1:-1]
        rad = np.hypot(interior[:, 0] - arc.circle.cx,
                       interior[:, 1] - arc.circle.cy)
        dev_in = np.abs(rad - arc.circle.r)
        d0 = np.hypot(interior[:, 0] - arc.p0[0], interior[:, 1] - arc.p0[1])
        d1 = np.hypot(interior[:, 0] - arc.p1[0], interior[:, 1] - arc.p1[1])
        dev_out = np.minimum(d0, d1)
        dev = np.where(ui <= arc.span, dev_in, dev_out)
        max_dev = float(np.max(dev))
        sum_sq = float(np.sum(dev * dev))
    ok = monotone and max_dev <= tol
    return DeviationReport(max_dev=max_dev, sum_sq=sum_sq, monotone=monotone, ok=ok)
