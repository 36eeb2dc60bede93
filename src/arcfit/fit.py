"""Circle fitters driven entirely by the nine radial moment sums.

All fits minimize the same approximate objective: the classic sum of squared
differences of squared distances, divided by 4r^2. The division removes (to
first order) the small-radius bias of the plain algebraic fit while keeping
the objective computable from the sums of w * z z^T with
z = (x^2 + y^2, x, y, 1) (see arcfit.moments), so every fit here costs O(1)
once the moments exist.

Three entry points:

* free_fit       - unconstrained; algebraic start, then eigen-direction
                   line searches in a delta parametrization whose updated
                   radius is sqrt(re^2 + dx^2 + dy^2 + dr).
* one_point_fit  - circle constrained through one anchor point; reduces to
                   the smallest admissible root of a 3x3 matrix pencil.
* two_point_fit  - circle through two anchors; the center lives on their
                   perpendicular bisector and the objective restricted to
                   that line is already a ratio of quadratics, so the answer
                   is closed form.

kasa_fit, free_fit and one_point_fit accept either a MomentAccumulator
(recommended: recentering then happens on exact sums) or already-normalized
moments. two_point_fit and penalty take an accumulator only: they work on
its exact integer sums and round each result once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dirsearch
from .errors import (CollinearOrDegenerate, DegeneratePencil, NoArcExists,
                     OutOfRange)
from .moments import (MomentAccumulator, NormalizedMoments, _on_grid,
                      _scaled_div, _weight_int, centroid, normalized,
                      scale_exponent, translate)
from .quadratio import QuadRatio, minimize_ratio

__all__ = [
    "Circle",
    "Estimate",
    "FitCoeffs",
    "DProxy",
    "AnchoredQuadForms",
    "ChordLine",
    "CircleObjective",
    "kasa_fit",
    "fit_coeffs",
    "d_proxy",
    "line_ratio",
    "free_fit",
    "penalty",
    "one_point_matrices",
    "one_point_fit",
    "two_point_ratio",
    "two_point_fit",
]

_KASA_MAX_CONDITION = 1e12
# Centers farther than this many data scales from the anchor are treated as
# "the best circle is a line" rather than returned as absurd geometry.
_MAX_CENTER_SCALES = 1e8


@dataclass(frozen=True)
class Circle:
    cx: float
    cy: float
    r: float

    def __post_init__(self):
        object.__setattr__(self, "cx", float(self.cx))
        object.__setattr__(self, "cy", float(self.cy))
        object.__setattr__(self, "r", float(self.r))
        if not (math.isfinite(self.cx) and math.isfinite(self.cy)
                and math.isfinite(self.r) and self.r > 0.0):
            raise ValueError(f"invalid circle ({self.cx}, {self.cy}, {self.r})")

    @property
    def center(self) -> tuple[float, float]:
        return self.cx, self.cy


@dataclass(frozen=True)
class Estimate:
    """Current center/radius estimate that the delta parametrization is
    anchored to: candidate circles are (xe+dx, ye+dy) with squared radius
    re^2 + dx^2 + dy^2 + dr."""

    xe: float
    ye: float
    re: float

    def __post_init__(self):
        if not (self.re > 0.0 and math.isfinite(self.re)):
            raise ValueError(f"estimate radius must be positive, got {self.re}")

    def apply_delta(self, dx: float, dy: float, dr: float) -> "Estimate":
        r2 = self.re * self.re + dx * dx + dy * dy + dr
        if r2 <= 0.0:
            raise ValueError("delta produces a nonpositive squared radius")
        return Estimate(self.xe + dx, self.ye + dy, math.sqrt(r2))


@dataclass(frozen=True)
class FitCoeffs:
    """Numerator coefficients of the moment form of the objective at an
    estimate. The quadratic dr^2 coefficient is identically 1. v equals the
    mean squared algebraic residual, so v/(4 re^2) is the objective value."""

    v: float
    v_x: float
    v_y: float
    v_r: float
    v_xx: float
    v_yy: float
    v_xy: float
    v_xr: float
    v_yr: float
    z: float
    z_x: float
    z_y: float


@dataclass(frozen=True)
class DProxy:
    """Symmetric matrix proportional to the objective's second derivatives
    at the estimate (common factor 4 re^6)."""

    d_xx: float
    d_xy: float
    d_yy: float
    d_xr: float
    d_yr: float
    d_rr: float

    def as_matrix(self) -> np.ndarray:
        return np.array([
            [self.d_xx, self.d_xy, self.d_xr],
            [self.d_xy, self.d_yy, self.d_yr],
            [self.d_xr, self.d_yr, self.d_rr],
        ])


@dataclass(frozen=True)
class AnchoredQuadForms:
    """Quadratic forms A, B of the one-anchor objective: over homogeneous
    h = (hx, hy, s) with center (hx/s, hy/s), the objective equals
    (h'Ah) / (4 h'Bh). B is rank 2 with null vector (xa, ya, 1)."""

    a: np.ndarray
    b: np.ndarray
    anchor: tuple[float, float]


@dataclass(frozen=True)
class ChordLine:
    """Perpendicular bisector of the two anchors: candidate centers are
    (px + alpha*u, py + beta*u) with (px, py) the chord midpoint and
    u = t * 2**exp, where t is the variable of the two-anchor ratio (exp is
    0 unless the data needed an exact rescale into the float range)."""

    px: float
    py: float
    alpha: float
    beta: float
    half_chord: float
    exp: int = 0

    def point_at(self, t: float) -> tuple[float, float]:
        u = math.ldexp(t, self.exp)
        return self.px + self.alpha * u, self.py + self.beta * u


def _ldexp_inf(x: float, k: int) -> float:
    """x * 2**k, or an infinity of x's sign when that leaves the float range."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.copysign(math.inf, x)


def _as_normalized(m) -> NormalizedMoments:
    if isinstance(m, MomentAccumulator):
        return normalized(m)
    if isinstance(m, NormalizedMoments):
        return m
    raise TypeError(f"expected moments, got {type(m).__name__}")


def _shifted_frame(m, target: tuple[float, float] | None, pre_center: bool
                   ) -> tuple[NormalizedMoments, float, float, int]:
    """Normalized moments (nm, tx, ty, k) of the points mapped to
    (p - t) * 2**-k: shifted so `t` (default: the data centroid) sits at the
    origin when pre_center, and, for an accumulator only, rescaled by an
    exact power of two when the data scale would push fourth-order moments
    out of the float range (k is 0 otherwise). Exact when given an
    accumulator. Map frame lengths back with math.ldexp(value, k)."""
    if isinstance(m, MomentAccumulator):
        tx, ty = 0.0, 0.0
        if pre_center:
            tx, ty = centroid(m) if target is None else target
            m = translate(m, -tx, -ty)
        k = scale_exponent(m)
        return normalized(m, k), tx, ty, k
    nm = _as_normalized(m)
    if not pre_center:
        return nm, 0.0, 0.0, 0
    tx, ty = nm.mean if target is None else target
    return nm.translated(-tx, -ty), tx, ty, 0


def kasa_fit(m, pre_center: bool = True) -> Circle:
    """Algebraic circle fit: least squares on the squared-distance residuals,
    solved from moments alone. Biased low on short arcs; used as the starting
    point for free_fit."""
    nm, sx, sy, k = _shifted_frame(m, None, pre_center)
    mx, my = nm.mean
    mu = nm.translated(-mx, -my)
    mu20, mu11, mu02 = mu.m20, mu.m11, mu.m02

    half = 0.5 * (mu20 + mu02)
    disc = math.hypot(0.5 * (mu20 - mu02), mu11)
    lo, hi = half - disc, half + disc
    if not (hi > 0.0) or lo <= hi / _KASA_MAX_CONDITION:
        raise CollinearOrDegenerate(
            "points are collinear or coincident; no circle start exists")

    det = mu20 * mu02 - mu11 * mu11
    rx = 0.5 * mu.zx
    ry = 0.5 * mu.zy
    uc = (rx * mu02 - ry * mu11) / det
    vc = (ry * mu20 - rx * mu11) / det
    r = math.sqrt(uc * uc + vc * vc + mu20 + mu02)
    return Circle(math.ldexp(mx + uc, k) + sx, math.ldexp(my + vc, k) + sy,
                  math.ldexp(r, k))


def fit_coeffs(nm: NormalizedMoments, e: Estimate) -> FitCoeffs:
    """Numerator coefficients of the objective around the estimate.

    The delta parametrization keeps each per-point residual linear in
    (dx, dy, dr), so its mean square is this quadratic.
    """
    xe, ye, re = e.xe, e.ye, e.re
    z = xe * xe + ye * ye - re * re
    z_x = z + 2.0 * xe * xe
    z_y = z + 2.0 * ye * ye

    v = (nm.zz - 4.0 * nm.zx * xe - 4.0 * nm.zy * ye
         + 8.0 * nm.m11 * xe * ye
         + 2.0 * nm.m20 * z_x + 2.0 * nm.m02 * z_y
         - 4.0 * (nm.m10 * xe + nm.m01 * ye) * z
         + z * z)
    v_x = 4.0 * (-nm.zx + (3.0 * nm.m20 + nm.m02) * xe + 2.0 * nm.m11 * ye
                 - 2.0 * nm.m01 * xe * ye - nm.m10 * z_x + xe * z)
    v_y = 4.0 * (-nm.zy + (nm.m20 + 3.0 * nm.m02) * ye + 2.0 * nm.m11 * xe
                 - 2.0 * nm.m10 * xe * ye - nm.m01 * z_y + ye * z)
    v_r = -2.0 * (nm.m20 + nm.m02 - 2.0 * (nm.m10 * xe + nm.m01 * ye) + z)
    v_xx = 4.0 * (nm.m20 - 2.0 * nm.m10 * xe + xe * xe)
    v_yy = 4.0 * (nm.m02 - 2.0 * nm.m01 * ye + ye * ye)
    v_xy = 8.0 * (nm.m11 - nm.m01 * xe - nm.m10 * ye + xe * ye)
    v_xr = 4.0 * (nm.m10 - xe)
    v_yr = 4.0 * (nm.m01 - ye)
    return FitCoeffs(v, v_x, v_y, v_r, v_xx, v_yy, v_xy, v_xr, v_yr, z, z_x, z_y)


def d_proxy(c: FitCoeffs, re: float) -> DProxy:
    """Second-derivative proxy matrix at the estimate (factor 4 re^6)."""
    if not re > 0.0:
        raise ValueError("estimate radius must be positive")
    r2 = re * re
    return DProxy(
        d_xx=-2.0 * (c.v - c.v_xx * r2) * r2,
        d_xy=c.v_xy * r2 * r2,
        d_yy=-2.0 * (c.v - c.v_yy * r2) * r2,
        d_xr=(-c.v_x + c.v_xr * r2) * r2,
        d_yr=(-c.v_y + c.v_yr * r2) * r2,
        d_rr=2.0 * (c.v - c.v_r * r2 + r2 * r2),
    )


def line_ratio(c: FitCoeffs, re: float, direction) -> QuadRatio:
    """Objective restricted to t -> estimate + t*(ax, ay, ar), as a ratio of
    quadratics in t."""
    ax, ay, ar = (float(d) for d in direction)
    if ax == 0.0 and ay == 0.0 and ar == 0.0:
        raise ValueError("direction must be nonzero")
    a0 = max(c.v, 0.0)
    a1 = c.v_x * ax + c.v_y * ay + c.v_r * ar
    a2 = (c.v_xx * ax * ax + c.v_yy * ay * ay + ar * ar
          + c.v_xy * ax * ay + c.v_xr * ax * ar + c.v_yr * ay * ar)
    r2 = re * re
    return QuadRatio(a=(a0, a1, a2), b=(4.0 * r2, 4.0 * ar, 4.0 * (ax * ax + ay * ay)))


class CircleObjective:
    """Adapter exposing the moment objective to the direction search.

    State is (cx, cy, r); a step of size t along (ax, ay, ar) moves the
    center linearly and the squared radius by (ax^2+ay^2) t^2 + s ar t, with
    s the objective's length unit. Measuring dr (a squared length) in units
    of s makes every direction component a length, so the proxy's
    eigen-directions scale with the data instead of turning. The unit
    defaults to the data's centred RMS spread (1.0 for coincident points).
    """

    def __init__(self, nm: NormalizedMoments, unit: float | None = None):
        self.nm = nm
        if unit is None:
            var = nm.m20 + nm.m02 - nm.m10 * nm.m10 - nm.m01 * nm.m01
            unit = math.sqrt(var) if var > 0.0 else 1.0
        self._scale = np.array([1.0, 1.0, unit])
        self._cache_key = None
        self._cache_val = None

    def _coeffs(self, x) -> FitCoeffs:
        key = (float(x[0]), float(x[1]), float(x[2]))
        if key != self._cache_key:
            self._cache_val = fit_coeffs(self.nm, Estimate(*key))
            self._cache_key = key
        return self._cache_val

    def value(self, x) -> float:
        c = self._coeffs(x)
        return max(c.v, 0.0) / (4.0 * float(x[2]) ** 2)

    def hessian_proxy(self, x) -> np.ndarray:
        """D H D with D = diag(1, 1, unit): the proxy in (dx, dy, dr/unit)."""
        h = d_proxy(self._coeffs(x), float(x[2])).as_matrix()
        return h * np.outer(self._scale, self._scale)

    def line_ratio(self, x, direction) -> QuadRatio:
        return line_ratio(self._coeffs(x), float(x[2]),
                          self._scale * np.asarray(direction, dtype=float))

    def apply_step(self, x, direction, t):
        ax, ay, ar = self._scale * np.asarray(direction, dtype=float)
        re = float(x[2])
        r2 = re * re + (ax * ax + ay * ay) * t * t + ar * t
        if r2 <= 1e-12 * re * re:
            return None
        return np.array([x[0] + ax * t, x[1] + ay * t, math.sqrt(r2)])


def free_fit(m, sweeps: int = 1, pre_center: bool = True, tol: float = 0.0) -> Circle:
    """Unconstrained fit: algebraic start, then `sweeps` eigen-direction
    sweeps on the bias-corrected objective. One sweep is normally enough;
    use sweeps=20 with tol=1e-14 to converge beyond visible change.

    The first sweep measures dr in the data's own unit, so the one-sweep fit
    of scaled data is the scaled fit, to rounding. Later sweeps use unit 1:
    in the flat valley around the minimum the spread-scaled proxy is too
    ill-conditioned to make progress. They converge to the minimum, which
    is itself unit-free, but only as closely as the objective's flatness
    there pins it down, so converged fits of scaled data agree to about
    1e-8 relative, not to rounding."""
    nm, sx, sy, k = _shifted_frame(m, None, pre_center)
    start = kasa_fit(nm, pre_center=False)
    x, state = dirsearch.minimize(CircleObjective(nm),
                                  [start.cx, start.cy, start.r], sweeps=1,
                                  tol=tol, return_state=True)
    if sweeps > 1 and not state.converged:
        x = dirsearch.minimize(CircleObjective(nm, unit=1.0), x,
                               sweeps=sweeps - 1, tol=tol)
    return Circle(math.ldexp(float(x[0]), k) + sx,
                  math.ldexp(float(x[1]), k) + sy,
                  math.ldexp(float(x[2]), k))


def penalty(acc: MomentAccumulator, c: Circle) -> float:
    """O(1) approximation of the sum of squared radial deviations from the
    circle: sum w * (|p - c|^2 - r^2)^2 / (4 r^2) over the accumulated
    points, computed exactly from the accumulator's integer sums with the
    circle's coordinates taken as the exact floats they are, and rounded
    once. Infinite when that sum is beyond the float range.

    With the center and radius on one grid, (cx, cy, r) = (x, y, r) * 2**e,
    and K = x^2 + y^2 - r^2, the sum expands into the power sums (z stands
    for x^2 + y^2) as
    S[z^2] - 4(x S[zx] + y S[zy]) + 2K S[z] + 4(x^2 S20 + 2xy S11 + y^2 S02)
    - 4K (x S10 + y S01) + K^2 S00, evaluated in integers."""
    _weight_int(acc)
    (x, y, r), e = _on_grid(c.cx, c.cy, c.r)
    sh = -e
    n = acc.sums
    k = x * x + y * y - r * r
    t = (n[8] << sh) - 4 * (x * n[6] + y * n[7])
    t = (t << sh) + 2 * k * (n[3] + n[5]) + 4 * (
        x * x * n[3] + 2 * x * y * n[4] + y * y * n[5])
    t = (t << sh) - 4 * k * (x * n[1] + y * n[2])
    t = (t << sh) + k * k * n[0]
    # sums carry 2**exp, the grid 2**(4e), and 4 r^2 is 4 * r^2 * 2**(2e)
    return _scaled_div(t, r * r, acc.exp + 2 * e - 2)


def one_point_matrices(m, anchor) -> AnchoredQuadForms:
    """Quadratic forms of the one-anchor objective in homogeneous center
    coordinates, built from moments and the anchor."""
    nm = _as_normalized(m)
    xa, ya = float(anchor[0]), float(anchor[1])
    rho2 = xa * xa + ya * ya
    s2 = nm.m20 + nm.m02

    axx = 4.0 * (nm.m20 - 2.0 * nm.m10 * xa + xa * xa)
    ayy = 4.0 * (nm.m02 - 2.0 * nm.m01 * ya + ya * ya)
    axy = 4.0 * (nm.m11 - nm.m10 * ya - nm.m01 * xa + xa * ya)
    ax1 = -2.0 * (nm.zx - s2 * xa - nm.m10 * rho2 + rho2 * xa)
    ay1 = -2.0 * (nm.zy - s2 * ya - nm.m01 * rho2 + rho2 * ya)
    a11 = nm.zz - 2.0 * s2 * rho2 + rho2 * rho2

    a = np.array([[axx, axy, ax1], [axy, ayy, ay1], [ax1, ay1, a11]])
    b = np.array([[1.0, 0.0, -xa], [0.0, 1.0, -ya], [-xa, -ya, rho2]])
    return AnchoredQuadForms(a=a, b=b, anchor=(xa, ya))


def one_point_fit(m, anchor) -> Circle:
    """Best circle through one anchor point.

    In a frame with the anchor at the origin the denominator form becomes
    diag(1, 1, 0), and the pencil roots are the eigenvalues of the 2x2 Schur
    complement of A's homogeneous block. The smallest eigenvalue whose
    eigenvector yields a finite center is the global minimum; the returned
    radius is the distance from that center to the anchor, so the anchor
    lies on the circle by construction. Raises DegeneratePencil when no
    eigenvector gives a center within _MAX_CENTER_SCALES data scales.
    """
    xa, ya = float(anchor[0]), float(anchor[1])
    nm, _, _, k = _shifted_frame(m, (xa, ya), True)
    forms = one_point_matrices(nm, (0.0, 0.0))
    a = forms.a
    a11 = a[2, 2]
    spread2 = nm.m20 + nm.m02
    if not (a11 > 0.0) or not (spread2 > 0.0):
        raise DegeneratePencil("all data coincides with the anchor")

    sxx = a[0, 0] - a[0, 2] * a[0, 2] / a11
    sxy = a[0, 1] - a[0, 2] * a[1, 2] / a11
    syy = a[1, 1] - a[1, 2] * a[1, 2] / a11
    min_s = 1.0 / (_MAX_CENTER_SCALES * math.sqrt(spread2))

    _, vecs = dirsearch.eigen_sym([[sxx, sxy], [sxy, syy]])
    for hx, hy in vecs.T.tolist():
        s = -(a[0, 2] * hx + a[1, 2] * hy) / a11
        if abs(s) <= min_s:
            continue
        gx = math.ldexp(hx / s, k) + xa
        gy = math.ldexp(hy / s, k) + ya
        # radius from the stored center so the anchor residual rechecks to 0
        return Circle(gx, gy, math.hypot(gx - xa, gy - ya))

    raise DegeneratePencil(
        "no pencil eigenvector gives a center within "
        f"{_MAX_CENTER_SCALES:g} data scales of the anchor")


def two_point_ratio(acc: MomentAccumulator, p1, p2
                    ) -> tuple[QuadRatio, ChordLine]:
    """Two-anchor objective restricted to the perpendicular bisector.

    Centers are midpoint + t*(alpha, beta). In midpoint coordinates the
    per-point residual is linear in t and the squared anchor distance is
    h^2 + t^2, so the objective is a ratio of quadratics in t. For data far
    outside the float-friendly scale the ratio is in t * 2**-line.exp
    instead; line.point_at takes care of it. Each numerator coefficient is
    computed exactly from the accumulator and rounded once.
    """
    _weight_int(acc)
    x1, y1 = float(p1[0]), float(p1[1])
    x2, y2 = float(p2[0]), float(p2[1])
    # Halve before adding, so that neither the chord nor the midpoint overflows.
    hx, hy = 0.5 * x2 - 0.5 * x1, 0.5 * y2 - 0.5 * y1
    h = math.hypot(hx, hy)
    if h == 0.0:
        raise ValueError("anchor points coincide")
    alpha = -hy / h
    beta = hx / h
    mx, my = 0.5 * x1 + 0.5 * x2, 0.5 * y1 + 0.5 * y2

    about_mid = translate(acc, -mx, -my)
    k = scale_exponent(about_mid)
    hs = _ldexp_inf(h, -k)
    h2 = hs * hs
    if h2 == math.inf:
        raise OutOfRange("chord outside the float range at the data's scale")
    a0, a1, a2 = _exact_chord_coeffs(about_mid, h, alpha, beta, k)
    if not (math.isfinite(a0) and math.isfinite(a1) and math.isfinite(a2)):
        raise OutOfRange("ratio outside the float range at the data's scale")
    ratio = QuadRatio(a=(a0, a1, a2), b=(4.0 * h2, 0.0, 4.0))
    return ratio, ChordLine(px=mx, py=my, alpha=alpha, beta=beta,
                            half_chord=h, exp=k)


def _exact_chord_coeffs(acc: MomentAccumulator, h: float, alpha: float,
                       beta: float, k: int) -> tuple[float, float, float]:
    """Numerator coefficients of the two-anchor ratio from an accumulator
    whose origin is the chord midpoint, each rounded once.

    The numerator is the mean of (|q|^2 - h^2 - 2t (alpha, beta).q)^2 over
    the points q, in the frame scaled by 2**-k:
    a0 = mean (|q|^2 - h^2)^2, a1 = -4 mean (|q|^2 - h^2)(alpha, beta).q and
    a2 = 4 mean ((alpha, beta).q)^2, with h, alpha and beta taken as the
    exact floats they are. Exactly, a0 >= 0, a2 >= 0 and a1^2 <= 4 a0 a2."""
    n = acc.sums
    w = n[0]
    (hi,), eh = _on_grid(h)
    (a, b), ea = _on_grid(alpha, beta)
    sh = -eh
    h2 = hi * hi
    t0 = (((n[8] << 2 * sh) - 2 * h2 * (n[3] + n[5])) << 2 * sh) + h2 * h2 * w
    t1 = ((a * n[6] + b * n[7]) << 2 * sh) - h2 * (a * n[1] + b * n[2])
    t2 = a * a * n[3] + 2 * a * b * n[4] + b * b * n[5]
    return (_scaled_div(t0, w, -4 * sh - 4 * k),
            _scaled_div(-t1, w, ea - 2 * sh - 3 * k + 2),
            _scaled_div(t2, w, 2 * ea - 2 * k + 2))


def two_point_fit(acc: MomentAccumulator, p1, p2) -> Circle:
    """Best circle through both anchor points, in closed form.

    Raises NoArcExists when the objective has no attained minimum along the
    bisector, i.e. the data is consistent with the straight chord.
    """
    ratio, line = two_point_ratio(acc, p1, p2)
    best = minimize_ratio(ratio)
    if best is None:
        raise NoArcExists("no finite arc improves on the chord")
    spread = 0.5 * math.sqrt(max(ratio.a[2], 0.0))
    half_chord = math.ldexp(line.half_chord, -line.exp)
    if abs(best.x) > _MAX_CENTER_SCALES * max(half_chord, spread):
        raise NoArcExists("minimizing center is numerically at infinity")
    cx, cy = line.point_at(best.x)
    r = math.hypot(cx - float(p1[0]), cy - float(p1[1]))
    return Circle(cx, cy, r)
