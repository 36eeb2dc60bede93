"""Circle fitters driven entirely by moments up to order four.

All fits minimize the same approximate objective: the classic sum of squared
differences of squared distances, divided by 4r^2. The division removes (to
first order) the small-radius bias of the plain algebraic fit while keeping
the objective computable from precomputed moments, so every fit here costs
O(1) once the moments exist.

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

Fitters accept either a MomentAccumulator (recommended: recentering then
happens on exact sums) or already-normalized moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dirsearch
from .errors import (CollinearOrDegenerate, DegeneratePencil, NoArcExists,
                     OutOfRange)
from .moments import (MomentAccumulator, NormalizedMoments, centroid, normalized,
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
    "refine_one_point",
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
    mx, my = nm.m10, nm.m01
    mu20 = nm.m20 - mx * mx
    mu11 = nm.m11 - mx * my
    mu02 = nm.m02 - my * my
    mu30 = nm.m30 - 3.0 * nm.m20 * mx + 2.0 * mx ** 3
    mu21 = nm.m21 - nm.m20 * my - 2.0 * nm.m11 * mx + 2.0 * mx * mx * my
    mu12 = nm.m12 - nm.m02 * mx - 2.0 * nm.m11 * my + 2.0 * my * my * mx
    mu03 = nm.m03 - 3.0 * nm.m02 * my + 2.0 * my ** 3

    half = 0.5 * (mu20 + mu02)
    disc = math.hypot(0.5 * (mu20 - mu02), mu11)
    lo, hi = half - disc, half + disc
    if not (hi > 0.0) or lo <= hi / _KASA_MAX_CONDITION:
        raise CollinearOrDegenerate(
            "points are collinear or coincident; no circle start exists")

    det = mu20 * mu02 - mu11 * mu11
    rx = 0.5 * (mu30 + mu12)
    ry = 0.5 * (mu21 + mu03)
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

    s3x = nm.m30 + nm.m12
    s3y = nm.m21 + nm.m03
    v = ((nm.m40 + 2.0 * nm.m22 + nm.m04)
         - 4.0 * s3x * xe - 4.0 * s3y * ye
         + 8.0 * nm.m11 * xe * ye
         + 2.0 * nm.m20 * z_x + 2.0 * nm.m02 * z_y
         - 4.0 * (nm.m10 * xe + nm.m01 * ye) * z
         + z * z)
    v_x = 4.0 * (-s3x + (3.0 * nm.m20 + nm.m02) * xe + 2.0 * nm.m11 * ye
                 - 2.0 * nm.m01 * xe * ye - nm.m10 * z_x + xe * z)
    v_y = 4.0 * (-s3y + (nm.m20 + 3.0 * nm.m02) * ye + 2.0 * nm.m11 * xe
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
    center linearly and the squared radius by (ax^2+ay^2) t^2 + ar t.
    """

    def __init__(self, nm: NormalizedMoments):
        self.nm = nm
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
        return d_proxy(self._coeffs(x), float(x[2])).as_matrix()

    def line_ratio(self, x, direction) -> QuadRatio:
        return line_ratio(self._coeffs(x), float(x[2]), direction)

    def apply_step(self, x, direction, t):
        ax, ay, ar = direction
        re = float(x[2])
        r2 = re * re + (ax * ax + ay * ay) * t * t + ar * t
        if r2 <= 1e-12 * re * re:
            return None
        return np.array([x[0] + ax * t, x[1] + ay * t, math.sqrt(r2)])


def free_fit(m, sweeps: int = 1, pre_center: bool = True, tol: float = 0.0) -> Circle:
    """Unconstrained fit: algebraic start, then `sweeps` eigen-direction
    sweeps on the bias-corrected objective. One sweep is normally enough;
    use sweeps=20 with tol=1e-14 to converge beyond visible change."""
    nm, sx, sy, k = _shifted_frame(m, None, pre_center)
    start = kasa_fit(nm, pre_center=False)
    obj = CircleObjective(nm)
    x = dirsearch.minimize(obj, [start.cx, start.cy, start.r],
                           sweeps=sweeps, tol=tol)
    return Circle(math.ldexp(float(x[0]), k) + sx,
                  math.ldexp(float(x[1]), k) + sy,
                  math.ldexp(float(x[2]), k))


def penalty(m, c: Circle) -> float:
    """O(1) approximation of the sum of squared radial deviations from the
    circle: total weight times the objective value at the circle. Infinite
    when that sum is beyond the float range."""
    nm, _, _, k = _shifted_frame(m, (c.cx, c.cy), True)
    r = math.ldexp(c.r, -k)
    coeffs = fit_coeffs(nm, Estimate(0.0, 0.0, r))
    return _ldexp_inf(nm.w * max(coeffs.v, 0.0) / (4.0 * r * r), 2 * k)


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
    ax1 = -2.0 * (nm.m30 + nm.m12 - s2 * xa - nm.m10 * rho2 + rho2 * xa)
    ay1 = -2.0 * (nm.m21 + nm.m03 - s2 * ya - nm.m01 * rho2 + rho2 * ya)
    a11 = nm.m40 + 2.0 * nm.m22 + nm.m04 - 2.0 * s2 * rho2 + rho2 * rho2

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
    lies on the circle by construction.
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

    # No eigenvector maps to a finite center: fall back to the constrained
    # iterative refinement from a projected algebraic start.
    try:
        start = kasa_fit(m)
    except CollinearOrDegenerate as exc:
        raise DegeneratePencil(
            "no admissible pencil eigenvector and no algebraic start") from exc
    r = math.hypot(start.cx - xa, start.cy - ya)
    if r <= 0.0:
        raise DegeneratePencil("algebraic start centered on the anchor")
    return refine_one_point(m, anchor, Circle(start.cx, start.cy, r))


class AnchoredObjective:
    """One-anchor objective over center coordinates (anchor at the origin).

    The anchor constraint ties dr to (dx, dy), leaving a two-variable search
    whose radius is always the center-to-anchor distance.
    """

    def __init__(self, nm: NormalizedMoments):
        self.nm = nm

    def _parts(self, x):
        cx, cy = float(x[0]), float(x[1])
        re = math.hypot(cx, cy)
        c = fit_coeffs(self.nm, Estimate(cx, cy, re))
        nx = c.v_x + 2.0 * cx * c.v_r
        ny = c.v_y + 2.0 * cy * c.v_r
        wxx = c.v_xx + 2.0 * cx * c.v_xr + 4.0 * cx * cx
        wyy = c.v_yy + 2.0 * cy * c.v_yr + 4.0 * cy * cy
        wxy = c.v_xy + 2.0 * (cy * c.v_xr + cx * c.v_yr) + 8.0 * cx * cy
        return c.v, nx, ny, wxx, wxy, wyy, cx, cy, re

    def value(self, x) -> float:
        v, *_, re = self._parts(x)
        return max(v, 0.0) / (4.0 * re * re)

    def hessian_proxy(self, x) -> np.ndarray:
        v, nx, ny, wxx, wxy, wyy, cx, cy, re = self._parts(x)
        r2 = re * re
        r4 = r2 * r2
        r6 = r4 * r2
        dx_, dy_ = 2.0 * cx, 2.0 * cy
        fxx = 2.0 * wxx / (4.0 * r2) - (2.0 * nx * dx_ + 2.0 * v) / (4.0 * r4) \
            + v * dx_ * dx_ / (2.0 * r6)
        fyy = 2.0 * wyy / (4.0 * r2) - (2.0 * ny * dy_ + 2.0 * v) / (4.0 * r4) \
            + v * dy_ * dy_ / (2.0 * r6)
        fxy = wxy / (4.0 * r2) - (nx * dy_ + ny * dx_) / (4.0 * r4) \
            + v * dx_ * dy_ / (2.0 * r6)
        return np.array([[fxx, fxy], [fxy, fyy]])

    def line_ratio(self, x, direction) -> QuadRatio:
        v, nx, ny, wxx, wxy, wyy, cx, cy, re = self._parts(x)
        ax, ay = float(direction[0]), float(direction[1])
        a0 = max(v, 0.0)
        a1 = nx * ax + ny * ay
        a2 = wxx * ax * ax + wxy * ax * ay + wyy * ay * ay
        b = (4.0 * re * re, 8.0 * (cx * ax + cy * ay), 4.0 * (ax * ax + ay * ay))
        return QuadRatio(a=(a0, a1, a2), b=b)

    def apply_step(self, x, direction, t):
        moved = np.array([x[0] + direction[0] * t, x[1] + direction[1] * t])
        r2 = moved[0] ** 2 + moved[1] ** 2
        if r2 <= 1e-12 * (x[0] ** 2 + x[1] ** 2):
            return None
        return moved


def refine_one_point(m, anchor, start: Circle, sweeps: int = 20,
                     tol: float = 1e-14) -> Circle:
    """Iteratively improve a circle through the anchor without leaving the
    constraint. The start must already pass through the anchor."""
    xa, ya = float(anchor[0]), float(anchor[1])
    gap = abs(math.hypot(start.cx - xa, start.cy - ya) - start.r)
    if gap > 1e-9 * start.r:
        raise ValueError("start circle does not pass through the anchor")
    nm, _, _, k = _shifted_frame(m, (xa, ya), True)
    obj = AnchoredObjective(nm)
    x = dirsearch.minimize(obj, [math.ldexp(start.cx - xa, -k),
                                 math.ldexp(start.cy - ya, -k)],
                           sweeps=sweeps, tol=tol)
    gx = math.ldexp(float(x[0]), k) + xa
    gy = math.ldexp(float(x[1]), k) + ya
    return Circle(gx, gy, math.hypot(gx - xa, gy - ya))


def two_point_ratio(m, p1, p2) -> tuple[QuadRatio, ChordLine]:
    """Two-anchor objective restricted to the perpendicular bisector.

    Centers are midpoint + t*(alpha, beta). In midpoint coordinates the
    per-point residual is linear in t and the squared anchor distance is
    h^2 + t^2, so the objective is a ratio of quadratics in t. For data far
    outside the float-friendly scale the ratio is in t * 2**-line.exp
    instead; line.point_at takes care of it.
    """
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

    nm, _, _, k = _shifted_frame(m, (mx, my), True)
    hs = _ldexp_inf(h, -k)
    h2 = hs * hs
    if h2 == math.inf:
        raise OutOfRange("chord outside the float range at the data's scale")
    s4 = nm.m40 + 2.0 * nm.m22 + nm.m04
    s2 = nm.m20 + nm.m02
    a0 = s4 - 2.0 * h2 * s2 + h2 * h2
    a1 = -4.0 * (alpha * (nm.m30 + nm.m12) + beta * (nm.m21 + nm.m03)
                 - h2 * (alpha * nm.m10 + beta * nm.m01))
    a2 = 4.0 * (alpha * alpha * nm.m20 + 2.0 * alpha * beta * nm.m11
                + beta * beta * nm.m02)
    ratio = QuadRatio(a=(a0, a1, a2), b=(4.0 * h2, 0.0, 4.0))
    return ratio, ChordLine(px=mx, py=my, alpha=alpha, beta=beta,
                            half_chord=h, exp=k)


def two_point_fit(m, p1, p2) -> Circle:
    """Best circle through both anchor points, in closed form.

    Raises NoArcExists when the objective has no attained minimum along the
    bisector, i.e. the data is consistent with the straight chord.
    """
    ratio, line = two_point_ratio(m, p1, p2)
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
