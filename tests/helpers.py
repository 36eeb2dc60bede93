"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the moment paths it checks:
per-point objective evaluations, dense scans with local refinement, brute
force chain enumeration, and synthetic geometry generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import arcfit as af
from arcfit.quadratio import QuadRatio, ratio_value

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# per-point objective evaluations (the "true" formulas, no moments)
# ---------------------------------------------------------------------------

def pp_free(pts, xe, ye, re, dx=0.0, dy=0.0, dr=0.0):
    """Mean squared algebraic residual over 4r^2 in the delta parametrization."""
    pts = np.asarray(pts, float)
    r2 = re * re + dx * dx + dy * dy + dr
    resid = ((pts[:, 0] - xe - dx) ** 2 + (pts[:, 1] - ye - dy) ** 2 - r2)
    return float(np.mean(resid ** 2)) / (4.0 * r2)


def pp_anchored(pts, anchor, cx, cy):
    pts = np.asarray(pts, float)
    r2 = (cx - anchor[0]) ** 2 + (cy - anchor[1]) ** 2
    resid = (pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2 - r2
    return float(np.mean(resid ** 2)) / (4.0 * r2)


def pp_two_point(pts, line, p1, t):
    cx, cy = line.point_at(t)
    return pp_anchored(pts, p1, cx, cy)


def pp_two_point_deriv_num(pts, line, p1, t):
    """Numerator of d/dt of the per-point two-anchor objective: N'D - ND'.

    Vanishes exactly at stationary points, so bisecting its sign change
    locates the minimum far more precisely than comparing flat values.
    """
    pts = np.asarray(pts, float)
    cx, cy = line.point_at(t)
    ax, ay = line.alpha, line.beta
    ex, ey = cx - p1[0], cy - p1[1]
    den = ex * ex + ey * ey
    dden = 2.0 * (ax * ex + ay * ey)
    resid = (pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2 - den
    dresid = -2.0 * (ax * (pts[:, 0] - p1[0]) + ay * (pts[:, 1] - p1[1]))
    num = float(np.sum(resid ** 2))
    dnum = float(np.sum(2.0 * resid * dresid))
    return dnum * den - num * dden


def two_point_grid_oracle(pts, line, p1, lo, hi, n=8192):
    """Dense scan of the per-point two-anchor objective with the bracket
    refined by derivative bisection. Returns the minimizing t."""
    pts = np.asarray(pts, float)
    ts = np.linspace(lo, hi, n)
    cx = line.px + line.alpha * ts[:, None]
    cy = line.py + line.beta * ts[:, None]
    den = (cx - p1[0]) ** 2 + (cy - p1[1]) ** 2
    resid = ((pts[None, :, 0] - cx) ** 2 + (pts[None, :, 1] - cy) ** 2 - den)
    vals = np.sum(resid ** 2, axis=1) / (4.0 * den[:, 0] * len(pts))
    k = int(np.argmin(vals))
    a = ts[max(k - 1, 0)]
    b = ts[min(k + 1, n - 1)]
    ga = pp_two_point_deriv_num(pts, line, p1, a)
    gb = pp_two_point_deriv_num(pts, line, p1, b)
    if not (ga < 0.0 < gb):
        x, _ = _golden_refine(lambda t: pp_two_point(pts, line, p1, t), a, b)
        return x
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        g = pp_two_point_deriv_num(pts, line, p1, mid)
        if g < 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# dense-scan oracle for ratio minima
# ---------------------------------------------------------------------------

def _golden_refine(fun, lo, hi, iters=220):
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fun(d)
        if b - a <= 1e-14 * (1.0 + abs(a) + abs(b)):
            break
    x = 0.5 * (a + b)
    return x, fun(x)


def _scan_grid(q: QuadRatio, lo, hi, n):
    xs = [np.linspace(lo, hi, n)]
    b0, b1, b2 = q.b
    # cluster extra samples near denominator roots, where the function blows up
    roots = []
    if b2 != 0.0:
        disc = b1 * b1 - 4.0 * b0 * b2
        if disc >= 0.0:
            s = math.sqrt(disc)
            roots += [(-b1 - s) / (2 * b2), (-b1 + s) / (2 * b2)]
    elif b1 != 0.0:
        roots.append(-b0 / b1)
    for r in roots:
        if lo < r < hi:
            span = np.geomspace(1e-9, max(abs(r), 1.0), 60)
            xs.append(r + span)
            xs.append(r - span)
    grid = np.unique(np.concatenate(xs))
    return grid[(grid >= lo) & (grid <= hi)]


@dataclass
class ScanResult:
    found: bool
    x: float = math.nan
    value: float = math.inf
    sampled_min: float = math.inf
    unattained: float = math.inf
    stationary: bool = False

    def consistent_with_no_minimum(self) -> bool:
        """True when the scan shows no interior minimum meaningfully better
        than the unattained boundary/limit infimum."""
        if not self.found:
            return True
        return self.value >= self.unattained - 1e-9 * (1.0 + abs(self.value))


def _ratio_deriv_num(q: QuadRatio, x: float) -> float:
    """Product-rule derivative numerator N'D - ND' from sampled evaluations
    (no use of the closed form's coefficient algebra or case split)."""
    a0, a1, a2 = q.a
    b0, b1, b2 = q.b
    num = a0 + x * (a1 + x * a2)
    den = b0 + x * (b1 + x * b2)
    return (a1 + 2.0 * a2 * x) * den - num * (b1 + 2.0 * b2 * x)


def _refine_bracket(q: QuadRatio, lo: float, hi: float):
    """Pin a bracketed local minimum. Bisection on the derivative sign
    resolves flat minima far below value noise and marks the candidate as a
    genuine stationary minimum; otherwise golden-section on values."""
    glo, ghi = _ratio_deriv_num(q, lo), _ratio_deriv_num(q, hi)
    if glo < 0.0 < ghi:
        a, b = lo, hi
        for _ in range(200):
            mid = 0.5 * (a + b)
            if mid == a or mid == b:
                break
            if _ratio_deriv_num(q, mid) < 0.0:
                a = mid
            else:
                b = mid
        x = 0.5 * (a + b)
        return x, ratio_value(q, x), True
    fun = lambda x: ratio_value(q, x) if q.denominator(x) > 0 else math.inf
    x, v = _golden_refine(fun, lo, hi)
    return x, v, False


def scan_ratio_minimum(q: QuadRatio, lo=-1e6, hi=1e6, n=20000) -> ScanResult:
    """Grid scan over Q with golden-section refinement of the best bracket.

    found=True means a strict interior minimum exists: some sampled point
    beats both its neighbours and the values seen near the domain boundary
    and window edges.
    """
    grid = _scan_grid(q, lo, hi, n)
    den = q.denominator(grid)
    num = q.numerator(grid)
    vals = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), np.inf)
    finite = np.isfinite(vals)
    if not finite.any():
        return ScanResult(found=False)

    # local minima in index space, treating out-of-domain samples as +inf
    padded = np.concatenate(([np.inf], vals, [np.inf]))
    is_min = (padded[1:-1] <= padded[:-2]) & (padded[1:-1] <= padded[2:]) & finite

    # values representing the unattained alternatives: samples adjacent to the
    # domain boundary or at the window edges, plus the limit at infinity
    edge_vals = []
    inf_mask = ~finite
    near_edge = np.zeros_like(finite)
    near_edge[0] = near_edge[-1] = True
    near_edge[1:] |= inf_mask[:-1]
    near_edge[:-1] |= inf_mask[1:]
    edge_vals.extend(vals[near_edge & finite].tolist())
    if q.b[2] > 0.0:
        # x -> +-inf lies in the closure of Q only when b2 > 0
        edge_vals.append(q.a[2] / q.b[2])
    unattained = min(edge_vals) if edge_vals else math.inf

    sampled_min = float(np.min(vals[finite]))
    candidates = np.flatnonzero(is_min)
    best = None
    for k in candidates:
        klo = grid[k - 1] if k > 0 else grid[k]
        khi = grid[k + 1] if k + 1 < len(grid) else grid[k]
        x, v, stationary = _refine_bracket(q, float(klo), float(khi))
        # a derivative sign crossing is a sharper witness than a value dip,
        # so stationary candidates outrank golden-only ones
        key = (not stationary, v)
        if best is None or key < best[0]:
            best = (key, x, v, stationary)
    if best is None:
        return ScanResult(found=False, sampled_min=sampled_min,
                          unattained=unattained)
    _, x, v, stationary = best
    return ScanResult(found=True, x=x, value=v,
                      sampled_min=min(sampled_min, v),
                      unattained=unattained, stationary=stationary)


def random_admissible_ratio(rng) -> QuadRatio:
    if rng.uniform() < 0.15:
        a = (rng.uniform(0.0, 5.0), 0.0, 0.0)
    else:
        a0 = rng.uniform(0.0, 5.0)
        a2 = rng.uniform(0.01, 5.0)
        a1 = rng.uniform(-1.0, 1.0) * 2.0 * math.sqrt(a0 * a2)
        a = (a0, a1, a2)
    while True:
        b = tuple(rng.uniform(-5.0, 5.0, 3))
        if any(b):
            return QuadRatio(a=a, b=b)


def scan_function_minimum(fun, lo, hi, n=4096):
    """Coarse grid plus golden refinement for a smooth scalar function."""
    xs = np.linspace(lo, hi, n)
    vals = np.array([fun(x) for x in xs])
    k = int(np.argmin(vals))
    klo = xs[max(k - 1, 0)]
    khi = xs[min(k + 1, n - 1)]
    return _golden_refine(fun, klo, khi)


# ---------------------------------------------------------------------------
# geometry generators
# ---------------------------------------------------------------------------

def circle_points(circle, t0, t1, n):
    angles = np.linspace(t0, t1, n)
    return np.column_stack((circle.cx + circle.r * np.cos(angles),
                            circle.cy + circle.r * np.sin(angles)))


def noisy_arc(rng, circle, span, n, noise_frac):
    t0 = rng.uniform(0.0, 2.0 * math.pi)
    pts = circle_points(circle, t0, t0 + span, n)
    rho = noise_frac * circle.r * np.sqrt(rng.uniform(size=n))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return pts + np.column_stack((rho * np.cos(phi), rho * np.sin(phi)))


def random_circle(rng, center_scale=3.0, r_lo=0.5, r_hi=4.0):
    return af.Circle(rng.uniform(-center_scale, center_scale),
                     rng.uniform(-center_scale, center_scale),
                     rng.uniform(r_lo, r_hi))


def rotate(pts, angle, pivot=(0.0, 0.0)):
    c, s = math.cos(angle), math.sin(angle)
    pts = np.asarray(pts, float) - pivot
    out = pts @ np.array([[c, s], [-s, c]])
    return out + pivot


# ---------------------------------------------------------------------------
# closed-form free fit (Pratt 1987)
# ---------------------------------------------------------------------------

# Pratt's constraint: a'Na = B^2 + C^2 - 4AD for a = (A, B, C, D).
PRATT_N = np.array([[0.0, 0.0, 0.0, -2.0],
                    [0.0, 1.0, 0.0, 0.0],
                    [0.0, 0.0, 1.0, 0.0],
                    [-2.0, 0.0, 0.0, 0.0]])


def pratt_fit(pts) -> tuple[float, float, float]:
    """(cx, cy, r) of the circle A(x^2+y^2) + Bx + Cy + D = 0 minimizing
    a'Ma / a'Na, with M the mean of z z' over z = (x^2+y^2, x, y, 1).

    For A = 1 that ratio is the mean of (d^2 - r^2)^2 / (4 r^2), the free
    fit's objective, so this is an oracle for its global minimum. The
    minimizer is the eigenvector of the pencil M a = eta N a with the
    smallest nonnegative eta. With M = LL' the pencil becomes the symmetric
    problem (L^-1 N L^-T) b = b / eta for b = L'a, whose largest positive
    eigenvalue gives that eta. Works in centroid coordinates scaled to unit
    rms; M must be positive definite (noisy, non-collinear data).
    """
    pts = np.asarray(pts, dtype=float)
    mean = pts.mean(axis=0)
    q = pts - mean
    scale = math.sqrt(float(np.mean(np.sum(q * q, axis=1))))
    q = q / scale
    z = np.column_stack((np.sum(q * q, axis=1), q[:, 0], q[:, 1],
                         np.ones(len(q))))
    low = np.linalg.cholesky(z.T @ z / len(z))
    low_inv = np.linalg.inv(low)
    mu, vecs = np.linalg.eigh(low_inv @ PRATT_N @ low_inv.T)
    a, b, c, d = np.linalg.solve(low.T, vecs[:, np.argmax(mu)])
    r = math.sqrt(b * b + c * c - 4.0 * a * d) / (2.0 * abs(a))
    return (float(mean[0] - scale * b / (2.0 * a)),
            float(mean[1] - scale * c / (2.0 * a)), scale * r)


# ---------------------------------------------------------------------------
# brute-force compression oracle
# ---------------------------------------------------------------------------

def brute_compress(polyline, tol, segment_penalty=2.0, arc_penalty=3.0):
    """Enumerate every vertex chain; per link the minimum-penalty accepted
    primitive (segment first) is forced, so each chain has one best score."""
    from arcfit.compress import build_prefix, candidate_arc, candidate_segment

    n = len(polyline)
    prefix = build_prefix(polyline)
    link = {}
    for i in range(n - 1):
        for j in range(i + 1, n):
            seg = candidate_segment(polyline, i, j, tol, segment_penalty)
            if seg is not None:
                link[i, j] = (seg[0], seg[1])
                continue
            arc = candidate_arc(polyline, prefix, i, j, tol, arc_penalty)
            if arc is not None:
                link[i, j] = (arc[0], arc[1])

    best = (math.inf, math.inf)
    interior = list(range(1, n - 1))
    for mask in range(1 << len(interior)):
        chain = [0] + [v for b, v in enumerate(interior) if mask >> b & 1] + [n - 1]
        pen = 0.0
        ssd = 0.0
        feasible = True
        for a, b in zip(chain, chain[1:]):
            got = link.get((a, b))
            if got is None:
                feasible = False
                break
            pen += got[0]
            ssd += got[1]
        if feasible and (pen, ssd) < best:
            best = (pen, ssd)
    return best


# ---------------------------------------------------------------------------
# synthetic parcel polylines (exact arcs joined by exact straight runs)
# ---------------------------------------------------------------------------

def parcel_polyline(rng, n_arcs):
    """Polyline of alternating straight runs and exact arc runs with clear
    tangent kinks at the junctions. Returns (vertices, n_segments, n_arcs)."""
    pos = np.array([rng.uniform(-5, 5), rng.uniform(-5, 5)])
    heading = rng.uniform(0.0, 2.0 * math.pi)
    verts = [pos.copy()]
    n_straight = 0

    def straight_run():
        nonlocal pos, heading, n_straight
        heading += rng.uniform(0.35, 1.0) * rng.choice([-1.0, 1.0])
        length = rng.uniform(3.0, 8.0)
        k = int(rng.integers(3, 10))
        d = np.array([math.cos(heading), math.sin(heading)])
        for step in np.linspace(0, length, k + 1)[1:]:
            verts.append(pos + step * d)
        pos = verts[-1].copy()
        n_straight += 1

    def arc_run():
        nonlocal pos, heading
        # kink the tangent so no circle can hug both sides of the junction
        tangent = heading + rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
        turn = rng.choice([-1.0, 1.0])
        radius = rng.uniform(2.0, 6.0)
        span = rng.uniform(0.6, 2.4)
        k = int(rng.integers(8, 26))
        normal = tangent + turn * 0.5 * math.pi
        center = pos + radius * np.array([math.cos(normal), math.sin(normal)])
        a_start = math.atan2(pos[1] - center[1], pos[0] - center[0])
        for a in np.linspace(a_start, a_start + turn * span, k + 1)[1:]:
            verts.append(center + radius * np.array([math.cos(a), math.sin(a)]))
        pos = verts[-1].copy()
        heading = tangent + turn * span

    straight_run()
    for _ in range(n_arcs):
        arc_run()
        straight_run()
    return np.array(verts), n_straight, n_arcs


def extent(pts) -> float:
    pts = np.asarray(pts, float)
    return float(max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1])))
