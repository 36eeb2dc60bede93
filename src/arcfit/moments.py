"""Bivariate raw power sums up to total order four.

Every fit in this package is computed from the sums S[g,h] = sum_i w_i *
x_i^g * y_i^h for 0 <= g+h <= 4 (15 values; S[0,0] is the total weight).

The accumulator stores them exactly, as Python integers N[g,h] that share
one binary exponent E and a fixed denominator:

    S[g,h] = N[g,h] * 2**E / 15

Every float is a dyadic rational m * 2**e, so point sums are integers on a
common power-of-two grid; the 15 makes room for the 1/3 and 1/5 in the
closed-form segment integrals. The representation is canonical (the N are
not all even unless all are zero, and then E is 0), so equal accumulators
compare equal. Exact sums buy three things at once:

* merging shards is exactly commutative and associative, so accumulators
  built in parallel or split at any index agree bit for bit;
* prefix accumulators can be differenced without catastrophic cancellation,
  which is what makes O(1) windowed fits inside the compressor trustworthy;
* recentering far-from-origin data recovers the centered fourth-order sums
  at full precision, instead of the noise a float re-expansion would leave.

Merge, difference and translation are integer adds, shifts and products;
there is no gcd work anywhere. Normalization to floats happens once, at fit
time, by correctly rounded integer division, and can rescale the points by
an exact power of two first so that fourth-order moments of very small or
very large data stay inside the float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from math import comb
from operator import add, mul, or_, sub

import numpy as np

__all__ = [
    "ORDERS",
    "DENOMINATOR",
    "MomentAccumulator",
    "NormalizedMoments",
    "empty",
    "accumulate_point",
    "accumulate_segment",
    "from_points",
    "from_segments",
    "merge",
    "difference",
    "translate",
    "normalized",
    "scale_exponent",
    "centroid",
]

# Index order used everywhere: total order ascending, x-degree descending.
ORDERS = (
    (0, 0),
    (1, 0), (0, 1),
    (2, 0), (1, 1), (0, 2),
    (3, 0), (2, 1), (1, 2), (0, 3),
    (4, 0), (3, 1), (2, 2), (1, 3), (0, 4),
)
_POS = {gh: i for i, gh in enumerate(ORDERS)}
_TOTAL = tuple(g + h for g, h in ORDERS)

# Common denominator of every stored sum (see the module docstring).
DENOMINATOR = 15

# Points are converted to integers and folded in this many at a time, which
# bounds the memory held by the per-point integer powers.
_CHUNK = 256

# Data whose mean squared distance from the frame origin lies within
# 2**(+-_FREE_SCALE_BITS) is normalized without rescaling. The fitters take
# up to about the twelfth power of the data scale in floats, so a scale of
# 2**+-64 keeps every intermediate far inside the float range.
_FREE_SCALE_BITS = 128


@dataclass(frozen=True)
class MomentAccumulator:
    """Exact power sums S[g,h] = sums[i] * 2**exp / DENOMINATOR for g+h <= 4,
    with (g, h) = ORDERS[i]. S[0,0] is the total weight."""

    sums: tuple
    exp: int = 0

    @property
    def weight(self) -> float:
        return _to_float(self.sums[0], self.exp)

    def s(self, g: int, h: int) -> float:
        """Sum S[g,h] as a float."""
        return _to_float(self.sums[_POS[g, h]], self.exp)


_EMPTY = MomentAccumulator(sums=(0,) * 15, exp=0)


def empty() -> MomentAccumulator:
    return _EMPTY


def _to_float(n: int, e: int) -> float:
    """n * 2**e / DENOMINATOR, correctly rounded."""
    if e >= 0:
        return (n << e) / DENOMINATOR
    return n / (DENOMINATOR << -e)


def _scaled_div(num: int, den: int, exp: int) -> float:
    """num * 2**exp / den for den > 0, correctly rounded; an infinity of
    num's sign when that leaves the float range."""
    try:
        if exp >= 0:
            return (num << exp) / den
        return num / (den << -exp)
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _on_grid(*values: float) -> tuple[list[int], int]:
    """Integers n_i and one exponent e <= 0 with values[i] == n_i * 2**e."""
    parts = [v.as_integer_ratio() for v in values]
    bits = [d.bit_length() - 1 for _, d in parts]  # denominators are 2**bits
    top = max(bits)
    return [n << (top - b) for (n, _), b in zip(parts, bits)], -top


def _weight_int(acc: MomentAccumulator) -> int:
    """The weight integer sums[0] of a nonempty accumulator."""
    if not isinstance(acc, MomentAccumulator):
        raise TypeError(f"expected a MomentAccumulator, got {type(acc).__name__}")
    w = acc.sums[0]
    if w <= 0:
        raise ValueError("accumulator has zero weight")
    return w


def _canonical(sums, e: int) -> MomentAccumulator:
    """Accumulator of sums[i] * 2**e / DENOMINATOR with common factors of
    two moved into the exponent."""
    low = reduce(or_, sums)
    if not low:
        return _EMPTY
    tz = (low & -low).bit_length() - 1
    if tz:
        sums = [v >> tz for v in sums]
        e += tz
    return MomentAccumulator(sums=tuple(sums), exp=e)


def _from_grid(terms, wexp: int, grid: int) -> MomentAccumulator:
    """Canonical accumulator of sums terms[i] * 2**(wexp + grid*(order of i))
    / DENOMINATOR: one exponent for weights, one grid for coordinates."""
    e = wexp + min(0, 4 * grid)
    return _canonical(
        [v << (wexp + grid * o - e) for v, o in zip(terms, _TOTAL)], e)


def _combine(a: MomentAccumulator, b: MomentAccumulator, op) -> MomentAccumulator:
    """Componentwise op(a, b) after aligning the exponents."""
    sa, sb, e = a.sums, b.sums, a.exp
    if a.exp > b.exp:
        sa = [v << (a.exp - b.exp) for v in sa]
        e = b.exp
    elif b.exp > a.exp:
        sb = [v << (b.exp - a.exp) for v in sb]
    return _canonical(list(map(op, sa, sb)), e)


def _require_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"non-finite coordinate or weight: {v!r}")


def _dyadic(x: float) -> tuple[int, int]:
    """(m, e) with x == m * 2**e exactly."""
    n, d = x.as_integer_ratio()
    return n, 1 - d.bit_length()


def _grid(values: np.ndarray) -> int:
    """Exponent e such that every value is an integer multiple of 2**e."""
    mant, ex = np.frexp(values)
    ex = ex[mant != 0.0]
    # |v| = m * 2**e with 0.5 <= m < 1, so m * 2**53 is an integer
    return int(ex.min()) - 53 if ex.size else 0


def _grid_ints(values: np.ndarray, grid: int) -> list[int]:
    """values / 2**grid as exact Python ints (every value on that grid)."""
    if values.size == 0:
        return []
    top = int(np.frexp(values)[1].max())
    if top - grid <= 1023:
        # exact: scaling by a power of two, and no value reaches 2**1024
        return list(map(int, np.ldexp(values, -grid).tolist()))
    out = []
    for v in values.tolist():
        m, e = _dyadic(v)
        out.append(m << (e - grid))
    return out


def _power_sums(xs: list, ys: list, ws: list | None) -> list[int]:
    """sum_i ws_i * xs_i^g * ys_i^h in ORDERS order (ws_i = 1 when None)."""
    xp = [xs]
    yp = [ys]
    for _ in range(3):
        xp.append(list(map(mul, xp[-1], xs)))
        yp.append(list(map(mul, yp[-1], ys)))
    if ws is None:
        px = [None] + xp
    else:
        px = [ws] + [list(map(mul, ws, col)) for col in xp]
    out = []
    for g, h in ORDERS:
        if h == 0:
            out.append(len(xs) if px[g] is None else sum(px[g]))
        elif px[g] is None:
            out.append(sum(yp[h - 1]))
        else:
            out.append(sum(map(mul, px[g], yp[h - 1])))
    return out


def _point(x: float, y: float, w: float) -> MomentAccumulator:
    (mx, ex), (my, ey) = _dyadic(x), _dyadic(y)
    grid = min(ex, ey)
    xs, ys = [mx << (ex - grid)], [my << (ey - grid)]
    if w == 1.0:
        terms, wexp = _power_sums(xs, ys, None), 0
    else:
        mw, wexp = _dyadic(w)
        terms = _power_sums(xs, ys, [mw])
    return _from_grid([DENOMINATOR * t for t in terms], wexp, grid)


def accumulate_point(acc: MomentAccumulator, p, w: float = 1.0) -> MomentAccumulator:
    """Return ``acc`` with the weighted point folded in. Requires w > 0."""
    x, y, w = float(p[0]), float(p[1]), float(w)
    _require_finite(x, y, w)
    if w <= 0:
        raise ValueError(f"weight must be positive, got {w!r}")
    return _combine(acc, _point(x, y, w), add)


def _columns(points) -> tuple[np.ndarray, np.ndarray]:
    pts = np.asarray(points if isinstance(points, np.ndarray)
                     else list(points), dtype=float)
    if pts.size == 0:
        return np.empty(0), np.empty(0)
    if pts.ndim != 2 or pts.shape[1] < 2:
        raise ValueError("points must be a sequence of (x, y) pairs")
    return pts[:, 0], pts[:, 1]


def _check_finite(values: np.ndarray) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        _require_finite(float(values[bad][0]))


def from_points(points, weights=None) -> MomentAccumulator:
    """Accumulator over a batch of points (unit weights unless given)."""
    xs, ys = _columns(points)
    _check_finite(xs)
    _check_finite(ys)
    ws = None
    if weights is not None:
        ws = np.asarray(weights if isinstance(weights, np.ndarray)
                        else list(weights), dtype=float).reshape(-1)
        if ws.size != xs.size:
            raise ValueError(
                f"{xs.size} points but {ws.size} weights")
        _check_finite(ws)
        if ws.size and not ws.min() > 0:
            raise ValueError(
                f"weight must be positive, got {float(ws.min())!r}")
    if xs.size == 0:
        return _EMPTY

    grid = _grid(np.concatenate((xs, ys)))
    wexp = 0 if ws is None else _grid(ws)
    totals = [0] * 15
    for lo in range(0, xs.size, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        iw = None if ws is None else _grid_ints(ws[part], wexp)
        sums = _power_sums(_grid_ints(xs[part], grid),
                           _grid_ints(ys[part], grid), iw)
        totals = list(map(add, totals, sums))
    return _from_grid([DENOMINATOR * t for t in totals], wexp, grid)


# For each (g,h): closed form of integral_0^1 (x0+t*dx)^g (y0+t*dy)^h dt as
# sum over (k,m) of C(g,k)*C(h,m)/(k+m+1) * x0^(g-k) dx^k y0^(h-m) dy^m.
# Coefficients are stored times 60 = 4 * DENOMINATOR, which clears every
# k+m+1 <= 5; the 4 goes into the exponent.
_SEGMENT_COEFFS = {
    (g, h): tuple(
        (k, m, 60 * comb(g, k) * comb(h, m) // (k + m + 1))
        for k in range(g + 1)
        for m in range(h + 1)
    )
    for g, h in ORDERS
}


def accumulate_segment(acc: MomentAccumulator, p0, p1) -> MomentAccumulator:
    """Fold in a line segment as the arc-length integral of each monomial.

    The segment contributes integral x^g y^h ds, so its weight is its length.
    """
    x0, y0 = float(p0[0]), float(p0[1])
    x1, y1 = float(p1[0]), float(p1[1])
    _require_finite(x0, y0, x1, y1)
    if x0 == x1 and y0 == y1:
        raise ValueError("zero-length segment")
    dx, dy = x1 - x0, y1 - y0
    length, lexp = _dyadic(math.hypot(dx, dy))

    parts = [_dyadic(v) for v in (x0, y0, dx, dy)]
    grid = min(e for _, e in parts)
    qx0, qy0, qdx, qdy = (m << (e - grid) for m, e in parts)
    x0p, y0p, dxp, dyp = [1], [1], [1], [1]
    for _ in range(4):
        x0p.append(x0p[-1] * qx0)
        y0p.append(y0p[-1] * qy0)
        dxp.append(dxp[-1] * qdx)
        dyp.append(dyp[-1] * qdy)

    terms = []
    for g, h in ORDERS:
        total = 0
        for k, m, coeff in _SEGMENT_COEFFS[g, h]:
            total += coeff * x0p[g - k] * dxp[k] * y0p[h - m] * dyp[m]
        terms.append(length * total)
    return _combine(acc, _from_grid(terms, lexp - 2, grid), add)


def from_segments(segments) -> MomentAccumulator:
    acc = empty()
    for p0, p1 in segments:
        acc = accumulate_segment(acc, p0, p1)
    return acc


def merge(a: MomentAccumulator, b: MomentAccumulator) -> MomentAccumulator:
    """Componentwise sum; exact, so commutative and associative."""
    return _combine(a, b, add)


def difference(a: MomentAccumulator, b: MomentAccumulator) -> MomentAccumulator:
    """Componentwise a - b; exact. Used for prefix-range extraction."""
    return _combine(a, b, sub)


def _shift_steps(lines) -> tuple:
    """(dst, src) updates v[dst] += a * v[src] that apply the binomial
    shift q_g = sum_k C(g,k) a^(g-k) p_k along each index line: the Pascal
    matrix factored into bidiagonal passes."""
    steps = []
    for line in lines:
        for i in range(1, len(line)):
            for j in range(len(line) - 1, i - 1, -1):
                steps.append((line[j], line[j - 1]))
    return tuple(steps)


# Index lines in ORDERS positions: fixed h with g ascending (x shift), and
# fixed g with h ascending (y shift).
_X_STEPS = _shift_steps([[_POS[g, h] for g in range(5 - h)] for h in range(4)])
_Y_STEPS = _shift_steps([[_POS[g, h] for h in range(5 - g)] for g in range(4)])


def _shift_sums(vals, dx, dy):
    """Binomial re-expansion of float power sums about an origin shifted by
    (dx, dy); the normalized convenience path."""
    dxp = [1.0, dx]
    dyp = [1.0, dy]
    for _ in range(3):
        dxp.append(dxp[-1] * dx)
        dyp.append(dyp[-1] * dy)
    out = []
    for g, h in ORDERS:
        total = 0.0
        for k in range(g + 1):
            ck = comb(g, k)
            for m in range(h + 1):
                c = ck * comb(h, m)
                total += c * dxp[g - k] * dyp[h - m] * vals[_POS[k, m]]
        out.append(total)
    return out


def translate(acc: MomentAccumulator, dx: float, dy: float) -> MomentAccumulator:
    """Accumulator as if every input point had been shifted by (dx, dy)."""
    _require_finite(dx, dy)
    if dx == 0.0 and dy == 0.0:
        return acc
    (mx, ex), (my, ey) = _dyadic(dx), _dyadic(dy)
    # With dx = a * 2**d and dy = b * 2**d, read order-o sums on the grid
    # 2**(exp + d*o) so that the binomial shift is integer-only, then bring
    # every order back to the common exponent exp + 4*d.
    d = min(ex, ey, 0)
    a, b = mx << (ex - d), my << (ey - d)
    v = [n << (-d * o) for n, o in zip(acc.sums, _TOTAL)] if d else list(acc.sums)
    if a:
        for dst, src in _X_STEPS:
            v[dst] += a * v[src]
    if b:
        for dst, src in _Y_STEPS:
            v[dst] += b * v[src]
    if d:
        v = [n << (-d * (4 - o)) for n, o in zip(v, _TOTAL)]
    return _canonical(v, acc.exp + 4 * d)


def centroid(acc: MomentAccumulator) -> tuple[float, float]:
    if acc.sums[0] == 0:
        raise ValueError("empty accumulator has no centroid")
    return acc.sums[1] / acc.sums[0], acc.sums[2] / acc.sums[0]


@dataclass(frozen=True)
class NormalizedMoments:
    """Weight-normalized raw moments M[g,h] = S[g,h] / W as floats.

    m00 is 1 by construction and not stored.
    """

    w: float
    m10: float
    m01: float
    m20: float
    m11: float
    m02: float
    m30: float
    m21: float
    m12: float
    m03: float
    m40: float
    m31: float
    m22: float
    m13: float
    m04: float

    @classmethod
    def from_values(cls, w: float, vals) -> "NormalizedMoments":
        return cls(w, *vals[1:])

    def values(self) -> list[float]:
        return [1.0, self.m10, self.m01, self.m20, self.m11, self.m02,
                self.m30, self.m21, self.m12, self.m03,
                self.m40, self.m31, self.m22, self.m13, self.m04]

    def translated(self, dx: float, dy: float) -> "NormalizedMoments":
        """Float binomial shift. Adequate for moderate offsets; for large
        offsets translate the exact accumulator instead."""
        if dx == 0.0 and dy == 0.0:
            return self
        return NormalizedMoments.from_values(
            self.w, _shift_sums(self.values(), float(dx), float(dy)))

    @property
    def mean(self) -> tuple[float, float]:
        return self.m10, self.m01


def normalized(acc: MomentAccumulator, scale_exp: int = 0) -> NormalizedMoments:
    """Normalize by total weight. Rejects the empty accumulator.

    With scale_exp = k the moments are those of the points scaled by 2**-k
    (order g+h divided by 2**(k*(g+h))), still correctly rounded; the weight
    is not scaled.
    """
    w = _weight_int(acc)
    if scale_exp == 0:
        vals = [n / w for n in acc.sums]
    else:
        vals = []
        for n, o in zip(acc.sums, _TOTAL):
            s = -scale_exp * o
            vals.append((n << s) / w if s >= 0 else n / (w << -s))
    return NormalizedMoments.from_values(acc.weight, vals)


def scale_exponent(acc: MomentAccumulator) -> int:
    """Binary exponent k of the data scale about the origin, for
    normalized(acc, k): 0 when the mean squared distance of the points from
    the origin is within 2**(+-128) (the common case, left unscaled), else
    the k that brings it near 1."""
    w = acc.sums[0]
    r2 = acc.sums[3] + acc.sums[5]
    if w <= 0 or r2 <= 0:
        return 0
    # log2 of (S20 + S02) / S00, to within one
    bits = r2.bit_length() - w.bit_length()
    if abs(bits) <= _FREE_SCALE_BITS:
        return 0
    return bits // 2
