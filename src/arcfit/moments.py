"""The nine radial moment sums of weighted points.

Every fit in this package is computed from the entries of the Kasa/Pratt
moment matrix sum_i w_i * z_i z_i^T with z = (x^2 + y^2, x, y, 1): nine sums
of w times

    1, x, y, x^2, xy, y^2, zx, zy, z^2       (z = x^2 + y^2),

stored in that order (the first is the total weight). The accumulator
stores them exactly, as Python integers N[i] that share one binary exponent
E:

    sum[i] = N[i] * 2**E

Every float is a dyadic rational m * 2**e, so point sums are integers on a
common power-of-two grid. The representation is canonical (the N are not
all even unless all are zero, and then E is 0), so equal accumulators
compare equal. Exact sums buy three things at once:

* merging shards is exactly commutative and associative, so accumulators
  built in parallel or split at any index agree bit for bit;
* prefix accumulators can be differenced without catastrophic cancellation,
  which is what makes O(1) windowed fits inside the compressor trustworthy;
* recentering far-from-origin data recovers the centered fourth-order sums
  at full precision, instead of the noise a float re-expansion would leave.

Merge, difference and translation are integer adds, shifts and products;
there is no gcd work anywhere. A batch of unit-weight points is summed with
float64 matrix products that are exact (after Ozaki, Ogita, Oishi and Rump,
"Error-free transformations of matrix multiplication by using fast routines
of matrix multiplication", Numer. Algorithms 59, 2012): each grid integer is
split into 16-bit limbs held in floats. A block of up to 2048 points fills
one preallocated array of limb planes, one row each for the ones, the
signed limbs of x and of y and the limbs of z = x^2 + y^2, each row
contiguous over the points; the z limbs come from a row-wise limb
convolution with one carry step, and one Gram product rows @ rows.T per
block gives every limb dot product. Every limb product is an integer
below 2**40.2, so every partial sum is an integer below 2**53, which float64
adds exactly in any order; the nine sums are recombined from the limb sums
with Python ints. Weighted batches, batches wider than 128 bits and single
points take Python-int products instead. Normalization to floats happens
once, at fit time, by correctly rounded integer division, and can rescale
the points by an exact power of two first so that fourth-order moments of
very small or very large data stay inside the float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add, mul, or_, sub

import numpy as np

__all__ = [
    "MomentAccumulator",
    "NormalizedMoments",
    "empty",
    "accumulate_point",
    "from_points",
    "merge",
    "difference",
    "translate",
    "normalized",
    "scale_exponent",
    "centroid",
]

# Degree in the coordinates of each stored sum, in storage order.
_ORDER = (0, 1, 1, 2, 2, 2, 3, 3, 4)

# Points are converted to integers and folded in this many at a time, which
# bounds the memory held by the per-point integer powers.
_CHUNK = 256

# Unit-weight batches whose grid integers are below 2**_LIMB_WIDTH are summed
# by the limb kernel (_limb_sums): at most eight 16-bit limbs a coordinate.
_LIMB_WIDTH = 128
# Rows per limb Gram product. Every product of two limb columns is below
# 2**40.2, so a sum of 2**11 of them stays below 2**53 and float64 adds it
# exactly in any order; the block also bounds the kernel's memory.
_BLOCK = 2048
# 2**(16 k) as Python ints, to recombine limb sums exactly.
_LIMB_POW = np.array([1 << 16 * k for k in range(2 * _LIMB_WIDTH // 16)],
                     dtype=object)
# 2**(-16 k) as floats, to split a float integer into limbs.
_LIMB_SCALE = np.ldexp(1.0, -16 * np.arange(_LIMB_WIDTH // 16 + 1))

# Data whose mean squared distance from the frame origin lies within
# 2**(+-_FREE_SCALE_BITS) is normalized without rescaling. The fitters take
# up to about the twelfth power of the data scale in floats, so a scale of
# 2**+-64 keeps every intermediate far inside the float range.
_FREE_SCALE_BITS = 128


@dataclass(frozen=True)
class MomentAccumulator:
    """Exact radial sums of w * (1, x, y, xx, xy, yy, zx, zy, zz), with
    z = x^2 + y^2: sum i is sums[i] * 2**exp. sums[0] belongs to the total
    weight."""

    sums: tuple
    exp: int = 0

    @property
    def weight(self) -> float:
        n, e = self.sums[0], self.exp
        return float(n << e) if e >= 0 else n / (1 << -e)


_EMPTY = MomentAccumulator(sums=(0,) * 9, exp=0)


def empty() -> MomentAccumulator:
    return _EMPTY


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
    """Accumulator of sums[i] * 2**e with common factors of two moved into
    the exponent."""
    low = reduce(or_, sums)
    if not low:
        return _EMPTY
    tz = (low & -low).bit_length() - 1
    if tz:
        sums = [v >> tz for v in sums]
        e += tz
    return MomentAccumulator(sums=tuple(sums), exp=e)


def _from_grid(terms, wexp: int, grid: int) -> MomentAccumulator:
    """Canonical accumulator of sums terms[i] * 2**(wexp + grid*(order of i)):
    one exponent for weights, one grid for coordinates."""
    e = wexp + min(0, 4 * grid)
    return _canonical(
        [v << (wexp + grid * o - e) for v, o in zip(terms, _ORDER)], e)


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
    """The nine radial sums of ws_i * (1, x, y, xx, xy, yy, zx, zy, zz) over
    the integer points (ws_i = 1 when None)."""
    zs = list(map(add, map(mul, xs, xs), map(mul, ys, ys)))
    if ws is None:
        w, wx, wy, wz = len(xs), xs, ys, zs
    else:
        w = sum(ws)
        wx, wy, wz = (list(map(mul, ws, c)) for c in (xs, ys, zs))
    return [w, sum(wx), sum(wy),
            sum(map(mul, wx, xs)), sum(map(mul, wx, ys)), sum(map(mul, wy, ys)),
            sum(map(mul, wz, xs)), sum(map(mul, wz, ys)), sum(map(mul, wz, zs))]


def _limbs(ints: np.ndarray, out: np.ndarray) -> None:
    """Write the 16-bit limbs of |ints| (float integers below
    2**(16 n_limbs)) into the n_limbs rows of out, least significant first.
    Exact: scaling by a power of two, floor, and a difference that is a
    small integer."""
    q = np.floor(np.multiply.outer(_LIMB_SCALE[:out.shape[0] + 1],
                                   np.abs(ints)))
    np.multiply(q[1:], -65536.0, out=out)
    out += q[:-1]


def _limb_block(xi: np.ndarray, yi: np.ndarray, rows: np.ndarray) -> None:
    """Fill the rows [1, sign(x) x limbs, sign(y) y limbs, z limbs] of the
    integer points (xi, yi), z = x^2 + y^2, one column a point; row 0 holds
    the ones already. Gram products of these rows are the limb products of
    the radial sums."""
    n_limbs = (rows.shape[0] - 1) // 4
    xl = rows[1:1 + n_limbs]
    yl = rows[1 + n_limbs:1 + 2 * n_limbs]
    z = rows[1 + 2 * n_limbs:]
    _limbs(xi, xl)
    _limbs(yi, yl)
    # z's limb convolution: row j sums the products of limbs a + b = j
    # (a cross product a != b twice), at most 16 products below 2**32.
    z[::2] = xl * xl + yl * yl
    z[1::2] = 0.0
    for a in range(n_limbs - 1):
        z[2 * a + 1:a + n_limbs] += 2.0 * (xl[a] * xl[a + 1:]
                                           + yl[a] * yl[a + 1:])
    # One carry step leaves every z limb below 2**16 + 2**20.
    carry = np.floor(z * 2.0 ** -16)
    z -= 65536.0 * carry
    z[1:] += carry[:-1]
    xl *= np.sign(xi)
    yl *= np.sign(yi)


def _limb_sums(xs: np.ndarray, ys: np.ndarray, grid: int,
               width: int) -> list[int]:
    """_power_sums of the integer points xs / 2**grid, ys / 2**grid, all
    below 2**width <= 2**_LIMB_WIDTH in magnitude, with unit weights.

    Each block of points is split into limb rows (_limb_block) and one
    float64 Gram product gives every limb dot product exactly. The nine
    sums are then recombined from the limb sums with Python ints.
    """
    n_limbs = max(1, -(-width // 16))
    rows = np.empty((1 + 4 * n_limbs, min(xs.size, _BLOCK)))
    rows[0] = 1.0
    gram = 0
    for lo in range(0, xs.size, _BLOCK):
        block = rows[:, :xs.size - lo]
        _limb_block(np.ldexp(xs[lo:lo + _BLOCK], -grid),
                    np.ldexp(ys[lo:lo + _BLOCK], -grid), block)
        gram = gram + (block @ block.T).astype(np.int64).astype(object)
    one, x, y, z = (slice(0, 1), slice(1, 1 + n_limbs),
                    slice(1 + n_limbs, 1 + 2 * n_limbs),
                    slice(1 + 2 * n_limbs, 1 + 4 * n_limbs))

    def value(a: slice, b: slice) -> int:
        """Sum over limbs i of a, j of b of gram * 2**(16 (i + j))."""
        block = gram[a, b]
        return int(_LIMB_POW[:block.shape[0]] @ block
                   @ _LIMB_POW[:block.shape[1]])

    return [value(one, one), value(one, x), value(one, y), value(x, x),
            value(x, y), value(y, y), value(z, x), value(z, y), value(z, z)]


def _point(x: float, y: float, w: float) -> MomentAccumulator:
    (mx, ex), (my, ey) = _dyadic(x), _dyadic(y)
    grid = min(ex, ey)
    xs, ys = [mx << (ex - grid)], [my << (ey - grid)]
    if w == 1.0:
        terms, wexp = _power_sums(xs, ys, None), 0
    else:
        mw, wexp = _dyadic(w)
        terms = _power_sums(xs, ys, [mw])
    return _from_grid(terms, wexp, grid)


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

    coords = np.concatenate((xs, ys))
    grid = _grid(coords)
    if ws is None:
        width = math.frexp(float(np.abs(coords).max()))[1] - grid
        if width <= _LIMB_WIDTH:
            return _from_grid(_limb_sums(xs, ys, grid, width), 0, grid)
    wexp = 0 if ws is None else _grid(ws)
    totals = [0] * 9
    for lo in range(0, xs.size, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        iw = None if ws is None else _grid_ints(ws[part], wexp)
        sums = _power_sums(_grid_ints(xs[part], grid),
                           _grid_ints(ys[part], grid), iw)
        totals = list(map(add, totals, sums))
    return _from_grid(totals, wexp, grid)


def merge(a: MomentAccumulator, b: MomentAccumulator) -> MomentAccumulator:
    """Componentwise sum; exact, so commutative and associative."""
    return _combine(a, b, add)


def difference(a: MomentAccumulator, b: MomentAccumulator) -> MomentAccumulator:
    """Componentwise a - b; exact. Used for prefix-range extraction."""
    return _combine(a, b, sub)


def _shift(v, a, b):
    """The nine sums (w, x, y, xx, xy, yy, zx, zy, zz) of the points moved by
    (a, b), from those of the points; exact on ints. Per point, x' = x + a,
    y' = y + b and z' = z + 2(a x' + b y') - (a^2 + b^2)."""
    w, x, y, xx, xy, yy, zx, zy, zz = v
    c = a * a + b * b
    z = xx + yy
    x1, y1 = x + a * w, y + b * w
    xx1, xy1, yy1 = xx + a * (x + x1), xy + a * y + b * x1, yy + b * (y + y1)
    zx1 = zx + a * z + 2 * (a * xx1 + b * xy1) - c * x1
    zy1 = zy + b * z + 2 * (a * xy1 + b * yy1) - c * y1
    zz1 = (zz + 2 * (a * zx + b * zy + a * zx1 + b * zy1)
           + c * (z - xx1 - yy1))
    return w, x1, y1, xx1, xy1, yy1, zx1, zy1, zz1


def translate(acc: MomentAccumulator, dx: float, dy: float) -> MomentAccumulator:
    """Accumulator as if every input point had been shifted by (dx, dy)."""
    _require_finite(dx, dy)
    if dx == 0.0 and dy == 0.0:
        return acc
    (mx, ex), (my, ey) = _dyadic(dx), _dyadic(dy)
    # With dx = a * 2**d and dy = b * 2**d, read order-o sums on the grid
    # 2**(exp + d*o) so that the shift is integer-only, then bring every
    # order back to the common exponent exp + 4*d.
    d = min(ex, ey, 0)
    a, b = mx << (ex - d), my << (ey - d)
    v = [n << (-d * o) for n, o in zip(acc.sums, _ORDER)] if d else acc.sums
    v = _shift(v, a, b)
    if d:
        v = [n << (-d * (4 - o)) for n, o in zip(v, _ORDER)]
    return _canonical(v, acc.exp + 4 * d)


def centroid(acc: MomentAccumulator) -> tuple[float, float]:
    if acc.sums[0] == 0:
        raise ValueError("empty accumulator has no centroid")
    return acc.sums[1] / acc.sums[0], acc.sums[2] / acc.sums[0]


@dataclass(frozen=True)
class NormalizedMoments:
    """Weight-normalized radial sums as floats: the means of x, y, xx, xy,
    yy, zx, zy and zz (z = x^2 + y^2) and the total weight w.

    The normalized weight is 1 by construction and not stored.
    """

    w: float
    m10: float
    m01: float
    m20: float
    m11: float
    m02: float
    zx: float
    zy: float
    zz: float

    def values(self) -> list[float]:
        return [1.0, self.m10, self.m01, self.m20, self.m11, self.m02,
                self.zx, self.zy, self.zz]

    def translated(self, dx: float, dy: float) -> "NormalizedMoments":
        """Float shift. Adequate for moderate offsets; for large offsets
        translate the exact accumulator instead."""
        if dx == 0.0 and dy == 0.0:
            return self
        return NormalizedMoments(
            self.w, *_shift(self.values(), float(dx), float(dy))[1:])

    @property
    def mean(self) -> tuple[float, float]:
        return self.m10, self.m01


def normalized(acc: MomentAccumulator, scale_exp: int = 0) -> NormalizedMoments:
    """Normalize by total weight. Rejects the empty accumulator.

    With scale_exp = k the moments are those of the points scaled by 2**-k
    (a sum of degree o divided by 2**(k*o)), still correctly rounded; the
    weight is not scaled.
    """
    w = _weight_int(acc)
    if scale_exp == 0:
        vals = [n / w for n in acc.sums]
    else:
        vals = []
        for n, o in zip(acc.sums, _ORDER):
            s = -scale_exp * o
            vals.append((n << s) / w if s >= 0 else n / (w << -s))
    return NormalizedMoments(acc.weight, *vals[1:])


def scale_exponent(acc: MomentAccumulator) -> int:
    """Binary exponent k of the data scale about the origin, for
    normalized(acc, k): 0 when the mean squared distance of the points from
    the origin is within 2**(+-128) (the common case, left unscaled), else
    the k that brings it near 1.

    k only keeps the fitters' floats inside their range: no fit result
    depends on which nearby k is chosen, since every fitter maps its result
    back by the same exact power of two."""
    w = acc.sums[0]
    r2 = acc.sums[3] + acc.sums[5]
    if w <= 0 or r2 <= 0:
        return 0
    # log2 of (S20 + S02) / S00, to within one
    bits = r2.bit_length() - w.bit_length()
    if abs(bits) <= _FREE_SCALE_BITS:
        return 0
    return bits // 2
