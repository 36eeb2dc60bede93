import math
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import arcfit as af
from arcfit import moments
from arcfit.moments import scale_exponent

# The stored sums, in storage order, and their degree in the coordinates.
NAMES = ("w", "x", "y", "xx", "xy", "yy", "zx", "zy", "zz")
DEGREE = (0, 1, 1, 2, 2, 2, 3, 3, 4)


def radial(x, y):
    """The summands of the stored sums at one point, z = x^2 + y^2."""
    z = x * x + y * y
    return (1, x, y, x * x, x * y, y * y, z * x, z * y, z * z)


def stored(acc):
    """The accumulator's sums as exact Fractions, by name."""
    return dict(zip(NAMES, exact(acc)))


def coords(n):
    return st.lists(
        st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
        min_size=n, max_size=50)


class TestAccumulatePoint:
    def test_single_point_powers(self):
        acc = af.accumulate_point(af.empty(), (1.0, 2.0))
        assert stored(acc) == dict(w=1, x=1, y=2, xx=1, xy=2, yy=4,
                                   zx=5, zy=10, zz=25)
        assert acc.weight == 1.0

    def test_symmetric_pair(self):
        acc = af.accumulate_point(af.empty(), (1.0, 0.0))
        acc = af.accumulate_point(acc, (-1.0, 0.0))
        assert stored(acc) == dict(w=2, x=0, y=0, xx=2, xy=0, yy=0,
                                   zx=0, zy=0, zz=2)
        assert acc.weight == 2.0

    def test_weighted_zero_point(self):
        acc = af.accumulate_point(af.empty(), (0.0, 0.0), w=3.0)
        assert exact(acc) == [3] + [0] * 8

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            af.accumulate_point(af.empty(), (math.nan, 0.0))
        with pytest.raises(ValueError):
            af.accumulate_point(af.empty(), (0.0, math.inf))
        with pytest.raises(ValueError):
            af.accumulate_point(af.empty(), (0.0, 0.0), w=0.0)
        with pytest.raises(ValueError):
            af.accumulate_point(af.empty(), (0.0, 0.0), w=-1.0)

    def test_from_points_matches_sequential_bitwise(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(0, 10, (40, 2))
        seq = af.empty()
        for p in pts:
            seq = af.accumulate_point(seq, p)
        assert af.from_points(pts).sums == seq.sums


class TestMerge:
    def test_identity(self):
        a = af.from_points([(1, 2), (3, -4)])
        assert af.merge(af.empty(), a) == a
        assert af.merge(a, af.empty()) == a

    def test_commutative(self):
        a = af.from_points([(1, 2), (3, -4)])
        b = af.from_points([(0.5, 0.25)])
        assert af.merge(a, b) == af.merge(b, a)

    def test_split_rejoins_bitwise(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(3, 7, (100, 2))
        whole = af.from_points(pts)
        for k in (1, 13, 50, 99):
            left = af.from_points(pts[:k])
            right = af.from_points(pts[k:])
            assert af.merge(left, right).sums == whole.sums

    @given(coords(1), coords(1), coords(1))
    def test_associative_exactly(self, pa, pb, pc):
        a, b, c = af.from_points(pa), af.from_points(pb), af.from_points(pc)
        assert af.merge(af.merge(a, b), c) == af.merge(a, af.merge(b, c))


class TestTranslate:
    def test_moves_point_to_origin(self):
        acc = af.accumulate_point(af.empty(), (3.0, 4.0))
        out = af.translate(acc, -3.0, -4.0)
        assert out.weight == 1.0
        assert exact(out) == [1] + [0] * 8

    def test_zero_shift_is_identity(self):
        acc = af.from_points([(1, 2), (-3, 5), (0.5, 0.5)])
        assert af.translate(acc, 0.0, 0.0) == acc

    def test_matches_rebuild_from_shifted_points(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(0, 4, (50, 2))
        shifted = af.translate(af.from_points(pts), 5.0, -7.0)
        rebuilt = af.from_points(pts + np.array([5.0, -7.0]))
        for a, b in zip(exact(shifted), exact(rebuilt)):
            assert float(a) == pytest.approx(float(b), rel=1e-9, abs=1e-9)

    @given(coords(1),
           st.floats(-50, 50), st.floats(-50, 50))
    def test_normalized_translate_matches_rebuild(self, pts, dx, dy):
        acc = af.from_points(pts)
        lhs = af.normalized(af.translate(acc, dx, dy))
        rhs = af.normalized(af.from_points(
            [(x + dx, y + dy) for x, y in pts]))
        for a, b in zip(lhs.values(), rhs.values()):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-9)
        # the float shift loses what its inputs' rounding leaves at the
        # data's scale, so its absolute error is measured against that scale
        scale = 1.0 + max(abs(v) for p in pts for v in p) + max(abs(dx), abs(dy))
        floated = af.normalized(acc).translated(dx, dy)
        for a, b, o in zip(floated.values(), rhs.values(), DEGREE):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-9 * scale ** o)


class TestNormalized:
    def test_single_point(self):
        nm = af.normalized(af.accumulate_point(af.empty(), (2.0, 0.0)))
        assert nm.m10 == 2.0
        assert nm.m20 == 4.0

    def test_symmetric_pair(self):
        nm = af.normalized(af.from_points([(1, 0), (-1, 0)]))
        assert nm.m10 == 0.0
        assert nm.m20 == 1.0

    def test_weight_two_equals_duplicated_point(self):
        a = af.normalized(af.accumulate_point(af.empty(), (1.5, -2.0), w=2.0))
        b = af.normalized(af.from_points([(1.5, -2.0), (1.5, -2.0)]))
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            af.normalized(af.empty())

    @given(coords(2))
    def test_cauchy_schwarz_after_centering(self, pts):
        nm = af.normalized(af.from_points(pts))
        mu20 = nm.m20 - nm.m10 ** 2
        mu02 = nm.m02 - nm.m01 ** 2
        mu11 = nm.m11 - nm.m10 * nm.m01
        slack = 1e-9 * (1.0 + mu20 * mu02)
        assert mu11 * mu11 <= mu20 * mu02 + slack

    def test_variance_nonnegative(self):
        rng = np.random.default_rng(2)
        nm = af.normalized(af.from_points(rng.normal(0, 3, (20, 2))))
        assert nm.m20 >= nm.m10 ** 2
        assert nm.m02 >= nm.m01 ** 2


class TestSegmentsAndWeights:
    def test_difference_recovers_part(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(0, 2, (30, 2))
        whole = af.from_points(pts)
        head = af.from_points(pts[:12])
        assert af.difference(whole, head) == af.from_points(pts[12:])

    def test_centroid(self):
        acc = af.from_points([(0, 0), (2, 4)])
        assert af.centroid(acc) == (1.0, 2.0)


# ---------------------------------------------------------------------------
# the batch limb kernel against the Python-int power sums
# ---------------------------------------------------------------------------

def power_sums_oracle(pts):
    """from_points(pts) by Python-int power sums on the same grid."""
    pts = np.asarray(pts, dtype=float)
    xs, ys = pts[:, 0], pts[:, 1]
    grid = moments._grid(np.concatenate((xs, ys)))
    sums = moments._power_sums(moments._grid_ints(xs, grid),
                               moments._grid_ints(ys, grid), None)
    return moments._from_grid(sums, 0, grid)


def limb_calls(monkeypatch):
    """A list that gets one entry per call of the limb kernel."""
    calls = []
    kernel = moments._limb_sums

    def counted(*args):
        calls.append(args[3])
        return kernel(*args)

    monkeypatch.setattr(moments, "_limb_sums", counted)
    return calls


def spread_cloud(rng, n, width):
    """n random points whose grid integers are exactly `width` bits wide:
    full mantissas at binary exponents 0 to width - 53, both ends present,
    with random signs."""
    mant = rng.uniform(0.5, 1.0, (n, 2))
    exps = rng.integers(1, width - 52, (n, 2))
    exps[0] = (1, width - 52)      # frexp exponents 1 and width - 52
    signs = rng.choice([-1.0, 1.0], (n, 2))
    return signs * np.ldexp(mant, exps)


class TestLimbKernel:
    @pytest.mark.parametrize("n", [1, 2047, 2048, 2049, 4097])
    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150, 1e-310])
    def test_matches_power_sums(self, monkeypatch, n, scale):
        calls = limb_calls(monkeypatch)
        rng = np.random.default_rng(n)
        pts = rng.normal(0.0, 1.0, (n, 2)) * scale
        got, want = af.from_points(pts), power_sums_oracle(pts)
        assert (got.sums, got.exp) == (want.sums, want.exp)
        assert len(calls) == 1

    def test_subnormal_points(self):
        rng = np.random.default_rng(4)
        pts = rng.integers(-2 ** 40, 2 ** 40, (3000, 2)) * 5e-324
        got, want = af.from_points(pts), power_sums_oracle(pts)
        assert (got.sums, got.exp) == (want.sums, want.exp)

    @pytest.mark.parametrize("n", [1, 2049])
    def test_signed_zeros(self, n):
        rng = np.random.default_rng(6)
        pts = rng.normal(0.0, 3.0, (n, 2))
        pts[::3, 0] = 0.0
        pts[1::3, 1] = -0.0
        pts[::7] = (-0.0, 0.0)
        got, want = af.from_points(pts), power_sums_oracle(pts)
        assert (got.sums, got.exp) == (want.sums, want.exp)
        zeros = af.from_points([(0.0, -0.0), (-0.0, -0.0)])
        assert (zeros.sums, zeros.exp) == ((1,) + (0,) * 8, 1)

    @pytest.mark.parametrize("width, kernel", [(127, True), (128, True),
                                               (129, False)])
    @pytest.mark.parametrize("n", [1, 2049])
    def test_width_threshold(self, monkeypatch, width, kernel, n):
        calls = limb_calls(monkeypatch)
        pts = spread_cloud(np.random.default_rng(width + n), n, width)
        got, want = af.from_points(pts), power_sums_oracle(pts)
        assert (got.sums, got.exp) == (want.sums, want.exp)
        assert calls == ([width] if kernel else [])

    @pytest.mark.parametrize("n", [2, 2049])
    def test_extreme_mixes_take_the_fallback(self, monkeypatch, n):
        calls = limb_calls(monkeypatch)
        rng = np.random.default_rng(n)
        pts = rng.choice([1e-300, -1e-300, 1e300, -1e300], (n, 2))
        pts *= rng.uniform(1.0, 2.0, (n, 2))
        pts[0] = (1e300, -1e-300)
        got = af.from_points(pts)
        assert calls == []
        assert exact(got) == oracle_points(pts.tolist())

    def test_weighted_batch_takes_the_fallback(self, monkeypatch):
        calls = limb_calls(monkeypatch)
        pts = np.random.default_rng(9).normal(0.0, 1.0, (50, 2))
        acc = af.from_points(pts, np.full(50, 2.0))
        assert calls == []
        assert exact(acc) == [2 * v for v in exact(af.from_points(pts))]


# ---------------------------------------------------------------------------
# exact sums against an independent fractions.Fraction oracle
# ---------------------------------------------------------------------------

def signed(lo, hi):
    return st.floats(lo, hi) | st.floats(-hi, -lo)


# zeros, subnormals, ordinary values and both extremes, mixed freely
mixed = st.one_of(
    st.just(0.0),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.floats(-1e3, 1e3),
    signed(1e-301, 1e-299),
    signed(1e299, 1e301),
)
mixed_points = st.lists(st.tuples(mixed, mixed), min_size=1, max_size=6)
weights = st.one_of(st.just(1.0), st.floats(5e-324, 1e300))


def exact(acc):
    """The accumulator's sums as Fractions, in storage order."""
    scale = Fraction(2) ** acc.exp
    return [n * scale for n in acc.sums]


def oracle_points(pts, ws=None, dx=0.0, dy=0.0):
    """The stored sums of the points moved by (dx, dy), in exact
    arithmetic."""
    ws = [1.0] * len(pts) if ws is None else ws
    fx, fy = Fraction(dx), Fraction(dy)
    out = [Fraction(0)] * len(NAMES)
    for (x, y), w in zip(pts, ws):
        qw = Fraction(w)
        for i, v in enumerate(radial(Fraction(x) + fx, Fraction(y) + fy)):
            out[i] += qw * v
    return out


def oracle_float(q):
    """float(q) or the exception type it raises."""
    try:
        return float(q)
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc)


def outcome(fn):
    try:
        return fn()
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc)


class TestFractionOracle:
    @given(mixed_points)
    def test_from_points(self, pts):
        assert exact(af.from_points(pts)) == oracle_points(pts)

    @given(mixed_points, st.data())
    def test_weighted_accumulate_point(self, pts, data):
        ws = data.draw(st.lists(weights, min_size=len(pts),
                                max_size=len(pts)))
        acc = af.empty()
        for p, w in zip(pts, ws):
            acc = af.accumulate_point(acc, p, w)
        assert exact(acc) == oracle_points(pts, ws)
        assert af.from_points(pts, ws) == acc

    @given(mixed_points, mixed_points)
    def test_merge_and_difference(self, pa, pb):
        a, b = af.from_points(pa), af.from_points(pb)
        oa, ob = oracle_points(pa), oracle_points(pb)
        assert exact(af.merge(a, b)) == [x + y for x, y in zip(oa, ob)]
        assert exact(af.difference(a, b)) == [x - y for x, y in zip(oa, ob)]
        assert af.difference(af.merge(a, b), b) == a

    @given(mixed_points, mixed, mixed)
    def test_translate(self, pts, dx, dy):
        got = af.translate(af.from_points(pts), dx, dy)
        assert exact(got) == oracle_points(pts, dx=dx, dy=dy)

    @given(mixed_points, st.data())
    def test_normalized_is_correctly_rounded(self, pts, data):
        ws = data.draw(st.lists(weights, min_size=len(pts),
                                max_size=len(pts)))
        acc = af.from_points(pts, ws)
        sums = oracle_points(pts, ws)
        want = [oracle_float(s / sums[0]) for s in sums]
        if any(isinstance(v, type) for v in want):
            with pytest.raises(OverflowError):
                af.normalized(acc)
        else:
            assert af.normalized(acc).values() == want
        assert outcome(lambda: acc.weight) == oracle_float(sums[0])

    @given(mixed_points, st.integers(-1100, 1100))
    def test_scaled_normalization(self, pts, k):
        acc = af.from_points(pts)
        sums = oracle_points(pts)
        want = [oracle_float(s / sums[0] / Fraction(2) ** (k * o))
                for s, o in zip(sums, DEGREE)]
        if any(isinstance(v, type) for v in want):
            with pytest.raises(OverflowError):
                af.normalized(acc, k)
        else:
            assert af.normalized(acc, k).values() == want

    def test_scale_exponent_only_away_from_unit_scale(self):
        unit = af.from_points([(1.0, 2.0), (-3.0, 0.5), (0.25, -1.0)])
        assert scale_exponent(unit) == 0
        assert scale_exponent(af.from_points([(1e19, 0.0), (0.0, 1e19)])) == 0
        for scale in (1e-150, 1e150):
            acc = af.from_points([(scale, 2 * scale), (-3 * scale, 0.5 * scale)])
            nm = af.normalized(acc, scale_exponent(acc))
            assert 0.5 < math.sqrt(nm.m20 + nm.m02) < 2.0
            assert all(math.isfinite(v) and (v == 0.0 or abs(v) > 1e-3)
                       for v in nm.values())


def test_public_names_resolve():
    for module in (af, af.moments):
        names = module.__all__
        assert len(set(names)) == len(names)
        for name in names:
            assert not isinstance(getattr(module, name), types.ModuleType), name
