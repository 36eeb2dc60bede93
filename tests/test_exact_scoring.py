"""Exact candidate scoring against an independent fractions.Fraction oracle.

The O(1) penalty, the two-anchor ratio coefficients and the compressor's
segment line sums are each one exact rational rounded once, so each must
equal float() of the same quantity summed point by point in Fractions.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import arcfit as af
from arcfit.compress import _line_sums, build_prefix
from arcfit.errors import OutOfRange
from arcfit.fit import _exact_chord_coeffs, two_point_ratio
from arcfit.quadratio import _admissible


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


@st.composite
def far_cluster(draw):
    """A few points within a unit or so of an offset up to 1e9 away."""
    ox, oy = draw(signed(1e6, 1e9)), draw(signed(1e6, 1e9))
    deltas = draw(st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
                           min_size=2, max_size=6))
    return [(ox + dx, oy + dy) for dx, dy in deltas]


points = st.lists(st.tuples(mixed, mixed), min_size=1, max_size=6) | far_cluster()
lengths = st.floats(5e-324, 1e300) | st.floats(0.1, 10.0)


@st.composite
def points_and_pair(draw):
    """Points, and two more points: drawn freely, or two of the points (the
    compressor's case, where every term of the expansions matters)."""
    pts = draw(points)
    if draw(st.booleans()):
        return pts, draw(st.tuples(mixed, mixed)), draw(st.tuples(mixed, mixed))
    return pts, draw(st.sampled_from(pts)), draw(st.sampled_from(pts))


@st.composite
def points_and_circle(draw):
    """Points and a circle: drawn freely, or one through or near two of
    the points."""
    pts, (px, py), (qx, qy) = draw(points_and_pair())
    r = math.hypot(px - qx, py - qy) * draw(st.sampled_from([0.5, 0.7, 3.0]))
    if not 0.0 < r < math.inf:
        r = draw(lengths)
    return pts, af.Circle(0.5 * px + 0.5 * qx, 0.5 * py + 0.5 * qy, r)


def rounded(q):
    """float(q), or an infinity of q's sign beyond the float range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def exact_pts(pts):
    return [(Fraction(x), Fraction(y)) for x, y in pts]


def oracle_penalty(pts, c):
    cx, cy, r = Fraction(c.cx), Fraction(c.cy), Fraction(c.r)
    total = sum(((x - cx) ** 2 + (y - cy) ** 2 - r * r) ** 2
                for x, y in exact_pts(pts))
    return total / (4 * r * r)


def oracle_chord(pts, h, alpha, beta, k):
    """a0, a1, a2 of the two-anchor numerator for points already about the
    chord midpoint, in the frame scaled by 2**-k."""
    h, alpha, beta = Fraction(h), Fraction(alpha), Fraction(beta)
    a0 = a1 = a2 = Fraction(0)
    for x, y in exact_pts(pts):
        c = x * x + y * y - h * h
        d = alpha * x + beta * y
        a0 += c * c
        a1 += -4 * c * d
        a2 += 4 * d * d
    w = len(pts)
    scale = Fraction(2) ** k
    assert a0 >= 0 and a2 >= 0 and a1 * a1 <= 4 * a0 * a2
    return a0 / w / scale ** 4, a1 / w / scale ** 3, a2 / w / scale ** 2


class TestExactScoringOracle:
    @given(points_and_circle())
    def test_penalty(self, case):
        pts, c = case
        assert af.penalty(af.from_points(pts), c) == rounded(
            oracle_penalty(pts, c))

    @given(points, lengths | st.floats(0.5, 2.0), st.floats(0, 2 * math.pi),
           st.integers(-1100, 1100))
    def test_chord_coefficients(self, pts, h, angle, k):
        alpha, beta = math.cos(angle), math.sin(angle)
        got = _exact_chord_coeffs(af.from_points(pts), h, alpha, beta, k)
        want = oracle_chord(pts, h, alpha, beta, k)
        assert got == tuple(rounded(q) for q in want)

    @given(points_and_pair())
    def test_two_point_ratio(self, case):
        pts, p1, p2 = case
        if p1 == p2:
            return
        try:
            ratio, line = two_point_ratio(af.from_points(pts), p1, p2)
        except OutOfRange:
            return
        mx, my = Fraction(line.px), Fraction(line.py)
        about_mid = [(x - mx, y - my) for x, y in exact_pts(pts)]
        want = oracle_chord(about_mid, line.half_chord, line.alpha,
                            line.beta, line.exp)
        assert ratio.a == _admissible(*(rounded(q) for q in want))

    @given(st.lists(st.tuples(mixed, mixed), min_size=2, max_size=8)
           | far_cluster(), st.data())
    def test_segment_line_sums(self, poly, data):
        i = data.draw(st.integers(0, len(poly) - 2))
        j = data.draw(st.integers(i + 1, len(poly) - 1))
        interior = build_prefix(poly).range_moments(i + 1, j)
        got = _line_sums(interior, poly[i], poly[j])
        exact = exact_pts(poly)
        (ax, ay), (bx, by) = exact[i], exact[j]
        ux, uy = bx - ax, by - ay
        len2 = ux * ux + uy * uy
        line = spread = Fraction(0)
        for x, y in exact[i + 1:j]:
            dist2 = (x - ax) ** 2 + (y - ay) ** 2
            spread += dist2
            line += ((x - ax) * uy - (y - ay) * ux) ** 2 / len2 if len2 else dist2
        assert got == (rounded(line), rounded(len2), rounded(spread))


class TestAccumulatorOnly:
    def test_normalized_moments_are_rejected(self):
        nm = af.normalized(af.from_points([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)]))
        with pytest.raises(TypeError):
            af.penalty(nm, af.Circle(0.0, 0.0, 1.0))
        with pytest.raises(TypeError):
            two_point_ratio(nm, (1.0, 0.0), (-1.0, 0.0))

    def test_empty_accumulator_is_rejected(self):
        with pytest.raises(ValueError):
            af.penalty(af.empty(), af.Circle(0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            two_point_ratio(af.empty(), (1.0, 0.0), (-1.0, 0.0))
