import math

import numpy as np
import pytest

import arcfit as af
from arcfit.compress import (ArcPrim, Segment, build_prefix, candidate_arc,
                             candidate_segment, compress, fit_arc_candidate)

from helpers import brute_compress, circle_points, extent, parcel_polyline


class CountingPolyline:
    """Sequence wrapper that counts vertex accesses."""

    def __init__(self, pts):
        self._pts = list(map(tuple, pts))
        self.reads = 0

    def __len__(self):
        return len(self._pts)

    def __getitem__(self, key):
        got = self._pts[key]
        self.reads += len(got) if isinstance(key, slice) else 1
        return got


def random_polyline(rng, n):
    """Random mix of jittered arc runs and random walks."""
    if rng.uniform() < 0.5:
        c = af.Circle(*rng.uniform(-2, 2, 2), rng.uniform(1, 3))
        t0 = rng.uniform(0, 2 * math.pi)
        pts = circle_points(c, t0, t0 + rng.uniform(0.8, 2.8), n)
        pts = pts + rng.normal(0, 0.01 * c.r, pts.shape)
    else:
        steps = rng.normal(0, 1.0, (n, 2))
        pts = np.cumsum(steps, axis=0)
    return pts


class TestPrefix:
    def test_weights_count_vertices(self):
        prefix = build_prefix([(0, 0), (1, 0), (2, 1)])
        assert prefix.prefix[3].weight == 3.0
        assert prefix.prefix[0].weight == 0.0

    def test_full_range_is_whole_accumulator(self):
        pts = [(0, 0), (1, 0), (2, 1)]
        prefix = build_prefix(pts)
        assert prefix.range_moments(0, 3) == af.from_points(pts)

    def test_random_ranges_match_direct_accumulation(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(0, 5, (40, 2))
        prefix = build_prefix(pts)
        for _ in range(20):
            lo, hi = sorted(rng.integers(0, 41, 2))
            if lo == hi:
                continue
            assert prefix.range_moments(lo, hi) == af.from_points(pts[lo:hi])

    def test_short_polyline_rejected(self):
        with pytest.raises(ValueError):
            build_prefix([(0, 0)])


class TestCandidateSegment:
    def test_collinear_accepted_with_zero_ssd(self):
        got = candidate_segment([(0, 0), (1, 1), (2, 2)], 0, 2, tol=1e-12)
        assert got is not None
        penalty, ssd, prim = got
        assert penalty == 2.0
        assert ssd == pytest.approx(0.0, abs=1e-28)
        assert prim == Segment(0, 2, ssd)

    def test_apex_above_tolerance_rejected(self):
        pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]
        assert candidate_segment(pts, 0, 2, tol=0.999) is None

    def test_tolerance_is_inclusive(self):
        pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]
        got = candidate_segment(pts, 0, 2, tol=1.0)
        assert got is not None
        assert got[1] == pytest.approx(1.0)

    def test_adjacent_pair_always_accepted(self):
        got = candidate_segment([(0, 0), (5, 5)], 0, 1, tol=0.0)
        assert got is not None and got[1] == 0.0

    def test_endpoint_clamping(self):
        # interior vertex beyond the segment end: distance to the endpoint
        pts = [(0.0, 0.0), (3.0, 0.1), (2.0, 0.0)]
        got = candidate_segment(pts, 0, 2, tol=2.0)
        assert got is not None
        assert got[1] == pytest.approx(1.0 + 0.1 ** 2, rel=1e-12)


class TestCandidateArc:
    def test_exact_quarter_circle_accepted(self):
        pts = circle_points(af.Circle(0, 0, 2), 0.0, math.pi / 2, 10)
        prefix = build_prefix(pts)
        got = candidate_arc(pts, prefix, 0, 9, tol=1e-9)
        assert got is not None
        penalty, ssd, prim = got
        assert penalty == 3.0
        assert ssd == pytest.approx(0.0, abs=1e-10)
        assert isinstance(prim, ArcPrim)
        assert (prim.circle.cx, prim.circle.cy) == pytest.approx((0, 0), abs=1e-9)
        assert prim.circle.r == pytest.approx(2.0, rel=1e-9)

    def test_straight_points_rejected(self):
        pts = [(float(k), 0.0) for k in range(10)]
        prefix = build_prefix(pts)
        assert candidate_arc(pts, prefix, 0, 9, tol=1e-6) is None

    def test_noisy_arc_within_half_tolerance(self):
        rng = np.random.default_rng(1)
        tol = 0.05
        base = circle_points(af.Circle(0, 0, 3), 0.2, 1.8, 30)
        pts = base + rng.uniform(-tol / (2 * math.sqrt(2)),
                                 tol / (2 * math.sqrt(2)), base.shape)
        prefix = build_prefix(pts)
        got = candidate_arc(pts, prefix, 0, len(pts) - 1, tol=tol)
        assert got is not None
        _, ssd, prim = got
        interior = pts[1:-1]
        assert ssd == pytest.approx(af.exact_sse(interior, prim.circle), rel=0.1)

    def test_needs_two_interior_vertices(self):
        pts = circle_points(af.Circle(0, 0, 1), 0.0, 1.0, 4)
        prefix = build_prefix(pts)
        assert candidate_arc(pts, prefix, 0, 2, tol=1.0) is None
        assert fit_arc_candidate(pts, prefix, 0, 2) is None

    def test_zigzag_rejected(self):
        pts = circle_points(af.Circle(0, 0, 1), 0.0, 1.5, 12)
        pts[[5, 6]] = pts[[6, 5]]
        prefix = build_prefix(pts)
        assert candidate_arc(pts, prefix, 0, 11, tol=1.0) is None


class TestCompress:
    def test_three_collinear_vertices(self):
        path = compress([(0, 0), (1, 0), (2, 0)], tol=0.1)
        assert path.total_penalty == 2.0
        assert path.total_ssd == pytest.approx(0.0, abs=1e-28)
        assert path.primitives == [Segment(0, 2, path.primitives[0].ssd)]

    def test_exact_semicircle_becomes_one_arc(self):
        pts = circle_points(af.Circle(1, 1, 2), 0.0, math.pi, 20)
        path = compress(pts, tol=1e-8)
        assert path.total_penalty == 3.0
        assert path.n_arcs == 1 and path.n_segments == 0
        prim = path.primitives[0]
        assert (prim.circle.cx, prim.circle.cy) == pytest.approx((1, 1), abs=1e-9)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_tolerance_that_is_not_finite_and_nonnegative(self, tol):
        triangle = [(0.0, 0.0), (5.0, 5.0), (10.0, 0.0)]
        with pytest.raises(ValueError, match="tolerance"):
            compress(triangle, tol)

    def test_zero_tolerance_on_noisy_data_gives_adjacent_segments(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(0, 1, (8, 2))
        path = compress(pts, tol=0.0)
        assert path.total_penalty == 2.0 * 7
        assert all(isinstance(p, Segment) and p.j == p.i + 1
                   for p in path.primitives)

    def test_primitives_chain_over_polyline(self):
        rng = np.random.default_rng(3)
        pts = random_polyline(rng, 30)
        path = compress(pts, tol=0.05)
        assert path.primitives[0].i == 0
        assert path.primitives[-1].j == len(pts) - 1
        for a, b in zip(path.primitives, path.primitives[1:]):
            assert a.j == b.i
        assert path.total_penalty == 2.0 * path.n_segments + 3.0 * path.n_arcs

    def test_matches_brute_force_on_small_inputs(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            pts = random_polyline(rng, n)
            tol = rng.uniform(0.005, 0.3)
            path = compress(pts, tol)
            pen, ssd = brute_compress(pts, tol)
            assert path.total_penalty == pen
            assert path.total_ssd == pytest.approx(ssd, rel=1e-9, abs=1e-12)

    def test_tightening_tolerance_never_reduces_penalty(self):
        rng = np.random.default_rng(5)
        pts = random_polyline(rng, 25)
        tols = [0.3, 0.1, 0.03, 0.01, 0.003]
        penalties = [compress(pts, t).total_penalty for t in tols]
        assert all(b >= a for a, b in zip(penalties, penalties[1:]))

    def test_parcel_restoration(self):
        rng = np.random.default_rng(6)
        for _ in range(3):
            pts, n_seg, n_arc = parcel_polyline(rng, n_arcs=2)
            path = compress(pts, tol=1e-6 * extent(pts))
            assert path.n_arcs == n_arc
            assert path.n_segments == n_seg

    def test_prefilter_restores_exact_arcs(self):
        pts = circle_points(af.Circle(0, 0, 2), 0.3, 0.3 + math.pi, 24)
        path = compress(pts, tol=1e-8, prefilter=True)
        assert path.n_arcs == 1 and path.n_segments == 0

    def test_exact_ssd_reported_per_arc(self):
        pts = circle_points(af.Circle(0, 0, 2), 0.0, math.pi, 20)
        path = compress(pts, tol=1e-8)
        prim = path.primitives[0]
        assert prim.exact_ssd == pytest.approx(
            af.exact_sse(pts[1:-1], prim.circle), rel=1e-12, abs=1e-25)

    def test_round_trip_through_dict(self):
        rng = np.random.default_rng(7)
        pts = random_polyline(rng, 20)
        path = compress(pts, tol=0.05)
        again = af.CompressedPath.from_dict(path.to_dict(pts))
        assert again.total_penalty == path.total_penalty
        assert again.primitives == path.primitives


class TestConstantTimeFit:
    def test_fit_phase_touches_two_vertices_and_one_range(self):
        reads = {}
        queries = {}
        for n in (8, 40, 160):
            pts = circle_points(af.Circle(0, 0, 5), 0.1, 2.6, n)
            wrapped = CountingPolyline(pts)
            prefix = build_prefix(pts)
            prefix.range_queries = 0
            wrapped.reads = 0
            got = fit_arc_candidate(wrapped, prefix, 0, n - 1)
            assert got is not None
            reads[n] = wrapped.reads
            queries[n] = prefix.range_queries
        assert reads[8] == reads[40] == reads[160] == 2
        assert queries[8] == queries[40] == queries[160] == 1

    def test_validation_reads_scale_with_window(self):
        counts = {}
        for n in (8, 40, 160):
            pts = circle_points(af.Circle(0, 0, 5), 0.1, 2.6, n)
            wrapped = CountingPolyline(pts)
            prefix = build_prefix(pts)
            wrapped.reads = 0
            assert candidate_arc(wrapped, prefix, 0, n - 1, tol=1e-6) is not None
            counts[n] = wrapped.reads
        assert counts[8] < counts[40] < counts[160]
        assert counts[160] >= 160
