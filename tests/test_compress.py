import math

import numpy as np
import pytest

import arcfit as af
from arcfit.compress import (ArcPrim, Segment, _arc_cannot_pass, _orient_arc,
                             _segment_cannot_pass, _window_starts, build_prefix,
                             candidate_arc, candidate_segment, compress,
                             fit_arc_candidate)
from arcfit.reference import check_tolerance_zigzag

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


def bound_test_polyline(rng, n):
    """Exact or noisy arc, near-line or random walk, at a random scale and
    up to 1e9 from the origin; returns the points and the scale."""
    kind = rng.integers(4)
    scale = 10.0 ** rng.uniform(-3, 3)
    offset = rng.choice([0.0, 1e3, 1e6, 1e9]) * rng.uniform(-1, 1, 2)
    if kind <= 1:
        t0 = rng.uniform(0, 2 * math.pi)
        span = rng.uniform(0.3, 3.0)
        pts = circle_points(af.Circle(0, 0, 1), t0, t0 + span, n)
        if kind == 1:
            pts = pts + rng.normal(0, 10.0 ** rng.uniform(-9, -2), pts.shape)
    elif kind == 2:
        t = np.sort(rng.uniform(0, 1, n))
        pts = np.column_stack((t, 1e-3 * t))
        pts = pts + rng.normal(0, 10.0 ** rng.uniform(-12, -4), pts.shape)
    else:
        pts = np.cumsum(rng.normal(0, 1, (n, 2)), axis=0)
    return pts * scale + offset, scale


def check_bounds(pts, tols, seen):
    """Over every (i, j) of pts and each tol: whatever a bound or the window
    cut rejects, candidate_segment or _orient_arc + check_tolerance_zigzag
    rejects too. Counts passes, bound cuts and window cuts into seen."""
    n = len(pts)
    prefix = build_prefix(pts)
    for tol in tols:
        arc_start, seg_start = _window_starts(pts, tol)
        for i in range(n - 2):
            for j in range(i + 2, n):
                seg = candidate_segment(pts, i, j, tol)
                seen["seg_pass"] += seg is not None
                if _segment_cannot_pass(pts, prefix, i, j, tol):
                    seen["seg_cut"] += 1
                    assert seg is None, (i, j, tol)
                if i < seg_start[j]:
                    seen["seg_skip"] += 1
                    assert seg is None, (i, j, tol)
                fitted = fit_arc_candidate(pts, prefix, i, j)
                if fitted is None:
                    continue
                _, ssd, circle = fitted
                window = pts[i:j + 1]
                arc = _orient_arc(circle, window)
                ok = (arc is not None
                      and check_tolerance_zigzag(window, arc, tol).ok)
                seen["arc_pass"] += ok
                if _arc_cannot_pass(ssd, j - i - 1, circle.r, tol):
                    seen["arc_cut"] += 1
                    assert not ok, (i, j, tol, circle)
                if i < arc_start[j]:
                    seen["arc_skip"] += 1
                    assert not ok, (i, j, tol, circle)


def new_seen():
    return dict(arc_pass=0, arc_cut=0, arc_skip=0,
                seg_pass=0, seg_cut=0, seg_skip=0)


def edge_of_tolerance_polyline(rng, n):
    """Polyline whose vertices sit at the edge of a tolerance, at a random
    scale and up to 1e9 from the origin: an exact arc with its interior
    vertices pushed radially by +-tol in turn, a line zigzagging +-tol about
    its chord, or a parcel with uniform noise of up to 0.7 tol. Returns the
    points and the tolerance."""
    kind = rng.integers(3)
    scale = 10.0 ** rng.uniform(-3, 3)
    offset = rng.choice([0.0, 1e3, 1e6, 1e9]) * rng.uniform(-1, 1, 2)
    tol = 10.0 ** rng.uniform(-9, -2)
    if kind == 0:
        t0 = rng.uniform(0, 2 * math.pi)
        r = rng.uniform(0.5, 2.0)
        theta = np.linspace(t0, t0 + rng.uniform(0.3, 3.0), n)
        push = np.where(np.arange(n) % 2, tol, -tol)
        push[[0, -1]] = 0.0
        rad = r + push
        pts = np.column_stack((rad * np.cos(theta), rad * np.sin(theta)))
    elif kind == 1:
        heading = rng.uniform(0, 2 * math.pi)
        d = np.array([math.cos(heading), math.sin(heading)])
        normal = np.array([-d[1], d[0]])
        side = np.where(np.arange(n) % 2, tol, -tol)
        side[[0, -1]] = 0.0
        pts = np.outer(np.sort(rng.uniform(0, 3, n)), d) + np.outer(side, normal)
    else:
        pts, _, _ = parcel_polyline(rng, n_arcs=1)
        tol = 1e-6 * extent(pts) * 10.0 ** rng.uniform(0, 3)
        pts = pts + rng.uniform(-0.7 * tol, 0.7 * tol, pts.shape) / math.sqrt(2)
    return pts * scale + offset, tol * scale


class TestCandidateBounds:
    def test_bounds_reject_only_what_validation_rejects(self):
        rng = np.random.default_rng(2024)
        seen = new_seen()
        for _ in range(40):
            pts, scale = bound_test_polyline(rng, int(rng.integers(5, 13)))
            check_bounds(pts, (0.0, 1e-12 * scale, 1e-6, 1e-3 * scale,
                               0.05 * scale), seen)
        # the check is not vacuous: both bounds cut, and candidates pass
        assert min(seen.values()) > 100, seen

    @pytest.mark.parametrize("scale, cuts", [(1e-150, True), (1e-158, True),
                                             (1e-300, False)])
    def test_bounds_hold_where_squares_underflow(self, scale, cuts):
        # Squared distances of these polylines are subnormal or below the
        # smallest float, where rounding is absolute, not relative. At 1e-300
        # all of them are below the bounds' subnormal floor, so the bounds
        # cut nothing there and leave every candidate to validation.
        rng = np.random.default_rng(int(-math.log10(scale)))
        seen = new_seen()
        tols = (0.0, 1e-12 * scale, 1e-3 * scale)
        for _ in range(20):
            pts, s = bound_test_polyline(rng, int(rng.integers(5, 11)))
            check_bounds(pts * (scale / s), tols, seen)
        for _ in range(10):
            # near-lines whose offsets square to subnormals or to zero
            n = int(rng.integers(4, 9))
            t = np.sort(rng.uniform(0, 1, n))
            noise = rng.normal(0, 10.0 ** rng.uniform(-14, -11), (n, 2))
            check_bounds((np.column_stack((t, t)) + noise) * scale, tols, seen)
        assert min(seen["arc_pass"], seen["seg_pass"]) > 10, seen
        assert (min(seen["arc_cut"], seen["seg_cut"]) > 10) == cuts, seen

    @staticmethod
    def every_vertex_at_tol(scale, radius):
        """Interior vertices all exactly 5 * scale from the center and the
        anchors on the circle: each vertex deviates by the same d - r, so the
        ssd is as large as an accepted arc's can be. Returns the ssd, r and
        the smallest tol that validation accepts."""
        r = radius * scale
        interior = np.array([(4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3)]) * scale
        window = np.vstack(([(r, 0.0)], interior, [(-r, 0.0)]))
        circle = af.Circle(0.0, 0.0, r)
        arc = af.Arc.from_endpoints(circle, window[0], window[-1], ccw=True)
        tol = check_tolerance_zigzag(window, arc, math.inf).max_dev
        assert check_tolerance_zigzag(window, arc, tol).ok
        return af.penalty(af.from_points(interior), circle), r, tol

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -30, 2.0 ** 40])
    @pytest.mark.parametrize("radius", [5.0 * (1.0 - 2.0 ** -20), 4.0, 2.0])
    def test_arc_bound_admits_every_vertex_at_tol(self, scale, radius):
        ssd, r, tol = self.every_vertex_at_tol(scale, radius)
        assert not _arc_cannot_pass(ssd, 5, r, tol)
        assert _arc_cannot_pass(ssd, 5, r, 0.99 * tol)

    @pytest.mark.parametrize("exp", range(-524, -512))
    def test_arc_bound_admits_every_vertex_at_tol_as_squares_underflow(self, exp):
        # Deviations of 5 * 2**-20 * scale square to between a thousandth
        # and a few thousand of the smallest subnormal: the bound's t * t is
        # off by up to half that spacing, down to 0 at the small end, while
        # the ssd sums five squares before it rounds.
        ssd, r, tol = self.every_vertex_at_tol(2.0 ** exp, 5.0 * (1.0 - 2.0 ** -20))
        assert not _arc_cannot_pass(ssd, 5, r, tol)

    def test_segment_bound_admits_a_vertex_at_tol(self):
        # The vertex is exactly 5 * scale from the tilted chord; tol is the
        # distance validation computes, which rounding sometimes puts below
        # the exact one.
        below = 0
        for scale in (2.0 ** -20, 1.0, 2.0 ** 30):
            for offset in (0.0, 2.0 ** 20, 3e6):
                a = np.array([offset, -offset])
                for t in range(1, 40):
                    for length in (40, 41, 77):
                        steps = [(4 * t - 3, 3 * t + 4), (4 * length, 3 * length)]
                        pts = np.vstack(([a], a + scale * np.array(steps)))
                        ab, rel = pts[2] - a, pts[1] - a
                        off = rel - np.clip((rel @ ab) / (ab @ ab), 0, 1) * ab
                        tol = math.sqrt(off @ off)
                        below += tol < 5 * scale
                        assert candidate_segment(pts, 0, 2, tol) is not None
                        assert not _segment_cannot_pass(
                            pts, build_prefix(pts), 0, 2, tol)
        assert below > 0

    def test_segment_accepted_at_underflow_stays_one_segment(self):
        # candidate_segment squares each offset component (1.44e-324 rounds
        # to 0) and accepts at tol 0; the exact line sum rounds to 4.9e-324.
        pts = [(0.0, 0.0), (5e-151 + 1.2e-162, 5e-151 - 1.2e-162),
               (1e-150, 1e-150)]
        assert candidate_segment(np.array(pts), 0, 2, 0.0) is not None
        path = compress(pts, 0.0)
        assert path.total_penalty == 2.0
        assert [(p.i, p.j) for p in path.primitives] == [(0, 2)]

    def test_pruned_search_matches_plain_search(self):
        # bounds, pruning and the window cut together, also at the edge of
        # tolerance and where squares underflow or overflow
        rng = np.random.default_rng(8)
        cases = []
        for _ in range(12):
            pts = random_polyline(rng, int(rng.integers(8, 25)))
            cases += [(pts, tol) for tol in (0.0, 0.01, 0.05, 0.3)]
        for _ in range(12):
            pts, tol = edge_of_tolerance_polyline(rng, int(rng.integers(8, 25)))
            cases += [(pts, tol), (pts, 1.5 * tol)]
        for scale in (1e-300, 1e-150, 1e150):
            pts, _, _ = parcel_polyline(rng, n_arcs=1)
            cases.append((pts * scale, 1e-6 * extent(pts) * scale))
        for pts, tol in cases:
            want = plain_compress(pts, tol)
            got = compress(pts, tol)
            assert (got.total_penalty, got.total_ssd) == want[:2]
            assert got.primitives == want[2]


class TestWindowCut:
    def test_cut_rejects_only_what_validation_rejects_at_tolerance_edge(self):
        rng = np.random.default_rng(2026)
        seen = new_seen()
        for _ in range(30):
            pts, tol = edge_of_tolerance_polyline(rng, int(rng.integers(6, 16)))
            check_bounds(pts, (tol, 1.5 * tol), seen)
        assert min(seen.values()) > 100, seen

    def test_thousand_vertex_parcel_is_restored(self, monkeypatch):
        # Many arc runs with kinked junctions: the cut leaves each end
        # vertex a handful of arc candidates instead of every start.
        import arcfit.compress as cmp
        pts, n_seg, n_arc = parcel_polyline(np.random.default_rng(11),
                                            n_arcs=44)
        assert len(pts) >= 900
        calls = []
        real = cmp.candidate_arc
        monkeypatch.setattr(cmp, "candidate_arc",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        path = compress(pts, tol=1e-6 * extent(pts))
        assert (path.n_segments, path.n_arcs) == (n_seg, n_arc)
        assert len(calls) < 5 * len(pts)


def plain_compress(pts, tol):
    """The compressor's DP over every (i, j) and both candidate kinds, with
    neither bounds nor pruning: (penalty, ssd, primitives)."""
    n = len(pts)
    prefix = build_prefix(pts)
    best = [(math.inf, 0.0)] * n
    best[0] = (0.0, 0.0)
    back = [None] * n
    for j in range(1, n):
        for i in range(j):
            cands = [candidate_segment(pts, i, j, tol)]
            fitted = fit_arc_candidate(pts, prefix, i, j)
            if fitted is not None:
                pen, ssd, circle = fitted
                window = pts[i:j + 1]
                arc = _orient_arc(circle, window)
                if arc is not None and check_tolerance_zigzag(window, arc, tol).ok:
                    cands.append((pen, ssd, ArcPrim(i, j, circle, arc.ccw, ssd)))
            for cand in cands:
                if cand is None:
                    continue
                tot = (best[i][0] + cand[0], best[i][1] + cand[1])
                if tot < best[j]:
                    best[j], back[j] = tot, cand[2]
    prims, k = [], n - 1
    while k > 0:
        prims.append(back[k])
        k = back[k].i
    prims.reverse()
    final = [ArcPrim(p.i, p.j, p.circle, p.ccw, p.ssd,
                     exact_ssd=af.exact_sse(pts[p.i + 1:p.j], p.circle))
             if isinstance(p, ArcPrim) else p for p in prims]
    return best[n - 1][0], best[n - 1][1], final
