import math

import numpy as np
import pytest

import arcfit as af
from arcfit.errors import DegeneratePencil, NoArcExists
from arcfit.fit import one_point_matrices
from arcfit.quadratio import minimize_ratio, ratio_value

from helpers import (AnchoredObjective, circle_points, noisy_arc, pp_anchored,
                     pp_two_point, random_circle, refine_one_point, rotate,
                     two_point_grid_oracle)


class TestOnePointMatrices:
    def test_b_form_measures_anchor_distance(self):
        rng = np.random.default_rng(0)
        nm = af.normalized(af.from_points(rng.normal(0, 2, (10, 2))))
        for _ in range(50):
            xa, ya = rng.uniform(-3, 3, 2)
            forms = one_point_matrices(nm, (xa, ya))
            cx, cy = rng.uniform(-4, 4, 2)
            h = np.array([cx, cy, 1.0])
            want = (cx - xa) ** 2 + (cy - ya) ** 2
            assert h @ forms.b @ h == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_b_null_vector_is_anchor(self):
        nm = af.normalized(af.from_points([(0, 0), (1, 2), (3, -1)]))
        forms = one_point_matrices(nm, (1.5, -0.5))
        h = np.array([1.5, -0.5, 1.0])
        assert h @ forms.b @ h == pytest.approx(0.0, abs=1e-14)
        assert np.linalg.matrix_rank(forms.b) == 2

    def test_ratio_matches_per_point_objective(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(0, 2, (25, 2)) + [1, 1]
        nm = af.normalized(af.from_points(pts))
        anchor = (0.5, -0.25)
        forms = one_point_matrices(nm, anchor)
        for _ in range(50):
            cx, cy = rng.uniform(-4, 4, 2)
            scale = rng.uniform(0.5, 2.0)
            h = np.array([cx, cy, 1.0]) * scale
            got = (h @ forms.a @ h) / (4.0 * (h @ forms.b @ h))
            assert got == pytest.approx(pp_anchored(pts, anchor, cx, cy), rel=1e-9)

    def test_a_is_psd(self):
        rng = np.random.default_rng(2)
        nm = af.normalized(af.from_points(rng.normal(0, 3, (12, 2))))
        forms = one_point_matrices(nm, (2.0, 1.0))
        w = np.linalg.eigvalsh(forms.a)
        assert w.min() >= -1e-9 * max(1.0, w.max())


class TestOnePointFit:
    def test_unit_circle_through_anchor(self):
        pts = circle_points(af.Circle(0, 0, 1), 0.1, 5.0, 30)
        got = af.one_point_fit(af.from_points(pts), (1.0, 0.0))
        assert (got.cx, got.cy) == pytest.approx((0, 0), abs=1e-10)
        assert got.r == pytest.approx(1.0, rel=1e-10)

    def test_anchor_residual_is_exactly_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            truth = random_circle(rng)
            pts = noisy_arc(rng, truth, rng.uniform(0.8, 5.0), 60, 0.08)
            anchor = pts[int(rng.integers(0, len(pts)))]
            got = af.one_point_fit(af.from_points(pts), anchor)
            assert math.hypot(got.cx - anchor[0], got.cy - anchor[1]) == got.r

    def test_beats_grid_of_candidate_centers(self):
        rng = np.random.default_rng(4)
        truth = af.Circle(0, 0, 2)
        pts = noisy_arc(rng, truth, 2.5, 120, 0.05)
        anchor = tuple(pts[0])
        nm = af.normalized(af.from_points(pts))
        got = af.one_point_fit(nm, anchor)
        best_val = pp_anchored(pts, anchor, got.cx, got.cy)
        gx, gy = np.meshgrid(np.linspace(-3, 3, 100), np.linspace(-3, 3, 100))
        for cx, cy in zip(gx.ravel(), gy.ravel()):
            if (cx - anchor[0]) ** 2 + (cy - anchor[1]) ** 2 < 1e-6:
                continue
            assert best_val <= pp_anchored(pts, anchor, cx, cy) * (1 + 1e-9)

    def test_pencil_root_annihilates(self):
        # det(A - lambda B) = 0 and (A - lambda B) h = 0 at the chosen root
        rng = np.random.default_rng(5)
        for _ in range(20):
            truth = random_circle(rng)
            pts = noisy_arc(rng, truth, rng.uniform(1.0, 5.0), 80, 0.06)
            anchor = tuple(pts[3])
            nm = af.normalized(af.from_points(pts))
            got = af.one_point_fit(nm, anchor)
            forms = one_point_matrices(nm, anchor)
            h = np.array([got.cx, got.cy, 1.0])
            lam = (h @ forms.a @ h) / (h @ forms.b @ h)
            pencil = forms.a - lam * forms.b
            a_norm = np.linalg.norm(forms.a, 2)
            b_norm = np.linalg.norm(forms.b, 2)
            det_scale = max(a_norm, lam * b_norm) ** 3
            assert abs(np.linalg.det(pencil)) <= 1e-9 * det_scale
            assert np.linalg.norm(pencil @ h) <= 1e-8 * max(a_norm, lam * b_norm) \
                * np.linalg.norm(h)

    def test_degenerate_when_all_points_at_anchor(self):
        acc = af.from_points([(1.0, 1.0)] * 5)
        with pytest.raises(DegeneratePencil):
            af.one_point_fit(acc, (1.0, 1.0))

    def test_equivariance(self):
        rng = np.random.default_rng(6)
        pts = noisy_arc(rng, af.Circle(0.2, 0.4, 1.5), 2.0, 70, 0.05)
        anchor = tuple(pts[10])
        base = af.one_point_fit(af.from_points(pts), anchor)
        angle = 1.1
        shift = np.array([3.0, -2.0])
        moved = rotate(pts, angle) + shift
        anchor2 = tuple(rotate([anchor], angle)[0] + shift)
        got = af.one_point_fit(af.from_points(moved), anchor2)
        want_center = rotate([[base.cx, base.cy]], angle)[0] + shift
        assert (got.cx, got.cy) == pytest.approx(tuple(want_center), abs=1e-9)
        assert got.r == pytest.approx(base.r, abs=1e-9)


class TestRefineOnePoint:
    def test_exact_solution_unchanged(self):
        pts = circle_points(af.Circle(1, 2, 1.5), 0.2, 3.0, 20)
        anchor = tuple(pts[0])
        start = af.Circle(1, 2, math.hypot(1 - anchor[0], 2 - anchor[1]))
        got = refine_one_point(af.from_points(pts), anchor, start)
        assert (got.cx, got.cy) == pytest.approx((1, 2), abs=1e-11)
        assert got.r == pytest.approx(start.r, rel=1e-11)

    def test_recovers_from_perturbed_start(self):
        pts = circle_points(af.Circle(-1, 0.5, 2.0), 0.0, 2.4, 25)
        anchor = tuple(pts[5])
        cx, cy = -1 + 0.3, 0.5 - 0.2
        start = af.Circle(cx, cy, math.hypot(cx - anchor[0], cy - anchor[1]))
        got = refine_one_point(af.from_points(pts), anchor, start)
        assert (got.cx, got.cy) == pytest.approx((-1, 0.5), abs=1e-9)
        assert got.r == pytest.approx(2.0, rel=1e-9)

    def test_agrees_with_pencil_solver(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            truth = random_circle(rng)
            pts = noisy_arc(rng, truth, rng.uniform(1.0, 4.0), 80, 0.05)
            anchor = tuple(pts[0])
            acc = af.from_points(pts)
            direct = af.one_point_fit(acc, anchor)
            start = af.kasa_fit(acc)
            projected = af.Circle(start.cx, start.cy,
                                  math.hypot(start.cx - anchor[0],
                                             start.cy - anchor[1]))
            refined = refine_one_point(acc, anchor, projected)
            assert (refined.cx, refined.cy) == pytest.approx(
                (direct.cx, direct.cy), abs=1e-6)

    def test_objective_never_increases(self):
        rng = np.random.default_rng(8)
        pts = noisy_arc(rng, af.Circle(0, 0, 2), 1.5, 60, 0.1)
        anchor = tuple(pts[0])
        cx, cy = 0.4, -0.3
        start = af.Circle(cx, cy, math.hypot(cx - anchor[0], cy - anchor[1]))
        got = refine_one_point(af.from_points(pts), anchor, start)
        assert pp_anchored(pts, anchor, got.cx, got.cy) <= \
            pp_anchored(pts, anchor, start.cx, start.cy) * (1 + 1e-12)

    def test_start_must_pass_through_anchor(self):
        acc = af.from_points([(0, 1), (1, 0), (0, -1)])
        with pytest.raises(ValueError):
            refine_one_point(acc, (2.0, 0.0), af.Circle(0, 0, 1))

    def test_anchored_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(0, 2, (30, 2)) + [1, -2]
        anchor = np.array([0.5, 0.5])
        obj = AnchoredObjective(af.normalized(af.from_points(pts - anchor)))
        x0 = np.array([1.3, -1.9])
        got = obj.hessian_proxy(x0)
        h = 1e-5
        num = np.zeros((2, 2))
        local = pts - anchor
        for i in range(2):
            for j in range(2):
                def probe(si, sj):
                    z = x0.copy()
                    z[i] += si * h
                    z[j] += sj * h
                    return pp_anchored(local, (0, 0), z[0], z[1])
                num[i, j] = (probe(1, 1) - probe(1, -1) - probe(-1, 1)
                             + probe(-1, -1)) / (4 * h * h)
        assert np.allclose(got, num, rtol=2e-5, atol=1e-7 * np.abs(got).max())


class TestTwoPointRatio:
    def test_matches_per_point_objective(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(0, 2, (30, 2)) + [2, -1]
        acc = af.from_points(pts)
        p1, p2 = tuple(pts[0]), tuple(pts[7])
        ratio, line = af.two_point_ratio(acc, p1, p2)
        for _ in range(50):
            t = rng.uniform(-5, 5)
            assert ratio_value(ratio, t) == pytest.approx(
                pp_two_point(pts, line, p1, t), rel=1e-9)

    def test_chord_symmetric_data_minimizes_on_axis(self):
        # points on the circle centered at the chord midpoint: t* = 0
        anchors = ((-1.0, 0.0), (1.0, 0.0))
        angles = np.array([0.4, -0.4, 1.2, -1.2, 2.0, -2.0])
        pts = np.column_stack((np.cos(angles), np.sin(angles)))
        ratio, _ = af.two_point_ratio(af.from_points(pts), *anchors)
        best = minimize_ratio(ratio)
        assert best is not None
        assert best.x == pytest.approx(0.0, abs=1e-12)

    def test_swapping_anchors_flips_parameter(self):
        rng = np.random.default_rng(11)
        pts = noisy_arc(rng, af.Circle(0, 0, 2), 1.8, 50, 0.05)
        acc = af.from_points(pts)
        p1, p2 = tuple(pts[0]), tuple(pts[-1])
        r12, l12 = af.two_point_ratio(acc, p1, p2)
        r21, l21 = af.two_point_ratio(acc, p2, p1)
        b12, b21 = minimize_ratio(r12), minimize_ratio(r21)
        assert b12 is not None and b21 is not None
        assert b21.x == pytest.approx(-b12.x, rel=1e-9)
        assert l12.point_at(b12.x) == pytest.approx(l21.point_at(b21.x), abs=1e-12)

    def test_coincident_anchors_rejected(self):
        acc = af.from_points([(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            af.two_point_ratio(acc, (2.0, 2.0), (2.0, 2.0))


class TestTwoPointFit:
    def test_exact_circle_through_anchors(self):
        pts = circle_points(af.Circle(0, 0, 1), 0.0, 0.5 * math.pi, 30)
        got = af.two_point_fit(af.from_points(pts[1:-1]), (1.0, 0.0), (0.0, 1.0))
        assert (got.cx, got.cy) == pytest.approx((0, 0), abs=1e-10)
        assert got.r == pytest.approx(1.0, rel=1e-10)
        assert af.exact_sse(pts, got) == pytest.approx(0.0, abs=1e-18)

    def test_points_on_chord_give_no_arc(self):
        p1, p2 = (0.0, 0.0), (4.0, 0.0)
        pts = [(x, 0.0) for x in np.linspace(0.5, 3.5, 10)]
        with pytest.raises(NoArcExists):
            af.two_point_fit(af.from_points(pts), p1, p2)

    def test_points_on_rotated_chord_give_no_arc(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            angle = rng.uniform(0, 2 * math.pi)
            d = np.array([math.cos(angle), math.sin(angle)])
            origin = rng.uniform(-3, 3, 2)
            p1 = tuple(origin)
            p2 = tuple(origin + 4 * d)
            pts = [origin + s * d for s in np.linspace(0.3, 3.7, 12)]
            with pytest.raises(NoArcExists):
                af.two_point_fit(af.from_points(pts), p1, p2)

    def test_anchor_residuals_at_machine_precision(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            truth = random_circle(rng)
            pts = noisy_arc(rng, truth, rng.uniform(1.0, 4.0), 60, 0.05)
            p1, p2 = tuple(pts[0]), tuple(pts[-1])
            got = af.two_point_fit(af.from_points(pts[1:-1]), p1, p2)
            assert math.hypot(got.cx - p1[0], got.cy - p1[1]) == got.r
            assert math.hypot(got.cx - p2[0], got.cy - p2[1]) == \
                pytest.approx(got.r, rel=1e-13)

    def test_matches_dense_grid_scan(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            truth = random_circle(rng)
            pts = noisy_arc(rng, truth, rng.uniform(1.5, 4.0), 80, 0.05)
            p1, p2 = tuple(pts[0]), tuple(pts[-1])
            inner = pts[1:-1]
            ratio, line = af.two_point_ratio(af.from_points(inner), p1, p2)
            best = minimize_ratio(ratio)
            assert best is not None
            span = 10.0 * (abs(best.x) + line.half_chord)
            x_scan = two_point_grid_oracle(inner, line, p1,
                                           best.x - span, best.x + span)
            assert x_scan == pytest.approx(best.x, rel=1e-8)

    def test_equivariance(self):
        rng = np.random.default_rng(15)
        pts = noisy_arc(rng, af.Circle(1, 1, 2), 2.2, 60, 0.04)
        p1, p2 = tuple(pts[0]), tuple(pts[-1])
        base = af.two_point_fit(af.from_points(pts), p1, p2)
        angle, shift = 0.7, np.array([-4.0, 2.5])
        moved = rotate(pts, angle) + shift
        q1 = tuple(rotate([p1], angle)[0] + shift)
        q2 = tuple(rotate([p2], angle)[0] + shift)
        got = af.two_point_fit(af.from_points(moved), q1, q2)
        want_center = rotate([[base.cx, base.cy]], angle)[0] + shift
        assert (got.cx, got.cy) == pytest.approx(tuple(want_center), abs=1e-9)
        assert got.r == pytest.approx(base.r, abs=1e-9)


class TestExactRecoveryAllFitters:
    def test_all_three_recover_exact_data(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            truth = random_circle(rng)
            span = rng.uniform(math.radians(20), 2 * math.pi)
            t0 = rng.uniform(0, 2 * math.pi)
            pts = circle_points(truth, t0, t0 + span, 24)
            acc = af.from_points(pts)
            for got in (af.free_fit(acc),
                        af.one_point_fit(acc, tuple(pts[0])),
                        af.two_point_fit(acc, tuple(pts[0]), tuple(pts[-1]))):
                assert got.cx == pytest.approx(truth.cx, abs=1e-9 * truth.r)
                assert got.cy == pytest.approx(truth.cy, abs=1e-9 * truth.r)
                assert got.r == pytest.approx(truth.r, rel=1e-9)
