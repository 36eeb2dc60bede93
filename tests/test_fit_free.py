import math

import numpy as np
import pytest
from mpmath import mp, mpf

import arcfit as af
from arcfit.errors import CollinearOrDegenerate
from arcfit.fit import Estimate, d_proxy, fit_coeffs, line_ratio
from arcfit.quadratio import ratio_value
from arcfit.scenario import SimScenario, trial_points

from helpers import (circle_points, noisy_arc, pp_free, pratt_fit,
                     random_circle, rotate)


class TestKasa:
    def test_four_cardinal_points(self):
        c = af.kasa_fit(af.from_points([(1, 0), (-1, 0), (0, 1), (0, -1)]))
        assert (c.cx, c.cy) == pytest.approx((0, 0), abs=1e-15)
        assert c.r == pytest.approx(1.0, rel=1e-15)

    def test_circumcircle_of_three(self):
        c = af.kasa_fit(af.from_points([(1, 0), (0, 1), (-1, 0)]))
        assert (c.cx, c.cy) == pytest.approx((0, 0), abs=1e-12)
        assert c.r == pytest.approx(1.0, rel=1e-12)

    def test_collinear_rejected(self):
        pts = [(t, 2 * t + 1) for t in np.linspace(0, 1, 9)]
        with pytest.raises(CollinearOrDegenerate):
            af.kasa_fit(af.from_points(pts))

    def test_matches_linear_least_squares_oracle(self):
        # same objective as an unconstrained lstsq on x^2+y^2 + a x + b y + c
        rng = np.random.default_rng(12)
        for _ in range(10):
            pts = noisy_arc(rng, random_circle(rng), rng.uniform(1.0, 6.0),
                            60, 0.05)
            design = np.column_stack((pts[:, 0], pts[:, 1], np.ones(len(pts))))
            target = -(pts[:, 0] ** 2 + pts[:, 1] ** 2)
            (a, b, c0), *_ = np.linalg.lstsq(design, target, rcond=None)
            want_cx, want_cy = -a / 2.0, -b / 2.0
            want_r = math.sqrt(want_cx ** 2 + want_cy ** 2 - c0)
            got = af.kasa_fit(af.from_points(pts))
            assert (got.cx, got.cy) == pytest.approx((want_cx, want_cy), rel=1e-9)
            assert got.r == pytest.approx(want_r, rel=1e-9)

    def test_short_arc_radius_is_biased_low(self):
        # 72-degree arc with 10% disc noise: mean fitted radius under-shoots
        scn = SimScenario(trials=30, seed=7)
        radii = []
        for k in range(scn.trials):
            radii.append(af.kasa_fit(af.from_points(trial_points(scn, k))).r)
        assert np.mean(radii) < scn.radius


class TestFitCoeffs:
    def test_stationary_at_perfect_fit(self):
        pts = circle_points(af.Circle(0, 0, 1), 0.0, 2 * math.pi, 24)
        c = fit_coeffs(af.normalized(af.from_points(pts)), Estimate(0, 0, 1))
        assert c.v == pytest.approx(0.0, abs=1e-14)
        assert c.v_x == pytest.approx(0.0, abs=1e-13)
        assert c.v_y == pytest.approx(0.0, abs=1e-13)
        assert c.v_r == pytest.approx(0.0, abs=1e-13)

    def test_single_point_residual(self):
        nm = af.normalized(af.from_points([(1.1, 0.0)]))
        c = fit_coeffs(nm, Estimate(0.0, 0.0, 1.0))
        assert c.v == pytest.approx((1.1 ** 2 - 1.0) ** 2, rel=1e-12)

    def test_ratio_matches_per_point_form(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(0, 2, (30, 2)) + [1.5, -0.5]
        nm = af.normalized(af.from_points(pts))
        e = Estimate(1.0, -1.0, 2.5)
        c = fit_coeffs(nm, e)
        for _ in range(100):
            dx, dy, dr = rng.uniform(-1, 1, 3)
            num = (c.v + c.v_x * dx + c.v_y * dy + c.v_r * dr
                   + c.v_xx * dx * dx + c.v_yy * dy * dy + dr * dr
                   + c.v_xy * dx * dy + c.v_xr * dx * dr + c.v_yr * dy * dr)
            den = 4.0 * (e.re ** 2 + dx * dx + dy * dy + dr)
            want = pp_free(pts, e.xe, e.ye, e.re, dx, dy, dr)
            assert num / den == pytest.approx(want, rel=1e-9)

    def test_second_order_block_is_psd(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            pts = rng.normal(0, 3, (15, 2))
            nm = af.normalized(af.from_points(pts))
            c = fit_coeffs(nm, Estimate(*rng.uniform(-2, 2, 2), rng.uniform(0.5, 3)))
            block = np.array([
                [c.v_xx, c.v_xy / 2, c.v_xr / 2],
                [c.v_xy / 2, c.v_yy, c.v_yr / 2],
                [c.v_xr / 2, c.v_yr / 2, 1.0],
            ])
            w = np.linalg.eigvalsh(block)
            assert w.min() >= -1e-9 * max(1.0, abs(w).max())
            assert c.v >= -1e-9 * (1.0 + abs(c.v))


class TestDProxy:
    def test_exact_fit_diagonal_positive(self):
        pts = circle_points(af.Circle(0, 0, 2), 0.3, 4.0, 18)
        nm = af.normalized(af.from_points(pts))
        c = fit_coeffs(nm, Estimate(0, 0, 2))
        d = d_proxy(c, 2.0)
        assert d.d_xx == pytest.approx(2.0 * c.v_xx * 2.0 ** 4, rel=1e-9)
        assert d.d_xx > 0

    def test_matrix_is_symmetric(self):
        rng = np.random.default_rng(5)
        nm = af.normalized(af.from_points(rng.normal(0, 2, (12, 2))))
        d = d_proxy(fit_coeffs(nm, Estimate(0.5, -0.3, 1.7)), 1.7)
        m = d.as_matrix()
        assert np.array_equal(m, m.T)

    def test_proportional_to_numeric_hessian(self):
        # central differences, step 1e-5, evaluated in high precision so the
        # difference noise stays below the 1e-6 proportionality tolerance
        mp.dps = 40
        rng = np.random.default_rng(7)
        pts = rng.normal(0, 2, (30, 2)) + [3, -1]
        nm = af.normalized(af.from_points(pts))
        e = Estimate(2.5, -0.5, 3.0)
        d = d_proxy(fit_coeffs(nm, e), e.re).as_matrix()

        def f(dx, dy, dr):
            deltas = [mpf(dx), mpf(dy), mpf(dr)]
            r2 = mpf(e.re) ** 2 + deltas[0] ** 2 + deltas[1] ** 2 + deltas[2]
            total = mpf(0)
            for x, y in pts:
                resid = ((mpf(x) - e.xe - deltas[0]) ** 2
                         + (mpf(y) - e.ye - deltas[1]) ** 2 - r2)
                total += resid * resid
            return total / len(pts) / (4 * r2)

        h = 1e-5
        hess = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                def probe(si, sj):
                    step = [0.0, 0.0, 0.0]
                    step[i] += si * h
                    step[j] += sj * h
                    return f(*step)
                hess[i, j] = float((probe(1, 1) - probe(1, -1)
                                    - probe(-1, 1) + probe(-1, -1)) / (4 * h * h))

        factor = d[0, 0] / hess[0, 0]
        assert factor == pytest.approx(4.0 * e.re ** 6, rel=1e-6)
        assert np.allclose(d, factor * hess, rtol=1e-6)


class TestLineRatio:
    def test_value_at_origin(self):
        rng = np.random.default_rng(8)
        nm = af.normalized(af.from_points(rng.normal(0, 1, (10, 2))))
        e = Estimate(0.2, 0.1, 1.5)
        c = fit_coeffs(nm, e)
        q = line_ratio(c, e.re, (0.6, -0.8, 0.3))
        assert ratio_value(q, 0.0) == pytest.approx(
            max(c.v, 0.0) / (4 * e.re ** 2), rel=1e-12)

    def test_radius_only_direction(self):
        rng = np.random.default_rng(9)
        nm = af.normalized(af.from_points(rng.normal(0, 1, (10, 2))))
        e = Estimate(0.0, 0.0, 2.0)
        c = fit_coeffs(nm, e)
        q = line_ratio(c, e.re, (0.0, 0.0, 1.0))
        assert q.a == pytest.approx((c.v, c.v_r, 1.0))
        assert q.b == pytest.approx((4 * e.re ** 2, 4.0, 0.0))

    def test_matches_per_point_along_random_directions(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(0, 2, (25, 2)) + [0.5, 2.0]
        nm = af.normalized(af.from_points(pts))
        e = Estimate(0.3, 1.8, 2.2)
        c = fit_coeffs(nm, e)
        for _ in range(20):
            d = rng.normal(size=3)
            q = line_ratio(c, e.re, d)
            for _ in range(20):
                t = rng.uniform(-0.4, 0.4)
                if q.denominator(t) <= 0:
                    continue
                want = pp_free(pts, e.xe, e.ye, e.re,
                               d[0] * t, d[1] * t, d[2] * t)
                assert ratio_value(q, t) == pytest.approx(want, rel=1e-9)

    def test_zero_direction_rejected(self):
        nm = af.normalized(af.from_points([(0, 0), (1, 1), (2, 0)]))
        c = fit_coeffs(nm, Estimate(1, 0, 1))
        with pytest.raises(ValueError):
            line_ratio(c, 1.0, (0.0, 0.0, 0.0))


class TestFreeFit:
    def test_exact_circle_recovered(self):
        truth = af.Circle(2.0, -3.0, 1.5)
        pts = circle_points(truth, 0.5, 3.5, 20)
        acc = af.from_points(pts)
        got = af.free_fit(acc)
        assert (got.cx, got.cy) == pytest.approx((truth.cx, truth.cy), abs=1e-10)
        assert got.r == pytest.approx(truth.r, rel=1e-10)
        # moment-path objective floor is eps * r^4 per point
        assert af.penalty(acc, got) == pytest.approx(0.0, abs=1e-12)

    def test_objective_never_above_kasa_start(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            pts = noisy_arc(rng, random_circle(rng), rng.uniform(0.8, 6.2),
                            120, 0.08)
            acc = af.from_points(pts)
            start = af.kasa_fit(acc)
            fitted = af.free_fit(acc, sweeps=1)
            assert af.penalty(acc, fitted) <= af.penalty(acc, start) * (1 + 1e-12)

    def test_strict_descent_on_biased_scenario(self):
        scn = SimScenario(trials=25, seed=3)
        for k in range(scn.trials):
            acc = af.from_points(trial_points(scn, k))
            assert af.penalty(acc, af.free_fit(acc)) < af.penalty(acc, af.kasa_fit(acc))

    def test_collinear_error_propagates(self):
        pts = [(t, -t) for t in np.linspace(0, 2, 8)]
        with pytest.raises(CollinearOrDegenerate):
            af.free_fit(af.from_points(pts))

    def test_accepts_normalized_moments(self):
        pts = circle_points(af.Circle(0, 0, 1), 0.1, 2.0, 15)
        nm = af.normalized(af.from_points(pts))
        got = af.free_fit(nm)
        assert got.r == pytest.approx(1.0, rel=1e-9)

    def test_equivariance_under_rotation_and_translation(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            pts = noisy_arc(rng, af.Circle(0.5, -0.2, 1.2), 2.0, 80, 0.05)
            base = af.free_fit(af.from_points(pts))
            angle = rng.uniform(0, 2 * math.pi)
            shift = rng.uniform(-5, 5, 2)
            moved = rotate(pts, angle) + shift
            got = af.free_fit(af.from_points(moved))
            want_center = rotate([[base.cx, base.cy]], angle)[0] + shift
            assert (got.cx, got.cy) == pytest.approx(tuple(want_center), abs=1e-9)
            assert got.r == pytest.approx(base.r, abs=1e-9)


class TestPrattOracle:
    """The converged free fit is the global minimum: it matches the
    closed-form Pratt pencil, an independent numpy solver on raw points."""

    @pytest.mark.parametrize("span_deg", [20.0, 72.0, 180.0])
    def test_converged_fit_matches_pencil(self, span_deg):
        rng = np.random.default_rng(int(span_deg))
        worst = 0.0
        for _ in range(40):
            pts = noisy_arc(rng, random_circle(rng), math.radians(span_deg),
                            100, 0.1)
            got = af.free_fit(af.from_points(pts), sweeps=20, tol=1e-14)
            cx, cy, r = pratt_fit(pts)
            gap = max(abs(got.cx - cx), abs(got.cy - cy), abs(got.r - r)) / r
            worst = max(worst, gap)
        assert worst <= 1e-8


class TestPenalty:
    def test_zero_on_circle(self):
        pts = circle_points(af.Circle(1, 1, 2), 0.2, 2.8, 30)
        assert af.penalty(af.from_points(pts), af.Circle(1, 1, 2)) == \
            pytest.approx(0.0, abs=1e-20)

    def test_single_point_value(self):
        acc = af.from_points([(1.1, 0.0)])
        assert af.penalty(acc, af.Circle(0, 0, 1)) == pytest.approx(0.011025, rel=1e-12)
        # the exact squared deviation it approximates is 0.01
        assert af.exact_sse([(1.1, 0.0)], af.Circle(0, 0, 1)) == pytest.approx(0.01)

    def test_tracks_exact_sse_at_low_noise(self):
        rng = np.random.default_rng(14)
        truth = af.Circle(0, 0, 2)
        pts = noisy_arc(rng, truth, 2.4, 1000, 0.01)
        approx = af.penalty(af.from_points(pts), truth)
        exact = af.exact_sse(pts, truth)
        assert approx == pytest.approx(exact, rel=0.01)

    def test_nonnegative(self):
        rng = np.random.default_rng(15)
        pts = rng.normal(0, 1, (40, 2))
        acc = af.from_points(pts)
        for _ in range(20):
            c = random_circle(rng)
            assert af.penalty(acc, c) >= 0.0


class TestEstimate:
    def test_delta_updates_radius_through_sqrt(self):
        e = Estimate(1.0, 2.0, 2.0)
        moved = e.apply_delta(0.3, -0.4, 0.5)
        assert moved.xe == pytest.approx(1.3)
        assert moved.ye == pytest.approx(1.6)
        assert moved.re == pytest.approx(math.sqrt(4.0 + 0.09 + 0.16 + 0.5))

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            Estimate(0, 0, 0.0)
        with pytest.raises(ValueError):
            Estimate(0, 0, 1.0).apply_delta(0, 0, -1.0)
