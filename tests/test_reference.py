import math

import numpy as np
import pytest

import arcfit as af
from arcfit.errors import NonConvergence
from arcfit.fit import Estimate, fit_coeffs
from arcfit.reference import Arc
from arcfit.scenario import SimScenario, trial_points

from helpers import (circle_points, newton_polish, noisy_arc, radial_derivatives,
                     random_circle)


def quarter_arc():
    return Arc.from_endpoints(af.Circle(0, 0, 1), (1, 0), (0, 1), ccw=True)


class TestExactObjectives:
    def test_zero_on_circle(self):
        pts = circle_points(af.Circle(0, 0, 1), 0, 2, 15)
        c = af.Circle(0, 0, 1)
        assert af.exact_objective_sq(pts, c) == pytest.approx(0.0, abs=1e-28)
        assert af.exact_sse(pts, c) == pytest.approx(0.0, abs=1e-28)

    def test_single_point_values(self):
        c = af.Circle(0, 0, 1)
        assert af.exact_objective_sq([(1.1, 0)], c) == pytest.approx(0.0441, rel=1e-12)
        assert af.exact_sse([(1.1, 0)], c) == pytest.approx(0.01, rel=1e-12)

    def test_matches_moment_path(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            pts = rng.normal(0, 1.5, (40, 2))
            c = random_circle(rng, center_scale=1.0)
            nm = af.normalized(af.from_points(pts))
            v = fit_coeffs(nm, Estimate(c.cx, c.cy, c.r)).v
            assert af.exact_objective_sq(pts, c) == pytest.approx(
                nm.w * v, rel=1e-9)

    def test_taylor_ratio_bound(self):
        # objective ratio: squared-distances form over 4r^2 * geometric form,
        # off by at most ~3 * (max radial deviation / r) at moderate noise
        rng = np.random.default_rng(1)
        for noise in (0.02, 0.05, 0.1):
            truth = af.Circle(0, 0, 2)
            pts = noisy_arc(rng, truth, 2.0, 400, noise)
            ratio = af.exact_objective_sq(pts, truth) / (
                4 * truth.r ** 2 * af.exact_sse(pts, truth))
            d = np.hypot(pts[:, 0], pts[:, 1])
            max_dev = np.abs(d - truth.r).max()
            assert abs(ratio - 1.0) <= 3.0 * max_dev / truth.r


class TestGeometricFit:
    def test_exact_circle(self):
        truth = af.Circle(1, -2, 1.5)
        pts = circle_points(truth, 0.2, 3.0, 25)
        start = af.Circle(1.2, -1.8, 1.2)
        got = af.geometric_fit(pts, start)
        assert (got.cx, got.cy) == pytest.approx((1, -2), abs=1e-10)
        assert got.r == pytest.approx(1.5, rel=1e-10)
        assert af.exact_sse(pts, got) == pytest.approx(0.0, abs=1e-24)

    def test_residual_never_above_start(self):
        # noisy arcs, exact circles and short arcs (0.2-0.4 rad), from the
        # Kasa start
        rng = np.random.default_rng(2)
        for lo, hi, noise in ((1, 5, 0.1), (1, 5, 0.0), (0.2, 0.4, 0.05),
                              (0.2, 0.4, 0.0)):
            for _ in range(15):
                pts = noisy_arc(rng, random_circle(rng), rng.uniform(lo, hi),
                                80, noise)
                start = af.kasa_fit(af.from_points(pts))
                got = af.geometric_fit(pts, start)
                assert (af.exact_sse(pts, got)
                        <= af.exact_sse(pts, start) * (1 + 1e-12))

    def test_matches_dense_newton_polish(self):
        # 72 degrees, 10% noise: the fit is the minimum a plain dense Newton
        # polish settles on, and the decrease a Newton step still predicts
        # is at the rounding floor of the float SSE. (Refusing the last,
        # floor-sized step on rounding noise leaves gaps near 1e-8.)
        scn = SimScenario(trials=20, seed=21)
        n = scn.n_points
        for k in range(scn.trials):
            pts = trial_points(scn, k)
            got = af.geometric_fit(pts, af.kasa_fit(af.from_points(pts)))
            ref = newton_polish(pts, got)
            assert math.hypot(got.cx - ref.cx, got.cy - ref.cy) <= 1e-10 * ref.r
            assert got.r == pytest.approx(ref.r, rel=1e-10)
            grad, hess, sse = radial_derivatives(pts, got)
            assert np.all(np.linalg.eigvalsh(hess) > 0.0)
            decrease = grad @ np.linalg.solve(hess, grad)
            assert decrease <= 2 * 4 * math.log2(n) * 2.0 ** -53 * sse

    def test_short_noisy_arcs_settle(self):
        # Gauss-Newton steps alone crawl here: they run out of iterations on
        # trials 34, 39, 40 and 50 of this scan.
        for span in (10.0, 20.0, 30.0):
            for noise in (0.05, 0.1):
                scn = SimScenario(arc_span_deg=span, noise_amp=noise,
                                  n_points=200, trials=60, seed=1)
                for k in range(scn.trials):
                    pts = trial_points(scn, k)
                    start = af.kasa_fit(af.from_points(pts))
                    got = af.geometric_fit(pts, start)
                    assert af.exact_sse(pts, got) <= af.exact_sse(pts, start)

    def test_tracks_truth_better_than_kasa_on_short_arcs(self):
        scn = SimScenario(trials=30, seed=5)
        wins = 0
        for k in range(scn.trials):
            pts = trial_points(scn, k)
            kasa = af.kasa_fit(af.from_points(pts))
            geom = af.geometric_fit(pts, kasa)
            if abs(geom.r - scn.radius) < abs(kasa.r - scn.radius):
                wins += 1
        assert wins >= 0.9 * scn.trials

    def test_free_fit_approximates_geometric(self):
        # agreement is quadratic in the noise level: measured over 200 trials,
        # worst case is ~2e-2*r at 10% noise and ~2e-4*r at 1% noise
        scn = SimScenario(trials=20, seed=6)
        for k in range(scn.trials):
            pts = trial_points(scn, k)
            acc = af.from_points(pts)
            free = af.free_fit(acc)
            geom = af.geometric_fit(pts, af.kasa_fit(acc))
            assert math.hypot(free.cx - geom.cx, free.cy - geom.cy) <= 3e-2
            assert abs(free.r - geom.r) <= 3e-2 * geom.r

    def test_free_fit_tracks_geometric_tightly_at_low_noise(self):
        scn = SimScenario(trials=20, seed=7, noise_amp=0.01)
        for k in range(scn.trials):
            pts = trial_points(scn, k)
            acc = af.from_points(pts)
            free = af.free_fit(acc)
            geom = af.geometric_fit(pts, af.kasa_fit(acc))
            assert math.hypot(free.cx - geom.cx, free.cy - geom.cy) <= 1e-3
            assert abs(free.r - geom.r) <= 1e-3 * geom.r

    def test_nonconvergence_reported(self):
        rng = np.random.default_rng(3)
        pts = noisy_arc(rng, af.Circle(0, 0, 1), 3.0, 50, 0.1)
        with pytest.raises(NonConvergence):
            af.geometric_fit(pts, af.Circle(5.0, 5.0, 0.1), max_iter=1)


class TestArcType:
    def test_endpoints_must_lie_on_circle(self):
        with pytest.raises(ValueError):
            Arc.from_endpoints(af.Circle(0, 0, 1), (2, 0), (0, 1), ccw=True)

    def test_span_orientation(self):
        arc = quarter_arc()
        assert arc.span == pytest.approx(math.pi / 2)
        rev = Arc.from_endpoints(af.Circle(0, 0, 1), (1, 0), (0, 1), ccw=False)
        assert rev.span == pytest.approx(3 * math.pi / 2)


class TestArcDeviation:
    def test_point_on_arc(self):
        arc = quarter_arc()
        p = (math.cos(0.7), math.sin(0.7))
        assert af.arc_deviation(p, arc) == pytest.approx(0.0, abs=1e-15)

    def test_center_point(self):
        arc = quarter_arc()
        assert af.arc_deviation((0.0, 0.0), arc) == pytest.approx(1.0)

    def test_beyond_endpoint_uses_endpoint_distance(self):
        arc = quarter_arc()
        p = (1.2 * math.cos(-0.4), 1.2 * math.sin(-0.4))
        want = math.hypot(p[0] - 1.0, p[1])
        assert af.arc_deviation(p, arc) == pytest.approx(want, rel=1e-12)

    def test_continuous_across_sector_boundary(self):
        arc = quarter_arc()
        for rho in (0.5, 0.999, 1.5):
            s = np.linspace(-1e-7, 1e-7, 2001)
            devs = [af.arc_deviation((rho * math.cos(a), rho * math.sin(a)), arc)
                    for a in s]
            assert np.abs(np.diff(devs)).max() <= 1e-9


class TestZigzagCheck:
    def test_exact_samples_pass(self):
        pts = circle_points(af.Circle(0, 0, 1), 0.0, math.pi / 2, 20)
        report = af.check_tolerance_zigzag(pts, quarter_arc(), tol=1e-9)
        assert report.ok
        assert report.monotone
        assert report.max_dev == pytest.approx(0.0, abs=1e-12)

    def test_swapped_points_break_monotonicity(self):
        pts = circle_points(af.Circle(0, 0, 1), 0.0, math.pi / 2, 20)
        pts[[7, 8]] = pts[[8, 7]]
        report = af.check_tolerance_zigzag(pts, quarter_arc(), tol=1.0)
        assert not report.monotone
        assert not report.ok

    def test_radial_outlier_fails_with_its_deviation(self):
        tol = 1e-3
        pts = circle_points(af.Circle(0, 0, 1), 0.0, math.pi / 2, 20)
        pts[10] *= (1.0 + 2 * tol)
        report = af.check_tolerance_zigzag(pts, quarter_arc(), tol=tol)
        assert not report.ok
        assert report.monotone
        assert report.max_dev == pytest.approx(2 * tol, rel=1e-9)

    def test_inclusive_tolerance(self):
        pts = circle_points(af.Circle(0, 0, 1), 0.0, math.pi / 2, 20)
        pts[10] *= 1.001
        report = af.check_tolerance_zigzag(pts, quarter_arc(), tol=1.0)
        dev = report.max_dev
        again = af.check_tolerance_zigzag(pts, quarter_arc(), tol=dev)
        assert again.ok
