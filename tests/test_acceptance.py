"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import arcfit as af
from arcfit.compress import build_prefix, candidate_arc, compress, fit_arc_candidate
from arcfit.errors import FitError, NoArcExists
from arcfit.quadratio import minimize_ratio

from helpers import (brute_compress, circle_points, extent, noisy_arc,
                     parcel_polyline, random_admissible_ratio, random_circle,
                     refine_one_point, scan_ratio_minimum,
                     two_point_grid_oracle)
from test_compress import CountingPolyline, random_polyline


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:>2}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num:>2}: PASS - {desc}")


def test_01_ratio_minimizer_oracle_suite():
    with criterion(1, "closed-form ratio minima agree with 10^4 refined scans"):
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        n_min = 0
        for _ in range(10_000):
            q = random_admissible_ratio(rng)
            best = minimize_ratio(q)
            if best is None:
                scan = scan_ratio_minimum(q)
                assert scan.consistent_with_no_minimum(), (q.a, q.b, scan)
            else:
                n_min += 1
                window = max(1e6, 10.0 * (1.0 + abs(best.x)))
                scan = scan_ratio_minimum(q, -window, window)
                assert scan.found, (q.a, q.b, best)
                assert abs(scan.x - best.x) <= 1e-6 * (1.0 + abs(best.x))
                assert scan.sampled_min >= best.value - 1e-9 * (1.0 + best.value)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s"
        assert n_min > 1000  # corpus exercises both classifications


def test_02_exact_data_recovery_all_fitters():
    with criterion(2, "200 exact arcs down to 20 deg recovered to 1e-9 by all fitters"):
        rng = np.random.default_rng(102)
        for case in range(200):
            truth = random_circle(rng)
            span = math.radians(20.0) if case < 20 else \
                rng.uniform(math.radians(20.0), 2.0 * math.pi)
            t0 = rng.uniform(0.0, 2.0 * math.pi)
            pts = circle_points(truth, t0, t0 + span, int(rng.integers(12, 40)))
            acc = af.from_points(pts)
            fits = (af.free_fit(acc),
                    af.one_point_fit(acc, tuple(pts[0])),
                    af.two_point_fit(acc, tuple(pts[0]), tuple(pts[-1])))
            for got in fits:
                assert abs(got.cx - truth.cx) <= 1e-9 * truth.r
                assert abs(got.cy - truth.cy) <= 1e-9 * truth.r
                assert abs(got.r - truth.r) <= 1e-9 * truth.r


def test_03_bias_reproduction(fig1):
    with criterion(3, "72deg/10% scenario: algebraic fit biased low, "
                      "corrected fit tracks the geometric fit in >=90%"):
        trials = fig1.trials
        mean_kasa = np.mean([t.kasa.r for t in trials])
        assert mean_kasa < fig1.scenario.radius
        closer = sum(abs(t.free1.r - t.geom.r) < abs(t.kasa.r - t.geom.r)
                     for t in trials)
        assert closer >= 0.90 * len(trials), f"{closer}/{len(trials)}"
        # one refinement sweep strictly improves on the algebraic start in
        # every seeded trial
        assert all(t.obj_free1 < t.obj_kasa for t in trials)
        assert fig1.core_seconds < 30.0, f"core work took {fig1.core_seconds:.1f}s"


def test_04_one_sweep_sufficiency(fig1):
    with criterion(4, "one sweep lands within 1% of the converged objective "
                      "in >=95% of trials"):
        trials = fig1.trials
        obj_ok = sum(abs(t.obj_free1 - t.obj_free20) <= 0.01 * t.obj_free20
                     for t in trials)
        assert obj_ok >= 0.95 * len(trials), f"{obj_ok}/{len(trials)}"
        r_ok = sum(abs(t.free1.r - t.free20.r) <= 0.01 * t.free20.r
                   for t in trials)
        assert r_ok >= 0.95 * len(trials), f"{r_ok}/{len(trials)}"


def test_05_fast_convergence(fig1):
    with criterion(5, "parameter change <=1e-13 within 5 sweeps in >=99% of trials"):
        trials = fig1.trials
        fast = sum(t.state20.converged and t.state20.sweeps_run <= 5
                   for t in trials)
        assert fast >= 0.99 * len(trials), f"{fast}/{len(trials)}"


def test_06_penalty_fidelity():
    with criterion(6, "moment-based deviation estimate within 1% (noise 0.01r) "
                      "and 10% (noise 0.1r) of the exact sum"):
        rng = np.random.default_rng(106)
        for noise, tol in ((0.01, 0.01), (0.1, 0.10)):
            for _ in range(100):
                truth = random_circle(rng)
                pts = noisy_arc(rng, truth, rng.uniform(0.8, 5.5), 800, noise)
                approx = af.penalty(af.from_points(pts), truth)
                exact = af.exact_sse(pts, truth)
                assert abs(approx - exact) <= tol * exact, (noise, approx, exact)


def test_07_two_point_closed_form_vs_grid():
    with criterion(7, "two-anchor parameter matches refined grid scans to 1e-8; "
                      "collinear data raises NoArcExists"):
        rng = np.random.default_rng(107)
        for _ in range(500):
            truth = random_circle(rng)
            pts = noisy_arc(rng, truth, rng.uniform(1.0, 4.5),
                            int(rng.integers(30, 90)), 0.05)
            p1, p2 = tuple(pts[0]), tuple(pts[-1])
            inner = pts[1:-1]
            ratio, line = af.two_point_ratio(af.from_points(inner), p1, p2)
            best = minimize_ratio(ratio)
            assert best is not None
            span = 10.0 * (abs(best.x) + line.half_chord)
            t_scan = two_point_grid_oracle(inner, line, p1,
                                           best.x - span, best.x + span)
            scale = abs(best.x) + line.half_chord
            assert abs(t_scan - best.x) <= 1e-8 * scale

        for _ in range(100):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            d = np.array([math.cos(angle), math.sin(angle)])
            origin = rng.uniform(-5, 5, 2)
            length = rng.uniform(2.0, 8.0)
            p1 = tuple(origin)
            p2 = tuple(origin + length * d)
            pts = [origin + s * d
                   for s in np.linspace(0.1, 0.9, int(rng.integers(5, 20))) * length]
            with pytest.raises(NoArcExists):
                af.two_point_fit(af.from_points(pts), p1, p2)


def test_08_one_point_pencil_vs_refinement():
    with criterion(8, "pencil solve and constrained refinement agree to 1e-6; "
                      "anchor residual is exactly zero"):
        rng = np.random.default_rng(108)
        for _ in range(500):
            truth = af.Circle(rng.uniform(-1, 1), rng.uniform(-1, 1),
                              rng.uniform(0.5, 2.0))
            pts = noisy_arc(rng, truth, rng.uniform(1.0, 4.0),
                            int(rng.integers(40, 100)), 0.05)
            anchor = tuple(pts[int(rng.integers(0, len(pts)))])
            acc = af.from_points(pts)
            direct = af.one_point_fit(acc, anchor)
            start = af.kasa_fit(acc)
            projected = af.Circle(start.cx, start.cy,
                                  math.hypot(start.cx - anchor[0],
                                             start.cy - anchor[1]))
            refined = refine_one_point(acc, anchor, projected)
            assert abs(direct.cx - refined.cx) <= 1e-6
            assert abs(direct.cy - refined.cy) <= 1e-6
            for got in (direct, refined):
                assert math.hypot(got.cx - anchor[0], got.cy - anchor[1]) == got.r


def test_09_dp_matches_brute_force():
    with criterion(9, "exhaustive DP equals brute-force chain enumeration "
                      "on 200 random small polylines"):
        rng = np.random.default_rng(109)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            pts = random_polyline(rng, n)
            tol = rng.uniform(0.005, 0.4)
            path = compress(pts, tol)
            pen, ssd = brute_compress(pts, tol)
            assert path.total_penalty == pen
            assert path.total_ssd == pytest.approx(ssd, rel=1e-9, abs=1e-12)


def test_10_parcel_arc_restoration():
    with criterion(10, "20/20 synthetic parcels compress to exactly the "
                       "generating primitive counts"):
        rng = np.random.default_rng(110)
        done = 0
        while done < 20:
            n_arcs = int(rng.integers(2, 5))
            pts, n_seg, n_arc = parcel_polyline(rng, n_arcs)
            if not 50 <= len(pts) <= 200:
                continue
            path = compress(pts, tol=1e-6 * extent(pts))
            assert path.n_arcs == n_arc, (done, path.n_arcs, n_arc)
            assert path.n_segments == n_seg, (done, path.n_segments, n_seg)
            done += 1


def test_11_constant_time_fit_accounting():
    with criterion(11, "arc fit phase touches 2 vertices + 1 moment range "
                       "regardless of window; validation stays O(window)"):
        fit_reads = {}
        fit_queries = {}
        full_reads = {}
        for n in (10, 40, 160):
            pts = circle_points(af.Circle(0, 0, 4), 0.2, 2.8, n)
            prefix = build_prefix(pts)
            wrapped = CountingPolyline(pts)
            prefix.range_queries = 0
            assert fit_arc_candidate(wrapped, prefix, 0, n - 1) is not None
            fit_reads[n] = wrapped.reads
            fit_queries[n] = prefix.range_queries

            wrapped = CountingPolyline(pts)
            assert candidate_arc(wrapped, prefix, 0, n - 1, tol=1e-6) is not None
            full_reads[n] = wrapped.reads
        assert fit_reads[10] == fit_reads[40] == fit_reads[160] == 2
        assert fit_queries[10] == fit_queries[40] == fit_queries[160] == 1
        assert full_reads[10] < full_reads[40] < full_reads[160]
        assert full_reads[160] >= 160


def test_12_precision_hygiene_with_recentering():
    with criterion(12, "1e6-unit offset reproduced to 1e-6 with the centroid "
                       "pre-shift; degradation without it documented"):
        rng = np.random.default_rng(112)
        truth = af.Circle(0.0, 0.0, 1.0)
        pts = noisy_arc(rng, truth, 2.0, 400, 0.02)
        base = af.free_fit(af.from_points(pts))

        offset = 1e6
        shifted = pts + offset
        acc = af.from_points(shifted)

        good = af.free_fit(acc, pre_center=True)
        err_good = max(abs(good.cx - offset - base.cx),
                       abs(good.cy - offset - base.cy),
                       abs(good.r - base.r))
        assert err_good <= 1e-6 * base.r, err_good

        try:
            bad = af.free_fit(af.normalized(acc), pre_center=False)
            err_bad = max(abs(bad.cx - offset - base.cx),
                          abs(bad.cy - offset - base.cy),
                          abs(bad.r - base.r))
        except FitError:
            err_bad = math.inf
        # document the degradation: the unshifted path must be strictly worse
        print(f"    [pre-shift on: {err_good:.3e}; off: {err_bad:.3e}]")
        assert err_bad > err_good
