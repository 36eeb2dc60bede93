import itertools
import math

import numpy as np
import pytest

from arcfit.dirsearch import eigen_sym, minimize
from arcfit.quadratio import QuadRatio, _Inadmissible, minimize_ratio


class QuadObjective:
    """f(x) = (x-c)' Q (x-c) with Q symmetric positive definite."""

    def __init__(self, q, c):
        self.q = np.asarray(q, float)
        self.c = np.asarray(c, float)

    def value(self, x):
        d = np.asarray(x, float) - self.c
        return float(d @ self.q @ d)

    def hessian_proxy(self, x):
        return self.q

    def line_ratio(self, x, direction):
        d = np.asarray(x, float) - self.c
        g = self.q @ d
        return QuadRatio(
            a=(max(self.value(x), 0.0), 2.0 * float(direction @ g),
               float(direction @ self.q @ direction)),
            b=(1.0, 0.0, 0.0))


class RationalObjective:
    """Non-quadratic: ((x-c)'Q(x-c) + e) / (4(|x|^2 + 1))."""

    def __init__(self, q, c, e=0.5):
        self.inner = QuadObjective(q, c)
        self.e = e

    def _den(self, x):
        x = np.asarray(x, float)
        return 4.0 * (float(x @ x) + 1.0)

    def value(self, x):
        return (self.inner.value(x) + self.e) / self._den(x)

    def hessian_proxy(self, x):
        return np.eye(len(np.asarray(x)))

    def line_ratio(self, x, direction):
        x = np.asarray(x, float)
        num = self.inner.line_ratio(x, direction)
        a = (num.a[0] + self.e, num.a[1], num.a[2])
        b = (self._den(x), 8.0 * float(x @ direction),
             4.0 * float(direction @ direction))
        return QuadRatio(a=a, b=b)


def random_spd(rng, n=3):
    m = rng.normal(size=(n, n))
    return m @ m.T + n * np.eye(n) * 0.1


class TestEigenSym:
    def test_diagonal(self):
        w, v = eigen_sym(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(w, [1, 2, 3])
        assert np.allclose(np.abs(v), np.eye(3))

    def test_identity_degenerate(self):
        w, v = eigen_sym(np.eye(3))
        assert np.allclose(w, 1.0)
        assert np.allclose(v.T @ v, np.eye(3), atol=1e-12)

    def test_reconstruction_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = rng.normal(size=(3, 3))
            m = m + m.T
            w, v = eigen_sym(m)
            scale = np.linalg.norm(m)
            assert np.allclose(v @ np.diag(w) @ v.T, m, atol=1e-10 * scale)
            for k in range(3):
                assert np.linalg.norm(m @ v[:, k] - w[k] * v[:, k]) <= 1e-10 * scale
            assert np.all(np.diff(w) >= -1e-12 * scale)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            eigen_sym([[1.0, math.nan], [math.nan, 1.0]])


class TestMinimize:
    def test_bowl_exact_in_one_sweep(self):
        obj = QuadObjective(np.eye(3), [3.0, 4.0, 5.0])
        x = minimize(obj, [0.0, 0.0, 0.0], sweeps=1)
        assert np.allclose(x, [3, 4, 5], atol=1e-12)

    def test_fixed_point(self):
        obj = QuadObjective(np.eye(3), [1.0, -2.0, 0.5])
        x = minimize(obj, [1.0, -2.0, 0.5], sweeps=3)
        assert np.allclose(x, [1.0, -2.0, 0.5], atol=0)

    def test_rotated_anisotropic_one_sweep(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            obj = QuadObjective(random_spd(rng), np.zeros(3))
            x0 = rng.normal(size=3) * 5
            x = minimize(obj, x0, sweeps=1)
            assert np.allclose(x, 0.0, atol=1e-12 * (1 + np.linalg.norm(x0)))

    def test_one_sweep_exact_on_100_random_quadratics(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            c = rng.normal(size=3) * 3
            obj = QuadObjective(random_spd(rng), c)
            x = minimize(obj, rng.normal(size=3) * 4, sweeps=1)
            assert np.linalg.norm(x - c) <= 1e-10 * (1.0 + np.linalg.norm(c))

    def test_monotone_descent_trace(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            obj = RationalObjective(random_spd(rng), rng.normal(size=3))
            _, state = minimize(obj, rng.normal(size=3) * 2, sweeps=5,
                                return_state=True)
            vals = state.values
            for prev, nxt in zip(vals, vals[1:]):
                assert nxt <= prev + 1e-12 * (1.0 + abs(prev))

    def test_early_stop_reports_convergence(self):
        obj = QuadObjective(np.eye(3), [1.0, 1.0, 1.0])
        x, state = minimize(obj, [5.0, -3.0, 2.0], sweeps=20, tol=1e-14,
                            return_state=True)
        assert state.converged
        assert state.sweeps_run <= 3
        assert np.allclose(x, 1.0, atol=1e-12)

    def test_rejects_zero_sweeps(self):
        with pytest.raises(ValueError):
            minimize(QuadObjective(np.eye(2), [0, 0]), [1.0, 1.0], sweeps=0)

    def test_indefinite_proxy_still_descends(self):
        # a wrong-signed proxy only changes the search directions; the line
        # searches themselves refuse non-improving moves
        rng = np.random.default_rng(6)
        base = QuadObjective(random_spd(rng), rng.normal(size=3))

        class FlippedProxy:
            value = base.value
            line_ratio = base.line_ratio

            def hessian_proxy(self, x):
                return -base.hessian_proxy(x) + 0.5 * np.diag([1.0, -2.0, 0.0])

        x0 = rng.normal(size=3) * 3
        x, state = minimize(FlippedProxy(), x0, sweeps=4, return_state=True)
        assert state.values[-1] <= state.values[0]
        for prev, nxt in zip(state.values, state.values[1:]):
            assert nxt <= prev + 1e-12 * (1.0 + abs(prev))

    def test_inadmissible_line_is_skipped(self):
        # Along x the stub's numerator opens downward beyond round-off, so
        # QuadRatio refuses it: that line is vetoed and the search moves
        # along y alone. Any other ValueError is still an error.
        base = QuadObjective(np.diag([1.0, 4.0]), [1.0, 2.0])

        class InadmissibleAlongX:
            value = base.value
            hessian_proxy = base.hessian_proxy

            def line_ratio(self, x, direction):
                if abs(direction[0]) > 0.5:
                    return QuadRatio(a=(1.0, 0.0, -1.0), b=(1.0, 0.0, 0.0))
                return base.line_ratio(x, direction)

        with pytest.raises(_Inadmissible):
            InadmissibleAlongX().line_ratio([0.0, 0.0], np.array([1.0, 0.0]))
        x = minimize(InadmissibleAlongX(), [0.0, 0.0], sweeps=3)
        assert x == pytest.approx([0.0, 2.0], abs=1e-12)

        class Broken(InadmissibleAlongX):
            def line_ratio(self, x, direction):
                raise ValueError("not a ratio")

        with pytest.raises(ValueError, match="not a ratio"):
            minimize(Broken(), [0.0, 0.0])

    def test_direction_sign_and_order_independence(self):
        # sequential exact line minimization over the same eigenvector set
        # must land on the same point under sign flips and permutations
        rng = np.random.default_rng(4)
        obj = QuadObjective(random_spd(rng), rng.normal(size=3))
        x0 = rng.normal(size=3) * 3
        _, vecs = eigen_sym(obj.hessian_proxy(x0))

        def run(order, signs):
            x = x0.copy()
            for k, s in zip(order, signs):
                d = s * vecs[:, k]
                best = minimize_ratio(obj.line_ratio(x, d))
                if best is not None:
                    x = x + best.x * d
            return x

        ref = run((0, 1, 2), (1, 1, 1))
        for order in itertools.permutations(range(3)):
            for signs in itertools.product((1, -1), repeat=3):
                assert np.allclose(run(order, signs), ref, atol=1e-10)
