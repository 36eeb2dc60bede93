"""Minimization by exact line searches along second-derivative eigenvectors.

The minimizer only needs two things from an objective: a symmetric matrix
proportional to its second derivatives, and the restriction of the objective
to any line as a ratio of quadratics (which `quadratio` minimizes in closed
form). Each sweep takes the eigenvectors of the proxy matrix at the current
point and line-minimizes along them in turn. Because the eigenvectors of a
quadratic's Hessian are mutually conjugate, one sweep lands exactly on the
minimum of any positive-definite quadratic; on the arc objectives a single
sweep is already a good fit and a handful of sweeps reach machine precision.

Objectives provide ``value(x)``, ``hessian_proxy(x)`` and
``line_ratio(x, direction)``, and may provide ``apply_step(x, direction, t)``
when moving along a direction is not a plain vector addition (the circle
fit updates its radius through a square root). ``apply_step`` may return
None to veto a step; a line whose ratio has a numerator that is negative
beyond round-off is skipped the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .quadratio import QuadRatio, _Inadmissible, minimize_ratio

__all__ = ["RatioObjective", "SearchState", "eigen_sym", "minimize"]


class RatioObjective(Protocol):
    def value(self, x: np.ndarray) -> float: ...

    def hessian_proxy(self, x: np.ndarray) -> np.ndarray: ...

    def line_ratio(self, x: np.ndarray, direction: np.ndarray) -> QuadRatio: ...


@dataclass
class SearchState:
    """Trace of a minimize() run: final point, per-step values, sweep deltas."""

    x: np.ndarray
    values: list[float] = field(default_factory=list)
    sweep_deltas: list[float] = field(default_factory=list)
    sweeps_run: int = 0
    converged: bool = False


def eigen_sym(mat) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a small symmetric matrix (numpy ``eigh`` of its
    symmetric part).

    Returns eigenvalues in ascending order and the matching orthonormal
    eigenvectors as columns.
    """
    a = np.array(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return np.linalg.eigh(0.5 * (a + a.T))


def _default_step(x: np.ndarray, direction: np.ndarray, t: float):
    return x + t * direction


def minimize(obj, x0, sweeps: int = 1, tol: float = 0.0,
             return_state: bool = False):
    """Run eigen-direction line-search sweeps from x0.

    Per sweep: eigenvectors of hessian_proxy at the sweep's starting point,
    then one exact line minimization along each, re-deriving the line ratio
    at the current (moved) point. A step is taken only when the line reports
    an attained minimum that does not increase the objective. Stops early
    when the point moved by at most tol*(1+|x|) over a full sweep.
    """
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    x = np.array(x0, dtype=float)
    step = getattr(obj, "apply_step", None) or _default_step
    state = SearchState(x=x, values=[float(obj.value(x))])

    for _ in range(sweeps):
        x_sweep = x.copy()
        _, vecs = eigen_sym(obj.hessian_proxy(x))
        for k in range(vecs.shape[1]):
            direction = vecs[:, k]
            try:
                ratio = obj.line_ratio(x, direction)
            except _Inadmissible:
                # rounding left this line's numerator negative somewhere:
                # no trustworthy step along it
                continue
            best = minimize_ratio(ratio)
            if best is None:
                continue
            b0 = ratio.b[0]
            if not (b0 > 0.0) or best.value > ratio.a[0] / b0:
                continue
            moved = step(x, direction, best.x)
            if moved is None:
                continue
            x = np.asarray(moved, dtype=float)
            state.values.append(float(obj.value(x)))
        delta = float(np.linalg.norm(x - x_sweep))
        state.sweep_deltas.append(delta)
        state.sweeps_run += 1
        if delta <= tol * (1.0 + np.linalg.norm(x)):
            state.converged = True
            break

    state.x = x
    if return_state:
        return x, state
    return x
