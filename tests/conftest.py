import time
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import arcfit as af
from arcfit.scenario import SimScenario, trial_points

from helpers import free_fit_with_state

settings.register_profile(
    "suite", max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@dataclass
class Fig1Trial:
    points: np.ndarray
    kasa: af.Circle
    free1: af.Circle
    free20: af.Circle
    state20: object
    geom: af.Circle
    obj_kasa: float
    obj_free1: float
    obj_free20: float


@dataclass
class Fig1Run:
    scenario: SimScenario
    trials: list = field(default_factory=list)
    core_seconds: float = 0.0  # generate + accumulate + kasa/free1/geom only


@pytest.fixture(scope="session")
def fig1() -> Fig1Run:
    """200 seeded trials of the 72-degree, 10%-noise, 1000-point scenario."""
    scn = SimScenario(arc_span_deg=72.0, radius=1.0, n_points=1000,
                      noise_amp=0.1, trials=200, seed=20260810)
    run = Fig1Run(scenario=scn)
    for k in range(scn.trials):
        t0 = time.perf_counter()
        pts = trial_points(scn, k)
        acc = af.from_points(pts)
        kasa = af.kasa_fit(acc)
        free1 = af.free_fit(acc, sweeps=1)
        geom = af.geometric_fit(pts, kasa)
        run.core_seconds += time.perf_counter() - t0
        free20, state20 = free_fit_with_state(acc, sweeps=20, tol=1e-13)
        run.trials.append(Fig1Trial(
            points=pts, kasa=kasa, free1=free1, free20=free20,
            state20=state20, geom=geom,
            obj_kasa=af.penalty(acc, kasa),
            obj_free1=af.penalty(acc, free1),
            obj_free20=af.penalty(acc, free20),
        ))
    return run
