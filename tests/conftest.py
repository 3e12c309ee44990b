import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from conekit import conic, projops
from conekit.simplex import SolveStatus

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def spy(monkeypatch):
    """spy(owner, name, log, pick): wrap owner.name so every call appends
    pick(result) to log (the result itself by default)."""

    def install(owner, name, log, pick=lambda out: out):
        inner = getattr(owner, name)

        def wrapped(*args, **kw):
            out = inner(*args, **kw)
            log.append(pick(out))
            return out

        monkeypatch.setattr(owner, name, wrapped)

    return install


@pytest.fixture
def undecided_dykstra(monkeypatch):
    """undecided_dykstra(stalled): make projops.dykstra give up unconverged,
    stopping early on a stalled movement when stalled and at maxiter otherwise."""

    def install(stalled):
        def run(projectors, z0, violation, tol=1e-11, maxiter=20000):
            iterations = 1 if stalled else maxiter
            return projops.DykstraResult(np.asarray(z0, dtype=float), iterations, 1.0, False)

        monkeypatch.setattr(projops, "dykstra", run)

    return install


@pytest.fixture
def undecided_conic(monkeypatch):
    """undecided_conic(certified): make every conic solve end without an
    optimal pair, as INFEASIBLE (a certified empty program, with a dummy
    certificate that callers still check) when certified and as
    ITERATION_LIMIT otherwise."""

    def install(certified):
        def run(self, b=None, h=None, **kw):
            if certified:
                return conic.ConicResult(SolveStatus.INFEASIBLE, y=np.ones(self.A.shape[0]),
                                         z=np.zeros(self.m), iterations=60)
            return conic.ConicResult(SolveStatus.ITERATION_LIMIT, iterations=60)

        monkeypatch.setattr(conic.ConeProgram, "solve", run)

    return install
