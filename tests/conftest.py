import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from conekit import conic
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
def conic_runs(spy):
    """The results of every conic solve, one list per call of the batched
    core (a lone ``ConeProgram.solve`` is a call with one target)."""
    runs = []
    spy(conic.ConeProgram, "solve_many", runs)
    return runs


@pytest.fixture
def undecided_conic(monkeypatch):
    """undecided_conic(certified): make every conic solve, alone or batched,
    end without an optimal pair, as INFEASIBLE (a certified empty program,
    with a dummy certificate that callers still check) when certified and as
    ITERATION_LIMIT otherwise.  ``ConeProgram.solve`` is the one-target case
    of ``solve_many``, so patching the batched core covers both."""

    def install(certified):
        def one(program):
            if certified:
                return conic.ConicResult(SolveStatus.INFEASIBLE, y=np.ones(program.A.shape[0]),
                                         z=np.zeros(program.m), iterations=60)
            return conic.ConicResult(SolveStatus.ITERATION_LIMIT, iterations=60)

        def run(self, B, H, target=None):
            return [one(self) for _ in range(np.shape(B)[0])]

        monkeypatch.setattr(conic.ConeProgram, "solve_many", run)

    return install
