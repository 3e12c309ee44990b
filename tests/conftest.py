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
    """undecided_conic(certified, keep=None): make every conic solve, alone
    or batched, end without an optimal pair, as INFEASIBLE (a certified empty
    program, with a dummy certificate that callers still check) when
    certified and as ITERATION_LIMIT otherwise.  A row b of the equality
    right-hand sides with keep(b) true is solved as usual.
    ``ConeProgram.solve`` is the one-target case of ``solve_many``, so
    patching the batched core covers both."""
    solve_many = conic.ConeProgram.solve_many

    def install(certified, keep=None):
        def one(program, b, h, target):
            if keep is not None and keep(b):
                return solve_many(program, b[None], h[None], target)[0]
            if certified:
                return conic.ConicResult(SolveStatus.INFEASIBLE, y=np.ones(program.A.shape[0]),
                                         z=np.zeros(program.m), iterations=60)
            return conic.ConicResult(SolveStatus.ITERATION_LIMIT, iterations=60)

        def run(self, B, H, target=conic.TARGET):
            B = np.atleast_2d(np.asarray(B, dtype=float))
            H = np.broadcast_to(np.asarray(H, dtype=float).reshape(-1, self.m), (B.shape[0], self.m))
            return [one(self, b, h, target) for b, h in zip(B, H)]

        monkeypatch.setattr(conic.ConeProgram, "solve_many", run)

    return install
