import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conekit import parse_instance, random_polyhedral_instance, simplex, solver
from conekit.cones import DirectSumL1, Generators, Negation, Orthant, SecondOrder
from conekit.norms import BlockNorm, NormTag
from conekit.solver import (BallConstraint, LinearProgram, MinNormProblem, MinNormSweep,
                            SolveStatus, certificate_is_valid, check_feasible,
                            farkas_certificate, solve_max_block_norm, solve_min_gauge,
                            solve_min_linear, solve_min_norm)

import oracles

LATTICE = DirectSumL1((Orthant(2), Negation(Orthant(2))))
SUMMING = np.hstack([np.eye(2), np.eye(2)])


def lattice_problem(x, tag=NormTag.L2):
    objective = BlockNorm(((0, 2, tag), (2, 4, tag)))
    return MinNormProblem(SUMMING, np.asarray(x, dtype=float), LATTICE, objective)


# -- raw LP ---------------------------------------------------------------

def test_lp_hand_case():
    # max x + y st x + 2y <= 4, x <= 2, x, y >= 0 -> (2, 1), value 3
    lp = LinearProgram()
    idx = lp.add_vars(2, nonneg=True, obj=[-1.0, -1.0])
    lp.add_row([1.0, 2.0], "<=", 4.0, at=idx)
    lp.add_row([1.0, 0.0], "<=", 2.0, at=idx)
    status, z, value, _ = lp.solve()
    assert status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(z[:2], [2.0, 1.0], atol=1e-9)
    assert value == pytest.approx(-3.0)


def test_lp_infeasible():
    lp = LinearProgram()
    idx = lp.add_vars(1, nonneg=True)
    lp.add_row([1.0], "<=", -1.0, at=idx)
    status, *_ = lp.solve()
    assert status is SolveStatus.INFEASIBLE


def test_lp_equality_and_free_vars():
    # free variable y: minimize y st y = -3
    lp = LinearProgram()
    idx = lp.add_vars(1, nonneg=False, obj=[1.0])
    lp.add_row([1.0], "=", -3.0, at=idx)
    status, z, value, _ = lp.solve()
    assert status is SolveStatus.OPTIMAL
    assert z[0] == pytest.approx(-3.0)


# -- min norm -------------------------------------------------------------

def test_min_l2_on_simplex_slice():
    # min |c|_2 over c >= 0, c1 + c2 = 2: symmetric point (1, 1)
    p = MinNormProblem(np.array([[1.0, 1.0]]), np.array([2.0]), Orthant(2),
                       BlockNorm.flat(2, NormTag.L2))
    sol = solve_min_norm(p)
    assert sol.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(sol.point, [1.0, 1.0], atol=1e-8)
    assert sol.value == pytest.approx(oracles.orthant_min_l2([[1.0, 1.0]], [2.0]), abs=1e-8)


def test_min_l2_interior_optimum():
    p = MinNormProblem(np.array([[1.0, 2.0]]), np.array([5.0]), Orthant(2),
                       BlockNorm.flat(2, NormTag.L2))
    sol = solve_min_norm(p)
    np.testing.assert_allclose(sol.point, [1.0, 2.0], atol=1e-8)
    assert sol.value == pytest.approx(oracles.orthant_min_l2([[1.0, 2.0]], [5.0]), abs=1e-8)


def test_min_l1_and_linf_polyhedral_objectives():
    p1 = MinNormProblem(np.array([[1.0, -1.0]]), np.array([1.0]), Orthant(2),
                        BlockNorm.flat(2, NormTag.L1))
    sol = solve_min_norm(p1)
    assert sol.value == pytest.approx(1.0, abs=1e-9)  # c = (1, 0)
    pinf = MinNormProblem(np.array([[1.0, 1.0]]), np.array([2.0]), Orthant(2),
                          BlockNorm.flat(2, NormTag.LINF))
    sol = solve_min_norm(pinf)
    assert sol.value == pytest.approx(1.0, abs=1e-9)  # c = (1, 1)


def test_min_norm_infeasible_carries_certificate():
    p = MinNormProblem(np.array([[1.0, 0.0]]), np.array([-1.0]), Orthant(2),
                       BlockNorm.flat(2, NormTag.L2))
    sol = solve_min_norm(p)
    assert sol.status is SolveStatus.INFEASIBLE
    assert sol.certificate is not None
    pairing, dual_defect = oracles.farkas_checks([[1.0, 0.0]], [-1.0], sol.certificate.y)
    assert pairing > 1e-9
    assert dual_defect <= 1e-8


def test_lattice_lexicographic_tie_break():
    # objective |p|_1 + |m|_1 has many optima on the lattice; the
    # lexicographic pass picks the componentwise parts
    sol = solve_min_norm(lattice_problem([3.0, -4.0], NormTag.L1))
    np.testing.assert_allclose(sol.point, [3.0, 0.0, 0.0, -4.0], atol=1e-7)
    assert sol.value == pytest.approx(7.0, abs=1e-9)


@given(arrays(np.float64, (2,), elements=st.floats(-10, 10)))
def test_lattice_min_norm_matches_parts(x):
    for tag in NormTag:
        plus, minus = oracles.lattice_parts(x)
        sol = solve_min_norm(lattice_problem(x, tag))
        assert sol.status is SolveStatus.OPTIMAL
        want = oracles.norm(plus, tag.value) + oracles.norm(minus, tag.value)
        assert sol.value == pytest.approx(want, abs=1e-7)


def test_ball_constraints_bind_and_exclude():
    base = MinNormProblem(np.array([[1.0, 1.0]]), np.array([2.0]), Orthant(2),
                          BlockNorm.flat(2, NormTag.L2))
    ok = MinNormProblem(base.map, base.target, base.cone, base.objective,
                        balls=(BallConstraint(np.eye(2), NormTag.LINF, 1.2),))
    sol = solve_min_norm(ok)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.value == pytest.approx(np.sqrt(2.0), abs=1e-7)
    tight = MinNormProblem(base.map, base.target, base.cone, base.objective,
                           balls=(BallConstraint(np.eye(2), NormTag.LINF, 0.8),))
    sol = solve_min_norm(tight)
    assert sol.status is SolveStatus.INFEASIBLE  # sum can reach at most 1.6


def test_second_order_slice():
    # min |c|_2 over SecondOrder(3) with c fixed to x on the first two coords:
    # free third coordinate, membership forces x1 >= |(x2, c3)|
    T = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    p = MinNormProblem(T, np.array([2.0, 1.0]), SecondOrder(3),
                       BlockNorm.flat(3, NormTag.L2))
    sol = solve_min_norm(p)
    assert sol.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(sol.point, [2.0, 1.0, 0.0], atol=1e-6)
    out = MinNormProblem(T, np.array([1.0, 2.0]), SecondOrder(3),
                         BlockNorm.flat(3, NormTag.L2))
    assert solve_min_norm(out).status is SolveStatus.INFEASIBLE


# -- gauge, linear, and max-block objectives --------------------------------

def test_min_gauge_positive_part():
    R = np.hstack([np.eye(2), np.zeros((2, 2))])
    sol = solve_min_gauge(SUMMING, np.array([3.0, -4.0]), LATTICE, (R, NormTag.L2))
    assert sol.value == pytest.approx(3.0, abs=1e-8)  # |x_plus|_2
    sol = solve_min_gauge(SUMMING, np.array([-1.0, -1.0]), LATTICE, (R, NormTag.L2))
    assert sol.value == pytest.approx(0.0, abs=1e-8)  # negative x needs no plus part


def test_min_linear_on_lattice():
    cost = np.array([1.0, 1.0, 0.0, 0.0])  # total plus mass
    sol = solve_min_linear(SUMMING, np.array([1.0, 0.0]), LATTICE, cost)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.value == pytest.approx(1.0, abs=1e-9)
    sol = solve_min_linear(SUMMING, np.array([-2.0, 0.0]), LATTICE, cost)
    assert sol.value == pytest.approx(0.0, abs=1e-9)


def test_min_linear_unbounded_raises():
    cost = np.array([-1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ArithmeticError, match="unbounded"):
        solve_min_linear(SUMMING, np.array([1.0, 0.0]), LATTICE, cost)


def test_max_block_norm_lattice():
    sol = solve_max_block_norm(lattice_problem([3.0, -4.0]))
    assert sol.status is SolveStatus.OPTIMAL
    # parts are forced coordinatewise: max(|(3,0)|, |(0,-4)|) = 4
    assert sol.value == pytest.approx(4.0, abs=1e-7)


# -- feasibility and certificates -------------------------------------------

def test_check_feasible_both_ways():
    rep = check_feasible(np.array([[1.0, 0.0]]), np.array([2.0]), Orthant(2))
    assert rep.feasible and rep.point is not None
    rep = check_feasible(np.array([[1.0, 0.0]]), np.array([-2.0]), Orthant(2))
    assert not rep.feasible


def test_farkas_certificate_validity():
    T = np.array([[1.0, 0.0]])
    x = np.array([-1.0])
    cert = farkas_certificate(T, x, Orthant(2))
    assert cert is not None
    assert certificate_is_valid(T, x, Orthant(2), cert.y)
    pairing, dual_defect = oracles.farkas_checks(T, x, cert.y)
    assert pairing > 1e-9 and dual_defect <= 1e-8
    # no certificate exists for a reachable target
    assert farkas_certificate(T, np.array([1.0]), Orthant(2)) is None


@given(st.integers(0, 10_000))
def test_random_generator_cone_feasibility_agrees_with_construction(seed):
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(3, 5))
    lam = np.abs(rng.normal(size=5))
    inside = G @ lam
    rep = check_feasible(np.eye(3), inside, Generators(G))
    assert rep.feasible


def test_min_norm_sweep_caches_and_matches():
    sweep = MinNormSweep(SUMMING, LATTICE, BlockNorm(((0, 2, NormTag.L2), (2, 4, NormTag.L2))))
    x = np.array([3.0, -4.0])
    assert sweep.value(x) == pytest.approx(7.0, abs=1e-7)
    assert sweep.feasible(x)
    one_sided = MinNormSweep(np.array([[1.0, 0.0]]), Orthant(2),
                             BlockNorm.flat(2, NormTag.L2))
    assert one_sided.value(np.array([-1.0])) == np.inf
    assert not one_sided.feasible(np.array([-1.0]))


# -- warm-started sweeps ------------------------------------------------------

# the last row is the sum of the first two, so phase 1 drops one row as
# redundant and targets off the plane x3 = x1 + x2 are infeasible
REDUNDANT = np.array([[1.0, 0.0, 1.0, -1.0], [0.0, 1.0, 1.0, 1.0], [1.0, 1.0, 2.0, 0.0]])


def sweep_cases():
    for seed in range(10):  # even seeds are onto, odd seeds are not
        m = parse_instance(random_polyhedral_instance(seed)).map
        yield f"seed{seed}", m.matrix, m.cone, m.domain_norm
    yield "redundant", REDUNDANT, Orthant(4), BlockNorm.flat(4, NormTag.L1)


def sweep_targets(T, rng, count=100):
    xs = rng.standard_normal((count, T.shape[0]))
    if np.linalg.matrix_rank(T) < T.shape[0]:
        # half the targets on the image plane, reachable or not
        xs[::2] = rng.standard_normal((count // 2, T.shape[1])) @ T.T
    return xs


def cold_value(sweep, x):
    lp, _, _, eq_ids = solver._build_lp(sweep.canon)
    st, _, value, _ = lp.solve(sweep.tol, rhs_override=dict(zip(eq_ids, x.tolist())))
    return np.inf if st is SolveStatus.INFEASIBLE else value


def spy(monkeypatch, owner, name, log, pick):
    """Wrap owner.name so every call appends pick(result) to log."""
    inner = getattr(owner, name)

    def wrapped(*args, **kw):
        out = inner(*args, **kw)
        log.append(pick(out))
        return out

    monkeypatch.setattr(owner, name, wrapped)


SWEEP_CASES = list(sweep_cases())


@pytest.mark.parametrize("name,T,cone,norm", SWEEP_CASES, ids=[c[0] for c in SWEEP_CASES])
def test_sweep_warm_start_matches_cold(name, T, cone, norm, monkeypatch):
    sweep = MinNormSweep(T, cone, norm)
    xs = sweep_targets(T, np.random.default_rng(1))
    pivots, cold, rejected = [], [], []
    spy(monkeypatch, LinearProgram, "solve", pivots, lambda out: out[3])
    spy(monkeypatch, simplex._StandardLP, "solve", cold, lambda out: out[0])
    spy(monkeypatch, simplex._WarmStart, "_accept", rejected, lambda out: out is None)
    warm = [sweep.value(x) for x in xs]
    monkeypatch.undo()
    assert len(pivots) == len(xs)
    if name == "redundant":
        # off-plane targets can satisfy the kept rows and fail the residual
        # check on the full matrix; those go back to the cold simplex
        assert any(rejected) and len(cold) > 1
    else:
        # until some target is feasible there is no basis to start from and
        # every solve is cold; a map that is not onto may meet none
        first = next((i for i, w in enumerate(warm) if np.isfinite(w)), len(xs))
        later = pivots[max(10, first + 1):]
        assert not later or np.mean(later) < 3.0
    for x, w in zip(xs, warm):
        c = cold_value(sweep, x)
        assert np.isinf(w) == np.isinf(c), (x, w, c)
        if np.isfinite(c):
            assert abs(w - c) <= 1e-10 * max(1.0, abs(c)), (x, w, c)
    feasible = [sweep.feasible(x) for x in xs]
    assert feasible == [check_feasible(T, x, cone).feasible for x in xs]
    assert feasible == [bool(np.isfinite(w)) for w in warm]


def test_lp_unbounded_status():
    # min -x st x - y <= 1, x, y >= 0: x = y + 1 grows without bound
    lp = LinearProgram()
    idx = lp.add_vars(2, nonneg=True, obj=[-1.0, 0.0])
    lp.add_row([1.0, -1.0], "<=", 1.0, at=idx)
    status, z, value, _ = lp.solve()
    assert status is SolveStatus.UNBOUNDED
    assert z is None and value is None
