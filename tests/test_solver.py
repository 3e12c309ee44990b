import gc
import math
import os
import pathlib
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest
import scipy.linalg as scipy_linalg
import scipy.optimize as scipy_optimize
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conekit import conic, parse_instance, random_polyhedral_instance, simplex, solver
from conekit.conemap import ConeMap
from conekit.cones import DirectSumL1, Generators, Negation, Orthant, Product, SecondOrder
from conekit.norms import BlockNorm, NormTag
from conekit.sampling import SamplerConfig
from conekit.solver import (BallConstraint, LinearProgram, MinNormProblem, MinNormSweep,
                            SolveStatus, certificate_is_valid, check_feasible,
                            farkas_certificate, project_onto_slice, solve_max_block_norm,
                            solve_min_gauge, solve_min_linear, solve_min_norm)

import oracles

LATTICE = DirectSumL1((Orthant(2), Negation(Orthant(2))))
SUMMING = np.hstack([np.eye(2), np.eye(2)])


def lattice_problem(x, tag=NormTag.L2):
    objective = BlockNorm(((0, 2, tag), (2, 4, tag)))
    return MinNormProblem(SUMMING, np.asarray(x, dtype=float), LATTICE, objective)


# -- raw LP ---------------------------------------------------------------

def test_lp_hand_case():
    # max x + y st x + 2y <= 4, x <= 2, x, y >= 0 -> (2, 1), value 3
    lp = LinearProgram([-1.0, -1.0], [[1.0, 2.0], [1.0, 0.0]], [False, False], [False, False])
    status, z, value, _ = lp.solve([4.0, 2.0])
    assert status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(z[:2], [2.0, 1.0], atol=1e-9)
    assert value == pytest.approx(-3.0)


def test_lp_infeasible():
    lp = LinearProgram([0.0], [[1.0]], [False], [False])
    status, *_ = lp.solve([-1.0])
    assert status is SolveStatus.INFEASIBLE


def test_lp_equality_and_free_vars():
    # free variable y: minimize y st y = -3
    lp = LinearProgram([1.0], [[1.0]], [True], [True])
    status, z, value, _ = lp.solve([-3.0])
    assert status is SolveStatus.OPTIMAL
    assert z[0] == pytest.approx(-3.0)


def test_lp_whose_rows_are_all_redundant(spy):
    # 0 z = 0 leaves phase 2 no row: the empty basis is optimal at z = 0,
    # and its inverse maps the one row to nothing
    inverses = []
    spy(simplex._WarmStart, "_inverse", inverses, pick=lambda M: None if M is None else M.shape)
    lp = LinearProgram([1.0, 2.0], [[0.0, 0.0]], [True], [False, False])
    status, z, value, _ = lp.solve([0.0])
    assert status is SolveStatus.OPTIMAL and value == 0.0 and inverses == [(0, 1)]
    np.testing.assert_array_equal(z, [0.0, 0.0])


@pytest.mark.parametrize("c,A,eq,free,named", [
    ([1.0, 1.0], [[1.0, 1.0]], [True, False], [False, False], "eq (2,)"),
    ([1.0, 1.0], [[1.0, 1.0]], [True], [False], "free (1,)"),
    ([1.0], [[1.0, 1.0]], [True], [False, False], "c (1,)"),
    ([1.0, 1.0], [1.0, 1.0], [True], [False, False], "A (2,)"),
], ids=["eq", "free", "c", "A"])
def test_lp_rejects_mismatched_shapes(c, A, eq, free, named):
    # a wrong-length mask would put slacks on the wrong rows or misplace
    # the split columns of free variables
    with pytest.raises(ValueError, match=re.escape(named)):
        LinearProgram(c, A, eq, free)


def test_program_lp_matches_a_row_by_row_build():
    # the epigraph rows, then the equality rows, then the canon's <= rows,
    # then the cap rows, over free z and nonnegative auxiliaries, those of
    # the cap first.  The ball programs are those of the bisection oracle's
    # ``ball_reachable`` (test_conemap.py), with a flat l1 or linf cap, and
    # with the same norm split into an l1-sum of blocks
    for seed in range(40):
        m = parse_instance(random_polyhedral_instance(seed)).map
        d, tag = m.domain_dim, m.domain_norm.blocks[0][2]
        split = BlockNorm(((0, d // 2, tag), (d // 2, d, tag)))
        balls = [BallConstraint(np.eye(d), norm, 1.0) for norm in (m.domain_norm, split)]
        cases = [(None, ("norm", "max", None)[seed % 3])] + [(b, None) for b in balls]
        for ball, objective in cases:
            sweep = MinNormSweep(m.matrix, m.cone, m.domain_norm, balls=(ball,) if ball else ())
            program = sweep._program(objective)
            canon, aux = program.canon, np.zeros(program._aux)
            caps, unit = [], []
            for E, norm, r in canon.caps:
                blocks = [(a, b, t.value) for a, b, t in norm.blocks]
                caps, unit = oracles.polyhedral_cap_rows(E, blocks, r)
            width = program.n + program._aux
            rows = ([(row, "<=") for row in program._matrix(program._rows)]
                    + [(np.concatenate([row, aux]), "=") for row in canon.eq_A]
                    + [(np.concatenate([row, aux]), "<=") for row in canon.in_A]
                    + [(np.concatenate([row, np.zeros(width - row.size)]), "<=") for row in caps])
            costs = np.concatenate([program._cost, aux])
            costs[program._epi] = 1.0
            free = np.arange(costs.size) < program.n
            want_A, want_c = oracles.standard_form_by_rows(costs, free, rows)
            assert np.array_equal(program.lp.A, want_A), (seed, ball)
            assert np.array_equal(program.lp.c, want_c), (seed, ball)
            want_b = np.concatenate([np.zeros(len(program._rows) + canon.eq_A.shape[0]),
                                     canon.in_b, unit])
            assert np.array_equal(program._unit, want_b), (seed, ball)


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


def lexicographic_cases(count=120, seed=7):
    """Random integer instances whose map is not injective: T is d x n with
    d < n, the cone an orthant or a generated cone, the norm l1 or linf, and
    the target the image of an integer cone point.  Yields (T, x, G, cone, tag)
    with G the cone's generators."""
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        n = int(rng.integers(3, 5))
        d = int(rng.integers(1, n))
        T = rng.integers(-3, 4, (d, n)).astype(float)
        if rng.random() < 0.5:
            G, cone = np.eye(n), Orthant(n)
        else:
            G = rng.integers(0, 4, (n, int(rng.integers(n, n + 3)))).astype(float)
            G[:, ~G.any(axis=0)] = 1.0
            cone = Generators(G)
        tag = NormTag.L1 if rng.random() < 0.5 else NormTag.LINF
        x = T @ G @ rng.integers(0, 3, G.shape[1]).astype(float)
        if np.linalg.matrix_rank(T @ G) < d or not x.any():
            continue
        made += 1
        yield T, x, G, cone, tag


LEXICOGRAPHIC_CASES = list(lexicographic_cases())


def test_lexicographic_point_is_the_exact_lexmin():
    # the optimum of an l1 or linf norm over a slice is a face; the point
    # returned is its lexicographically smallest one, to rounding
    worst = 0.0
    for T, x, G, cone, tag in LEXICOGRAPHIC_CASES:
        value, want = oracles.lexmin_by_vertices(T, x, G, tag.value)
        sol = solve_min_norm(MinNormProblem(T, x, cone, BlockNorm.flat(T.shape[1], tag)))
        assert sol.status is SolveStatus.OPTIMAL
        worst = max(worst, np.abs(sol.point - want).max() / max(1.0, np.abs(want).max()))
        assert abs(sol.value - value) <= 1e-12 * max(1.0, value)
    assert worst <= 1e-12


def test_lexicographic_value_is_the_optimal_value():
    # the tie-break moves along the optimal face only, so the norm of the
    # point it picks is the optimal value
    for T, x, G, cone, tag in LEXICOGRAPHIC_CASES:
        problem = MinNormProblem(T, x, cone, BlockNorm.flat(T.shape[1], tag))
        lex = solve_min_norm(problem).value
        plain = solve_min_norm(problem, lexicographic=False).value
        assert abs(lex - plain) <= 1e-12 * max(1.0, plain), (T, x, tag, lex, plain)


def test_lexicographic_passes_run_no_cold_solve(spy):
    # the passes continue on the optimal tableau of the main solve: one
    # two-phase solve per program, however many coordinates are tied
    cold = []
    spy(simplex._StandardLP, "solve", cold, lambda out: out[0])
    for T, x, G, cone, tag in LEXICOGRAPHIC_CASES[:20]:
        cold.clear()
        solve_min_norm(MinNormProblem(T, x, cone, BlockNorm.flat(T.shape[1], tag)))
        assert cold == [SolveStatus.OPTIMAL]
    cold.clear()
    solve_min_norm(lattice_problem([3.0, -4.0], NormTag.L1))
    assert cold == [SolveStatus.OPTIMAL]


def test_lexicographic_solve_leaves_the_program_reusable():
    # the LP is not edited, so a second lexicographic solve (warm, from the
    # cached basis) and a plain one agree with the first
    for T, x, G, cone, tag in LEXICOGRAPHIC_CASES[:40]:
        program = solver._Program(solver._canonicalize(
            MinNormProblem(T, x, cone, BlockNorm.flat(T.shape[1], tag))))
        first = program.solve(x, lexicographic=True)
        lp, A = program.lp, program.lp.A
        again = program.solve(x, lexicographic=True)
        plain = program.solve(x)
        assert program.lp is lp and program.lp.A is A
        assert again[0] is first[0] is plain[0] is SolveStatus.OPTIMAL
        point, value = G @ first[1], first[2]
        assert np.abs(G @ again[1] - point).max() <= 1e-12 * max(1.0, np.abs(point).max())
        assert max(abs(again[2] - value), abs(plain[2] - value)) <= 1e-12 * max(1.0, value)


def test_solved_lp_is_freed_without_the_cycle_collector():
    # the basis an LP keeps for the lexicographic passes makes no reference
    # cycle, so its tableaus and cached inverses go with its last reference
    T, x, G, cone, tag = LEXICOGRAPHIC_CASES[0]
    gc.disable()
    try:
        program = solver._Program(solver._canonicalize(
            MinNormProblem(T, x, cone, BlockNorm.flat(T.shape[1], tag))))
        for target in (x, 2.0 * x, x):  # cold, then from the cached basis
            assert program.solve(target, lexicographic=True)[0] is SolveStatus.OPTIMAL
        warm = weakref.ref(program.lp._warm)
        del program
        assert warm() is None
    finally:
        gc.enable()


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


def test_euclidean_ball_beside_an_l1_ball():
    # the l1 ball adds auxiliary variables; the orthonormal Euclidean ball on
    # the positive part acts on the widened point too.  Loose radii leave
    # (x+, x-) optimal, tight ones empty the slice (|x+| = 3, |x|_1 = 7)
    x, parts = np.array([3.0, -4.0]), np.array([3.0, 0.0, 0.0, -4.0])
    pos = np.hstack([np.eye(2), np.zeros((2, 2))])

    def balls(l1, l2):
        return (BallConstraint(np.eye(4), NormTag.L1, l1), BallConstraint(pos, NormTag.L2, l2))

    sol = solve_min_norm(MinNormProblem(SUMMING, x, LATTICE, BlockNorm.flat(4, NormTag.L2),
                                        balls=balls(10.0, 5.0)))
    assert sol.status is SolveStatus.OPTIMAL and sol.driver == "conic"
    np.testing.assert_allclose(sol.point, parts, atol=1e-7)
    proj = project_onto_slice(SUMMING, x, LATTICE, np.zeros(4), balls=balls(10.0, 5.0))
    assert proj.driver == "active-set"
    np.testing.assert_array_equal(proj.point, parts)
    assert check_feasible(SUMMING, x, LATTICE, balls=balls(10.0, 5.0)).feasible
    for l1, l2 in ((6.9, 5.0), (10.0, 2.9)):
        assert not check_feasible(SUMMING, x, LATTICE, balls=balls(l1, l2)).feasible
        assert project_onto_slice(SUMMING, x, LATTICE, np.zeros(4),
                                  balls=balls(l1, l2)).status is SolveStatus.INFEASIBLE


def test_projection_through_a_non_orthonormal_ball_reports_an_empty_slice():
    # |(2 c1, 3 c2)|_2 <= r has no exact encoding, so the projection takes the
    # projected-gradient fallback; on c1 + c2 = 1, c >= 0 it needs r >= 6/sqrt(13)
    T, x, R = np.array([[1.0, 1.0]]), np.array([1.0]), np.diag([2.0, 3.0])
    ok = project_onto_slice(T, x, Orthant(2), np.zeros(2),
                            balls=(BallConstraint(R, NormTag.L2, 2.5),))
    assert ok.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(ok.point, [0.5, 0.5], atol=1e-4)
    empty = project_onto_slice(T, x, Orthant(2), np.zeros(2),
                               balls=(BallConstraint(R, NormTag.L2, 1.0),))
    assert empty.status is SolveStatus.INFEASIBLE
    assert empty.point is None


def test_empty_second_order_slice_takes_one_conic_solve(conic_runs):
    # the conic driver's certificate for the min-norm program is the Farkas
    # certificate itself, so no separation program runs after it
    x = np.array([1.0, 2.0, 0.0])
    sol = solve_min_norm(MinNormProblem(np.eye(3), x, SecondOrder(3),
                                        BlockNorm.flat(3, NormTag.L2)))
    assert sol.status is SolveStatus.INFEASIBLE
    assert [len(run) for run in conic_runs] == [1]
    assert certificate_is_valid(np.eye(3), x, SecondOrder(3), sol.certificate.y)


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


@pytest.mark.parametrize("certified,verdict", [(False, SolveStatus.ITERATION_LIMIT),
                                               (True, SolveStatus.INFEASIBLE)])
def test_conic_min_norm_verdicts_are_honest(certified, verdict, undecided_conic):
    # min |c|_2 over a second-order slice is one conic solve; an undecided
    # run stays undecided, and only a certified one reads as infeasible
    undecided_conic(certified)
    p = MinNormProblem(np.eye(3), np.array([2.0, 1.0, -0.5]), SecondOrder(3),
                       BlockNorm.flat(3, NormTag.L2))
    sol = solve_min_norm(p)
    assert sol.status is verdict
    assert sol.point is None
    assert sol.driver == "conic"


@pytest.mark.parametrize("certified,verdict", [(False, SolveStatus.ITERATION_LIMIT),
                                               (True, SolveStatus.INFEASIBLE)])
def test_min_linear_start_verdicts_are_honest(certified, verdict, undecided_conic):
    # an l2 cap makes the slice curved, so the linear objective is a conic solve
    undecided_conic(certified)
    ball = BallConstraint(np.eye(4), NormTag.L2, 5.0)
    sol = solve_min_linear(SUMMING, np.array([1.0, -2.0]), LATTICE,
                           np.array([1.0, 1.0, 0.0, 0.0]), balls=(ball,))
    assert sol.status is verdict
    assert sol.point is None


@pytest.mark.parametrize("certified,verdict", [(False, SolveStatus.ITERATION_LIMIT),
                                               (True, SolveStatus.INFEASIBLE)])
def test_max_block_start_verdicts_are_honest(certified, verdict, undecided_conic):
    # on second-order summands the maximum is one conic solve
    undecided_conic(certified)
    cone = DirectSumL1((SecondOrder(3), Negation(SecondOrder(3))))
    objective = BlockNorm(((0, 3, NormTag.L2), (3, 6, NormTag.L2)))
    p = MinNormProblem(np.hstack([np.eye(3), np.eye(3)]), np.array([1.0, 0.5, -0.25]), cone,
                       objective)
    sol = solve_max_block_norm(p)
    assert sol.status is verdict
    assert sol.point is None


# -- curved feasibility ----------------------------------------------------------
#
# The conic driver decides every curved feasibility test, with a feasible
# point or a checked certificate, for one target or for a batch in one call.

ICE_INSIDE, ICE_OUTSIDE = np.array([2.0, 1.0, -0.5]), np.array([1.0, 2.0, 0.0])
UNIT_CAP = BallConstraint(np.eye(3), NormTag.L2, 3.0)


def ice_sweep(**kw):
    return MinNormSweep(np.eye(3), SecondOrder(3), BlockNorm.flat(3, NormTag.L2), **kw)


def sweep_verdict(x, batched, **kw):
    """The sweep's verdict at x, asked alone or as both targets of a batch."""
    sweep = ice_sweep(**kw)
    if not batched:
        return sweep.feasible(x)
    verdicts = [solver._decided(st, x) for st, _ in sweep.feasible_many(np.array([x, x]))]
    assert verdicts[0] is verdicts[1]
    return verdicts[0]


def curved_feasibility(x, batched=False, **kw):
    """(sweep verdict, check_feasible report) on SecondOrder(3) under the identity."""
    return sweep_verdict(x, batched, **kw), check_feasible(np.eye(3), x, SecondOrder(3), **kw)


def test_curved_feasibility_yes_takes_one_conic_solve(conic_runs):
    # a point inside the slice costs one conic solve per question (a
    # converged Dykstra run used to answer it with none)
    for kw in ({}, {"balls": (UNIT_CAP,)}):
        del conic_runs[:]
        fast, rep = curved_feasibility(ICE_INSIDE, **kw)
        assert fast and rep.feasible
        np.testing.assert_allclose(rep.point, ICE_INSIDE, atol=1e-9)
        assert [len(run) for run in conic_runs] == [1, 1]
        assert all(run[0].status is SolveStatus.OPTIMAL for run in conic_runs)


@pytest.mark.parametrize("batched", (False, True))
def test_curved_feasibility_asks_the_conic_driver(batched, conic_runs):
    # every verdict, alone or batched, is a conic feasible point or a
    # checked certificate
    small_cap = BallConstraint(np.eye(3), NormTag.L2, 1.0)  # |ICE_INSIDE| > 1
    cases = ((ICE_INSIDE, {}, True), (ICE_OUTSIDE, {}, False),
             (ICE_INSIDE, {"balls": (UNIT_CAP,)}, True),
             (ICE_INSIDE, {"balls": (small_cap,)}, False))
    for x, kw, want in cases:
        del conic_runs[:]
        fast, rep = curved_feasibility(x, batched, **kw)
        assert fast is want and rep.feasible is want, (x, kw)
        status = SolveStatus.OPTIMAL if want else SolveStatus.INFEASIBLE
        assert [len(run) for run in conic_runs] == [2 if batched else 1, 1]
        assert all(r.status is status for run in conic_runs for r in run), (x, kw)
        if want:
            np.testing.assert_allclose(rep.point, x, atol=1e-8)
        elif not kw:  # an empty slice with no caps has a Farkas certificate
            assert certificate_is_valid(np.eye(3), x, SecondOrder(3), rep.certificate.y)


def test_empty_curved_slice_is_solved_once(conic_runs):
    # the conic verdict carries the Farkas certificate, so the feasibility
    # program is not solved a second time to find one
    rep = check_feasible(np.eye(3), ICE_OUTSIDE, SecondOrder(3))
    assert not rep.feasible and [len(run) for run in conic_runs] == [1]
    assert certificate_is_valid(np.eye(3), ICE_OUTSIDE, SecondOrder(3), rep.certificate.y)


@pytest.mark.parametrize("batched", (False, True))
def test_curved_feasibility_undecided_raises(batched, undecided_conic):
    undecided_conic(False)
    for x in (ICE_INSIDE, ICE_OUTSIDE):
        with pytest.raises(ArithmeticError):
            sweep_verdict(x, batched)
        with pytest.raises(ArithmeticError):
            check_feasible(np.eye(3), x, SecondOrder(3))
    with pytest.raises(ArithmeticError):
        ConeMap(np.eye(3), SecondOrder(3)).is_surjective(method="sampled",
                                                          config=SamplerConfig(directions=16))


def test_solutions_name_their_driver():
    two_l2 = lattice_problem([3.0, -4.0])
    one_l2 = MinNormProblem(np.array([[1.0, 1.0]]), np.array([2.0]), Orthant(2),
                            BlockNorm.flat(2, NormTag.L2))
    ice = MinNormProblem(np.eye(3), np.array([2.0, 1.0, -0.5]), SecondOrder(3),
                         BlockNorm.flat(3, NormTag.L2))
    assert solve_min_norm(lattice_problem([3.0, -4.0], NormTag.L1)).driver == "simplex"
    assert solve_min_norm(one_l2).driver == "active-set"
    assert solve_min_norm(two_l2).driver == "conic"
    assert solve_min_norm(lattice_problem([0.0, 0.0])).driver == "trivial"
    assert solve_max_block_norm(two_l2).driver == "conic"
    assert solve_max_block_norm(lattice_problem([3.0, -4.0], NormTag.L1)).driver == "simplex"
    assert solve_max_block_norm(ice).driver == "conic"
    mass = np.array([1.0, 1.0, 0.0, 0.0])
    assert solve_min_linear(SUMMING, np.array([1.0, 0.0]), LATTICE, mass).driver == "simplex"
    assert solve_min_linear(np.eye(3), ICE_INSIDE, SecondOrder(3), np.ones(3)).driver == "conic"
    sol = solve_min_norm(ice)
    assert sol.driver == "conic" and 0 < sol.iterations <= 60


# -- gauge, linear, and max-block objectives --------------------------------

def test_min_gauge_positive_part():
    R = np.hstack([np.eye(2), np.zeros((2, 2))])
    sol = solve_min_gauge(SUMMING, np.array([3.0, -4.0]), LATTICE, (R, NormTag.L2))
    assert sol.value == pytest.approx(3.0, abs=1e-8)  # |x_plus|_2
    sol = solve_min_gauge(SUMMING, np.array([-1.0, -1.0]), LATTICE, (R, NormTag.L2))
    assert sol.value == pytest.approx(0.0, abs=1e-8)  # negative x needs no plus part


@pytest.mark.parametrize("tag", [NormTag.LINF, NormTag.L1])
def test_zero_gauge_is_zero_on_both_backends(tag):
    # a linf block whose rows are all zero still gets its epigraph variable,
    # nonnegative in the LP and held by a sign row in the conic program
    for cone, driver in ((Orthant(3), "simplex"), (SecondOrder(3), "conic")):
        sol = solve_min_gauge(np.eye(3)[:2], np.array([2.0, 1.0]), cone, (np.zeros((2, 3)), tag))
        assert sol.status is SolveStatus.OPTIMAL and sol.driver == driver
        assert sol.value == 0.0


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


@pytest.mark.parametrize("d", (2, 3, 5))
def test_max_block_norm_closed_form_on_l2_lattices(d):
    # any slack w >= 0 in c = (x+ + w, x- - w) lengthens both parts, so the
    # minimizer is (x+, x-) and the value max(|x+|_2, |x-|_2).  The longer
    # part grows only by |w|^2 where w is orthogonal to it, and the sign
    # constraints there have zero multipliers, so an interior-point answer
    # with gap 1e-12 pins the point only to about the square root of that
    cone = DirectSumL1((Orthant(d), Negation(Orthant(d))))
    objective = BlockNorm(((0, d, NormTag.L2), (d, 2 * d, NormTag.L2)))
    for x in np.random.default_rng(d).standard_normal((50, d)):
        plus, minus = np.maximum(x, 0.0), np.minimum(x, 0.0)
        want = max(np.linalg.norm(plus), np.linalg.norm(minus))
        sol = solve_max_block_norm(MinNormProblem(np.hstack([np.eye(d)] * 2), x, cone, objective))
        assert abs(sol.value - want) <= 1e-11 * want, (x, sol.value, want)
        np.testing.assert_allclose(sol.point, np.concatenate([plus, minus]), rtol=0, atol=1e-5)


def test_max_block_norm_mixes_euclidean_and_polyhedral_blocks():
    objective = BlockNorm(((0, 3, NormTag.L2), (3, 6, NormTag.L1)))
    cone = DirectSumL1((Orthant(3), Negation(Orthant(3))))
    for x in np.random.default_rng(7).standard_normal((10, 3)):
        want = max(np.linalg.norm(np.maximum(x, 0.0)), np.abs(np.minimum(x, 0.0)).sum())
        sol = solve_max_block_norm(MinNormProblem(np.hstack([np.eye(3)] * 2), x, cone, objective))
        assert sol.driver == "conic"
        assert abs(sol.value - want) <= 1e-11 * want, (x, sol.value, want)


# -- feasibility and certificates -------------------------------------------

def test_check_feasible_both_ways():
    rep = check_feasible(np.array([[1.0, 0.0]]), np.array([2.0]), Orthant(2))
    assert rep.feasible and rep.point is not None
    rep = check_feasible(np.array([[1.0, 0.0]]), np.array([-2.0]), Orthant(2))
    assert not rep.feasible


def test_check_feasible_at_an_unreachable_target_is_one_lp(spy):
    # the certificate is the equality-row part of the phase-1 Farkas ray
    G = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    solves = []
    spy(LinearProgram, "solve", solves, pick=lambda out: out[0])
    rep = check_feasible(np.eye(2), np.array([-1.0, 0.5]), Generators(G))
    assert not rep.feasible and solves == [SolveStatus.INFEASIBLE]
    assert certificate_is_valid(np.eye(2), [-1.0, 0.5], Generators(G), rep.certificate.y)
    pairing, dual_defect = oracles.farkas_checks(G, [-1.0, 0.5], rep.certificate.y)
    assert pairing > 1e-9 and dual_defect <= 1e-8


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
    st, _, value, _, _ = solver._Program(sweep.canon).solve(x)
    return np.inf if st is SolveStatus.INFEASIBLE else value


SWEEP_CASES = list(sweep_cases())


@pytest.mark.parametrize("name,T,cone,norm", SWEEP_CASES, ids=[c[0] for c in SWEEP_CASES])
def test_sweep_warm_start_matches_cold(name, T, cone, norm, monkeypatch, spy):
    sweep = MinNormSweep(T, cone, norm)
    xs = sweep_targets(T, np.random.default_rng(1))
    pivots, cold, rejected = [], [], []
    spy(LinearProgram, "solve", pivots, lambda out: out[3])
    spy(simplex._StandardLP, "solve", cold, lambda out: out[0])
    spy(simplex._WarmStart, "_accept", rejected, lambda out: out is None)
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


@pytest.mark.parametrize("tags", [(NormTag.L2, NormTag.L2), (NormTag.L2, NormTag.L1)],
                         ids=["l2-sum", "l2-l1-mix"])
def test_euclidean_sweep_compiles_one_conic_program(tags, monkeypatch, spy):
    # a sum of blocks with a Euclidean one is a conic program compiled once
    # per sweep; each target changes only its right-hand side
    norm = BlockNorm(((0, 2, tags[0]), (2, 4, tags[1])))
    sweep = MinNormSweep(SUMMING, LATTICE, norm)
    xs = np.random.default_rng(5).standard_normal((60, 2))
    built = []
    spy(conic.ConeProgram, "__init__", built)
    warm = [sweep.value(x) for x in xs]
    monkeypatch.undo()
    assert len(built) == 1
    for x, w in zip(xs, warm):
        cold = solve_min_norm(MinNormProblem(SUMMING, x, LATTICE, norm), lexicographic=False)
        assert abs(w - cold.value) <= 1e-10 * max(1.0, cold.value), (x, w, cold.value)


def test_lp_unbounded_status():
    # min -x st x - y <= 1, x, y >= 0: x = y + 1 grows without bound
    lp = LinearProgram([-1.0, 0.0], [[1.0, -1.0]], [False], [False, False])
    status, z, value, _ = lp.solve([1.0])
    assert status is SolveStatus.UNBOUNDED
    assert z is None and value is None


@pytest.fixture
def pivot_loops(monkeypatch):
    """The pivot count of every ``_StandardLP._pivot_loop`` run, in call order."""
    runs, inner = [], simplex._StandardLP._pivot_loop

    def wrapped(cls, *args, **kw):
        runs.append(inner(*args, **kw))
        return runs[-1]

    monkeypatch.setattr(simplex._StandardLP, "_pivot_loop", classmethod(wrapped))
    return runs


def test_cold_lp_of_slack_rows_takes_no_phase_one_pivot(pivot_loops):
    # every <= row with b >= 0 owns its slack, so the slack crash basis is
    # feasible and phase 1 has no artificial to drive out
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(3)
    for _ in range(20):
        m, n = rng.integers(1, 7, size=2)
        A, b, c = rng.normal(size=(m, n)), rng.uniform(0.0, 2.0, size=m), rng.normal(size=n)
        lp = LinearProgram(c, np.vstack([A, np.eye(n)]), np.zeros(m + n, bool), np.zeros(n, bool))
        pivot_loops.clear()
        status, z, value, _ = lp.solve(np.concatenate([b, np.ones(n)]))
        assert status is SolveStatus.OPTIMAL
        assert pivot_loops[0] == 0
        want = linprog(c, A_ub=np.vstack([A, np.eye(n)]), b_ub=np.concatenate([b, np.ones(n)]))
        assert abs(value - want.fun) <= 1e-9 * max(1.0, abs(want.fun))


def test_lexmin_stops_once_no_pass_can_pivot(pivot_loops):
    def passes(lp, b, costs):
        assert lp.solve(b)[0] is SolveStatus.OPTIMAL
        pivot_loops.clear()
        z, _ = lp.lexmin(np.asarray(costs, dtype=float))
        return z, len(pivot_loops)

    # z = (2, 1) is the only feasible point: one pass, not three
    lp = LinearProgram(np.zeros(2), [[1.0, 1.0], [1.0, -1.0]], [True, True], [True, True])
    z, count = passes(lp, [3.0, 1.0], np.eye(2))
    np.testing.assert_allclose(z, [2.0, 1.0], atol=1e-12)
    assert count == 1
    # the face is the line z1 + z2 = 1, on which the one cost is constant
    lp = LinearProgram(np.zeros(2), [[1.0, 1.0]], [True], [True, True])
    z, count = passes(lp, [1.0], [[1.0, 1.0]])
    assert abs(z.sum() - 1.0) <= 1e-12 and count == 1
    # min y1 + y2 over y1 + y2 >= 1 (the row -y1 - y2 <= -1) ties along a
    # segment: the y1 pass pivots to (0, 1), a point, and the y2 pass is skipped
    lp = LinearProgram([1.0, 1.0], [[-1.0, -1.0]], [False], [False, False])
    z, count = passes(lp, [-1.0], np.eye(2))
    np.testing.assert_allclose(z, [0.0, 1.0], atol=1e-12)
    assert count == 2


# -- numpy-only polyhedral runtime ----------------------------------------------

POLYHEDRAL_CALLS = """
import sys
import numpy as np
from conekit.cones import DirectSumL1, Negation, Orthant
from conekit.norms import BlockNorm, NormTag
from conekit.sampling import SamplerConfig
from conekit.solver import (MinNormProblem, MinNormSweep, check_feasible, solve_max_block_norm,
                            solve_min_linear, solve_min_norm)
T, x = np.hstack([np.eye(2), np.eye(2)]), np.array([3.0, -4.0])
C = DirectSumL1((Orthant(2), Negation(Orthant(2))))
for tag in (NormTag.L1, NormTag.L2):
    flat = BlockNorm.flat(4, tag)
    assert solve_min_norm(MinNormProblem(T, x, C, flat)).value > 0
    sweep = MinNormSweep(T, C, flat)
    assert sweep.value(x) > 0 and sweep.feasible(x)
assert check_feasible(T, x, C).feasible
assert check_feasible(np.eye(2), x, Orthant(2)).certificate is not None
l1_lattice = BlockNorm(((0, 2, NormTag.L1), (2, 4, NormTag.L1)))
assert solve_max_block_norm(MinNormProblem(T, x, C, l1_lattice)).value == 4.0
assert solve_min_linear(T, x, C, np.array([1.0, 1.0, 0.0, 0.0])).value == 3.0
print(sorted(m for m in sys.modules if m == "conekit.conic" or m.partition(".")[0] == "scipy"))
"""


def test_polyhedral_calls_import_neither_conic_nor_scipy():
    # the interior-point code is imported on the first curved program only,
    # and the runtime is numpy-only
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", POLYHEDRAL_CALLS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sweep_computes_the_hessian_once(spy):
    # one Euclidean block on polyhedral data runs the active-set QP, whose
    # Hessian the sweep keeps; the values equal a per-target recompute bit
    # for bit (a second sweep over the same targets, to carry the same warm
    # phase-1 bases)
    m = parse_instance(random_polyhedral_instance(2)).map
    T, cone = m.matrix, m.cone
    objective = BlockNorm.flat(cone.ambient_dim, NormTag.L2)
    xs = np.random.default_rng(3).standard_normal((60, T.shape[0]))
    again = MinNormSweep(T, cone, objective)
    calls = []
    spy(solver, "_euclidean_hessian", calls)
    got = MinNormSweep(T, cone, objective).values(xs)
    assert len(calls) == 1
    want = []
    program = again._program()
    for x in xs:
        H = solver._euclidean_hessian(program.canon.obj_blocks[0][0])
        st, z, *_ = again._qp(x, H, np.zeros(again.canon.n))
        want.append(math.inf if st is SolveStatus.INFEASIBLE else program.value(z))
    assert len(calls) == 61
    np.testing.assert_array_equal(got, want)


# -- weak-duality brackets of the norm objective ----------------------------------


def dual_bound_case(seed):
    """(sweep, x, c0, w, generators): a random cone, domain norm and map with a
    reachable target x = T c0 (c0 in C) and a w in the dual cone C*.  The
    cone is an Orthant, Generators, SecondOrder, a Product or a DirectSumL1 of
    those; the norm a flat l1, l2 or linf norm or a block norm.  w is built
    from a description of C* (Orthant and SecondOrder are self-dual, and C*
    of Generators(G) with G invertible is G^-T applied to the orthant).
    ``generators`` is G with C = G R+^k on polyhedral cones, else None."""
    rng = np.random.default_rng(seed)

    def part(kind, n):  # (cone, G or None, a point of C, a point of C*)
        if kind == "orthant":
            return Orthant(n), np.eye(n), rng.random(n), rng.random(n)
        if kind == "soc":
            u, v = rng.standard_normal(n - 1), rng.standard_normal(n - 1)
            return (SecondOrder(n), None, np.concatenate([[np.linalg.norm(u) + rng.random()], u]),
                    np.concatenate([[np.linalg.norm(v) + rng.random()], v]))
        if rng.random() < 0.3:  # the whole space: C* = {0}
            G = np.hstack([np.eye(n), -np.eye(n)]) * rng.uniform(0.5, 2.0, 2 * n)
            return Generators(G), G, G @ rng.random(2 * n), np.zeros(n)
        G = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        return Generators(G), G, G @ rng.random(n), np.linalg.solve(G.T, rng.random(n))

    shape = rng.choice(["one", "product", "direct_sum"])
    n = int(rng.integers(2, 4))
    kinds = rng.choice(["orthant", "generators", "soc"], size=1 if shape == "one" else 2)
    parts = [part(k, n) for k in kinds]
    cones = [p[0] for p in parts]
    cone = cones[0] if shape == "one" else Product(tuple(cones)) if shape == "product" \
        else DirectSumL1(tuple(cones))
    tags = [list(NormTag)[i] for i in rng.integers(0, 3, size=len(parts))]
    if shape == "one" or rng.random() < 0.3:
        norm = BlockNorm.flat(cone.ambient_dim, tags[0])
    else:
        norm = BlockNorm(tuple((i * n, (i + 1) * n, t) for i, t in enumerate(tags)))
    gens = [p[1] for p in parts]
    G = None if any(g is None for g in gens) else scipy_linalg.block_diag(*gens)
    T = rng.standard_normal((int(rng.integers(1, cone.ambient_dim + 1)), cone.ambient_dim))
    c0 = np.concatenate([p[2] for p in parts])
    return MinNormSweep(T, cone, norm), T @ c0, c0, np.concatenate([p[3] for p in parts]), G


def linprog_gauge(T, G, norm: BlockNorm, x) -> float:
    """min |G lam| over lam >= 0 with T G lam = x, by scipy's HiGHS, for a
    polyhedral block norm: one auxiliary per coordinate of an l1 block and
    one per linf block, bounding it from both sides; inf when empty."""
    n, k = G.shape
    ties = []  # coordinate -> auxiliary
    for a, b, tag in norm.blocks:
        start = len(set(ties))
        ties += list(range(start, start + b - a)) if tag is NormTag.L1 else [start] * (b - a)
    aux = max(ties) + 1
    tie = np.eye(aux)[ties]
    A_ub = np.vstack([np.hstack([G, -tie]), np.hstack([-G, -tie])])
    A_eq = np.hstack([T @ G, np.zeros((T.shape[0], aux))])
    res = scipy_optimize.linprog(np.concatenate([np.zeros(k), np.ones(aux)]), A_ub=A_ub,
                                 b_ub=np.zeros(2 * n), A_eq=A_eq, b_eq=x, bounds=(0, None),
                                 method="highs")
    return res.fun if res.status == 0 else math.inf


@given(st.integers(0, 10_000))
def test_lower_end_never_exceeds_the_gauge(seed):
    # weak duality: <y, x> / |T^T y + w|_* <= m(x) for any y and any w in
    # C*, checked against the gauge solved here and, on polyhedral cones
    # and norms, against scipy; so is the lower end that ``certified`` reads
    # off the solve's own multipliers (NaN when they leave C* by more than
    # the check allows, as conic multipliers may), and the upper end of an
    # optimal point meets m
    sweep, x, c0, w, G = dual_bound_case(seed)
    rng = np.random.default_rng(seed + 1)
    m = sweep.value(x)
    lo = sweep.lower_end(x, rng.standard_normal(x.shape[0]), w)
    assert not math.isnan(lo) and lo <= m * (1.0 + 1e-9) + 1e-12, (lo, m)
    own, value, _ = sweep.certified(x)[0]
    assert abs(value - m) <= 1e-7 * max(1.0, m) and not own > m * (1.0 + 1e-9) + 1e-12
    if G is not None and sweep.problem.objective.is_polyhedral:
        want = linprog_gauge(sweep.problem.map, G, sweep.problem.objective, x)
        assert abs(m - want) <= 1e-7 * max(1.0, want), (m, want)
        assert lo <= want * (1.0 + 1e-9) + 1e-12 and abs(own - want) <= 1e-7 * max(1.0, want)
    st_, z, *_ = sweep._program().solve(x)
    assert st_ is SolveStatus.OPTIMAL
    assert abs(sweep.upper_end(x, z) - m) <= 1e-7 * max(1.0, m)
    assert sweep.upper_end(x, 2.0 * z) == math.inf  # T S (2 z) = 2 x


@given(st.integers(0, 10_000))
def test_lower_end_rejects_a_w_just_outside_the_dual_cone(seed):
    # <w, c0> < 0 at a point c0 of C proves w outside C*: move w just past
    # the face of C* that c0 defines, by 1e-6 of the scale of the data, and
    # lower_end refuses it instead of reporting a bound
    sweep, x, c0, w, _ = dual_bound_case(seed)
    y = np.random.default_rng(seed + 1).standard_normal(x.shape[0])
    scale = max(1.0, float(np.abs(sweep.problem.map.T @ y).max()), float(np.abs(w).max()))
    out = w - (w @ c0 + 1e-6 * scale * np.linalg.norm(c0)) / (c0 @ c0) * c0
    assert out @ c0 < 0.0
    assert math.isnan(sweep.lower_end(x, y, out))
    assert not math.isnan(sweep.lower_end(x, y, w))


@pytest.mark.parametrize("seed", [162, 165, 188])
def test_conic_rows_whose_w_leaves_the_dual_cone_are_solved_again(seed, spy):
    # at conic.TOL the multipliers of these second-order slices under
    # polyhedral norms give a w about 1e-10 outside C*; ``certified`` solves
    # just those rows again to conic.TARGET, one more stacked call, and the
    # bracket closes to rounding
    sweep, x, *_ = dual_bound_case(seed)
    st_, *_, (y, g) = sweep._program().solve_many(x[None], dual=True)[0]
    assert st_ is SolveStatus.OPTIMAL
    assert math.isnan(sweep.lower_end(x, y, g - sweep.problem.map.T @ y))
    sizes = []
    spy(conic.ConeProgram, "solve_many", sizes, pick=len)
    lo, m, hi = sweep.certified(np.vstack([x, x]))[1]
    assert sizes == [2, 2]
    assert 0.0 <= m - lo <= 1e-13 * m and hi == m


@pytest.mark.parametrize("seed", range(0, 50, 2))
def test_certified_brackets_are_tight_on_polyhedral_instances(seed):
    # every row of a vertex grid is certified by its own solve, lo from the
    # simplex's basis dual: lo, the value and hi agree to rounding
    m = parse_instance(random_polyhedral_instance(seed)).map
    grid = np.vstack([np.eye(m.codomain_dim), -np.eye(m.codomain_dim)])
    brackets = m._sweep.certified(grid)
    np.testing.assert_allclose(brackets[:, 1], m._sweep.values(grid), rtol=1e-14)
    assert np.all(brackets.max(axis=1) - brackets.min(axis=1) <= 1e-12 * brackets[:, 1])
