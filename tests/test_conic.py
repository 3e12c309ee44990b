"""Differential tests for the conic interior-point driver.

Closed forms (the spectral split of the ice-cream order, the lattice parts),
an independent solver (SLSQP, where scipy is installed), certificates checked
by hand on the original data, and degenerate inputs.
"""
import math

import numpy as np
import pytest

from conekit import conic, solver
from conekit.conemap import ConeMap
from conekit.conic import TOL, ConeProgram
from conekit.cones import DirectSumL1, Negation, Orthant, Product, SecondOrder
from conekit.norms import BlockNorm, NormTag
from conekit.ordered import ConormalityKind, OrderedSpace, conormality_constant
from conekit.sampling import SamplerConfig
from conekit.selection import gamma
from conekit.solver import BallConstraint, MinNormProblem, SolveStatus

import oracles


def spectral_parts(x):
    """x = p - m with p, m in SecondOrder(len(x)), the split of the ice-cream order."""
    x = np.asarray(x, dtype=float)
    nb = float(np.linalg.norm(x[1:]))
    w = x[1:] / nb if nb > 0.0 else np.eye(x.shape[0] - 1)[0]
    u1 = 0.5 * np.concatenate([[1.0], w])
    u2 = 0.5 * np.concatenate([[1.0], -w])
    p = max(x[0] + nb, 0.0) * u1 + max(x[0] - nb, 0.0) * u2
    return p, p - x


def ice_cream(tag):
    cone = DirectSumL1((SecondOrder(3), Negation(SecondOrder(3))))
    return ConeMap(np.hstack([np.eye(3), np.eye(3)]), cone, codomain_norm=NormTag.L2,
                   domain_norm=tag)


TARGETS = np.random.default_rng(8).standard_normal((40, 3))


def rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


# -- closed forms ---------------------------------------------------------------


@pytest.mark.parametrize("tag", ["l1", "l2"])
def test_ice_cream_gauges_are_the_spectral_split(tag):
    # each part of the split is as small as it can be in every monotone norm
    # of the order, so the split attains the gauge
    cm = ice_cream(NormTag(tag))
    for x in TARGETS[:20 if tag == "l1" else 40]:
        p, m = spectral_parts(x)
        want = oracles.norm(p, tag) + oracles.norm(m, tag)
        assert rel(cm.preimage_gauge(x), want) <= 1e-9, x
    sol = cm.min_preimage(TARGETS[0])
    assert sol.driver == "conic" and 0 < sol.iterations <= 60


def test_ice_cream_gamma_is_the_spectral_split():
    ri = gamma(ice_cream(NormTag.L2))
    for x in TARGETS:
        p, m = spectral_parts(x)
        np.testing.assert_allclose(ri(x), np.concatenate([p, -m]), atol=1e-9)
    assert ri.solve(TARGETS[0]).driver == "conic"


@pytest.mark.parametrize("objective", ["norm", "center"])
def test_lattice_parts_through_the_conic_driver(objective, conic_runs):
    # a polyhedral canon forced through the conic encoding: the sum of block
    # l2 norms and the distance to 0 are both smallest at (x+, x-).  A norm
    # objective stops at TOL, which fixes its value; a projection iterates
    # on to sharpen its point
    cone = DirectSumL1((Orthant(3), Negation(Orthant(3))))
    norm = BlockNorm(((0, 3, NormTag.L2), (3, 6, NormTag.L2)))
    problem = MinNormProblem(np.hstack([np.eye(3), np.eye(3)]), np.zeros(3), cone, norm)
    canon = solver._canonicalize(problem)
    form = solver._Program(canon, objective)
    for x in TARGETS:
        if objective == "center":
            st, z, _, its, _ = form.solve_many(x[None], centers=(np.zeros((1, 6)), [1.0]))[0]
        else:
            st, z, _, its, _ = form.solve(x)
        res = conic_runs[-1][0]
        assert st is SolveStatus.OPTIMAL and max(res.pres, res.dres, res.gap) <= TOL
        parts = np.concatenate(oracles.lattice_parts(x))
        if objective == "norm":
            assert rel(norm.of(canon.S @ z), norm.of(parts)) <= 1e-9
        else:
            np.testing.assert_allclose(canon.S @ z, parts, atol=1e-9)


# -- an independent solver ------------------------------------------------------------


def slsqp_projection(T, x, point, blocks, start):
    """min |c - point|^2 s.t. T c = x, c[b] in SecondOrder for each block b, by
    SLSQP from the feasible point ``start``."""
    optimize = pytest.importorskip("scipy.optimize")
    cons = [{"type": "eq", "fun": lambda c: T @ c - x, "jac": lambda c: T}]
    for b in blocks:
        def lorentz(c, b=b):
            return c[b[0]] ** 2 - c[b[1:]] @ c[b[1:]]

        def lorentz_jac(c, b=b):
            g = np.zeros_like(c)
            g[b[0]] = 2.0 * c[b[0]]
            g[b[1:]] = -2.0 * c[b[1:]]
            return g
        cons.append({"type": "ineq", "fun": lorentz, "jac": lorentz_jac})
        cons.append({"type": "ineq", "fun": lambda c, b=b: c[b[0]],
                     "jac": lambda c, b=b: np.eye(c.shape[0])[b[0]]})
    return optimize.minimize(lambda c: (c - point) @ (c - point), start,
                             jac=lambda c: 2.0 * (c - point), constraints=cons,
                             method="SLSQP", options={"ftol": 1e-15, "maxiter": 500})


def test_random_socps_match_slsqp():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(11)
    cone = Product((SecondOrder(3), SecondOrder(3)))
    blocks = [np.arange(3), np.arange(3, 6)]
    agree = 0
    for _ in range(25):
        T = rng.standard_normal((2, 6))
        inside = np.concatenate([[2.0 + rng.random()], rng.standard_normal(2) * 0.5,
                                 [2.0 + rng.random()], rng.standard_normal(2) * 0.5])
        x = T @ inside
        point = rng.standard_normal(6) * 2.0
        sol = solver.project_onto_slice(T, x, cone, point)
        assert sol.status is SolveStatus.OPTIMAL and sol.driver == "conic"
        assert np.abs(T @ sol.point - x).max() <= 1e-9 * max(1.0, np.abs(x).max())
        assert all(np.linalg.norm(sol.point[b[1:]]) <= sol.point[b[0]] + 1e-9 for b in blocks)
        # SLSQP ends on its line search more often than not, a hair outside
        # the cones: the conic answer is never farther than its point, and is
        # the same point whenever SLSQP gets as close
        ref = slsqp_projection(T, x, point, blocks, inside)
        assert sol.value <= math.sqrt(ref.fun) * (1.0 + 1e-6)
        if math.sqrt(ref.fun) <= sol.value * (1.0 + 1e-6):
            np.testing.assert_allclose(sol.point, ref.x, atol=1e-5)
            agree += 1
    assert agree >= 20


# -- certificates -------------------------------------------------------------------


def hand_checked(program, b, h, y, z):
    """The infeasibility certificate, checked without the solver: z in K,
    b'y + h'z < 0, and A'y + G'z = 0 to rounding."""
    at = program.l
    assert np.all(z[:at] >= 0.0)
    for q in program.soc:
        assert np.linalg.norm(z[at + 1:at + q]) <= z[at]
        at += q
    assert b @ y + h @ z < 0.0
    resid = program.A.T @ y + program.G.T @ z
    assert np.abs(resid).max() <= 1e-8 * abs(b @ y + h @ z)


def test_infeasible_slices_carry_checked_certificates(conic_runs):
    rng = np.random.default_rng(3)
    cone = DirectSumL1((SecondOrder(3), Negation(SecondOrder(3))))
    # |p| + |q| <= r on the summing map needs r >= the l2 gauge of x
    for x in rng.standard_normal((10, 3)):
        p, m = spectral_parts(x)
        need = np.linalg.norm(p) + np.linalg.norm(m)
        for r, empty in ((0.9 * need, True), (1.1 * need, False)):
            cap = BallConstraint(np.eye(6), BlockNorm(((0, 3, NormTag.L2), (3, 6, NormTag.L2))), r)
            problem = MinNormProblem(np.hstack([np.eye(3), np.eye(3)]), x, cone,
                                     BlockNorm.flat(6, NormTag.L2), balls=(cap,))
            form = solver._Program(solver._canonicalize(problem), None)
            st, _, _, _, y = form.solve(x)
            res = conic_runs[-1][0]
            assert st is (SolveStatus.INFEASIBLE if empty else SolveStatus.OPTIMAL), (x, r)
            if empty:
                assert form.program.certifies_infeasible(x, form.h, res.y, res.z)
                hand_checked(form.program, x, form.h, res.y, res.z)
                # the program hands on the multipliers of its equality rows, signed
                np.testing.assert_array_equal(y, -res.y)
    # a target outside a second-order slice, with no caps at all
    program = ConeProgram(np.zeros(3), -np.eye(3), 0, (3,), np.eye(3)[:2])
    res = program.solve(np.array([1.0, 2.0]), np.zeros(3))
    assert res.status is SolveStatus.INFEASIBLE
    hand_checked(program, np.array([1.0, 2.0]), np.zeros(3), res.y, res.z)


def test_linear_objectives_and_unbounded_rays():
    # min c_1 over c in SecondOrder(3) with c_0 = 1 is -1; dropping the
    # equality leaves the ray (t, -t, 0)
    ball = BallConstraint(np.eye(3), NormTag.L2, 5.0)
    sol = solver.solve_min_linear(np.eye(3)[:1], np.array([1.0]), SecondOrder(3),
                                  np.array([0.0, 1.0, 0.0]), balls=(ball,))
    assert sol.status is SolveStatus.OPTIMAL and sol.driver == "conic"
    assert sol.value == pytest.approx(-1.0, abs=1e-8)
    program = ConeProgram(np.array([0.0, 1.0, 0.0]), -np.eye(3), 0, (3,))
    res = program.solve(None, np.zeros(3))
    assert res.status is SolveStatus.UNBOUNDED
    assert program.certifies_unbounded(res.x, res.s)
    # max c_0 with c_1 = 1 runs off along (t, 0, 0)
    with pytest.raises(ArithmeticError, match="unbounded"):
        solver.solve_min_linear(np.eye(3)[1:2], np.array([1.0]), SecondOrder(3),
                                np.array([-1.0, 0.0, 0.0]))


# -- degenerate inputs -----------------------------------------------------------------


def test_zero_target():
    # the slice of the summing map at 0 is {(p, -p) : p in SecondOrder(3)},
    # and the projection of (u, v) onto it is p = P((u - v) / 2).  Both cone
    # blocks then say p in SecondOrder(3), so the multipliers are not unique;
    # on such a degenerate program the points converge like the square root
    # of the gap, not like the gap
    cm = ice_cream(NormTag.L2)
    assert cm.preimage_gauge(np.zeros(3)) == 0.0
    zero = solver.project_onto_slice(cm.matrix, np.zeros(3), cm.cone, np.zeros(6))
    assert zero.status is SolveStatus.OPTIMAL and zero.value == 0.0
    for u in np.random.default_rng(5).standard_normal((10, 6)):
        p = oracles.soc_project((u[:3] - u[3:]) / 2.0)
        sol = solver.project_onto_slice(cm.matrix, np.zeros(3), cm.cone, u)
        assert sol.driver == "conic"
        np.testing.assert_allclose(sol.point, np.concatenate([p, -p]), atol=1e-6)


def test_points_in_the_slice_are_their_own_projection():
    cm = ice_cream(NormTag.L2)
    ri = gamma(cm)
    for x in TARGETS[:10]:
        c = ri(x)
        sol = ri.map._sweep.project(x, c)
        assert sol.driver == "trivial" and sol.value == 0.0
        np.testing.assert_array_equal(sol.point, c)
        moved = ri.map._sweep.project(x, c + 0.1)
        assert moved.driver == "conic" and moved.value > 0.0


def test_duplicate_and_rank_deficient_maps():
    cone = SecondOrder(3)
    T = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [2.0, 2.0, 0.0]])
    x = np.array([2.0, 1.0])
    xx = np.array([2.0, 1.0, 2.0, 6.0])  # consistent with the repeated rows
    base = solver.project_onto_slice(T[:2], x, cone, np.zeros(3))
    dup = solver.project_onto_slice(T, xx, cone, np.zeros(3))
    assert base.status is dup.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(dup.point, base.point, atol=1e-9)
    np.testing.assert_allclose(dup.point, [2.0, 1.0, 0.0], atol=1e-9)
    # inconsistent repeated rows: an empty slice with a certificate
    program = ConeProgram(np.zeros(3), -np.eye(3), 0, (3,), T)
    bad = np.array([2.0, 1.0, 2.5, 6.0])
    res = program.solve(bad, np.zeros(3))
    assert res.status is SolveStatus.INFEASIBLE
    hand_checked(program, bad, np.zeros(3), res.y, res.z)


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_scaled_data(scale):
    # scaling the target scales the answer; scaling map and target together
    # leaves it alone
    cm = ice_cream(NormTag.L1)
    ri = gamma(ice_cream(NormTag.L2))
    for x in TARGETS[:5]:
        p, m = spectral_parts(x)
        want = np.abs(p).sum() + np.abs(m).sum()
        assert rel(cm.preimage_gauge(scale * x) / scale, want) <= 1e-9
        np.testing.assert_allclose(ri(scale * x) / scale, np.concatenate([p, -m]), atol=1e-9)
        big = ConeMap(scale * cm.matrix, cm.cone, NormTag.L2, cm.domain_norm)
        assert rel(big.preimage_gauge(scale * x), want) <= 1e-9


# -- batches ------------------------------------------------------------------------
#
# solve_many runs each target's own iteration, so every target must come out
# exactly as solve gives it alone, in any batch.


def capped_cone_program():
    """min x0 over x in Q^3 with x1 = b1, x2 = b2, 2 x1 = b3 (a repeated row, so
    some targets are inconsistent) and x0 <= h0: |(b1, b2)| when that is at
    most h0, else empty."""
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 2.0, 0.0]])
    G = np.vstack([[1.0, 0.0, 0.0], -np.eye(3)])
    return ConeProgram(np.array([1.0, 0.0, 0.0]), G, 1, (3,), A)


def ray_cone_program():
    """min -x0 over x in Q^3 with x1 = b1, 2 x1 = b2 and x1 <= h0: unbounded
    along (1, 0, 0) when b1 <= h0, else empty."""
    A = np.array([[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]])
    G = np.vstack([[0.0, 1.0, 0.0], -np.eye(3)])
    return ConeProgram(np.array([-1.0, 0.0, 0.0]), G, 1, (3,), A)


def mixed_batch(program, rng):
    """Targets of every verdict, at scales from 1e-6 to 1e6, in random order."""
    B, H = [], []
    for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        for kind in ("inside", "outside", "inconsistent") * 3:
            u = rng.standard_normal(2)
            if program.A.shape[0] == 3:
                b, cap = np.array([u[0], u[1], 2.0 * u[0]]), np.linalg.norm(u)
            else:
                b, cap = np.array([u[0], 2.0 * u[0]]), u[0]
            cap += 0.5 if kind == "inside" else -0.5
            if kind == "inconsistent":
                b[-1] += 1.0
            B.append(scale * b)
            H.append(scale * np.array([cap, 0.0, 0.0, 0.0]))
    order = rng.permutation(len(B))
    return np.array(B)[order], np.array(H)[order]


def same_result(a, b):
    """Equal status and iteration count, and x, s, y, z to 1e-12 relative."""
    if a.status is not b.status or a.iterations != b.iterations:
        return False
    for f in "xsyz":
        u, v = getattr(a, f), getattr(b, f)
        if (u is None) != (v is None):
            return False
        if u is not None and np.abs(u - v).max(initial=0.0) > 1e-12 * max(1.0, np.abs(v).max()):
            return False
    return True


@pytest.mark.parametrize("build,verdicts", [
    (capped_cone_program, {SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE}),
    (ray_cone_program, {SolveStatus.UNBOUNDED, SolveStatus.INFEASIBLE})])
def test_solve_many_matches_solve_target_by_target(build, verdicts):
    program = build()
    B, H = mixed_batch(program, np.random.default_rng(21))
    alone = [program.solve(b, h) for b, h in zip(B, H)]
    assert {r.status for r in alone} == verdicts
    assert any(r.status is SolveStatus.INFEASIBLE and r.iterations == 0 for r in alone)
    batch = program.solve_many(B, H)
    for b, h, one, many in zip(B, H, alone, batch):
        assert same_result(many, one), (b, h, one.status, many.status)
        if build is ray_cone_program and b[0] > h[0]:
            # x1 = b1 > h0 leaves no feasible point, whatever ray the cost has
            assert many.status is SolveStatus.INFEASIBLE, (b, h, many.status)
        if many.status is SolveStatus.INFEASIBLE:
            assert program.certifies_infeasible(b, h, many.y, many.z)
        elif many.status is SolveStatus.UNBOUNDED:
            assert program.certifies_unbounded(many.x, many.s)
        else:
            assert many.status is SolveStatus.OPTIMAL
            assert abs(many.x[0] - np.linalg.norm(b[:2])) <= 1e-8 * max(1.0, abs(b).max())
    # shuffling or splitting the batch changes no target's result
    order = np.random.default_rng(5).permutation(len(B))
    for j, res in zip(order, program.solve_many(B[order], H[order])):
        assert same_result(res, batch[j])
    half = len(B) // 3
    split = program.solve_many(B[:half], H[:half]) + program.solve_many(B[half:], H[half:])
    assert all(same_result(a, b) for a, b in zip(split, batch))


def package_programs():
    """The sweep programs behind the ice-cream gauges and feasibility tests,
    the lattice maxima and a feasibility slice of Q^3, each with its targets."""
    ice = ice_cream(NormTag.L2)
    lattice = ConeMap(np.hstack([np.eye(3), np.eye(3)]),
                      DirectSumL1((Orthant(3), Negation(Orthant(3)))), NormTag.L2,
                      BlockNorm(((0, 3, NormTag.L2), (3, 6, NormTag.L2))))
    xs = np.vstack([TARGETS, 1e-5 * TARGETS[:5], 1e5 * TARGETS[:5]])
    for form in (ice._sweep._program(), ice._sweep._program(None), lattice._sweep._program("max"),
                 solver._Program(solver._canonicalize(MinNormProblem(
                     np.eye(3)[:2], np.zeros(2), SecondOrder(3),
                     BlockNorm.flat(3, NormTag.L2))), None)):
        yield form, xs[:, :form.canon.eq_A.shape[0]]


def test_solve_many_on_the_package_programs(conic_runs):
    # one batch against one solve per target
    for form, X in package_programs():
        batch = form.solve_many(X)
        for x, (st, z, _, its, y), res in zip(X, batch, conic_runs[-1]):
            one = form.solve(x)
            alone = conic_runs[-1][0]
            assert same_result(res, alone) and st is one[0] and its == one[3]
            assert (y is None) == (one[4] is None) and (y is None or np.array_equal(y, -res.y))
        if form.canon.eq_A.shape[0] == 2:
            assert {st for st, *_ in batch} == {SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE}


def identical(a, b):
    """Equal status and iteration count, and x, s, y, z equal bit for bit."""
    return (a.status is b.status and a.iterations == b.iterations
            and all(np.array_equal(getattr(a, f), getattr(b, f)) if getattr(b, f) is not None
                    else getattr(a, f) is None for f in "xsyz"))


def test_every_small_batch_gives_each_target_its_lone_result():
    # a look-ahead refinement sends runs of 2 to 8 steps' probes in one batch
    # and relies on each probe's answer being the one it gets alone
    cases = [(p.solve_many, B, H, p.solve) for p in (capped_cone_program(), ray_cone_program())
             for B, H in [mixed_batch(p, np.random.default_rng(21))]]
    for form, X in package_programs():
        program, h, target = form.program, form.h, form._target
        cases.append((lambda B, H, p=program, t=target: p.solve_many(B, H, t),
                      X, np.broadcast_to(h, (len(X), h.shape[0])),
                      lambda b, h, p=program, t=target: p.solve(b, h, t)))
    for many, B, H, one in cases:
        alone = [one(b, h) for b, h in zip(B, H)]
        for k in range(1, 9):
            got = [r for i in range(0, len(B), k) for r in many(B[i:i + k], H[i:i + k])]
            assert all(identical(a, b) for a, b in zip(got, alone)), k


# -- batching, counted --------------------------------------------------------------
#
# Counts, not times: the grid of a sphere search, each run of steps of its
# refinement and the signed axes of a surjectivity test each reach the
# conic core as one batched call.


@pytest.mark.parametrize("kind", [ConormalityKind.SUM, ConormalityKind.MAX])
def test_lattice_constant_batches_its_grid(kind, spy):
    sizes = []
    spy(conic.ConeProgram, "solve_many", sizes, pick=len)
    value = conormality_constant(OrderedSpace(Orthant(2), NormTag.L2), kind)
    assert value == pytest.approx(math.sqrt(2.0) if kind is ConormalityKind.SUM else 1.0,
                                  abs=1e-9)
    # the grid, then the two angle probes of each refine step; the grid
    # maximum is already within 1e-12 of the constant, so no step moves and
    # the 12 steps that shrink h from 0.05 pi to below sqrt(conic.TARGET) go
    # in runs of 1, 2, 4 and the 5 left
    assert sizes == [SamplerConfig().search_directions, 2, 4, 8, 10] == [192, 2, 4, 8, 10]


def test_ice_cream_openness_stops_refining_at_the_solver_resolution(spy):
    # the 6 coordinate probes of the 3-d sphere per step, and the step shrinks
    # from 0.5 to below sqrt(conic.TARGET) in 13 steps, in runs of 1, 2, 4
    # and the 6 left
    sizes = []
    spy(conic.ConeProgram, "solve_many", sizes, pick=len)
    assert ice_cream(NormTag.L2).openness_constant() == pytest.approx(math.sqrt(2.0), rel=1e-9)
    assert sizes == [198, 6, 12, 24, 36]


def test_sampled_surjectivity_probes_in_one_batch(spy):
    sizes = []
    spy(conic.ConeProgram, "solve_many", sizes, pick=len)
    config = SamplerConfig(directions=128)
    rep = ice_cream(NormTag.L2).is_surjective(method="sampled", config=config)
    assert rep.surjective
    # the 6 signed axes alone: neither keyword builds a grid of 128 directions
    assert sizes == [6]


def test_hemicontinuity_schedule_is_two_conic_calls(spy):
    # the base point alone, then all 8 probes in one stacked solve; each
    # ratio is the one a lone probe gives, bit for bit
    from conekit.selection import (CorrespondenceSpec, correspondence_value,
                                   hemicontinuity_probe, hemicontinuity_schedule)

    spec = CorrespondenceSpec(ice_cream(NormTag.L2), slack=1e-3)
    x = np.array([0.3, 0.5, -0.8])
    sizes = []
    spy(conic.ConeProgram, "solve_many", sizes, pick=len)
    rows = hemicontinuity_schedule(spec, x, steps=8, seed=4)
    assert sizes == [1, 8]
    y = correspondence_value(spec, x).point
    radius = np.linalg.norm(x)
    t = np.random.default_rng(4).standard_normal(3)
    t -= (t @ x) / (x @ x) * x
    t /= np.linalg.norm(t)
    for k, (gap, ratio) in enumerate(rows):
        xp = x + (0.1 * 2.0 ** (-k) * radius) * t
        xp = xp / (np.linalg.norm(xp) / radius)
        assert gap == float(np.linalg.norm(x - xp))
        assert ratio == hemicontinuity_probe(spec, x, xp, y) / gap


def test_hemicontinuity_schedule_marks_unprobed_steps_nan():
    # from k = 47 on, 0.1 * 2^-k < 1e-15: the probe is x to rounding and is
    # not solved, so its ratio is NaN, not a perfect 0.0; every earlier row
    # is the lone probe's, bit for bit, and both are NaN exactly where the
    # raw projection's distance is below the "center" program's resolution
    # sqrt(2 rho TARGET)
    from conekit.selection import (CorrespondenceSpec, correspondence_value,
                                   hemicontinuity_probe, hemicontinuity_schedule)

    spec = CorrespondenceSpec(ice_cream(NormTag.L2), slack=1e-3)
    x = np.array([0.3, 0.5, -0.8])
    rows = hemicontinuity_schedule(spec, x, steps=60, seed=4)
    radius = np.linalg.norm(x)
    assert np.isnan(rows[47:, 1]).all()
    assert rows[47:, 0].tolist() == [0.1 * 2.0 ** (-k) * radius for k in range(47, 60)]
    y = correspondence_value(spec, x).point
    t = np.random.default_rng(4).standard_normal(3)
    t -= (t @ x) / (x @ x) * x
    t /= np.linalg.norm(t)
    for k, (gap, ratio) in enumerate(rows[:47]):
        xp = x + (0.1 * 2.0 ** (-k) * radius) * t
        xp = xp / (np.linalg.norm(xp) / radius)
        assert gap == float(np.linalg.norm(x - xp)) > 0.0
        dist = hemicontinuity_probe(spec, x, xp, y)
        raw = spec.project(xp, y)
        resolution = math.sqrt(2.0 * max(np.linalg.norm(xp), np.linalg.norm(y)) * conic.TARGET)
        if math.isnan(dist):
            assert raw.driver in ("conic", "trivial") and raw.value < resolution
            assert math.isnan(ratio)
        else:
            assert ratio == dist / gap == raw.value / gap and dist >= resolution


# rows 0-13 of the schedule below, which the resolution rule leaves as they were
HEMI_ROWS = [0.7209565413725072, 0.7207368103885133, 0.7206170093758753, 0.7205547402793014,
             0.7205230526710379, 0.7205070361641017, 0.7204990088607264, 0.720494997024275,
             0.7204932909327096, 0.7204921428523205, 0.7204920855238969, 0.7205142979097025,
             0.7206310653625047, 0.7206314139787481]


def test_hemicontinuity_schedule_reads_no_blow_up_below_the_projection_resolution():
    # the ice-cream summing map: from k = 19 on, dist(y, F(x')) stalls at
    # 3.7e-7, the conic projection's resolution, so the raw ratio doubles
    # each step up to 2.6e5 at k = 36; then y is accepted as its own
    # projection ("trivial") and rows 37-46 would read 0.0.  All of them are
    # NaN; rows 0-13 keep their values, and no finite ratio exceeds 2
    from conekit.ordered import summing_map
    from conekit.selection import (CorrespondenceSpec, correspondence_value,
                                   hemicontinuity_probe, hemicontinuity_schedule)

    spec = CorrespondenceSpec(summing_map(OrderedSpace(SecondOrder(3), NormTag.L2)), slack=1e-3)
    x = np.array([0.3, 0.5, -0.8])
    rows = hemicontinuity_schedule(spec, x, steps=60, seed=4)
    ratios = rows[:, 1]
    assert np.isnan(ratios[37:47]).all()
    finite = ratios[np.isfinite(ratios)]
    assert finite.size >= 14 and finite.max() <= 2.0
    y = correspondence_value(spec, x).point
    radius = np.linalg.norm(x)
    t = np.random.default_rng(4).standard_normal(3)
    t -= (t @ x) / (x @ x) * x
    t /= np.linalg.norm(t)
    for k in range(14):  # each the lone probe's, bit for bit
        xp = x + (0.1 * 2.0 ** (-k) * radius) * t
        xp = xp / (np.linalg.norm(xp) / radius)
        assert ratios[k] == hemicontinuity_probe(spec, x, xp, y) / rows[k, 0]
    assert ratios[:14].tolist() == pytest.approx(HEMI_ROWS, rel=1e-12)


def test_hemicontinuity_probe_reads_nan_below_the_projection_resolution():
    # the schedule's row 36 above, probed alone: |x - x'| = 1.44e-12 and the
    # conic projection reports 3.69e-7, below sqrt(2 rho TARGET), so the
    # probe reads NaN as the schedule does, not a gap it cannot resolve;
    # row 13 is resolved and keeps its distance; x' = x keeps y ("trivial"),
    # which on this second-order spec reads NaN as well
    from conekit.ordered import summing_map
    from conekit.selection import (CorrespondenceSpec, correspondence_value,
                                   hemicontinuity_probe, hemicontinuity_schedule)

    spec = CorrespondenceSpec(summing_map(OrderedSpace(SecondOrder(3), NormTag.L2)), slack=1e-3)
    x = np.array([0.3, 0.5, -0.8])
    y = correspondence_value(spec, x).point
    radius = np.linalg.norm(x)
    t = np.random.default_rng(4).standard_normal(3)
    t -= (t @ x) / (x @ x) * x
    t /= np.linalg.norm(t)
    rows = hemicontinuity_schedule(spec, x, steps=37, seed=4)
    assert spec.project(x, y).driver == "trivial" and math.isnan(hemicontinuity_probe(spec, x, x, y))
    for k in (13, 36):
        xp = x + (0.1 * 2.0 ** (-k) * radius) * t
        xp = xp / (np.linalg.norm(xp) / radius)
        dist = hemicontinuity_probe(spec, x, xp, y)
        if k == 36:
            assert rows[k, 0] == pytest.approx(1.44e-12, rel=1e-2)
            assert math.isnan(dist) and math.isnan(rows[k, 1])
        else:
            assert rows[k, 1] == dist / rows[k, 0] == pytest.approx(HEMI_ROWS[k], rel=1e-12)


@pytest.mark.parametrize("certified", [False, True])
def test_hemicontinuity_schedule_tells_undecided_from_empty(certified, undecided_conic):
    # an undecided solve of y is ArithmeticError, as for gamma(x); only a
    # certified empty F(x) is an EmptyCorrespondence
    from conekit.selection import (CorrespondenceSpec, EmptyCorrespondence,
                                   hemicontinuity_schedule)

    spec = CorrespondenceSpec(ice_cream(NormTag.L2), slack=1e-3)
    undecided_conic(certified)
    with pytest.raises(ArithmeticError) as exc:
        hemicontinuity_schedule(spec, np.array([0.3, 0.5, -0.8]))
    assert isinstance(exc.value, EmptyCorrespondence) == certified


def test_hemicontinuity_schedule_walks_an_axis_when_its_draw_is_along_x(spy):
    # seed 0 draws t = x itself, which leaves no tangent once x is projected
    # out; the schedule walks the axis x leans on least instead, and every
    # probe is solved: 8 nonzero gaps, 2 conic calls of 1 and 8 rows
    from conekit.selection import CorrespondenceSpec, hemicontinuity_schedule

    spec = CorrespondenceSpec(ice_cream(NormTag.L2), slack=1e-3)
    x = np.random.default_rng(0).standard_normal(3)
    x /= np.linalg.norm(x)
    sizes = []
    spy(conic.ConeProgram, "solve_many", sizes, pick=len)
    rows = hemicontinuity_schedule(spec, x, steps=8, seed=0)
    assert sizes == [1, 8]
    radius = np.linalg.norm(x)
    t = np.eye(3)[np.argmin(np.abs(x))]
    t -= (t @ x) / (x @ x) * x
    t /= np.linalg.norm(t)
    for k, (gap, ratio) in enumerate(rows):
        xp = x + (0.1 * 2.0 ** (-k) * radius) * t
        xp = xp / (np.linalg.norm(xp) / radius)
        assert gap == float(np.linalg.norm(x - xp)) > 0.0
        assert ratio > 0.0
