"""Differential tests for the conic interior-point driver.

Closed forms (the spectral split of the ice-cream order, the lattice parts),
an independent solver (SLSQP, where scipy is installed), certificates checked
by hand on the original data, and degenerate inputs.
"""
import math

import numpy as np
import pytest

from conekit import conic, projops, sampling, solver
from conekit.conemap import ConeMap
from conekit.conic import TOL, ConeProgram
from conekit.cones import DirectSumL1, Negation, Orthant, Product, SecondOrder
from conekit.norms import BlockNorm, NormTag
from conekit.ordered import ConormalityKind, OrderedSpace, conormality_constant
from conekit.sampling import SamplerConfig, sphere_directions
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
def test_lattice_parts_through_the_conic_driver(objective):
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
        center = np.zeros(6) if objective == "center" else None
        st, z, _, its, res = form.solve(x, center=center)
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


def test_infeasible_slices_carry_checked_certificates():
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
            st, _, _, _, res = form.solve(x)
            assert st is (SolveStatus.INFEASIBLE if empty else SolveStatus.OPTIMAL), (x, r)
            if empty:
                assert form.program.certifies_infeasible(x, form.h, res.y, res.z)
                hand_checked(form.program, x, form.h, res.y, res.z)
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


def test_solve_many_on_the_package_programs():
    # the sweep programs behind the ice-cream gauges and feasibility tests
    # and the lattice maxima: one batch against one solve per target
    ice = ice_cream(NormTag.L2)
    lattice = ConeMap(np.hstack([np.eye(3), np.eye(3)]),
                      DirectSumL1((Orthant(3), Negation(Orthant(3)))), NormTag.L2,
                      BlockNorm(((0, 3, NormTag.L2), (3, 6, NormTag.L2))))
    xs = np.vstack([TARGETS, 1e-5 * TARGETS[:5], 1e5 * TARGETS[:5]])
    for form in (ice._sweep._program(), ice._sweep._program(None), lattice._sweep._program("max"),
                 solver._Program(solver._canonicalize(MinNormProblem(
                     np.eye(3)[:2], np.zeros(2), SecondOrder(3),
                     BlockNorm.flat(3, NormTag.L2))), None)):
        X = xs[:, :form.canon.eq_A.shape[0]]
        batch = form.solve_many(X)
        for x, (st, z, _, its, res) in zip(X, batch):
            one = form.solve(x)
            assert same_result(res, one[4]) and st is one[0] and its == one[3]
        if form.canon.eq_A.shape[0] == 2:
            assert {st for st, *_ in batch} == {SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE}


# -- batching, counted --------------------------------------------------------------
#
# Counts, not times: the grid of a sphere search and the probes of a sampled
# surjectivity test each reach the conic driver as one batched call.


@pytest.mark.parametrize("kind", [ConormalityKind.SUM, ConormalityKind.MAX])
def test_lattice_constant_batches_its_grid(kind, spy, monkeypatch):
    sizes, dykstra, evaluations = [], [], []
    spy(conic.ConeProgram, "solve_many", sizes, pick=len)
    spy(projops, "dykstra", dykstra)
    refine = sampling.refine_on_sphere

    def counted(f, *args, **kw):
        def g(x):
            evaluations.append(x)
            return f(x)
        return refine(g, *args, **kw)

    monkeypatch.setattr(sampling, "refine_on_sphere", counted)
    value = conormality_constant(OrderedSpace(Orthant(2), NormTag.L2), kind)
    assert value == pytest.approx(math.sqrt(2.0) if kind is ConormalityKind.SUM else 1.0,
                                  abs=1e-9)
    assert sizes[0] == SamplerConfig().search_directions == 192
    assert len(evaluations) > 0 and sizes[1:] == [1] * len(evaluations)
    assert dykstra == []


def test_sampled_surjectivity_probes_in_one_batch(spy):
    sizes, dykstra = [], []
    spy(conic.ConeProgram, "solve_many", sizes, pick=len)
    spy(projops, "dykstra", dykstra)
    config = SamplerConfig(directions=128)
    rep = ice_cream(NormTag.L2).is_surjective(method="sampled", config=config)
    assert rep.surjective
    # 128 sampled directions and the 6 signed axes
    assert sizes == [len(sphere_directions(3, NormTag.L2, config))] == [134]
    assert dykstra == []
