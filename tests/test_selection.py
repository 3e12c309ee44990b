import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conekit import conic, parse_instance, random_polyhedral_instance, solver
from conekit.conemap import ConeMap
from conekit.cones import DirectSumL1, Generators, Negation, Orthant, SecondOrder
from conekit.norms import BlockNorm, NormTag
from conekit.sampling import SamplerConfig
from conekit.selection import (ConstraintFunctional, CorrespondenceSpec,
                               EmptyCorrespondence, RightInverse, achievable_alpha,
                               correspondence_value, extend_from_sphere, gamma,
                               gamma_constrained, hemicontinuity_schedule,
                               lipschitz_estimate, selection_bound, tabulate_sphere)
from conekit.solver import LinearProgram, SolveStatus

import oracles

CFG = SamplerConfig(directions=256, search_directions=96, seed=0)


@functools.cache
def lattice_map(tag=NormTag.L2):
    cone = DirectSumL1((Orthant(2), Negation(Orthant(2))))
    return ConeMap(np.hstack([np.eye(2), np.eye(2)]), cone, codomain_norm=tag,
                   domain_norm=tag)


@functools.cache
def pos_part():
    return ConstraintFunctional.seminorm(np.hstack([np.eye(2), np.zeros((2, 2))]),
                                         NormTag.L2)


def xs(lo=-10, hi=10):
    return arrays(np.float64, (2,), elements=st.floats(lo, hi))


# -- plain selection ----------------------------------------------------------


@given(xs())
def test_gamma_is_the_componentwise_parts(x):
    c = gamma(lattice_map())(x)
    plus, minus = oracles.lattice_parts(x)
    np.testing.assert_allclose(c[:2], plus, atol=1e-7)
    np.testing.assert_allclose(c[2:], minus, atol=1e-7)


@given(xs())
def test_gamma_is_a_right_inverse(x):
    cm = lattice_map()
    c = gamma(cm)(x)
    np.testing.assert_allclose(cm.matrix @ c, x, atol=1e-8)


@given(xs(-5, 5), st.sampled_from([0.0, 0.5, 2.0, 10.0]))
def test_gamma_positive_homogeneity(x, lam):
    ri = gamma(lattice_map())
    np.testing.assert_allclose(ri(lam * x), lam * ri(x), atol=1e-7)


def test_gamma_at_zero():
    np.testing.assert_allclose(gamma(lattice_map())(np.zeros(2)), np.zeros(4))


def test_empty_correspondence_carries_target():
    ray = ConeMap(np.eye(2), Generators(np.array([[1.0], [0.0]])),
                  codomain_norm=NormTag.L2)
    with pytest.raises(EmptyCorrespondence) as exc:
        gamma(ray)(np.array([0.0, 1.0]))
    np.testing.assert_allclose(exc.value.target, [0.0, 1.0])


def test_selection_bound_lattice():
    # worst direction (1, -1)/sqrt(2): both parts contribute
    assert selection_bound(gamma(lattice_map()), CFG) == pytest.approx(math.sqrt(2.0),
                                                                       abs=1e-6)


# -- constrained correspondences ---------------------------------------------


def test_constraint_functional_shapes():
    lin = ConstraintFunctional.linear(np.array([1.0, 0.0, 0.0, 0.0]))
    assert lin.is_linear
    assert lin.value(np.array([3.0, 1.0, 1.0, 1.0])) == pytest.approx(3.0)
    semi = pos_part()
    assert not semi.is_linear
    assert semi.value(np.array([3.0, 4.0, -1.0, 0.0])) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        ConstraintFunctional(np.eye(2), None)  # linear rows must be single


@given(xs(-6, 6))
def test_constrained_members_respect_caps(x):
    slack = 0.05
    ri = gamma_constrained(lattice_map(), ((pos_part(), 1.0),), slack=slack)
    c = ri(x)
    cap = (1.0 + slack) * float(np.linalg.norm(x))
    assert pos_part().value(c) <= cap + 1e-7
    np.testing.assert_allclose(lattice_map().matrix @ c, x, atol=1e-7)


def test_correspondence_value_is_a_member():
    spec = CorrespondenceSpec(lattice_map(), ((pos_part(), 1.0),), slack=0.05)
    x = np.array([2.0, -3.0])
    sol = correspondence_value(spec, x)
    assert spec.member(x, sol.point)


def test_achievable_alpha_frozen_values():
    cm = lattice_map()
    # without a cap this is the openness constant
    assert achievable_alpha(cm, config=CFG) == pytest.approx(math.sqrt(2.0), abs=1e-6)
    # positive-part cost under the norm cap sqrt(2): worst direction is a
    # positive axis where the plus part carries everything
    a = achievable_alpha(cm, rho=pos_part(), cap=math.sqrt(2.0), config=CFG)
    assert a == pytest.approx(1.0, abs=1e-6)


def test_achievable_alpha_compiles_the_slice_once(spy):
    # one compiled slice serves the whole grid and every refine step
    canons = []
    spy(solver, "_canonicalize", canons)
    a = achievable_alpha(lattice_map(), rho=pos_part(), cap=math.sqrt(2.0),
                         config=SamplerConfig(search_directions=16, refine_steps=4))
    assert len(canons) == 1
    assert a == pytest.approx(1.0, abs=1e-6)


def test_achievable_alpha_names_an_unbounded_program():
    with pytest.raises(ArithmeticError, match="unbounded"):
        achievable_alpha(lattice_map(), rho=ConstraintFunctional.linear([-1.0, 0.0, 0.0, 0.0]))


def test_achievable_alpha_impossible_cap():
    with pytest.raises(EmptyCorrespondence):
        achievable_alpha(lattice_map(), rho=pos_part(), cap=0.5, config=CFG)


# -- sphere tables and the global extension ----------------------------------


def _spec(eps):
    K = math.sqrt(2.0)
    norm_cap = ConstraintFunctional.seminorm(np.eye(4), lattice_map().domain_norm)
    return CorrespondenceSpec(lattice_map(), ((norm_cap, K), (pos_part(), 1.0)),
                              slack=eps)


def test_tabulate_and_verify():
    table = tabulate_sphere(_spec(0.05), CFG)
    assert len(table) > 0
    assert table.verify(tol=1e-7)


def test_tabulate_undersized_alpha_raises_with_witness():
    norm_cap = ConstraintFunctional.seminorm(np.eye(4), lattice_map().domain_norm)
    bad = CorrespondenceSpec(lattice_map(), ((norm_cap, math.sqrt(2.0)), (pos_part(), 0.5)),
                             slack=0.01)
    with pytest.raises(EmptyCorrespondence) as exc:
        tabulate_sphere(bad, CFG)
    w = exc.value.target
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-9)
    # the witness direction really is out of reach for the tightened budget
    assert oracles.norm(np.maximum(w, 0.0), "l2") > 0.5 + 0.01


def test_extension_is_homogeneous_and_exact_on_rays():
    eps = 0.05
    table = tabulate_sphere(_spec(eps), CFG)
    sigma = extend_from_sphere(table)
    np.testing.assert_allclose(sigma(np.zeros(2)), np.zeros(4))
    cm = lattice_map()
    for u, c in zip(table.directions, table.points):
        for t in (0.5, 1.0, 3.0):
            s = sigma(t * u)
            np.testing.assert_allclose(s, t * c, atol=1e-9)
            np.testing.assert_allclose(cm.matrix @ s, t * u, atol=1e-7)
            assert cm.domain_norm.of(s) <= (math.sqrt(2.0) + eps) * t + 1e-7
            assert pos_part().value(s) <= (1.0 + eps) * t + 1e-7


# -- continuity probes ---------------------------------------------------------


def test_hemicontinuity_schedule_lattice():
    rows = hemicontinuity_schedule(_spec(0.1), np.array([1.0, 0.0]), steps=9)
    assert rows.shape == (9, 2)
    assert np.all(np.isfinite(rows))
    assert np.all(rows[:, 1] >= -1e-12)


@pytest.mark.parametrize("x", [(1.0, 0.0), (0.6, -0.8), (-0.3, 0.2)])
def test_hemicontinuity_schedule_walks_on_the_sphere_of_its_target(x):
    # x' stays on the sphere of radius |x|, so the schedule is homogeneous:
    # doubling x doubles every step and keeps every ratio
    x = np.array(x)
    rows, doubled = (hemicontinuity_schedule(_spec(0.1), s * x, steps=9) for s in (1.0, 2.0))
    np.testing.assert_allclose(doubled[:, 0], 2.0 * rows[:, 0], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(doubled[:, 1], rows[:, 1], rtol=1e-12, atol=1e-12)
    assert rows[0, 0] == pytest.approx(0.1 * np.linalg.norm(x), rel=0.01)


def test_hemicontinuity_schedule_refuses_the_zero_target():
    with pytest.raises(ValueError, match="zero target"):
        hemicontinuity_schedule(_spec(0.1), np.zeros(2))


def test_hemicontinuity_schedule_refuses_a_line():
    # a codomain of dimension 1 has no tangent to walk along
    cm = ConeMap(np.array([[1.0, -1.0]]), Orthant(2), codomain_norm=NormTag.L2)
    with pytest.raises(ValueError, match="no tangent"):
        hemicontinuity_schedule(CorrespondenceSpec(cm, (), slack=0.1), np.array([1.0]))


def test_hemicontinuity_schedule_ice_cream():
    cone = DirectSumL1((SecondOrder(2), Negation(SecondOrder(2))))
    cm = ConeMap(np.hstack([np.eye(2), np.eye(2)]), cone, codomain_norm=NormTag.L2)
    spec = CorrespondenceSpec(cm, (), slack=0.1)
    rows = hemicontinuity_schedule(spec, np.array([0.0, 1.0]), steps=8)
    assert rows.shape == (8, 2)
    assert np.all(np.isfinite(rows))


def test_lipschitz_estimate_reports_a_pair():
    rep = lipschitz_estimate(gamma(lattice_map()), pairs=60, gap=0.1, seed=1)
    assert math.isfinite(rep.value) and rep.value > 0
    a, b = rep.pair
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-9)


# -- compiled selections -------------------------------------------------------
#
# A RightInverse projects through a slice template compiled once per map or
# spec; later targets start phase 1 from the optimal bases of earlier ones.
# A fresh map per target takes the one-shot cold path, the reference here.


def lattice(d):
    cone = DirectSumL1((Orthant(d), Negation(Orthant(d))))
    return ConeMap(np.hstack([np.eye(d), np.eye(d)]), cone, codomain_norm=NormTag.L2,
                   domain_norm=NormTag.L2)


def compiled_cases():
    for seed in (0, 2, 4, 6):  # even seeds are onto
        m = parse_instance(random_polyhedral_instance(seed)).map
        yield f"seed{seed}", lambda m=m: ConeMap(m.matrix, m.cone, m.codomain_norm, m.domain_norm)
    for d in (2, 3, 5):
        yield f"lattice{d}", functools.partial(lattice, d)


COMPILED = list(compiled_cases())


def close(a, b, rel=1e-10):
    return float(np.max(np.abs(a - b), initial=0.0)) <= rel * max(1.0, float(np.max(np.abs(b))))


@pytest.mark.parametrize("name,make", COMPILED, ids=[c[0] for c in COMPILED])
def test_reused_selection_matches_fresh_objects(name, make):
    cm = make()
    ri = gamma(cm)
    for x in np.random.default_rng(7).standard_normal((100, cm.codomain_dim)):
        c = ri(x)
        assert close(c, gamma(make())(x)), (x, c)
        assert close(cm.matrix @ c, x)
        assert close(ri(2.5 * x), 2.5 * c)


def polyhedral_spec(cm, alpha):
    """An l1 cap on the positive part and a linear functional on the negative part."""
    d = cm.codomain_dim
    cap = ConstraintFunctional.seminorm(np.hstack([np.eye(d), np.zeros((d, d))]), NormTag.L1)
    neg = ConstraintFunctional.linear(np.concatenate([np.zeros(d), -np.ones(d)]))
    return CorrespondenceSpec(cm, ((cap, alpha), (neg, 2.5)), slack=0.01)


@pytest.mark.parametrize("d", (2, 3, 5))
@pytest.mark.parametrize("alpha", (2.5, 0.6))
def test_reused_spec_matches_fresh_objects(d, alpha):
    # alpha = 0.6 is too tight: |x+|_1 > 0.61 |x|_2 leaves F(x) empty
    spec = polyhedral_spec(lattice(d), alpha)
    ri = RightInverse(spec.map, spec)
    empty = 0
    for x in np.random.default_rng(d).standard_normal((100, d)):
        fresh = polyhedral_spec(lattice(d), alpha)
        want = correspondence_value(fresh, x)
        if want.status is SolveStatus.INFEASIBLE:
            empty += 1
            with pytest.raises(EmptyCorrespondence):
                ri(x)
            continue
        c = ri(x)
        assert close(c, want.point), (x, c, want.point)
        assert spec.member(x, c)
        assert close(ri(3.0 * x), 3.0 * c)
    assert (empty > 0) == (alpha < 1.0)


def test_canonicalization_runs_once_per_map_and_spec(spy):
    calls = []
    spy(solver, "_canonicalize", calls)
    xs = np.random.default_rng(3).standard_normal((100, 3))
    ri = gamma(lattice(3))
    for x in xs:
        ri(x)
    assert len(calls) == 1
    # every gauge, kind and constant of the map is a program of the same slice
    cm, cfg = ri.map, SamplerConfig(directions=16, search_directions=8, refine_steps=2)
    assert cm.openness_constant(cfg) > 0
    for kind in ("openness", "sum", "plain", "max"):
        assert np.all(np.isfinite(cm._kind_objective(kind)(xs[:5])))
    assert cm.gauge_norm(xs[0]) > 0
    assert len(calls) == 1
    spec = polyhedral_spec(lattice(3), 2.5)
    for x in xs:
        RightInverse(spec.map, spec)(x)
    assert len(calls) == 2


@pytest.mark.parametrize("d", (2, 3))
def test_phase_one_starts_warm_on_the_lattice(d, spy):
    pivots = []
    spy(LinearProgram, "solve", pivots, lambda out: out[3])
    ri = gamma(lattice(d))
    for x in np.random.default_rng(d).standard_normal((100, d)):
        ri(x)
    assert len(pivots) == 100
    assert np.mean(pivots[10:]) < 1.0


# -- the polyhedral screen -------------------------------------------------------
#
# A template on a polyhedral cone first projects onto the polyhedral
# relaxation (the curved caps dropped).  A point inside every cap is then the
# projection onto F(x); Dykstra, which the template ran on every target
# before, is the reference here, run on the canon retargeted to x.


def norm_cap(cm, alpha):
    return ConstraintFunctional.seminorm(np.eye(cm.domain_dim), cm.domain_norm), alpha


@pytest.mark.parametrize("d", (2, 3, 5))
def test_loose_caps_return_the_relaxed_projection(d, spy):
    # (x+, x-) meets |p| <= |x| and |p| + |q| <= sqrt(2) |x|; the slack
    # leaves both caps loose, so no target needs the conic driver
    cm = lattice(d)
    pos = ConstraintFunctional.seminorm(np.hstack([np.eye(d), np.zeros((d, d))]), NormTag.L2)
    spec = CorrespondenceSpec(cm, (norm_cap(cm, math.sqrt(2.0)), (pos, 1.0)), slack=0.01)
    canon = spec._sweep.canon
    assert len(canon.caps) == 2
    assert [len(caps) for caps in oracles.projectable_caps(canon.caps)] == [1, 1]
    ri = RightInverse(cm, spec)
    xs = np.random.default_rng(10 + d).standard_normal((100, d))
    runs = []
    spy(conic.ConeProgram, "solve_many", runs)
    got = [ri(x) for x in xs]
    assert runs == []
    for x, c in zip(xs, got):
        _, point, converged = oracles.dykstra_reference(spec, x)
        assert converged
        assert close(c, canon.S @ point, 1e-9), (x, c)
        assert close(c, np.concatenate(oracles.lattice_parts(x)), 1e-13)


def binding_cap(cm):
    """rho(c) = |p1 - p2| / sqrt(2), with alpha = 0.05.

    rho reaches 0 on every target (raise the smaller of p1, p2), so F(x) is
    never empty; alpha = 0.05 is just above the achievable constant, and
    the cap binds wherever (x+, x-) exceeds it.
    """
    row = np.zeros((1, cm.domain_dim))
    row[0, :2] = (1.0, -1.0)
    return ConstraintFunctional.seminorm(row / math.sqrt(2.0), NormTag.L2), 0.05


@pytest.mark.parametrize("d", (2, 3, 5))
def test_binding_caps_run_conic_solves_on_exactly_those_targets(d, spy):
    # exactly the targets where the cap binds leave the screen for the conic
    # driver; the norm cap stays loose because raising p costs at most |x+|
    # on each side.  Dykstra, where it converges, is the reference
    cm = lattice(d)
    rho, alpha = binding_cap(cm)
    spec = CorrespondenceSpec(cm, ((rho, alpha), norm_cap(cm, 3.5)), slack=0.01)
    ri = RightInverse(cm, spec)
    runs = []
    spy(conic.ConeProgram, "solve_many", runs)
    binding = 0
    for x in np.random.default_rng(20 + d).standard_normal((100, d)):
        binds = rho.value(np.concatenate(oracles.lattice_parts(x))) > 0.06 * np.linalg.norm(x)
        binding += binds
        before = len(runs)
        c = ri(x)
        assert len(runs) - before == binds, x
        if not binds:
            assert close(c, np.concatenate(oracles.lattice_parts(x)), 1e-13)
            continue
        assert spec.member(x, c)
        canon, point, converged = oracles.dykstra_reference(spec, x)
        if converged:
            assert close(c, canon.S @ point, 1e-9), (x, c)
    assert 0 < binding < 100


@pytest.mark.parametrize("d", (2, 3, 5))
def test_binding_caps_get_the_right_verdict(d):
    # F(x) is nonempty at every target; Dykstra's stall test once read slow
    # plateaus here as empty (3, 1 and 5 targets at d = 2, 3, 5), and the
    # conic driver returns a member of F(x) on each
    cm = lattice(d)
    spec = CorrespondenceSpec(cm, (binding_cap(cm),), slack=0.01)
    ri = RightInverse(cm, spec)
    for x in np.random.default_rng(d).standard_normal((100, d)):
        c = ri(x)
        assert close(cm.matrix @ c, x), (x, c)
        assert spec.member(x, c), (x, c)


@pytest.mark.parametrize("d", (2, 3, 5))
def test_empty_relaxation_raises_without_a_conic_solve(d, spy):
    # sum(p) <= (-1 + slack) |x| leaves no p >= 0 for any target: the
    # empty relaxation is the verdict, and the conic driver never runs
    cm = lattice(d)
    lin = ConstraintFunctional.linear(np.concatenate([np.ones(d), np.zeros(d)]))
    spec = CorrespondenceSpec(cm, (norm_cap(cm, math.sqrt(2.0)), (lin, -1.0)), slack=0.01)
    ri = RightInverse(cm, spec)
    runs = []
    spy(conic.ConeProgram, "solve_many", runs)
    for x in np.random.default_rng(30 + d).standard_normal((10, d)):
        with pytest.raises(EmptyCorrespondence) as exc:
            ri(x)
        assert exc.value.solution.status is SolveStatus.INFEASIBLE
    assert runs == []


@pytest.mark.parametrize("polyhedral", [
    ConstraintFunctional.seminorm(np.eye(4), NormTag.L1),
    ConstraintFunctional.seminorm(np.eye(4), BlockNorm(((0, 2, NormTag.LINF),
                                                        (2, 4, NormTag.LINF))))],
    ids=["l1", "linf-blocks"])
def test_euclidean_cap_beside_an_expanded_polyhedral_cap(polyhedral):
    # the l1 cap (and the linf cap with blocks) brings auxiliary variables
    # to every program of the slice; a Euclidean cap beside it must act on
    # z alone.  Both caps are loose at (x+, x-), which is then the selection
    cm = lattice(2)
    ri = gamma_constrained(cm, ((polyhedral, 3.0), (pos_part(), 1.0)), slack=0.01)
    x = np.array([3.0, -4.0])
    np.testing.assert_array_equal(ri(x), [3.0, 0.0, 0.0, -4.0])
    for y in np.random.default_rng(50).standard_normal((20, 2)):
        assert close(ri(y), np.concatenate(oracles.lattice_parts(y)), 1e-13), y


def l1_lattice(d):
    cone = DirectSumL1((Orthant(d), Negation(Orthant(d))))
    return ConeMap(np.hstack([np.eye(d), np.eye(d)]), cone, codomain_norm=NormTag.L1,
                   domain_norm=NormTag.L1)


@pytest.mark.parametrize("d", (2, 3))
def test_polyhedral_norm_cap_beside_a_binding_curved_cap(d):
    # the norm cap |c|_1 <= 2.01 |x|_1 of an l1 lattice, an l1-sum of l1
    # blocks, is a row cap of the QP and a cap of Dykstra's reference, which
    # projects onto its l1 ball.  Meeting the curved cap raises p, which
    # costs l1 norm, so some targets have no member: Dykstra must not
    # converge there either
    cm = l1_lattice(d)
    rho, alpha = binding_cap(cm)
    spec = CorrespondenceSpec(cm, ((rho, alpha), norm_cap(cm, 2.0)), slack=0.01)
    assert len(oracles.polyhedral_caps(spec._sweep.canon.caps)) == 1
    ri = RightInverse(cm, spec)
    binding = empty = 0
    for x in np.random.default_rng(60 + d).standard_normal((100, d)):
        canon, point, converged = oracles.dykstra_reference(spec, x)
        try:
            c = ri(x)
        except EmptyCorrespondence as exc:
            assert exc.solution.status is SolveStatus.INFEASIBLE and not converged, x
            empty += 1
            continue
        assert spec.member(x, c)
        binding += rho.value(c) > (alpha + 0.01) * np.abs(x).sum() - 1e-9
        if converged:
            assert close(c, canon.S @ point, 1e-9), (x, c)
    assert binding > 0 and 0 < empty < 50


def test_dykstra_reference_refuses_polyhedral_caps_it_cannot_project():
    # leaving such a cap out would project onto a larger set
    l1 = oracles.project_l1_ball(np.arange(2), 2.0)
    assert l1(np.array([3.0, 1.0])).tolist() == [2.0, 0.0]
    assert l1(np.array([1.5, -1.0])).tolist() == [1.25, -0.75]
    assert oracles.project_linf_ball([1], 1.0)(np.array([3.0, -2.0])).tolist() == [3.0, -1.0]
    linf_blocks = BlockNorm(((0, 1, NormTag.LINF), (1, 2, NormTag.LINF)))
    for E, norm in ((2.0 * np.eye(2), BlockNorm.flat(2, NormTag.L1)), (np.eye(2), linf_blocks),
                    (np.ones((1, 2)), BlockNorm.flat(1, NormTag.LINF))):
        with pytest.raises(ValueError, match="no projector"):
            oracles.polyhedral_caps([(E, norm, 1.0)])


def test_qp_rows_are_built_once(spy):
    # the active-set QP reads its rows and Hessian from programs compiled
    # for the first target: no later target builds a program, stacks rows
    # or forms a Hessian
    cm = l1_lattice(3)
    ri = gamma_constrained(cm, (norm_cap(cm, 1.5),), slack=0.01)
    xs = np.random.default_rng(70).standard_normal((100, 3))
    assert ri.solve(xs[0]).driver == "active-set"
    built, stacked, hessians = [], [], []
    spy(solver._Program, "__init__", built)
    spy(solver._Program, "_matrix", stacked)
    spy(solver, "_euclidean_hessian", hessians)
    for x in xs[1:]:
        sol = ri.solve(x)
        assert sol.driver == "active-set"
        assert close(sol.point, np.concatenate(oracles.lattice_parts(x)))
    assert built == stacked == hessians == []


def test_loose_exotic_cap_skips_projected_gradient(spy):
    # |2 p|_2 has no orthonormal rows, so Dykstra on the canon has no
    # projector for it and leaves it out: it solves the relaxation.
    # The cap never binds, so the conic driver never runs
    cm = lattice(3)
    rho = ConstraintFunctional.seminorm(2.0 * np.hstack([np.eye(3), np.zeros((3, 3))]),
                                        NormTag.L2)
    spec = CorrespondenceSpec(cm, ((rho, 2.0),), slack=0.01)
    caps = spec._sweep.canon.caps
    assert len(caps) == 1 and oracles.projectable_caps(caps) == ([], [])
    ri = RightInverse(cm, spec)
    runs = []
    spy(conic.ConeProgram, "solve_many", runs)
    for x in np.random.default_rng(40).standard_normal((100, 3)):
        c = ri(x)
        canon, point, converged = oracles.dykstra_reference(spec, x)
        assert converged
        assert close(c, canon.S @ point, 1e-9), (x, c)
        assert spec.member(x, c)
    assert runs == []


def test_second_order_templates_skip_the_screen(spy):
    built = []
    spy(solver, "LinearProgram", built)
    ri = gamma(ConeMap(np.eye(3), SecondOrder(3), codomain_norm=NormTag.L2))
    x = np.array([2.0, 1.0, -0.5])
    np.testing.assert_allclose(ri(x), x, atol=1e-9)
    assert built == []
    assert "_start" not in vars(ri.map._sweep)


def test_undecided_conic_selection_is_not_an_empty_correspondence(undecided_conic):
    # a second-order template and a binding cap both end in the conic
    # driver; an undecided solve raises ArithmeticError, and only a
    # certified empty program raises EmptyCorrespondence
    ice = ConeMap(np.hstack([np.eye(2), np.eye(2)]),
                  DirectSumL1((SecondOrder(2), Negation(SecondOrder(2)))), codomain_norm=NormTag.L2)
    cm = lattice(2)
    spec = CorrespondenceSpec(cm, (binding_cap(cm),), slack=0.01)
    x = np.array([1.0, 0.2])  # the cap binds at (x+, x-)
    for certified, verdict in ((False, SolveStatus.ITERATION_LIMIT),
                               (True, SolveStatus.INFEASIBLE)):
        undecided_conic(certified)
        for ri in (gamma(ice), RightInverse(cm, spec)):
            sol = ri.solve(x)
            assert sol.status is verdict
            assert sol.driver == "conic"
            with pytest.raises(ArithmeticError) as exc:
                ri(x)
            assert isinstance(exc.value, EmptyCorrespondence) == certified


# -- batched projections -------------------------------------------------------
#
# ``project_many`` runs each polyhedral row's QP in turn and every row left
# for the conic driver in one stacked solve; each row must be the Solution
# of its lone ``project``.  The lone and the batched calls run on separate
# fresh objects, so the warm LP bases see the same sequence of targets.


def same_solution(a, b):
    return (a.status is b.status and a.iterations == b.iterations and a.driver == b.driver
            and a.value == b.value and (np.array_equal(a.point, b.point)
                                        if b.point is not None else a.point is None))


def ice_cream_map():
    cone = DirectSumL1((SecondOrder(3), Negation(SecondOrder(3))))
    return ConeMap(np.hstack([np.eye(3), np.eye(3)]), cone, codomain_norm=NormTag.L2)


def projection_cases():
    """(name, spec factory, targets, points): the ice-cream slice, the l2
    lattice QP and an l1 lattice whose curved cap binds on some targets and
    leaves others empty, each with zero targets and points that are their
    own projections among random ones."""
    rng = np.random.default_rng(70)
    X, P = rng.standard_normal((12, 3)), rng.standard_normal((12, 6))
    X[3] = 0.0
    P[5] = correspondence_value(CorrespondenceSpec(ice_cream_map(), slack=0.1), X[5]).point
    P[7] = 0.0
    yield "ice-cream", lambda: CorrespondenceSpec(ice_cream_map(), slack=0.1), X, P
    X, P = rng.standard_normal((12, 3)), rng.standard_normal((12, 6))
    X[2], P[2] = 0.0, 0.0
    P[4] = np.concatenate(oracles.lattice_parts(X[4]))
    yield "l2-lattice", lambda: CorrespondenceSpec(lattice(3)), X, P
    # the targets of test_polyhedral_norm_cap_beside_a_binding_curved_cap[2]
    X, P = np.random.default_rng(62).standard_normal((40, 2)), np.zeros((40, 4))
    X[6] = 0.0

    def l1_spec():
        cm = l1_lattice(2)
        return CorrespondenceSpec(cm, (binding_cap(cm), norm_cap(cm, 2.0)), slack=0.01)

    yield "l1-binding-cap", l1_spec, X, P


@pytest.mark.parametrize("name,make,X,P", list(projection_cases()),
                         ids=[c[0] for c in projection_cases()])
def test_project_many_rows_equal_their_lone_projections(name, make, X, P, spy):
    alone = [spec.project(x, p) for spec in [make()] for x, p in zip(X, P)]
    runs = []
    spy(conic.ConeProgram, "solve_many", runs, pick=len)
    batch = make().project_many(X, P)
    assert all(same_solution(a, b) for a, b in zip(batch, alone)) and len(batch) == len(X)
    drivers = [s.driver for s in alone]
    # the rows that reach the conic driver share one stacked solve
    assert runs == ([drivers.count("conic")] if "conic" in drivers else [])
    # only a second-order slice asks _trivial: a polyhedral row's QP decides it
    assert ("trivial" in drivers) == (name == "ice-cream")
    if name == "l1-binding-cap":
        statuses = {s.status for s in alone}
        assert drivers.count("conic") > 1 and SolveStatus.INFEASIBLE in statuses
    sweep = make()._sweep  # the compiled slice itself, at a scale other than 1
    scaled = [sweep.project(x, p, 2.0) for x, p in zip(X, P)]
    assert all(same_solution(a, b) for a, b in zip(make()._sweep.project_many(X, P, [2.0] * len(X)),
                                                   scaled))

