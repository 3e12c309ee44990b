import collections
import functools
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conekit import conemap, conic, solver
from conekit.conemap import ConeMap
from conekit.cones import (DirectSumL1, Generators, Halfspaces, Negation, Orthant, Product,
                           SecondOrder)
from conekit.instances import parse_instance, random_polyhedral_instance
from conekit.norms import NormTag
from conekit.ordered import OrderedSpace, summing_map
from conekit.sampling import SamplerConfig, search_grid, sphere_directions

import oracles

CFG = SamplerConfig(directions=512, search_directions=128, seed=0)


@functools.cache
def lattice_map(tag=NormTag.L2):
    cone = DirectSumL1((Orthant(2), Negation(Orthant(2))))
    return ConeMap(np.hstack([np.eye(2), np.eye(2)]), cone, codomain_norm=tag,
                   domain_norm=tag)


@functools.cache
def lattice_equivalence():
    return lattice_map().norm_equivalence(CFG)


@pytest.mark.parametrize("tag", [NormTag.L2, NormTag.L1], ids=["l2", "l1"])
def test_max_kind_compiles_one_program(tag, monkeypatch, spy):
    # one program per map serves every target, with solve_max_block_norm's
    # values: bit for bit on the conic driver (which solves the 60 targets in
    # one batch), and to rounding where the LP starts from an earlier
    # target's optimal basis
    cm = lattice_map(tag)
    values = ConeMap(cm.matrix, cm.cone, tag, cm.domain_norm)._kind_objective("max")
    xs = np.random.default_rng(7).standard_normal((60, 2))
    built = []
    spy(solver._Program, "__init__", built)
    got = values(xs)
    monkeypatch.undo()
    assert len(built) == 1
    for x, v in zip(xs, got):
        one = solver.solve_max_block_norm(solver.MinNormProblem(cm.matrix, x, cm.cone,
                                                                cm.domain_norm)).value
        if tag is NormTag.L2:
            assert v == one, (x, v, one)
        else:
            assert abs(v - one) <= 1e-12 * one, (x, v, one)


def test_shape_validation():
    with pytest.raises(ValueError):
        ConeMap(np.eye(3), Orthant(2))


def test_apply_strict_membership():
    cm = lattice_map()
    np.testing.assert_allclose(cm.apply(np.array([1.0, 0.0, 0.0, -2.0])), [1.0, -2.0])
    with pytest.raises(ValueError):
        cm.apply(np.array([1.0, 0.0, 0.0, 2.0]))  # second block must be <= 0
    np.testing.assert_allclose(cm.apply(np.array([1.0, 0.0, 0.0, 2.0]), strict=False),
                               [1.0, 2.0])


@given(arrays(np.float64, (2,), elements=st.floats(-10, 10)))
def test_lattice_preimage_gauge_closed_form(x):
    for tag in NormTag:
        cm = lattice_map(tag)
        plus, minus = oracles.lattice_parts(x)
        want = oracles.norm(plus, tag.value) + oracles.norm(minus, tag.value)
        assert cm.preimage_gauge(x) == pytest.approx(want, abs=1e-7)


def test_preimage_gauge_unreachable_is_inf():
    cm = ConeMap(np.array([[1.0, 0.0]]), Orthant(2), codomain_norm=NormTag.L2)
    assert cm.preimage_gauge(np.array([-1.0])) == math.inf
    assert cm.preimage_gauge(np.array([1.0])) == pytest.approx(1.0, abs=1e-9)


def test_min_preimage_solution_object():
    cm = lattice_map()
    sol = cm.min_preimage(np.array([3.0, -4.0]))
    np.testing.assert_allclose(sol.point, [3.0, 0.0, 0.0, -4.0], atol=1e-7)


@given(arrays(np.float64, (2,), elements=st.floats(-8, 8)),
       arrays(np.float64, (2,), elements=st.floats(-8, 8)))
def test_gauge_norm_axioms(x, y):
    cm = lattice_map()
    gx, gy, gxy = cm.gauge_norm(x), cm.gauge_norm(y), cm.gauge_norm(x + y)
    assert gxy <= gx + gy + 1e-6 * (1.0 + gx + gy)
    assert cm.gauge_norm(-x) == pytest.approx(gx, rel=1e-9, abs=1e-9)
    if np.linalg.norm(x) > 1e-6:
        assert gx > 0.0


@given(arrays(np.float64, (2,), elements=st.floats(-8, 8)))
def test_gauge_norm_sandwich(x):
    cm = lattice_map()
    lo, hi = lattice_equivalence()
    g = cm.gauge_norm(x)
    nx = float(np.linalg.norm(x))
    assert g >= lo * nx - 1e-7
    assert g <= hi * nx + 1e-7 * max(1.0, nx)


def test_surjectivity_exact_positive_and_negative():
    assert lattice_map().is_surjective().surjective
    rep = ConeMap(np.eye(2), Orthant(2)).is_surjective()
    assert not rep.surjective
    # witness direction misses the image: both coordinates strictly negative
    assert np.all(rep.unreachable < 0)
    assert rep.functional is not None


def test_surjectivity_sampled_second_order():
    # ice-cream lattice: SOC(2) and its negation sum onto the plane; a
    # sampler config, once the size of a sampled grid, selects nothing
    cone = DirectSumL1((SecondOrder(2), Negation(SecondOrder(2))))
    cm = ConeMap(np.hstack([np.eye(2), np.eye(2)]), cone, codomain_norm=NormTag.L2)
    rep = cm.is_surjective(config=CFG)
    assert rep.surjective and rep.functional is None and rep.note == ""
    # a single second-order cone misses directions outside itself
    alone = ConeMap(np.eye(2), SecondOrder(2), codomain_norm=NormTag.L2)
    rep = alone.is_surjective(config=CFG)
    assert not rep.surjective


def test_openness_constant_lattice_frozen_values():
    # grid-scan oracle values: 1, sqrt(2), 2
    assert lattice_map(NormTag.L1).openness_constant(CFG) == pytest.approx(
        oracles.lattice_sum_constant("l1"), abs=1e-9)
    assert lattice_map(NormTag.L2).openness_constant(CFG) == pytest.approx(
        oracles.lattice_sum_constant("l2"), abs=1e-6)
    assert lattice_map(NormTag.LINF).openness_constant(CFG) == pytest.approx(
        oracles.lattice_sum_constant("linf"), abs=1e-9)


def test_openness_constant_infinite_when_not_onto():
    cm = ConeMap(np.eye(2), Orthant(2), codomain_norm=NormTag.L2)
    assert cm.openness_constant(CFG) == math.inf
    assert cm.interior_radius(CFG) == 0.0


@given(st.integers(0, 200))
def test_interior_radius_inverts_openness(seed):
    inst = parse_instance(random_polyhedral_instance(seed))
    K = inst.map.openness_constant(inst.sampler)
    r = inst.map.interior_radius(inst.sampler)
    if math.isfinite(K):
        assert r * K == pytest.approx(1.0, abs=1e-6)
    else:
        assert r == 0.0


@pytest.mark.parametrize("seed", range(0, 24, 2))
def test_interior_radius_takes_a_grid_of_solves(seed, spy):
    # every grid gauge certifies its own bracket, so no feasibility program
    # is built or solved
    inst = parse_instance(random_polyhedral_instance(seed))
    inst.map.openness_constant(inst.sampler)
    targets = []
    spy(solver.MinNormSweep, "feasible_many", targets, pick=len)
    assert inst.map.interior_radius(inst.sampler) > 0.0
    assert sum(targets) == 0


# what the brackets read from each OPTIMAL row (status, z, value, its, (y, g))
# of the norm program's dual solves, corrupted
CORRUPTIONS = {
    "x2": lambda st_, z, v, its, d: (st_, z, 2.0 * v, its, d),
    "x0.5": lambda st_, z, v, its, d: (st_, z, 0.5 * v, its, d),
    "undecided": lambda st_, z, v, its, d: (solver.SolveStatus.ITERATION_LIMIT, None, None, its,
                                            None),
    "y": lambda st_, z, v, its, d: (st_, z, v, its, (-d[0], d[1])),
    "w": lambda st_, z, v, its, d: (st_, z, v, its, (d[0], d[1] + 1.0)),
    "point": lambda st_, z, v, its, d: (st_, 2.0 * z, v, its, d),
}


def corrupt(monkeypatch, cm, name, rows=None):
    """Corrupt the brackets of the map's norm program, in every dual solve
    or only in those of a batch of ``rows`` targets."""
    program = cm._sweep._program()
    solve_many, change = program.solve_many, CORRUPTIONS[name]

    def run(X, dual=False):
        out = solve_many(X, dual=dual)
        if not dual or rows not in (None, len(X)):
            return out
        return [change(*r) if r[0] is solver.SolveStatus.OPTIMAL else r for r in out]

    monkeypatch.setattr(program, "solve_many", run)


def refused_bracket(cm, config=None):
    """The bracket (lo, hi) on r that a refused ``interior_radius`` states."""
    with pytest.raises(ArithmeticError, match="not certified") as err:
        cm.interior_radius(config)
    return tuple(map(float, re.search(r"r in \[(\S+), (\S+)\]", str(err.value)).groups()))


@pytest.mark.parametrize("stub", list(CORRUPTIONS))
@pytest.mark.parametrize("seed", [0, 4, 10])
def test_interior_radius_survives_a_wrong_gauge(seed, stub, monkeypatch, spy):
    # a wrong value, y, w or primal point, or an undecided solve, leaves a
    # row uncertified: the radius is refused with no feasibility solve, and
    # the bracket that weak duality still gives holds the true radius
    want = parse_instance(random_polyhedral_instance(seed)).map.interior_radius()
    cm = parse_instance(random_polyhedral_instance(seed)).map
    corrupt(monkeypatch, cm, stub)
    calls = []
    spy(solver.MinNormSweep, "feasible_many", calls)
    lo, hi = refused_bracket(cm)
    assert calls == [] and lo * (1.0 - 1e-12) <= want <= hi * (1.0 + 1e-12), (lo, want, hi)


def test_interior_radius_survives_an_undecided_gauge_on_a_sampled_grid(monkeypatch, spy):
    # the refinement of a sampled grid starts from the certified gauge at
    # the incumbent; with every gauge undecided there is none, so the radius
    # is refused before any refinement, and the bracket says nothing
    cm = lattice_map()
    corrupt(monkeypatch, cm, "undecided")
    calls, refined = [], []
    spy(solver.MinNormSweep, "feasible_many", calls)
    spy(conemap, "refine_on_sphere", refined)
    assert refused_bracket(cm, CFG) == (0.0, math.inf)
    assert calls == refined == []


def test_interior_radius_polish_is_bracketed_too(monkeypatch, spy):
    # the refined direction of a sampled grid is certified by its own solve
    # (130 directions miss the worst one, 45 degrees, by 7.3e-5 in r); with
    # its primal point off by 2 the radius is refused, and the bracket from
    # its lower end still holds r = 1 / sqrt(2)
    cm = lattice_map()
    corrupt(monkeypatch, cm, "point", rows=1)
    calls, sizes = [], []
    spy(solver.MinNormSweep, "feasible_many", calls)
    spy(solver.MinNormSweep, "certified", sizes, pick=len)
    lo, hi = refused_bracket(cm, SamplerConfig(512, 130))
    assert calls == [] and sizes == [130, 1]
    assert lo == 0.0 and 1.0 / math.sqrt(2.0) <= hi <= (1.0 + 1e-9) / math.sqrt(2.0), hi


def test_interior_radius_of_the_planar_l2_lattice(spy):
    # a sampled grid, polished on the sphere, every row certified with no
    # feasibility solve: r = 1 / sqrt(2)
    calls = []
    spy(solver.MinNormSweep, "feasible_many", calls)
    assert abs(lattice_map().interior_radius(CFG) * math.sqrt(2.0) - 1.0) <= 1e-9
    assert calls == []


def test_interior_radius_inverts_openness_on_the_ice_cream_lattice(spy):
    ice = summing_map(OrderedSpace(SecondOrder(3), NormTag.L2))
    calls = []
    spy(solver.MinNormSweep, "feasible_many", calls)
    assert ice.interior_radius() * ice.openness_constant() == pytest.approx(1.0, abs=1e-6)
    assert calls == []


def ball_reachable(cm):
    """reachable(X) for ``oracles.interior_radius_by_bisection``: the verdicts
    of the map's ball-capped feasibility program, None where undecided.  The
    solver accepts points 1e-9 outside a cap, so the ball has radius 1 - 1e-9."""
    ball = solver.BallConstraint(np.eye(cm.domain_dim), cm.domain_norm, 1.0 - 1e-9)
    sweep = solver.MinNormSweep(cm.matrix, cm.cone, cm.domain_norm, balls=(ball,))
    verdict = {solver.SolveStatus.OPTIMAL: True, solver.SolveStatus.INFEASIBLE: False}
    return lambda X: [verdict.get(status) for status, _ in sweep.feasible_many(X)]


def poly_sweep_style_docs():
    """24 onto polyhedral instances, 4 of each (dimension 2-4, l1 or linf)
    class: the mix of maps the poly_sweep benchmark draws, from other seeds."""
    taken, docs = collections.Counter(), []
    for seed in itertools.count(1000):
        doc = random_polyhedral_instance(seed, surjective=True)
        key = (doc["dimension"], doc["norm"])
        if taken[key] < 4:
            taken[key] += 1
            docs.append(doc)
        if len(docs) == 24:
            return docs


@pytest.mark.parametrize("doc", [random_polyhedral_instance(s) for s in range(50)]
                         + poly_sweep_style_docs(),
                         ids=[f"seed{s}" for s in range(50)] + [f"sweep{i}" for i in range(24)])
def test_interior_radius_matches_the_bisection_oracle(doc, spy):
    # the certified brackets against an independent computation: bisection
    # on ball-constrained feasibility over the vertex grid, to 1e-9
    inst = parse_instance(doc)
    calls = []
    spy(solver.MinNormSweep, "feasible_many", calls)
    r = inst.map.interior_radius(inst.sampler)
    assert calls == []
    grid, exact = search_grid(inst.map.codomain_dim, inst.map.codomain_norm, inst.sampler)
    lo, hi, decided = oracles.interior_radius_by_bisection(ball_reachable(inst.map), grid)
    assert exact
    if r == 0.0:  # no scale is reachable, down to where the ball programs cannot decide
        assert lo == 0.0 and hi <= 1e-6
    else:
        assert decided and abs(r - 0.5 * (lo + hi)) <= 1e-9 * r, (r, lo, hi)


@pytest.mark.parametrize("space", [Orthant(2), Orthant(3), Orthant(5), SecondOrder(3)],
                         ids=["l2-d2", "l2-d3", "l2-d5", "ice-cream"])
def test_curved_interior_radius_matches_the_bisection_oracle(space):
    # the sampled grid plus the refined worst direction (the openness
    # constant's argmax), worst first; the oracle's bisection may end at a
    # scale its ball programs cannot decide, above the critical one
    cm = summing_map(OrderedSpace(space, NormTag.L2))
    r = cm.interior_radius()
    sup = cm._kind_sup("openness", SamplerConfig())
    dirs = np.vstack([sup.argmax, sup.directions])
    lo, hi, decided = oracles.interior_radius_by_bisection(ball_reachable(cm), dirs)
    assert abs(r * sup.value - 1.0) <= 1e-12
    if decided:
        assert abs(r - 0.5 * (lo + hi)) <= 1e-9 * r, (r, lo, hi)
    else:
        assert lo * (1.0 - 1e-9) <= r <= hi * (1.0 + 1e-9), (r, lo, hi)


def test_operator_norm_bound_lattice():
    cm = lattice_map()
    M = cm.operator_norm_bound()
    assert M == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        c = rng.normal(size=4)
        c[:2] = np.abs(c[:2])
        c[2:] = -np.abs(c[2:])
        assert np.linalg.norm(cm.matrix @ c) <= M * cm.domain_norm.of(c) + 1e-9


def test_sampled_surjectivity_certificate_comes_from_the_batch(spy):
    # the identity on the ice-cream cone misses the five signed axes other
    # than e_1, all in one conic batch of the six (method="sampled" builds no
    # grid); their certificates come from the verdicts the batch already
    # holds, and the +-e_2, +-e_3 ones cancel in the witness, which is -e_1
    cm = ConeMap(np.eye(3), SecondOrder(3))
    runs = []
    spy(conic.ConeProgram, "solve_many", runs, pick=len)
    rep = cm.is_surjective(method="sampled")
    assert runs == [6]
    assert not rep.surjective
    np.testing.assert_allclose(rep.unreachable, [-1.0, 0.0, 0.0], atol=1e-9)
    assert solver.certificate_is_valid(np.eye(3), rep.unreachable, SecondOrder(3), -rep.functional)


ICE_RIM = np.vstack([np.ones(64), np.cos(np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)),
                     np.sin(np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False))])
RANK_ONE = np.outer([1.0, -2.0], [1.0, 0.5, 2.0])


@pytest.mark.parametrize("cmap,points,method", [
    (ConeMap(np.eye(3), SecondOrder(3)), ICE_RIM, "sampled"),
    (ConeMap(np.eye(3), Orthant(3)), np.eye(3), "exact"),
    (ConeMap(np.eye(3), Orthant(3)), np.eye(3), "sampled"),
    (ConeMap(RANK_ONE, Orthant(3)), np.eye(3), "exact"),
    (ConeMap(RANK_ONE, Orthant(3)), np.eye(3), "sampled"),
], ids=["ice-sampled", "orthant-exact", "orthant-sampled", "rank-one-exact", "rank-one-sampled"])
def test_surjectivity_functional_is_nonnegative_on_the_image(cmap, points, method):
    # either keyword reports f with <f, T c> >= 0 on the cone (checked on its
    # generators, or on the rim of the ice-cream cone), so -f misses the image
    rep = cmap.is_surjective(method=method)
    assert not rep.surjective and np.array_equal(rep.unreachable, -rep.functional)
    f = rep.functional
    assert np.abs(f).max() > 0.0
    assert (f @ cmap.matrix @ points).min() >= -1e-7
    assert cmap.min_preimage(-f).status is solver.SolveStatus.INFEASIBLE


def assert_exact_witness(cmap, generators, rep):
    """f != 0, nonnegative on T times the cone's generators, and -f unreachable."""
    f = rep.functional
    assert np.abs(f).max() == 1.0
    assert (f @ cmap.matrix @ generators).min() >= -1e-8
    np.testing.assert_array_equal(rep.unreachable, -f)
    assert cmap.min_preimage(rep.unreachable).status is solver.SolveStatus.INFEASIBLE


def test_exact_surjectivity_follows_the_instance_generator():
    # random_polyhedral_instance makes every signed axis a generator at even
    # seeds, and keeps every generator in a closed halfspace at odd ones
    for seed in range(60):
        doc = random_polyhedral_instance(seed)
        cmap = parse_instance(doc).map
        rep = cmap.is_surjective(method="exact")
        assert rep.surjective == (seed % 2 == 0), seed
        if not rep.surjective:
            assert_exact_witness(cmap, np.array(doc["cones"][0]["generators"]).T, rep)


AXES2 = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
REPEATS = np.array([[1.0, 1.0, 0.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0, -1.0]])
HALF = np.array([[1.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, -1.0]])  # x1 >= 0
LINE = np.array([[1.0, -1.0], [0.0, 0.0]])


@pytest.mark.parametrize("matrix,cone,generators,onto", [
    ([[1.0, -1.0], [0.0, 0.0]], Orthant(2), np.eye(2), False),
    (np.outer([1.0, 2.0], [1.0, -1.0]), Orthant(2), np.eye(2), False),
    (np.eye(2), Generators(REPEATS), REPEATS, True),
    (np.eye(2), Generators(HALF), HALF, False),
    (1e6 * np.eye(2), Generators(AXES2), AXES2, True),
    (1e-6 * np.eye(2), Generators(AXES2), AXES2, True),
    (1e6 * np.eye(2), Orthant(2), np.eye(2), False),
    (1e-6 * np.eye(2), Orthant(2), np.eye(2), False),
    (np.eye(2), Halfspaces([[1.0, 0.0]]), HALF[:, 1:], False),
    ([[0.0, 1.0]], Halfspaces([[1.0, 0.0]]), HALF[:, 1:], True),
    (np.eye(2), Generators(LINE), LINE, False),
    ([[1.0, 0.0]], Generators(LINE), LINE, True),
], ids=["zero-row", "rank-one", "repeated-onto", "repeated-half", "scaled-up-onto",
        "scaled-down-onto", "scaled-up-orthant", "scaled-down-orthant", "halfspace",
        "halfspace-onto", "line", "line-onto"])
def test_exact_surjectivity_on_degenerate_maps(matrix, cone, generators, onto):
    cmap = ConeMap(np.asarray(matrix, dtype=float), cone)
    rep = cmap.is_surjective(method="exact")
    assert rep.surjective == onto
    if not onto:
        assert_exact_witness(cmap, generators, rep)


def test_exact_surjectivity_of_an_onto_map_is_one_batch(spy):
    # the 2 d signed axes go to the compiled slice in one call, and a map that
    # reaches all of them needs no certificate
    cmap = parse_instance(random_polyhedral_instance(0)).map
    batches, farkas = [], []
    spy(solver.MinNormSweep, "feasible_many", batches, pick=len)
    spy(solver, "farkas_certificate", farkas)
    assert cmap.is_surjective(method="exact").surjective
    assert batches == [2 * cmap.codomain_dim] and farkas == []


@pytest.mark.parametrize("seed", [1, 3, 5, 7])
def test_exact_surjectivity_of_a_map_not_onto_is_one_batch(spy, seed):
    # every missed axis is certified by the ray of its own verdict in the
    # batch: no LP runs outside it, and no separation LP at all
    doc = random_polyhedral_instance(seed)
    cmap = parse_instance(doc).map
    batches, solves, farkas = [], [], []
    spy(solver.MinNormSweep, "feasible_many", batches, pick=len)
    spy(solver.LinearProgram, "solve", solves, pick=lambda out: out[0])
    spy(solver, "farkas_certificate", farkas)
    rep = cmap.is_surjective(method="exact")
    assert not rep.surjective
    assert batches == [2 * cmap.codomain_dim] and len(solves) == 2 * cmap.codomain_dim
    assert solver.SolveStatus.INFEASIBLE in solves and farkas == []
    assert_exact_witness(cmap, np.array(doc["cones"][0]["generators"]).T, rep)


# -- the signed axes on curved cones -----------------------------------------

ICE = DirectSumL1((SecondOrder(3), Negation(SecondOrder(3))))
SIGNS = np.hstack([np.eye(3), np.eye(3)[:, [0, 1]] * [-1.0, 1.0]])  # c, then -p_1 and +p_2


def curved_maps():
    """(id, map): the ice-cream summing maps under l2 and l1, the SOC(3)
    identity, the projection of SOC(4) onto its first two coordinates,
    SOC(3) x Orthant(2) through SIGNS, and 12 seeded random maps SOC(n) -> R^d
    with 1 <= d < n <= 5."""
    maps = [("ice-l2", ConeMap(np.hstack([np.eye(3), np.eye(3)]), ICE, domain_norm=NormTag.L2)),
            ("ice-l1", ConeMap(np.hstack([np.eye(3), np.eye(3)]), ICE, domain_norm=NormTag.L1)),
            ("soc3-identity", ConeMap(np.eye(3), SecondOrder(3))),
            ("soc4-projection", ConeMap(np.eye(4)[:2], SecondOrder(4))),
            ("soc3-x-orthant2", ConeMap(SIGNS, Product((SecondOrder(3), Orthant(2)))))]
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 6))
        d = int(rng.integers(1, n))
        maps.append((f"random-{seed}", ConeMap(rng.standard_normal((d, n)), SecondOrder(n))))
    return maps


CURVED = curved_maps()


def signed_axes(d):
    return np.vstack([np.eye(d), -np.eye(d)])


def reachable_by(cmap):
    """reachable(X) for oracles.sampled_surjectivity: the map's own
    feasibility verdicts, None where undecided."""
    decided = (solver.SolveStatus.OPTIMAL, solver.SolveStatus.INFEASIBLE)
    return lambda X: [st is solver.SolveStatus.OPTIMAL if st in decided else None
                      for st, _ in cmap._sweep.feasible_many(X)]


@pytest.mark.parametrize("cmap", [m for _, m in CURVED], ids=[name for name, _ in CURVED])
def test_signed_axes_agree_with_a_sampled_grid_on_curved_maps(cmap):
    # the verdict of the 2 d signed axes is the sampled grid's at 128
    # directions; every axis the map misses with a certificate passes the
    # check on its own, a map not onto has at least one, and its witness
    # -f is certified unreachable by -f itself
    rep = cmap.is_surjective()
    dirs = sphere_directions(cmap.codomain_dim, NormTag.L2, SamplerConfig(directions=128))
    onto, _ = oracles.sampled_surjectivity(dirs, reachable_by(cmap))
    assert rep.surjective == onto
    axes = signed_axes(cmap.codomain_dim)
    certified = 0
    for x, (status, y) in zip(axes, cmap._sweep.feasible_many(axes)):
        cert = cmap._sweep._certificate(x, y) if status is solver.SolveStatus.INFEASIBLE else None
        if cert is not None:
            assert solver.certificate_is_valid(cmap.matrix, x, cmap.cone, cert.y)
            certified += 1
    assert (certified > 0) == (not onto)
    if not onto:
        assert np.abs(rep.functional).max() == 1.0
        assert solver.certificate_is_valid(cmap.matrix, rep.unreachable, cmap.cone, -rep.functional)


def test_curved_maps_cover_both_verdicts():
    assert {m.is_surjective().surjective for _, m in CURVED} == {True, False}


NOT_CLOSED = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])


def test_a_map_whose_image_is_not_closed_is_decided():
    # T c = (c_1 - c_2, c_3) maps SOC(3) onto {a > 0} and the origin: the
    # axes (0, +-1) lie in the closure but not in the image, so their
    # programs are only weakly infeasible and end undecided, and the sampled
    # grid raises there; (-1, 0) is strictly separated, certified, and decides
    cmap = ConeMap(NOT_CLOSED, SecondOrder(3))
    st = [s for s, _ in cmap._sweep.feasible_many(signed_axes(2))]
    assert st[0] is solver.SolveStatus.OPTIMAL and st[2] is solver.SolveStatus.INFEASIBLE
    assert st[1] is st[3] is solver.SolveStatus.ITERATION_LIMIT
    dirs = sphere_directions(2, NormTag.L2, SamplerConfig(directions=128))
    with pytest.raises(ArithmeticError, match="undecided"):
        oracles.sampled_surjectivity(dirs, reachable_by(cmap))
    rep = cmap.is_surjective()
    assert not rep.surjective
    np.testing.assert_allclose(rep.functional, [1.0, 0.0], atol=1e-9)
    assert solver.certificate_is_valid(NOT_CLOSED, rep.unreachable, SecondOrder(3), -rep.functional)


@pytest.mark.parametrize("certified", [False, True], ids=["undecided", "unchecked"])
def test_surjectivity_skips_an_uncertified_axis_when_another_is_certified(certified,
                                                                          undecided_conic):
    # only -e_1 is solved; every other axis ends ITERATION_LIMIT, or
    # INFEASIBLE with a certificate that fails its check, and is skipped
    undecided_conic(certified, keep=lambda b: b[0] < 0.0)
    rep = ConeMap(np.eye(3), SecondOrder(3)).is_surjective()
    assert not rep.surjective
    np.testing.assert_allclose(rep.unreachable, [-1.0, 0.0, 0.0], atol=1e-9)


@pytest.mark.parametrize("certified", [False, True], ids=["undecided", "unchecked"])
def test_surjectivity_raises_when_no_missed_axis_is_certified(certified, undecided_conic):
    # the message names every axis left and its status
    undecided_conic(certified)
    with pytest.raises(ArithmeticError, match="no Farkas certificate at any missed axis") as err:
        ConeMap(np.eye(3), SecondOrder(3)).is_surjective()
    status = "INFEASIBLE" if certified else "ITERATION_LIMIT"
    for x in np.vstack([np.eye(3), -np.eye(3)]):
        assert f"({x.tolist()}, '{status}')" in str(err.value)


@pytest.mark.parametrize("make", [
    lambda: ConeMap(np.hstack([np.eye(3), np.eye(3)]), ICE),
    lambda: ConeMap(np.eye(3), SecondOrder(3)),
    lambda: parse_instance(random_polyhedral_instance(1)).map,
    lambda: parse_instance(random_polyhedral_instance(2)).map,
], ids=["ice-onto", "soc3-not-onto", "polyhedral-not-onto", "polyhedral-onto"])
def test_the_keyword_forms_give_the_same_verdict(make):
    # method="exact", config=..., and method="sampled" with a config select
    # nothing: each gives the bare call's report bit for bit; an unknown
    # method is still refused
    base = make().is_surjective()
    for kw in ({"method": "exact"}, {"config": SamplerConfig(directions=512, seed=7)},
               {"method": "sampled", "config": SamplerConfig(directions=128)}):
        rep = make().is_surjective(**kw)
        assert (rep.surjective, rep.note) == (base.surjective, base.note)
        for got, want in ((rep.functional, base.functional), (rep.unreachable, base.unreachable)):
            assert (got is None and want is None) or np.array_equal(got, want)
    with pytest.raises(ValueError, match="unknown method"):
        make().is_surjective(method="grid")
