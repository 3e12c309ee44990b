import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conekit.cones import Halfspaces, Orthant
from conekit.norms import NormTag
from conekit.ordered import (ConormalityKind, OrderedSpace, ando_decompose,
                             conormality_constant, decomposition_bound,
                             decomposition_value, is_generating, kind_objective,
                             positive_part_functional, summing_map,
                             verify_approximate_conormality, verify_conormality_transfer)
from conekit.sampling import SamplerConfig

import oracles

CFG = SamplerConfig(directions=256, search_directions=96, seed=0)


@functools.cache
def lattice(tag=NormTag.L2):
    return OrderedSpace(Orthant(2), tag)


def xs():
    return arrays(np.float64, (2,), elements=st.floats(-10, 10))


def test_summing_map_structure():
    cm = summing_map(lattice())
    assert cm.codomain_dim == 2 and cm.domain_dim == 4
    np.testing.assert_allclose(cm.matrix, np.hstack([np.eye(2), np.eye(2)]))
    assert cm.domain_norm.blocks == ((0, 2, NormTag.L2), (2, 4, NormTag.L2))


def test_holds_order():
    sp = lattice()
    assert sp.holds_order(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    assert not sp.holds_order(np.array([0.0, 1.0]), np.array([1.0, 0.0]))


@given(xs())
def test_ando_decompose_matches_parts(x):
    dec = ando_decompose(lattice(), x)
    plus, minus = oracles.lattice_parts(x)
    np.testing.assert_allclose(dec.plus, plus, atol=1e-7)
    np.testing.assert_allclose(dec.minus, -minus, atol=1e-7)  # minus is the nonneg part
    assert dec.defect() <= 1e-7
    sp = lattice()
    assert sp.holds_order(np.zeros(2), dec.plus + 1e-9)
    assert sp.holds_order(np.zeros(2), dec.minus + 1e-9)


def test_generating_verdicts():
    assert is_generating(lattice()).surjective
    half = OrderedSpace(Halfspaces(np.array([[1.0, 0.0]])), NormTag.L2)
    assert is_generating(half).surjective  # contains the x2 axis line
    ray = OrderedSpace(Halfspaces(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])),
                       NormTag.L2)
    # {x1 = 0, x2 >= 0} is a single ray: nowhere near generating
    assert not is_generating(ray).surjective


def test_kind_constants_frozen_values():
    sp = lattice()
    assert conormality_constant(sp, ConormalityKind.SUM, CFG) == pytest.approx(
        oracles.lattice_sum_constant("l2"), abs=1e-6)
    assert conormality_constant(sp, ConormalityKind.PLAIN, CFG) == pytest.approx(
        oracles.lattice_plain_constant("l2"), abs=1e-6)
    assert conormality_constant(sp, ConormalityKind.MAX, CFG) == pytest.approx(
        oracles.lattice_max_constant("l2"), abs=1e-6)
    for tag, want in (("l1", oracles.lattice_sum_constant("l1")),
                      ("linf", oracles.lattice_sum_constant("linf"))):
        assert conormality_constant(lattice(NormTag(tag)), ConormalityKind.SUM,
                                    CFG) == pytest.approx(want, abs=1e-6)


def test_constant_infinite_when_not_generating():
    ray = OrderedSpace(Halfspaces(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])),
                       NormTag.L2)
    assert conormality_constant(ray, ConormalityKind.SUM, CFG) == math.inf


@given(xs())
def test_kind_values_are_ordered_pointwise(x):
    sp = lattice()
    plain = kind_objective(sp, ConormalityKind.PLAIN)(x)
    mx = kind_objective(sp, ConormalityKind.MAX)(x)
    sm = kind_objective(sp, ConormalityKind.SUM)(x)
    tol = 1e-6 * max(1.0, sm)
    assert plain <= mx + tol
    assert mx <= sm + tol
    assert sm <= 2.0 * mx + tol


@pytest.mark.parametrize("kind", list(ConormalityKind))
def test_kind_objective_takes_a_batch(kind):
    # a 2-D X is one sweep call, each row the value its lone call gives;
    # separate spaces, so their warm bases see the same targets in order
    X = np.random.default_rng(5).standard_normal((6, 2))
    alone = kind_objective(OrderedSpace(Orthant(2), NormTag.L2), kind)
    batch = kind_objective(OrderedSpace(Orthant(2), NormTag.L2), kind)(X)
    assert batch.shape == (6,) and batch.tolist() == [alone(x) for x in X]


@given(xs())
def test_decomposition_value_matches_closed_form(x):
    plus, minus = oracles.lattice_parts(x)
    want = oracles.norm(plus, "l2") + oracles.norm(minus, "l2")
    assert decomposition_value(lattice(), x) == pytest.approx(want, abs=1e-6)


def test_decomposition_bound_lattice():
    assert decomposition_bound(lattice(), CFG) == pytest.approx(math.sqrt(2.0), abs=1e-6)


def test_approximate_conormality_passes_at_achievable_alpha():
    rep = verify_approximate_conormality(lattice(), alpha=1.0, epsilons=(0.1, 0.01),
                                         config=CFG)
    assert rep.passed
    assert len(rep.entries) == 2
    for eps, ok, worst, *_ in rep.entries:
        assert ok and worst <= 1.0 + eps + 1e-7


def test_approximate_conormality_fails_below_achievable_alpha():
    rep = verify_approximate_conormality(lattice(), alpha=0.5, epsilons=(0.01,),
                                         config=CFG)
    assert not rep.passed
    (eps, ok, worst, direction, witness) = rep.entries[0]
    assert not ok
    assert witness is not None
    # the witness direction genuinely needs a plus part bigger than the budget
    plus, _ = oracles.lattice_parts(witness)
    assert oracles.norm(plus, "l2") > 0.5 + eps


def test_halfspace_cone_accepted_and_tight():
    half = OrderedSpace(Halfspaces(np.array([[1.0, 0.0]])), NormTag.L2)
    assert is_generating(half).surjective
    # the halfspace contains a full line, so decompositions are nearly free
    assert conormality_constant(half, ConormalityKind.SUM, CFG) == pytest.approx(
        1.0, abs=1e-6)


def test_conormality_transfer():
    rep = verify_conormality_transfer(lattice(), CFG)
    assert rep.holds
    assert rep.sum <= 2.0 * rep.plain + 1.0 + 1e-6
    assert rep.plain == pytest.approx(1.0, abs=1e-6)
    assert rep.sum == pytest.approx(math.sqrt(2.0), abs=1e-6)
