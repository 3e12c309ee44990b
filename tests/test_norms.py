import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conekit.norms import BlockNorm, NormTag, operator_norm_upper

import oracles

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=64)


def vec(dim):
    return arrays(np.float64, (dim,), elements=finite)


def test_tag_values_by_hand():
    v = np.array([1.0, -2.0, 3.0])
    assert NormTag.L1.of(v) == 6.0
    assert NormTag.L2.of(np.array([3.0, 4.0])) == 5.0
    assert NormTag.LINF.of(v) == 3.0
    assert NormTag.LINF.of(np.array([])) == 0.0


def test_polyhedral_flags():
    assert NormTag.L1.is_polyhedral
    assert NormTag.LINF.is_polyhedral
    assert not NormTag.L2.is_polyhedral


@given(vec(5), vec(5))
def test_triangle_inequality(x, y):
    for tag in NormTag:
        assert tag.of(x + y) <= tag.of(x) + tag.of(y) + 1e-7 * (tag.of(x) + tag.of(y) + 1)


@given(vec(4), st.floats(-100, 100))
def test_homogeneity(x, t):
    for tag in NormTag:
        assert tag.of(t * x) == pytest.approx(abs(t) * tag.of(x), rel=1e-12, abs=1e-9)


@given(vec(6))
def test_tag_ordering(x):
    # linf <= l2 <= l1 pointwise
    assert NormTag.LINF.of(x) <= NormTag.L2.of(x) + 1e-9
    assert NormTag.L2.of(x) <= NormTag.L1.of(x) + 1e-9 * max(1.0, NormTag.L1.of(x))


def test_block_norm_is_the_sum_of_blocks():
    bn = BlockNorm(((0, 2, NormTag.L2), (2, 4, NormTag.L1)))
    v = np.array([3.0, 4.0, 1.0, -2.0])
    assert bn.of(v) == pytest.approx(5.0 + 3.0)
    assert bn.dim == 4
    assert not bn.is_flat
    assert not bn.is_polyhedral  # the l2 block spoils it


def test_block_norm_flat():
    bn = BlockNorm.flat(3, NormTag.LINF)
    assert bn.is_flat and bn.is_polyhedral
    assert bn.of(np.array([1.0, -5.0, 2.0])) == 5.0


def test_block_norm_rejects_wrong_dim():
    bn = BlockNorm.flat(3, NormTag.L1)
    with pytest.raises(ValueError):
        bn.of(np.zeros(4))


def test_unit_normalizes():
    bn = BlockNorm.flat(2, NormTag.L1)
    u = bn.unit(np.array([2.0, -2.0]))
    assert bn.of(u) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        bn.unit(np.zeros(2))


def test_operator_norm_hand_cases():
    # dom l1: max column norm in the codomain tag
    A = np.array([[3.0, 0.0], [4.0, 1.0]])
    assert operator_norm_upper(A, BlockNorm.flat(2, NormTag.L1), NormTag.L2) == pytest.approx(5.0)
    # identity is 1 for matching norms
    for tag in NormTag:
        assert operator_norm_upper(np.eye(3), BlockNorm.flat(3, tag), tag) == pytest.approx(1.0)
    # summing block row over an l1-sum of blocks: max per-block norm
    T = np.hstack([np.eye(2), np.eye(2)])
    dom = BlockNorm(((0, 2, NormTag.L2), (2, 4, NormTag.L2)))
    assert operator_norm_upper(T, dom, NormTag.L2) == pytest.approx(1.0)


@given(arrays(np.float64, (3, 4), elements=st.floats(-10, 10)), vec(4))
def test_operator_norm_is_an_upper_bound(A, v):
    for dom in NormTag:
        for cod in NormTag:
            bound = operator_norm_upper(A, BlockNorm.flat(4, dom), cod)
            assert cod.of(A @ v) <= bound * dom.of(v) + 1e-7 * max(1.0, bound)


@given(vec(2))
def test_tags_match_reference(x):
    for tag in NormTag:
        assert tag.of(x) == pytest.approx(oracles.norm(x, tag.value), rel=1e-12, abs=1e-12)


def test_a_flat_norm_is_one_shared_object():
    # every program and answer that asks for the same flat norm holds one
    # frozen object, with no per-instance __dict__
    assert BlockNorm.flat(3, NormTag.L1) is BlockNorm.flat(3, NormTag.L1)
    assert BlockNorm.flat(np.int64(3), "l1") is BlockNorm.flat(3, NormTag.L1)
    assert BlockNorm.flat(3, NormTag.L1) is not BlockNorm.flat(3, NormTag.LINF)
    assert BlockNorm.flat(3, NormTag.L1).blocks == ((0, 3, NormTag.L1),)
    assert not hasattr(BlockNorm.flat(3, NormTag.L1), "__dict__")
