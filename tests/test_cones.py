import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conekit.cones import (DirectSumL1, Generators, Halfspaces, Negation, Orthant,
                           Product, SecondOrder, contains, dual, is_polyhedral,
                           project_l2, space_norm)
from conekit.norms import NormTag

pt = st.floats(-20, 20, allow_nan=False, allow_infinity=False)


def vec(dim):
    return arrays(np.float64, (dim,), elements=pt)


def test_membership_hand_cases():
    assert contains(Orthant(2), np.array([1.0, 0.0]))
    assert not contains(Orthant(2), np.array([1.0, -1.0]))
    half = Halfspaces(np.array([[1.0, 1.0]]))
    assert contains(half, np.array([2.0, -1.0]))
    assert not contains(half, np.array([-2.0, 1.0]))
    assert contains(SecondOrder(3), np.array([2.0, 1.0, 1.0]))
    assert not contains(SecondOrder(3), np.array([1.0, 1.0, 1.0]))
    gen = Generators(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert contains(gen, np.array([2.0, 3.0]))
    assert not contains(gen, np.array([-1.0, 0.0]))
    assert contains(Negation(Orthant(2)), np.array([-1.0, -2.0]))
    assert not contains(Negation(Orthant(2)), np.array([1.0, -2.0]))


def test_composite_membership():
    prod = Product((Orthant(1), SecondOrder(2)))
    assert prod.ambient_dim == 3
    assert contains(prod, np.array([1.0, 2.0, 1.0]))
    assert not contains(prod, np.array([-1.0, 2.0, 1.0]))
    lat = DirectSumL1((Orthant(2), Negation(Orthant(2))))
    assert lat.ambient_dim == 4
    assert contains(lat, np.array([1.0, 2.0, -3.0, 0.0]))
    assert not contains(lat, np.array([1.0, 2.0, 3.0, 0.0]))


def test_construction_validation():
    with pytest.raises(ValueError):
        Orthant(0)
    with pytest.raises(ValueError):
        SecondOrder(1)
    with pytest.raises(ValueError):
        DirectSumL1((Orthant(2), Orthant(3)))  # mismatched ambient spaces
    with pytest.raises(ValueError):
        Product(())


def test_polyhedral_flags():
    assert is_polyhedral(Orthant(3))
    assert is_polyhedral(Generators(np.eye(2)))
    assert is_polyhedral(Negation(Halfspaces(np.eye(2))))
    assert not is_polyhedral(SecondOrder(3))
    assert not is_polyhedral(Product((Orthant(1), SecondOrder(2))))


def test_space_norm_structure():
    lat = DirectSumL1((Orthant(2), Negation(Orthant(2))))
    bn = space_norm(lat, NormTag.L2)
    assert bn.blocks == ((0, 2, NormTag.L2), (2, 4, NormTag.L2))
    v = np.array([3.0, 4.0, 0.0, -1.0])
    assert bn.of(v) == pytest.approx(5.0 + 1.0)
    flat = space_norm(Orthant(3), NormTag.L1)
    assert flat.is_flat


@given(arrays(np.float64, (2, 3), elements=st.floats(-5, 5)), vec(3))
def test_generators_contain_their_hull(G, lam):
    # G holds three generators in the plane as columns
    lam = np.abs(lam)
    x = G @ lam
    assert contains(Generators(G), x, tol=1e-7)


@given(vec(3))
def test_dual_orthant_pairing(y):
    # dual(Orthant) keeps the pairing nonnegative against orthant members
    d = dual(Orthant(3))
    if contains(d, y, tol=1e-9):
        for c in (np.array([1.0, 0.0, 0.0]), np.array([1.0, 2.0, 3.0])):
            assert y @ c >= -1e-7


def test_dual_round_trip_polyhedral():
    # dual of generators is halfspaces with the same data, and back
    G = np.array([[1.0, 1.0], [0.0, 1.0]])  # columns (1,0) and (1,1)
    d = dual(Generators(G))
    # y in dual iff <y, g> >= 0 for each generator column
    assert contains(d, np.array([1.0, 0.0]))
    assert not contains(d, np.array([-1.0, 0.0]))
    dd = dual(d)
    assert contains(dd, G[:, 0]) and contains(dd, G[:, 1])
    assert not contains(dd, np.array([-1.0, -1.0]))


@given(vec(4))
def test_dual_soc_is_self_dual(y):
    d = dual(SecondOrder(4))
    assert contains(d, y, tol=1e-9) == contains(SecondOrder(4), y, tol=1e-9)


@given(vec(3))
def test_project_l2_lands_in_the_cone(z):
    for cone in (Orthant(3), SecondOrder(3), Negation(Orthant(3)),
                 Halfspaces(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))):
        p = project_l2(cone, z)
        assert contains(cone, p, tol=1e-6)
        # projection shrinks distance to any member we can name
        zero = np.zeros(3)
        assert np.linalg.norm(z - p) <= np.linalg.norm(z - zero) + 1e-9


@given(vec(4))
def test_project_l2_composite(z):
    lat = DirectSumL1((Orthant(2), Negation(Orthant(2))))
    p = project_l2(lat, z)
    assert contains(lat, p, tol=1e-8)
    np.testing.assert_allclose(p[:2], np.maximum(z[:2], 0.0), atol=1e-12)
    np.testing.assert_allclose(p[2:], np.minimum(z[2:], 0.0), atol=1e-12)


def halfspace_draws(count=282):
    """Cones {v : A v >= 0} with n in [2, 6) and m in [2, 9) rows, and points
    3 N(0, 1)."""
    rng = np.random.default_rng(0)
    for _ in range(count):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 9))
        yield rng.standard_normal((m, n)), 3.0 * rng.standard_normal(n)


def test_project_l2_onto_halfspaces_meets_kkt():
    # p = P_K(z) iff A p >= 0, p - z = A^T lam with lam >= 0, and <p - z, p> = 0.
    # An unconverged Dykstra point once left the cone (by up to 5e-3) on 4 draws
    nnls = pytest.importorskip("scipy.optimize").nnls
    for A, z in halfspace_draws():
        p = project_l2(Halfspaces(A), z)
        tol = 1e-9 * max(1.0, float(np.linalg.norm(z)))
        assert np.min(A @ p) >= -tol, (A, z)
        _, resid = nnls(A.T, p - z)
        assert resid <= tol, (A, z)
        assert abs((p - z) @ p) <= tol * max(1.0, float(np.linalg.norm(z))), (A, z)


def test_membership_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        contains(Orthant(2), np.zeros(3))
