import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conekit.projops import dykstra, project_orthant, project_soc

import oracles
from oracles import affine_projector, project_group_l1_ball, project_halfspace

pt = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


def vec(dim):
    return arrays(np.float64, (dim,), elements=pt)


def test_orthant_hand_cases():
    np.testing.assert_allclose(project_orthant(np.array([1.0, -2.0, 0.0])),
                               [1.0, 0.0, 0.0])


def test_soc_hand_cases():
    # inside: untouched
    np.testing.assert_allclose(project_soc(np.array([2.0, 1.0, 1.0])), [2.0, 1.0, 1.0])
    # polar: zero
    np.testing.assert_allclose(project_soc(np.array([-3.0, 1.0, 0.0])), [0.0, 0.0, 0.0])
    # side: midpoint formula gives (1, 1) from (0, 2)
    np.testing.assert_allclose(project_soc(np.array([0.0, 2.0])), [1.0, 1.0])


@given(vec(4))
def test_soc_matches_reference(z):
    np.testing.assert_allclose(project_soc(z), oracles.soc_project(z), atol=1e-12)


@given(vec(3))
def test_soc_variational_inequality(z):
    # <z - Pz, w - Pz> <= 0 for points w of the cone
    p = project_soc(z)
    for w in ([1.0, 0.0, 0.0], [2.0, 1.0, 1.0], [5.0, -3.0, 0.0], [0.0, 0.0, 0.0]):
        w = np.array(w)
        assert (z - p) @ (w - p) <= 1e-7 * max(1.0, np.linalg.norm(z) ** 2)


@given(vec(3))
def test_moreau_decomposition_orthant(z):
    # z = P_C z + P_{-C*} z with orthogonal parts; for the orthant the polar
    # projection is the componentwise negative part
    p = project_orthant(z)
    q = z - p
    assert np.all(q <= 1e-12)
    assert abs(p @ q) <= 1e-9 * max(1.0, z @ z)


@given(vec(4))
def test_moreau_decomposition_soc(z):
    p = project_soc(z)
    q = z - p
    # -q lies in the dual cone (self-dual), and the parts are orthogonal
    assert np.linalg.norm(-q[1:]) <= -q[0] + 1e-7 * max(1.0, np.linalg.norm(z))
    assert abs(p @ q) <= 1e-7 * max(1.0, z @ z)


def test_halfspace_projector():
    proj = project_halfspace(np.array([1.0, 0.0]), 1.0)
    np.testing.assert_allclose(proj(np.array([2.0, 3.0])), [2.0, 3.0])
    np.testing.assert_allclose(proj(np.array([0.0, 3.0])), [1.0, 3.0])
    with pytest.raises(ValueError):
        project_halfspace(np.zeros(2), 0.0)


def test_affine_projector_consistent_rank_deficient():
    A = np.array([[1.0, 1.0], [2.0, 2.0]])  # rank 1, consistent rhs
    proj = affine_projector(A, np.array([2.0, 4.0]))
    z = proj(np.array([5.0, -1.0]))
    np.testing.assert_allclose(A @ z, [2.0, 4.0], atol=1e-10)
    # projection of a feasible point is itself
    np.testing.assert_allclose(proj(np.array([1.0, 1.0])), [1.0, 1.0], atol=1e-12)


def test_l2_ball_projector_block():
    # one group is the l2 ball on that block; the other coordinates stay
    proj = project_group_l1_ball([(0, 2)], 1.0)
    out = proj(np.array([3.0, 4.0, 7.0]))
    np.testing.assert_allclose(out, [0.6, 0.8, 7.0])


def test_group_l1_ball_hand_case():
    # two 1-d blocks: this is the ordinary l1 ball; project (3, 1) onto sum <= 2
    proj = project_group_l1_ball([(0, 1), (1, 2)], 2.0)
    np.testing.assert_allclose(proj(np.array([3.0, 1.0])), [2.0, 0.0])
    # inside: untouched
    np.testing.assert_allclose(proj(np.array([0.5, 0.5])), [0.5, 0.5])


@given(vec(4), st.floats(0.1, 10))
def test_group_l1_ball_is_a_projection(z, radius):
    blocks = [(0, 2), (2, 4)]
    proj = project_group_l1_ball(blocks, radius)
    p = proj(z)
    total = sum(np.linalg.norm(p[a:b]) for a, b in blocks)
    assert total <= radius + 1e-9
    # optimality: no feasible point is closer (spot-check scaled candidates)
    for t in (0.0, 0.5, 0.9):
        cand = z * (t * radius / max(total, 1e-12))
        cand_total = sum(np.linalg.norm(cand[a:b]) for a, b in blocks)
        if cand_total <= radius + 1e-12:
            assert np.linalg.norm(z - p) <= np.linalg.norm(z - cand) + 1e-7


def test_dykstra_ball_meets_orthant():
    # project (2, 0): already nonneg, ball clips to (1, 0)
    projs = [project_orthant, project_group_l1_ball([(0, 2)], 1.0)]

    def violation(z):
        return max(0.0, -float(np.min(z))) + max(0.0, float(np.linalg.norm(z)) - 1.0)

    res = dykstra(projs, np.array([2.0, 0.0]), violation)
    assert res.converged
    np.testing.assert_allclose(res.point, [1.0, 0.0], atol=1e-8)


def test_dykstra_two_halfspaces_exact_projection():
    # {x >= 1} inter {y >= 1}: projection of (0, 0) is the corner (1, 1)
    projs = [project_halfspace(np.array([1.0, 0.0]), 1.0),
             project_halfspace(np.array([0.0, 1.0]), 1.0)]

    def violation(z):
        return max(0.0, 1.0 - z[0]) + max(0.0, 1.0 - z[1])

    res = dykstra(projs, np.zeros(2), violation)
    assert res.converged
    np.testing.assert_allclose(res.point, [1.0, 1.0], atol=1e-9)


def test_dykstra_reports_empty_intersection():
    projs = [project_halfspace(np.array([1.0]), 1.0),
             project_halfspace(np.array([-1.0]), 1.0)]  # x >= 1 and x <= -1

    def violation(z):
        return max(0.0, 1.0 - z[0]) + max(0.0, 1.0 + z[0])

    res = dykstra(projs, np.zeros(1), violation, maxiter=5000)
    assert not res.converged
    assert res.max_violation > 0.1
