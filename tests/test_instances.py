import json
import math

import numpy as np
import pytest

from conekit.cones import DirectSumL1, Generators, Negation, Orthant, contains
from conekit.instances import (InstanceError, load_instance, parse_instance,
                               random_polyhedral_instance)
from conekit.norms import NormTag


LATTICE = {
    "dimension": 2,
    "norm": "l2",
    "cones": [
        {"variant": "orthant", "dim": 2},
        {"variant": "negation", "inner": {"variant": "orthant", "dim": 2}},
    ],
}


def test_summing_map_default():
    inst = parse_instance(LATTICE)
    np.testing.assert_allclose(inst.map.matrix,
                               np.hstack([np.eye(2), np.eye(2)]))
    assert isinstance(inst.map.cone, DirectSumL1)
    assert inst.map.codomain_norm is NormTag.L2
    # the domain norm follows the block structure of the summed cones
    assert [b[:2] for b in inst.map.domain_norm.blocks] == [(0, 2), (2, 4)]


def test_explicit_map_and_single_cone():
    inst = parse_instance({
        "dimension": 1,
        "norm": "linf",
        "cones": [{"variant": "orthant", "dim": 2}],
        "map": [[1.0, -1.0]],
    })
    assert isinstance(inst.map.cone, Orthant)
    np.testing.assert_allclose(inst.map.matrix, [[1.0, -1.0]])


def test_generators_listed_one_per_row():
    inst = parse_instance({
        "dimension": 2,
        "norm": "l1",
        "cones": [{"variant": "generators", "generators": [[1.0, 2.0], [0.0, 1.0]]}],
        "map": [[1.0, 0.0], [0.0, 1.0]],
    })
    cone = inst.map.cone
    assert isinstance(cone, Generators)
    # rows in the file become columns of the stored matrix
    np.testing.assert_allclose(cone.columns[:, 0], [1.0, 2.0])
    assert contains(cone, np.array([1.0, 2.0]))


def test_functionals_and_sampler_parse():
    inst = parse_instance({
        **LATTICE,
        "functionals": [
            {"vector": [1.0, 0.0, 0.0, 0.0], "bound": 2.0},
            {"matrix": [[1.0, 0.0, 0.0, 0.0]], "norm": "l2", "bound": 1.5},
        ],
        "sampler": {"directions": 64, "seed": 7},
    })
    assert len(inst.functionals) == 2
    fn, bound = inst.functionals[0]
    assert fn.is_linear and bound == 2.0
    assert inst.sampler.directions == 64
    assert inst.sampler.seed == 7


@pytest.mark.parametrize("patch,field", [
    ({"norm": "l7"}, "norm"),
    ({"cones": []}, "cones"),
    ({"cones": [{"variant": "box", "dim": 2}]}, "cones[0].variant"),
    ({"cones": [{"variant": "orthant", "dim": 3},
                {"variant": "orthant", "dim": 2}]}, "cones[0]"),
    ({"map": [[1.0, 0.0, 0.0]]}, "map"),
    ({"mapp": [[1.0]]}, "mapp"),
    ({"cones": [{"variant": "generators", "generators": [[1.0, "x"]]}]},
     "cones[0].generators[0][1]"),
    ({"sampler": {"seed": -1}}, "sampler.seed"),
])
def test_errors_name_the_offending_field(patch, field):
    doc = {**LATTICE, **patch}
    with pytest.raises(InstanceError) as exc:
        parse_instance(doc)
    assert field in exc.value.field


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("patch,field", [
    (lambda v: {"map": [[1.0, 0.0, 1.0, 0.0], [0.0, v, 0.0, 1.0]]}, "map[1][1]"),
    (lambda v: {"cones": [{"variant": "generators", "generators": [[1.0, 0.0], [v, 1.0]]}],
                "map": [[1.0, 0.0], [0.0, 1.0]]}, "cones[0].generators[1][0]"),
    (lambda v: {"functionals": [{"vector": [1.0, 0.0, v, 0.0], "bound": 1.0}]},
     "functionals[0].vector[2]"),
    (lambda v: {"functionals": [{"vector": [1.0, 0.0, 0.0, 0.0], "bound": v}]},
     "functionals[0].bound"),
], ids=["map", "generators", "vector", "bound"])
def test_non_finite_numbers_are_refused(patch, field, value):
    # Python's json reads NaN, Infinity and -Infinity; a solve on them would
    # give a wrong number, so the parser names the entry instead
    doc = json.loads(json.dumps({**LATTICE, **patch(value)}))
    with pytest.raises(InstanceError) as exc:
        parse_instance(doc)
    assert exc.value.field == field and "finite" in exc.value.message


def test_missing_required_keys():
    with pytest.raises(InstanceError) as exc:
        parse_instance({"norm": "l2", "cones": LATTICE["cones"]})
    assert exc.value.field == "dimension"


def test_load_reports_bad_json_under_the_file_name(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(InstanceError) as exc:
        load_instance(p)
    assert "broken.json" in exc.value.field


def test_load_round_trip(tmp_path):
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(LATTICE), encoding="utf-8")
    inst = load_instance(p)
    assert inst.map.matrix.shape == (2, 4)


def test_combine_field_validation():
    with pytest.raises(InstanceError) as exc:
        parse_instance({**LATTICE, "combine": "mixture"})
    assert exc.value.field == "combine"
    inst = parse_instance({**LATTICE, "combine": "direct_sum"})
    assert isinstance(inst.map.cone, DirectSumL1)


@pytest.mark.parametrize("seed", range(20))
def test_random_instances_match_their_ground_truth(seed):
    doc = random_polyhedral_instance(seed)
    inst = parse_instance(doc)
    rep = inst.map.is_surjective()
    assert rep.surjective == (seed % 2 == 0)


def test_random_instance_override():
    doc = random_polyhedral_instance(3, surjective=True)
    assert parse_instance(doc).map.is_surjective().surjective
