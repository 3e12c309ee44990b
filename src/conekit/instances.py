"""Instance files: JSON descriptions of cone maps, plus a random generator.

An instance file is a single JSON object:

    {
      "dimension": 2,
      "norm": "l2",
      "cones": [{"variant": "orthant", "dim": 2},
                {"variant": "negation", "inner": {"variant": "orthant", "dim": 2}}],
      "map": [[1, 0, 1, 0], [0, 1, 0, 1]],        // optional, row-major
      "functionals": [{"matrix": [[1, 0, 0, 0], [0, 1, 0, 0]],
                       "norm": "l2", "bound": 1.5}],
      "sampler": {"directions": 2048, "seed": 7}
    }

When "map" is omitted the instance is the summing map over the listed cones:
every cone must then live in the codomain dimension, the domain is their
l1 direct sum, and the matrix is a block row of identities.  An explicit
map takes the plain product of the cones as its domain instead (override
with "combine": "direct_sum").  The domain norm is always the cone's block
norm built from the codomain tag.

Generators are written one generator per JSON row; they become matrix
columns.  Matrices are lists of rows.  Every number must be finite (Python's
json reads NaN and Infinity).  Every parse error names the field that caused it.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import cones as _cones
from .conemap import ConeMap
from .norms import NormTag
from .sampling import SamplerConfig
from .selection import ConstraintFunctional

__all__ = ["InstanceError", "Instance", "parse_instance", "load_instance",
           "random_polyhedral_instance"]


class InstanceError(ValueError):
    """A malformed instance file; ``field`` is the offending entry."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class Instance:
    map: ConeMap
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    functionals: tuple[tuple[ConstraintFunctional, float], ...] = ()


def _expect(obj, types, field: str, what: str):
    if not isinstance(obj, types):
        raise InstanceError(field, f"expected {what}, got {type(obj).__name__}")
    return obj


def _int(obj, field: str, minimum: int | None = None) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise InstanceError(field, f"expected an integer, got {type(obj).__name__}")
    if minimum is not None and obj < minimum:
        raise InstanceError(field, f"must be at least {minimum}")
    return obj


def _matrix(obj, field: str) -> np.ndarray:
    rows = _expect(obj, list, field, "a list of rows")
    if not rows:
        raise InstanceError(field, "matrix has no rows")
    out = []
    width = None
    for i, row in enumerate(rows):
        row = _expect(row, list, f"{field}[{i}]", "a list of numbers")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InstanceError(f"{field}[{i}]", f"row length {len(row)} != {width}")
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
                raise InstanceError(f"{field}[{i}][{j}]", "entries must be finite numbers")
        out.append([float(v) for v in row])
    if width == 0:
        raise InstanceError(field, "rows are empty")
    return np.array(out)


def _vector(obj, field: str) -> np.ndarray:
    vals = _expect(obj, list, field, "a list of numbers")
    if not vals:
        raise InstanceError(field, "vector is empty")
    for j, v in enumerate(vals):
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise InstanceError(f"{field}[{j}]", "entries must be finite numbers")
    return np.array([float(v) for v in vals])


def _norm_tag(obj, field: str) -> NormTag:
    name = _expect(obj, str, field, "a norm tag")
    try:
        return NormTag(name)
    except ValueError:
        raise InstanceError(field, f"unknown norm {name!r}; use l1, l2, or linf") from None


_CONE_KEYS = {
    "orthant": {"dim"},
    "halfspaces": {"rows"},
    "generators": {"generators"},
    "second_order": {"dim"},
    "negation": {"inner"},
    "product": {"parts"},
}


def _parse_cone(obj, field: str) -> _cones.Cone:
    obj = _expect(obj, dict, field, "a cone description object")
    variant = _expect(obj.get("variant"), str, f"{field}.variant", "a variant name")
    if variant not in _CONE_KEYS:
        raise InstanceError(f"{field}.variant",
                            f"unknown variant {variant!r}; use one of {sorted(_CONE_KEYS)}")
    extra = set(obj) - {"variant"} - _CONE_KEYS[variant]
    if extra:
        raise InstanceError(f"{field}.{sorted(extra)[0]}",
                            f"not a field of variant {variant!r}")
    missing = _CONE_KEYS[variant] - set(obj)
    if missing:
        raise InstanceError(f"{field}.{sorted(missing)[0]}",
                            f"required by variant {variant!r}")
    try:
        if variant == "orthant":
            return _cones.Orthant(_int(obj["dim"], f"{field}.dim", minimum=1))
        if variant == "halfspaces":
            return _cones.Halfspaces(_matrix(obj["rows"], f"{field}.rows"))
        if variant == "generators":
            # one generator per row in the file; stored as columns
            return _cones.Generators(_matrix(obj["generators"], f"{field}.generators").T)
        if variant == "second_order":
            return _cones.SecondOrder(_int(obj["dim"], f"{field}.dim", minimum=2))
        if variant == "negation":
            return _cones.Negation(_parse_cone(obj["inner"], f"{field}.inner"))
        parts = _expect(obj["parts"], list, f"{field}.parts", "a list of cones")
        if not parts:
            raise InstanceError(f"{field}.parts", "needs at least one part")
        return _cones.Product(tuple(
            _parse_cone(p, f"{field}.parts[{i}]") for i, p in enumerate(parts)))
    except InstanceError:
        raise
    except ValueError as e:
        raise InstanceError(field, str(e)) from None


def _parse_functional(obj, field: str, dim: int) -> tuple[ConstraintFunctional, float]:
    obj = _expect(obj, dict, field, "a functional description object")
    if "bound" not in obj:
        raise InstanceError(f"{field}.bound", "every functional needs a bound")
    bound = obj["bound"]
    if isinstance(bound, bool) or not isinstance(bound, (int, float)) or not math.isfinite(bound):
        raise InstanceError(f"{field}.bound", "must be a finite number")
    keys = set(obj) - {"bound"}
    if keys == {"vector"}:
        vec = _vector(obj["vector"], f"{field}.vector")
        if vec.shape[0] != dim:
            raise InstanceError(f"{field}.vector", f"length {vec.shape[0]} != domain dim {dim}")
        return ConstraintFunctional.linear(vec), float(bound)
    if keys == {"matrix", "norm"}:
        mat = _matrix(obj["matrix"], f"{field}.matrix")
        if mat.shape[1] != dim:
            raise InstanceError(f"{field}.matrix", f"{mat.shape[1]} columns != domain dim {dim}")
        return ConstraintFunctional.seminorm(mat, _norm_tag(obj["norm"], f"{field}.norm")), float(bound)
    raise InstanceError(field, "give either 'vector' or 'matrix' plus 'norm', with a bound")


def _parse_sampler(obj, field: str) -> SamplerConfig:
    obj = _expect(obj, dict, field, "a sampler configuration object")
    known = {"directions", "search_directions", "seed", "refine_steps", "vertex_cap"}
    extra = set(obj) - known
    if extra:
        raise InstanceError(f"{field}.{sorted(extra)[0]}", "not a sampler knob")
    base = SamplerConfig()
    return SamplerConfig(
        directions=_int(obj.get("directions", base.directions), f"{field}.directions", 1),
        search_directions=_int(obj.get("search_directions", base.search_directions),
                               f"{field}.search_directions", 1),
        seed=_int(obj.get("seed", base.seed), f"{field}.seed", 0),
        refine_steps=_int(obj.get("refine_steps", base.refine_steps), f"{field}.refine_steps", 0),
        vertex_cap=_int(obj.get("vertex_cap", base.vertex_cap), f"{field}.vertex_cap", 1),
    )


def parse_instance(source: str | dict, name: str = "<file>") -> Instance:
    """Build the cone map an instance file describes.

    Accepts the JSON text or an already-decoded object.  Raises
    InstanceError naming the offending field on any problem; errors
    that concern the document as a whole are filed under `name`.
    """
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as e:
            raise InstanceError(name, f"not valid JSON: {e}") from None
    else:
        data = source
    data = _expect(data, dict, name, "a JSON object")

    known = {"dimension", "norm", "cones", "map", "combine", "functionals", "sampler"}
    extra = set(data) - known
    if extra:
        raise InstanceError(sorted(extra)[0], "unknown field")
    for key in ("dimension", "norm", "cones"):
        if key not in data:
            raise InstanceError(key, "required field is missing")

    dim = _int(data["dimension"], "dimension", minimum=1)
    tag = _norm_tag(data["norm"], "norm")
    cone_list = _expect(data["cones"], list, "cones", "a list of cone descriptions")
    if not cone_list:
        raise InstanceError("cones", "needs at least one cone")
    parts = [_parse_cone(c, f"cones[{i}]") for i, c in enumerate(cone_list)]

    combine = data.get("combine", "direct_sum" if "map" not in data else "product")
    if combine not in ("direct_sum", "product"):
        raise InstanceError("combine", "must be 'direct_sum' or 'product'")

    if "map" in data:
        T = _matrix(data["map"], "map")
        if T.shape[0] != dim:
            raise InstanceError("map", f"{T.shape[0]} rows != dimension {dim}")
    else:
        for i, p in enumerate(parts):
            if p.ambient_dim != dim:
                raise InstanceError(f"cones[{i}]",
                                    f"summing-map cones must live in dimension {dim}, "
                                    f"this one has {p.ambient_dim}")
        T = np.hstack([np.eye(dim)] * len(parts))

    try:
        if len(parts) == 1:
            cone = parts[0]
        elif combine == "direct_sum":
            cone = _cones.DirectSumL1(tuple(parts))
        else:
            cone = _cones.Product(tuple(parts))
    except ValueError as e:
        raise InstanceError("cones", str(e)) from None
    if cone.ambient_dim != T.shape[1]:
        raise InstanceError("map", f"{T.shape[1]} columns != total cone dimension "
                                   f"{cone.ambient_dim}")

    functionals = ()
    if "functionals" in data:
        fl = _expect(data["functionals"], list, "functionals", "a list of functionals")
        functionals = tuple(
            _parse_functional(f, f"functionals[{i}]", cone.ambient_dim)
            for i, f in enumerate(fl))

    sampler = _parse_sampler(data["sampler"], "sampler") if "sampler" in data else SamplerConfig()

    try:
        cmap = ConeMap(T, cone, codomain_norm=tag,
                       domain_norm=_cones.space_norm(cone, tag))
    except ValueError as e:
        raise InstanceError("map", str(e)) from None
    return Instance(map=cmap, sampler=sampler, functionals=functionals)


def load_instance(path) -> Instance:
    with open(path, encoding="utf-8") as fh:
        return parse_instance(fh.read(), name=str(path))


def random_polyhedral_instance(seed: int, surjective: bool | None = None) -> dict:
    """A random desk-scale polyhedral instance, as a JSON-ready dict.

    Dimension up to 4, at most 8 generators, polyhedral codomain norms so
    every sphere scan is a finite vertex scan.  With surjective=True the
    generators include all signed axes and must cover; with False they stay
    inside a closed halfspace and cannot.  None alternates by seed parity.
    """
    rng = np.random.default_rng(seed)
    if surjective is None:
        surjective = seed % 2 == 0
    d = int(rng.integers(2, 5))
    norm = str(rng.choice(["l1", "linf"]))
    if surjective:
        extra = int(rng.integers(0, 9 - 2 * d)) if d < 4 else 0
        gens = np.vstack([np.eye(d), -np.eye(d),
                          rng.normal(size=(extra, d))])
        scale = rng.uniform(0.5, 2.0, size=len(gens))
        gens = gens * scale[:, None]
    else:
        w = rng.normal(size=d)
        w /= np.linalg.norm(w)
        count = int(rng.integers(2, 9))
        raw = rng.normal(size=(count, d))
        # reflect into {x : <w, x> >= 0}; the cone misses every direction
        # with <w, x> < 0, so it cannot generate the space
        dots = raw @ w
        gens = raw - 2.0 * np.minimum(dots, 0.0)[:, None] * w[None, :]
    return {
        "dimension": d,
        "norm": norm,
        "cones": [{"variant": "generators",
                   "generators": [[float(v) for v in g] for g in gens]}],
        "map": [[1.0 if i == j else 0.0 for j in range(d)] for i in range(d)],
        "sampler": {"directions": 512, "search_directions": 96, "seed": seed},
    }
