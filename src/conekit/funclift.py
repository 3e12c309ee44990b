"""Pointwise lifting of decompositions to sampled function spaces.

A function f with values in X decomposes across a family of cones by
applying a right inverse of the summing map at every sample point:
f_i := (i-th block of gamma) composed with f.  Because gamma is continuous,
positively homogeneous, single-valued, and norm-controlled, the lift
inherits five properties that make it a genuine decomposition of f:

    1. f(w) = sum_i f_i(w), with sum_i |f_i(w)| <= K |f(w)| at every sample
    2. |f_i|_sup <= K |f|_sup
    3. the support of each f_i sits inside the support of f
    4. decay at the designated tail samples is inherited with the same K
    5. lambda1 f(w1) = lambda2 f(w2) forces lambda1 f_i(w1) = lambda2 f_i(w2)

Sample spaces here are finite labeled point sets; a subset of labels can be
flagged as the tail, standing in for neighborhoods of infinity.  Property 4
is then the pointwise inequality restricted to those labels, and property 3
reads supports as plain zero sets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import cones as _cones
from .norms import BlockNorm, NormTag
from .ordered import ConormalityKind, OrderedSpace, kind_objective
from .sampling import SamplerConfig
from .selection import EmptyCorrespondence, RightInverse, selection_bound

__all__ = [
    "SampledSpace",
    "SampledFunction",
    "LiftInfeasible",
    "PropertyCheck",
    "LiftReport",
    "LiftResult",
    "lift",
    "pointwise_recover",
    "function_space_conormality",
]


@dataclass(frozen=True)
class SampledSpace:
    """A finite labeled point set, with an optional tail.

    Labels are opaque identifiers; the tail subset marks samples standing
    in for the complement of compact sets, where decay is tracked.
    """

    labels: tuple[str, ...]
    tail: frozenset = frozenset()

    def __post_init__(self):
        labels = tuple(str(s) for s in self.labels)
        if len(set(labels)) != len(labels):
            raise ValueError("sample labels must be unique")
        tail = frozenset(str(s) for s in self.tail)
        stray = tail - set(labels)
        if stray:
            raise ValueError(f"tail labels not among the samples: {sorted(stray)}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "tail", tail)

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown sample label {label!r}") from None


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Vector values attached to the samples, one row per label."""

    space: SampledSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if v.shape[0] != len(self.space):
            raise ValueError(f"{v.shape[0]} value rows for {len(self.space)} samples")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def value(self, label: str) -> np.ndarray:
        return self.values[self.space.index(label)]

    def sup_norm(self, norm: NormTag | BlockNorm) -> float:
        return max((float(norm.of(v)) for v in self.values), default=0.0)

    def support(self, tol: float = 0.0) -> tuple[str, ...]:
        return tuple(s for s, v in zip(self.space.labels, self.values)
                     if float(np.max(np.abs(v), initial=0.0)) > tol)

    def scaled(self, t: float) -> "SampledFunction":
        return SampledFunction(self.space, t * self.values)


class LiftInfeasible(ArithmeticError):
    """Some sample value has no admissible preimage; the cones don't generate."""

    def __init__(self, label: str, target: np.ndarray):
        self.label = label
        self.target = np.asarray(target, dtype=float)
        super().__init__(f"no admissible lift at sample {label!r}")


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    worst: float
    where: str


@dataclass(frozen=True)
class LiftReport:
    """The five lift properties, measured on the actual samples."""

    constant: float
    checks: tuple[PropertyCheck, ...]

    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> PropertyCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class LiftResult:
    components: tuple[SampledFunction, ...]
    stacked: SampledFunction
    report: LiftReport


def _component_blocks(cone: _cones.Cone) -> list[tuple[int, int]]:
    if isinstance(cone, (_cones.Product, _cones.DirectSumL1)):
        return [(a, b) for a, b, _ in _cones._blocks(cone)]
    return [(0, cone.ambient_dim)]


def _slice_norm(bn: BlockNorm, a: int, b: int):
    """Norm of a vector supported on coordinates [a, b), as a function of the
    slice alone.  Restriction is exact: each tagged piece of the l1 sum only
    sees its own coordinates."""
    pieces = [(max(a, s), min(b, t), tag) for s, t, tag in bn.blocks if min(b, t) > max(a, s)]

    def norm(v: np.ndarray) -> float:
        return sum(tag.of(v[s - a:t - a]) for s, t, tag in pieces)

    return norm


def _ray_pairs(values: np.ndarray, tol: float = 1e-12):
    """Index pairs (i, j, t) with values[j] = t * values[i], t > 0."""
    norms = np.linalg.norm(values, axis=1)
    out = []
    for i in range(values.shape[0]):
        if norms[i] <= tol:
            continue
        for j in range(i + 1, values.shape[0]):
            if norms[j] <= tol:
                continue
            t = norms[j] / norms[i]
            if np.max(np.abs(values[j] - t * values[i])) <= tol * max(1.0, norms[j]):
                out.append((i, j, float(t)))
    return out


def lift(ri: RightInverse, f: SampledFunction, constant: float | None = None,
         config: SamplerConfig | None = None, tol: float = 1e-8) -> LiftResult:
    """Apply the selection at every sample and certify the five properties.

    ``constant`` is the K of the property bounds; by default it is the
    sampled supremum of the selection's domain norm on the unit sphere.
    The per-block components use the cone's own block structure, so for a
    summing map over {C_i} the i-th component is valued in C_i.
    """
    cmap = ri.map
    if f.dim != cmap.codomain_dim:
        raise ValueError("function values do not live in the codomain of the map")

    stacked_values = np.empty((len(f.space), cmap.domain_dim))
    for i, x in enumerate(f.values):
        try:
            stacked_values[i] = ri(x)
        except EmptyCorrespondence:
            raise LiftInfeasible(f.space.labels[i], x) from None
    stacked = SampledFunction(f.space, stacked_values)
    # default K after the sample loop, so infeasible data is blamed on its label
    K = float(constant) if constant is not None else selection_bound(ri, config)

    blocks = _component_blocks(cmap.cone)
    components = tuple(SampledFunction(f.space, stacked_values[:, a:b]) for a, b in blocks)
    block_norms = [_slice_norm(cmap.domain_norm, a, b) for a, b in blocks]

    in_norm = cmap.codomain_norm
    labels = f.space.labels
    fnorms = np.array([float(in_norm.of(v)) for v in f.values])
    gsums = np.array([float(cmap.domain_norm.of(g)) for g in stacked_values])

    def worst_at(excess: np.ndarray, idx=None) -> tuple[float, str]:
        if idx is not None:
            if len(idx) == 0:
                return 0.0, ""
            excess = excess[idx]
            names = [labels[i] for i in idx]
        else:
            names = list(labels)
        k = int(np.argmax(excess))
        return float(excess[k]), names[k]

    # 1: pointwise sum identity plus the summed norm bound
    sum_defect = np.array([
        float(np.max(np.abs(cmap.matrix @ stacked_values[i] - f.values[i]), initial=0.0))
        for i in range(len(labels))
    ])
    bound_excess = gsums - K * fnorms
    w1 = np.maximum(sum_defect, bound_excess)
    worst1, where1 = worst_at(w1)
    checks = [PropertyCheck("pointwise sum", worst1 <= tol * max(1.0, K), worst1, where1)]

    # 2: sup-norm bound per component
    sup_in = float(np.max(fnorms, initial=0.0))
    worst2, where2 = 0.0, ""
    for bn, (a, b), comp in zip(block_norms, blocks, components):
        sups = np.array([float(bn(v)) for v in comp.values])
        k = int(np.argmax(sups)) if len(sups) else 0
        excess = float(sups[k]) - K * sup_in
        if excess > worst2:
            worst2, where2 = excess, labels[k]
    checks.append(PropertyCheck("sup-norm bound", worst2 <= tol * max(1.0, K), worst2, where2))

    # 3: support containment, read on exact zero sets
    zero_idx = np.nonzero(fnorms <= tol)[0]
    worst3, where3 = worst_at(gsums, zero_idx)
    checks.append(PropertyCheck("support containment", worst3 <= tol, worst3, where3))

    # 4: tail decay with the same constant
    tail_idx = np.array([i for i, s in enumerate(labels) if s in f.space.tail], dtype=int)
    worst4, where4 = worst_at(bound_excess, tail_idx)
    checks.append(PropertyCheck("tail decay", worst4 <= tol * max(1.0, K), worst4, where4))

    # 5: consistency across samples on a common ray
    worst5, where5 = 0.0, ""
    for i, j, t in _ray_pairs(f.values):
        gap = float(np.max(np.abs(stacked_values[j] - t * stacked_values[i]), initial=0.0))
        if gap > worst5:
            worst5, where5 = gap, f"{labels[i]}~{labels[j]}"
    scale5 = max(1.0, float(np.max(np.abs(stacked_values), initial=0.0)))
    checks.append(PropertyCheck("scaling consistency", worst5 <= tol * scale5, worst5, where5))

    return LiftResult(components=components, stacked=stacked,
                      report=LiftReport(constant=K, checks=tuple(checks)))


def pointwise_recover(parts: Sequence[SampledFunction], label: str, peak: float,
                      cones: Sequence[_cones.Cone] | None = None,
                      tol: float = 1e-8) -> list[np.ndarray]:
    """Evaluate a function-space decomposition at one sample and rescale.

    If sum_i parts_i = peak_fn (x) pointwise for a scalar bump peak_fn with
    peak_fn(label) = peak != 0, the returned vectors c_i = parts_i(label)/peak
    decompose x across the cones.  Membership is verified when the cones are
    given; a violation names the offending component.
    """
    if peak == 0.0:
        raise ValueError("the bump value at the chosen sample must be nonzero")
    out = [np.asarray(p.value(label), dtype=float) / float(peak) for p in parts]
    if cones is not None:
        for i, (c, cone) in enumerate(zip(out, cones)):
            ref = max(1.0, float(np.linalg.norm(c)))
            if not _cones.contains(cone, c, tol=tol * ref):
                raise ValueError(f"component {i} leaves its cone at sample {label!r}")
    return out


def function_space_conormality(space: OrderedSpace, functions: Sequence[SampledFunction],
                               kind: ConormalityKind = ConormalityKind.PLAIN) -> float:
    """Decomposition constant over a set of sampled functions.

    For each function, decompose optimally at every sample and compare the
    worst per-sample kind objective against the sup norm; the result is the
    sup of those ratios.  Plain and max objectives interchange with the sup
    over samples, so this matches the value-space constant exactly; the sum
    kind is the pointwise surrogate, exact on constant functions.
    """
    value = kind_objective(space, kind)
    ratios = []
    for f in functions:
        if f.dim != space.dim:
            raise ValueError("function values do not live in the ordered space")
        sup_in = f.sup_norm(space.norm)
        if sup_in <= 0.0:
            continue
        worst = float(value(f.values).max())  # one sweep call for the function's samples
        if math.isinf(worst):
            return math.inf
        ratios.append(worst / sup_in)
    if not ratios:
        raise ValueError("need at least one nonzero test function")
    return float(max(ratios))
