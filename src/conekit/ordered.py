"""Ordered normed spaces and norm-controlled positive decompositions.

An ordered space is a normed space X with a closed cone X+ fixing the order.
Splitting x = p - m with p, m in X+ is the same as hitting x with the
summing map (p, q) -> p + q restricted to X+ x (-X+), so every question
about decomposition constants reduces to that one surjection:

    plain kind:  inf |p|           the positive part alone is controlled
    max kind:    inf max(|p|, |m|)
    sum kind:    inf (|p| + |m|)   the openness constant of the summing map

The kinds are ordered pointwise (plain <= max <= sum <= 2 max), the cone is
generating exactly when the summing map is onto, and a bound alpha on the
plain kind transfers to 2 alpha + 1 on the sum kind by taking m = p - x.

``ando_decompose`` itself does not optimize a kind: it evaluates the plain
minimal right inverse of the summing map, whose components are continuous
and positively homogeneous in x.  Conormality constants use the exact kind
objectives instead, because the Euclidean selection is generally suboptimal
for them.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from . import cones as _cones
from .conemap import ConeMap, SurjectivityReport
from .norms import NormTag
from .sampling import SamplerConfig, sphere_directions
from .selection import (
    ConstraintFunctional,
    CorrespondenceSpec,
    EmptyCorrespondence,
    RightInverse,
    selection_bound,
)

__all__ = [
    "ConormalityKind",
    "OrderedSpace",
    "AndoDecomposition",
    "summing_map",
    "is_generating",
    "ando_decompose",
    "decomposition_bound",
    "kind_objective",
    "decomposition_value",
    "conormality_constant",
    "ApproximateConormalityReport",
    "verify_approximate_conormality",
    "TransferReport",
    "verify_conormality_transfer",
]


class ConormalityKind(str, Enum):
    PLAIN = "plain"
    MAX = "max"
    SUM = "sum"


@dataclass(frozen=True, eq=False)
class OrderedSpace:
    """A normed space with a closed order cone in the same coordinates."""

    positive: _cones.Cone
    norm: NormTag = NormTag.L2

    @property
    def dim(self) -> int:
        return self.positive.ambient_dim

    @cached_property
    def _summing_map(self) -> ConeMap:
        """The summing map, built once so repeated decompositions share its compiled selection."""
        return summing_map(self)

    def holds_order(self, a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
        """a <= b in the cone order."""
        return _cones.contains(self.positive, np.asarray(b, float) - np.asarray(a, float), tol=tol)


@dataclass(frozen=True)
class AndoDecomposition:
    """x = plus - minus with both parts in the positive cone."""

    plus: np.ndarray
    minus: np.ndarray
    source: np.ndarray

    def defect(self) -> float:
        return float(np.max(np.abs(self.plus - self.minus - self.source), initial=0.0))


def summing_map(space: OrderedSpace) -> ConeMap:
    """(p, q) -> p + q on X+ x (-X+), the map behind every decomposition.

    The domain carries the l1-sum of the space norm on the two summands, so
    the openness constant of this map is the sum-kind decomposition constant.
    """
    d = space.dim
    cone = _cones.DirectSumL1((space.positive, _cones.Negation(space.positive)))
    T = np.hstack([np.eye(d), np.eye(d)])
    return ConeMap(T, cone, codomain_norm=space.norm,
                   domain_norm=_cones.space_norm(cone, space.norm))


def is_generating(space: OrderedSpace) -> SurjectivityReport:
    """Does X+ - X+ fill the space?  Decided on the signed axes for every
    closed convex cone (see ``ConeMap.is_surjective``)."""
    return space._summing_map.is_surjective()


def positive_part_functional(space: OrderedSpace) -> ConstraintFunctional:
    """rho((p, q)) = |p|, the seminorm watching the positive summand."""
    d = space.dim
    return ConstraintFunctional.seminorm(
        np.hstack([np.eye(d), np.zeros((d, d))]), space.norm)


def ando_decompose(space: OrderedSpace, x: np.ndarray,
                   spec: CorrespondenceSpec | None = None) -> AndoDecomposition:
    """Decompose via the minimal right inverse of the summing map.

    The Euclidean objective decouples coordinates on lattice cones, giving
    the componentwise positive and negative parts there.  An optional spec
    switches to the constrained selection (same map required).  Raises on
    non-generating orders where x has no decomposition.  The space keeps
    one summing map, so repeated calls share its compiled selection.
    """
    x = np.asarray(x, dtype=float)
    cm = spec.map if spec is not None else space._summing_map
    c = RightInverse(cm, spec)(x)
    d = space.dim
    return AndoDecomposition(plus=c[:d].copy(), minus=-c[d:], source=x)


def decomposition_bound(space: OrderedSpace, config: SamplerConfig | None = None) -> float:
    """Sampled constant K with |plus| + |minus| <= K |x| for ando_decompose."""
    return selection_bound(RightInverse(space._summing_map), config)


def kind_objective(space: OrderedSpace, kind: ConormalityKind):
    """Per-point optimal decomposition cost of the kind, as a callable.

    Returns value(x) = inf over decompositions x = p - m of the kind's
    objective, inf when x has none; a 2-D X gives an array of one value
    per row from one sweep call.  Batch callers reuse the callable: the
    sum and plain kinds each share a sweep, and the max kind a program,
    compiled once for the space's summing map.
    """
    values = space._summing_map._kind_objective(kind)
    return lambda x: values(x) if np.ndim(x) > 1 else float(values(x)[0])


def decomposition_value(space: OrderedSpace, x: np.ndarray,
                        kind: ConormalityKind = ConormalityKind.SUM) -> float:
    """inf over decompositions x = p - m of the kind objective, once."""
    return kind_objective(space, kind)(np.asarray(x, dtype=float))


def conormality_constant(space: OrderedSpace, kind: ConormalityKind = ConormalityKind.SUM,
                         config: SamplerConfig | None = None) -> float:
    """Worst decomposition cost over the unit sphere, by kind.

    inf when the cone is not generating.  Polyhedral space norms are scanned
    over exact ball vertices; the Euclidean sphere adds local refinement.
    """
    return space._summing_map._kind_sup(kind, config or SamplerConfig()).value


@dataclass(frozen=True)
class ApproximateConormalityReport:
    """Per-slack verdicts for the decomposition maps at a claimed alpha.

    Each entry is (epsilon, passed, worst positive-part ratio, worst
    direction, witness): when the claimed alpha admits decompositions with
    |p| <= (alpha + eps)|x| everywhere on the sampled sphere the entry
    passes; otherwise the witness is a direction whose correspondence came
    up empty.
    """

    alpha: float
    entries: tuple[tuple[float, bool, float, np.ndarray, np.ndarray | None], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _, _, _ in self.entries)


def verify_approximate_conormality(space: OrderedSpace, alpha: float,
                                   epsilons=(0.1, 0.01),
                                   config: SamplerConfig | None = None,
                                   ) -> ApproximateConormalityReport:
    """Check that alpha works as an approximate plain-conormality constant.

    For each slack eps > 0, builds the constrained decomposition maps with
    |p| <= (alpha + eps)|x| and the total norm capped at 2 alpha + 1 + eps
    (the cap a plain bound always implies), evaluates them on sampled unit
    directions, and validates the difference identity and the positive-part
    bound.  alpha below the true constant turns up an empty correspondence;
    the witness direction lands in the report.
    """
    config = config or SamplerConfig()
    cm = space._summing_map
    rho = positive_part_functional(space)
    norm_cap = ConstraintFunctional.seminorm(np.eye(cm.domain_dim), cm.domain_norm)
    dirs = sphere_directions(space.dim, space.norm, config.search())
    entries = []
    for eps in epsilons:
        spec = CorrespondenceSpec(cm, ((rho, alpha), (norm_cap, 2.0 * alpha + 1.0)), slack=eps)
        worst = 0.0
        worst_dir = dirs[0]
        witness = None
        ok = True
        for x in dirs:
            try:
                dec = ando_decompose(space, x, spec)
            except EmptyCorrespondence as empty:
                ok = False
                witness = empty.target
                break
            ratio = float(space.norm.of(dec.plus)) / float(space.norm.of(x))
            if dec.defect() > 1e-7 or ratio > alpha + eps + 1e-7:
                ok = False
                witness = np.asarray(x, dtype=float)
                break
            if ratio > worst:
                worst, worst_dir = ratio, np.asarray(x, dtype=float)
        entries.append((float(eps), ok, worst, worst_dir, witness))
    return ApproximateConormalityReport(alpha=float(alpha), entries=tuple(entries))


@dataclass(frozen=True)
class TransferReport:
    """Plain-to-sum transfer: a plain bound alpha caps the sum kind by
    2 alpha + 1 (decompose with |p| <= alpha |x|, then |m| = |p - x|)."""

    plain: float
    sum: float
    bound: float
    holds: bool


def verify_conormality_transfer(space: OrderedSpace, config: SamplerConfig | None = None,
                                slack: float = 1e-7) -> TransferReport:
    """Measure both constants and check sum <= 2 plain + 1."""
    plain = conormality_constant(space, ConormalityKind.PLAIN, config)
    total = conormality_constant(space, ConormalityKind.SUM, config)
    bound = 2.0 * plain + 1.0
    return TransferReport(plain=plain, sum=total, bound=bound,
                          holds=bool(total <= bound * (1.0 + slack) + slack))
