"""Closed convex cone representations and their exact operations.

The cones here are closed but not necessarily proper: they may contain lines
(a halfspace is a perfectly good cone for our purposes) and need not have
interior.  Seven representations cover the desk-scale instances:

* ``Orthant(n)``          nonnegative orthant in R^n
* ``Halfspaces(A)``       {x : A x >= 0} for a stacked row matrix A
* ``Generators(G)``       {G lam : lam >= 0} for a column matrix G
* ``SecondOrder(n)``      {(t, y) in R x R^{n-1} : ||y||_2 <= t}
* ``Negation(C)``         -C
* ``Product(parts)``      cartesian product, ambient dims add
* ``DirectSumL1(parts)``  product as a set; the ambient norm is the l1 sum
                          of component norms (parts share one ambient space)

Membership is exact (up to a caller tolerance) for every representation;
projection is closed-form where a formula exists and a small nonnegative
least-squares solve (through the Moreau split) otherwise.  Duality maps polyhedral
representations onto each other: dual(Generators(G)) = Halfspaces(G^T) and
dual(Halfspaces(A)) = Generators(A^T), both instances of the Farkas lemma.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .norms import BlockNorm, NormTag
from . import projops

__all__ = [
    "Cone",
    "Orthant",
    "Halfspaces",
    "Generators",
    "SecondOrder",
    "Negation",
    "Product",
    "DirectSumL1",
    "contains",
    "project_l2",
    "dual",
    "combine",
    "space_norm",
    "is_polyhedral",
]


class Cone:
    """Base marker class; concrete variants are the dataclasses below."""

    @property
    def ambient_dim(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class Orthant(Cone):
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("Orthant dimension must be positive")

    @property
    def ambient_dim(self) -> int:
        return self.dim


@dataclass(frozen=True, eq=False)
class Halfspaces(Cone):
    """{x : rows @ x >= 0}.  Rows need not be independent."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise ValueError("Halfspaces needs at least one row")
        object.__setattr__(self, "rows", rows)

    @property
    def ambient_dim(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True, eq=False)
class Generators(Cone):
    """{columns @ lam : lam >= 0}.  Columns may be redundant."""

    columns: np.ndarray

    def __post_init__(self):
        cols = np.atleast_2d(np.asarray(self.columns, dtype=float))
        if cols.ndim != 2 or cols.shape[1] == 0:
            raise ValueError("Generators needs at least one column")
        object.__setattr__(self, "columns", cols)

    @property
    def ambient_dim(self) -> int:
        return self.columns.shape[0]


@dataclass(frozen=True)
class SecondOrder(Cone):
    """{x : x[0] >= ||x[1:]||_2}.  The scalar coordinate comes first."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("SecondOrder needs dimension >= 2")

    @property
    def ambient_dim(self) -> int:
        return self.dim


@dataclass(frozen=True)
class Negation(Cone):
    inner: Cone

    @property
    def ambient_dim(self) -> int:
        return self.inner.ambient_dim


@dataclass(frozen=True)
class Product(Cone):
    parts: tuple[Cone, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("Product needs at least one part")

    @property
    def ambient_dim(self) -> int:
        return sum(p.ambient_dim for p in self.parts)


@dataclass(frozen=True)
class DirectSumL1(Cone):
    """Product of cones over a common ambient space, carrying the l1-sum norm."""

    parts: tuple[Cone, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("DirectSumL1 needs at least one part")
        dims = {p.ambient_dim for p in self.parts}
        if len(dims) != 1:
            raise ValueError("DirectSumL1 parts must share one ambient space")

    @property
    def component_dim(self) -> int:
        return self.parts[0].ambient_dim

    @property
    def ambient_dim(self) -> int:
        return self.component_dim * len(self.parts)


def _blocks(cone: Product | DirectSumL1) -> list[tuple[int, int, Cone]]:
    out, at = [], 0
    for p in cone.parts:
        out.append((at, at + p.ambient_dim, p))
        at += p.ambient_dim
    return out


def is_polyhedral(cone: Cone) -> bool:
    if isinstance(cone, (Orthant, Halfspaces, Generators)):
        return True
    if isinstance(cone, SecondOrder):
        return False
    if isinstance(cone, Negation):
        return is_polyhedral(cone.inner)
    return all(is_polyhedral(p) for p in cone.parts)


def space_norm(cone: Cone, tag: NormTag) -> BlockNorm:
    """Ambient norm induced by the cone's structure and a component tag.

    DirectSumL1 carries the l1 sum of per-part tagged norms; every other
    representation lives in a flat tagged space.
    """
    if isinstance(cone, DirectSumL1):
        return BlockNorm(tuple((a, b, tag) for a, b, _ in _blocks(cone)))
    return BlockNorm.flat(cone.ambient_dim, tag)


def contains(cone: Cone, x: np.ndarray, tol: float = 1e-9) -> bool:
    """Membership test.  Exact inequality evaluation for Orthant and
    Halfspaces, the projection formula for SecondOrder, and a nonnegative
    least-squares distance for Generators."""
    x = np.asarray(x, dtype=float)
    if x.shape != (cone.ambient_dim,):
        raise ValueError(f"expected vector of dim {cone.ambient_dim}, got shape {x.shape}")
    if isinstance(cone, Orthant):
        return bool(np.all(x >= -tol))
    if isinstance(cone, Halfspaces):
        scale = np.maximum(np.linalg.norm(cone.rows, axis=1), 1.0)
        return bool(np.all(cone.rows @ x >= -tol * scale))
    if isinstance(cone, SecondOrder):
        return float(x[0]) >= float(np.linalg.norm(x[1:])) - tol
    if isinstance(cone, Negation):
        return contains(cone.inner, -x, tol)
    if isinstance(cone, (Product, DirectSumL1)):
        return all(contains(p, x[a:b], tol) for a, b, p in _blocks(cone))
    if isinstance(cone, Generators):
        lam, resid = projops.nonneg_lstsq(cone.columns, x)
        return resid <= tol * max(1.0, float(np.linalg.norm(x)))
    raise TypeError(f"unknown cone variant {type(cone).__name__}")


def project_l2(cone: Cone, z: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the cone."""
    z = np.asarray(z, dtype=float)
    if z.shape != (cone.ambient_dim,):
        raise ValueError(f"expected vector of dim {cone.ambient_dim}, got shape {z.shape}")
    if isinstance(cone, Orthant):
        return projops.project_orthant(z)
    if isinstance(cone, SecondOrder):
        return projops.project_soc(z)
    if isinstance(cone, Negation):
        return -project_l2(cone.inner, -z)
    if isinstance(cone, (Product, DirectSumL1)):
        out = np.empty_like(z)
        for a, b, p in _blocks(cone):
            out[a:b] = project_l2(p, z[a:b])
        return out
    if isinstance(cone, Halfspaces):
        if np.all(cone.rows @ z >= 0.0):
            return z.copy()
        # Moreau: z = P_K(z) + P_polar(z), and the polar cone is generated by -rows
        lam, _ = projops.nonneg_lstsq(-cone.rows.T, z)
        return z + cone.rows.T @ lam
    if isinstance(cone, Generators):
        lam, _ = projops.nonneg_lstsq(cone.columns, z)
        return cone.columns @ lam
    raise TypeError(f"unknown cone variant {type(cone).__name__}")


def dual(cone: Cone) -> Cone:
    """Dual cone {y : <y, x> >= 0 for all x in the cone}.

    Polyhedral duality swaps the two finite descriptions; Orthant and
    SecondOrder are self-dual; Negation commutes with duality.  DirectSumL1
    is refused because its norm-level dual is not represented here (use the
    set-level Product form when only the point set matters).
    """
    if isinstance(cone, Orthant):
        return cone
    if isinstance(cone, SecondOrder):
        return cone
    if isinstance(cone, Generators):
        return Halfspaces(cone.columns.T)
    if isinstance(cone, Halfspaces):
        return Generators(cone.rows.T)
    if isinstance(cone, Negation):
        return Negation(dual(cone.inner))
    if isinstance(cone, Product):
        return Product(tuple(dual(p) for p in cone.parts))
    if isinstance(cone, DirectSumL1):
        raise ValueError("dual of DirectSumL1 is unsupported; take the Product of the parts")
    raise TypeError(f"unknown cone variant {type(cone).__name__}")


def combine(variant: str, parts: list[Cone] | tuple[Cone, ...]) -> Cone:
    """Assemble a compound cone.  variant is 'product' or 'direct_sum_l1'."""
    parts = tuple(parts)
    if variant == "product":
        return Product(parts)
    if variant == "direct_sum_l1":
        return DirectSumL1(parts)
    raise ValueError(f"unknown combine variant {variant!r}")
