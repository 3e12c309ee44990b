"""Norm tags and block-structured ambient norms.

Every space in this package is a finite-dimensional real vector space carrying
one of the classical norms (l1, l2, linf), possibly assembled as an l1-sum of
tagged blocks.  The l1-sum structure is what a direct sum of copies of a space
carries: ``|(c_1, ..., c_k)| = sum_i |c_i|``.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product as _iterproduct

import numpy as np

__all__ = ["NormTag", "BlockNorm", "operator_norm_upper"]


class NormTag(str, Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"

    def of(self, v: np.ndarray) -> float:
        v = np.asarray(v, dtype=float)
        if self is NormTag.L1:
            return float(np.sum(np.abs(v)))
        if self is NormTag.L2:
            return float(np.linalg.norm(v))
        return float(np.max(np.abs(v))) if v.size else 0.0

    @property
    def is_polyhedral(self) -> bool:
        return self is not NormTag.L2


@dataclass(frozen=True)
class BlockNorm:
    """l1-sum of tagged norms over consecutive coordinate blocks.

    ``blocks`` is a tuple of ``(start, stop, tag)`` triples covering
    ``range(0, dim)`` without gaps.  A single block is an ordinary flat norm.
    """

    blocks: tuple[tuple[int, int, NormTag], ...]

    @staticmethod
    def flat(dim: int, tag: NormTag) -> "BlockNorm":
        return BlockNorm(((0, dim, tag),))

    @property
    def dim(self) -> int:
        return self.blocks[-1][1] if self.blocks else 0

    @property
    def is_flat(self) -> bool:
        return len(self.blocks) == 1

    @property
    def is_polyhedral(self) -> bool:
        return all(tag.is_polyhedral for _, _, tag in self.blocks)

    def of(self, v: np.ndarray) -> float:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"expected vector of dim {self.dim}, got shape {v.shape}")
        return sum(tag.of(v[a:b]) for a, b, tag in self.blocks)

    def dual_of(self, v: np.ndarray) -> float:
        """The dual norm sup{<v, c> : |c| <= 1}: the largest dual block norm
        (l1 and linf swap, l2 is its own)."""
        swap = {NormTag.L1: NormTag.LINF, NormTag.LINF: NormTag.L1}
        return max(swap.get(tag, tag).of(v[a:b]) for a, b, tag in self.blocks)

    def unit(self, v: np.ndarray) -> np.ndarray:
        """v scaled to norm one.  v must be nonzero."""
        n = self.of(v)
        if n <= 0.0:
            raise ValueError("cannot normalize the zero vector")
        return np.asarray(v, dtype=float) / n


def _flat_operator_norm_upper(A: np.ndarray, dom: NormTag, cod: NormTag) -> float:
    """Upper bound on sup { |A v|_cod : |v|_dom <= 1 }.

    Exact for the pairs where the extreme points of the domain ball are
    enumerable at desk scale:

    * dom = l1: ball vertices are +-e_j, so the bound is the max cod-norm of a
      column.
    * dom = l2, cod = l2: largest singular value.
    * dom = l2, cod = linf: max row l2 norm (Cauchy-Schwarz, attained).
    * dom = l2, cod = l1: max over sign vectors s of |A^T s|_2 (attained),
      enumerated when the row count is small.
    * dom = linf: ball vertices are sign vectors, enumerated when the column
      count is small.

    Falls back to the Frobenius norm times the l2-equivalence constant of the
    domain norm, which is always a valid upper bound.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    d, n = A.shape
    if dom is NormTag.L1:
        return max(cod.of(A[:, j]) for j in range(n)) if n else 0.0
    if dom is NormTag.L2:
        if cod is NormTag.L2:
            return float(np.linalg.norm(A, 2)) if A.size else 0.0
        if cod is NormTag.LINF:
            return float(np.max(np.linalg.norm(A, axis=1))) if A.size else 0.0
        if d <= 14:
            best = 0.0
            for signs in _iterproduct((-1.0, 1.0), repeat=d):
                best = max(best, float(np.linalg.norm(A.T @ np.array(signs))))
            return best
    if dom is NormTag.LINF and n <= 14:
        best = 0.0
        for signs in _iterproduct((-1.0, 1.0), repeat=n):
            best = max(best, cod.of(A @ np.array(signs)))
        return best
    # |v|_2 <= sqrt(dim) |v|_inf and |v|_2 <= |v|_1; |Av|_cod <= |Av|_1 <= sqrt(d)|A|_F |v|_2
    l2_factor = np.sqrt(n) if dom is NormTag.LINF else 1.0
    cod_factor = np.sqrt(d) if cod is NormTag.L1 else 1.0
    return float(cod_factor * np.linalg.norm(A, "fro") * l2_factor)


def operator_norm_upper(A: np.ndarray, dom: BlockNorm, cod: NormTag) -> float:
    """Valid upper bound on the induced norm of A : (R^n, dom) -> (R^d, cod).

    On an l1-sum domain the unit ball is the convex hull of the per-block unit
    balls embedded at the block coordinates, so the supremum over the ball is
    the max of the per-block induced norms.  That reduction is exact; the
    per-block bounds are exact in the cases listed in the flat helper.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return max(_flat_operator_norm_upper(A[:, a:b], tag, cod) for a, b, tag in dom.blocks)
