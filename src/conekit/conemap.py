"""Linear maps restricted to cones, and how open they are.

A ConeMap is a matrix T together with a closed convex cone C in its domain.
The object of interest is the restriction T|_C and the quantities that
control surjectivity of T(C) onto the codomain:

    m(x)  = min { |c|_Y : T c = x, c in C }        preimage gauge
    K     = sup { m(x) : |x|_X = 1 }               openness constant
    r     = sup { t : t B_X subset of T(C ∩ B_Y) } interior radius

m is convex and positively homogeneous, finite everywhere exactly when T
maps C onto the codomain, and then K < inf with r K = 1.  The symmetrized
gauge max(m(x), m(-x)) is an equivalent norm on the codomain sandwiched
between |x|/M and K |x|, where M bounds the operator norm of T.

Surjectivity is decided on the 2 d signed axes for every closed convex
cone, polyhedral or curved, with a checked Farkas certificate when not onto.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import cones as _cones
from . import solver as _solver
from .norms import BlockNorm, NormTag, operator_norm_upper
from .sampling import SamplerConfig, refine_on_sphere, search_grid, sphere_sup

__all__ = ["ConeMap", "SurjectivityReport"]


@dataclass
class SurjectivityReport:
    """The verdict of ``ConeMap.is_surjective``, decided on the signed axes.
    When T(C) is not the codomain, ``functional`` is an f with <f, T c> >= 0
    on C, built from checked Farkas certificates, and ``unreachable`` is -f,
    a point that T(C) misses."""

    surjective: bool
    functional: np.ndarray | None = None
    unreachable: np.ndarray | None = None
    note: str = ""


@dataclass(frozen=True, eq=False)
class ConeMap:
    """T : Y -> X restricted to a cone C in Y.

    codomain_norm tags the norm on X used by all openness measurements;
    domain_norm defaults to the matching block norm on Y (per summand for a
    direct-sum domain, flat otherwise).
    """

    matrix: np.ndarray
    cone: _cones.Cone
    codomain_norm: NormTag = NormTag.L2
    domain_norm: BlockNorm | None = None

    def __post_init__(self):
        T = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if T.shape[1] != self.cone.ambient_dim:
            raise ValueError(
                f"matrix has {T.shape[1]} columns but the cone lives in dimension "
                f"{self.cone.ambient_dim}"
            )
        object.__setattr__(self, "matrix", T)
        dn = self.domain_norm
        if dn is None:
            dn = _cones.space_norm(self.cone, NormTag.L2)
        elif isinstance(dn, NormTag):
            dn = _cones.space_norm(self.cone, dn)
        if dn.dim != T.shape[1]:
            raise ValueError("domain norm dimension does not match the matrix")
        object.__setattr__(self, "domain_norm", dn)

    @property
    def codomain_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def domain_dim(self) -> int:
        return self.matrix.shape[1]

    def apply(self, c: np.ndarray, strict: bool = True) -> np.ndarray:
        """T c, refusing points outside the cone when strict."""
        c = np.asarray(c, dtype=float)
        if strict and not _cones.contains(self.cone, c, tol=1e-9 * max(1.0, float(np.linalg.norm(c)))):
            raise ValueError("point lies outside the domain cone")
        return self.matrix @ c

    # -- preimage gauge ----------------------------------------------------

    @cached_property
    def _sweep(self) -> _solver.MinNormSweep:
        """The map's one compiled slice: gauges, kinds, feasibility, projections."""
        return _solver.MinNormSweep(self.matrix, self.cone, self.domain_norm)

    def _kind(self, kind: str):
        """The sweep objective of a decomposition kind.

        Over a direct-sum domain with blocks c_1, c_2, ...: "openness" and
        "sum" cost sum_b |c_b| (the domain norm, so m itself), "max" costs
        max_b |c_b| and "plain" |c_1|.  Every kind is a program of the map's
        one compiled slice, and the conic driver solves all rows at once.
        """
        if kind in ("openness", "sum"):
            return "norm"
        if kind == "plain":
            a, b, tag = self.domain_norm.blocks[0]
            return np.eye(self.domain_dim)[a:b], tag
        if kind == "max":
            return "max"
        raise ValueError(f"unknown decomposition kind {kind!r}")

    def _kind_objective(self, kind: str):
        """X -> per row x, inf over preimages c of the kind's cost (inf if none)."""
        objective = self._kind(kind)
        return lambda X: self._sweep.values(X, objective)

    def _kind_sup(self, kind: str, config: SamplerConfig):
        """``sphere_sup`` of the kind's cost, looking ahead on a conic batch."""
        objective = self._kind(kind)
        return sphere_sup(lambda X: self._sweep.values(X, objective), self.codomain_dim,
                          self.codomain_norm, config, batched=self._sweep.batched(objective))

    def min_preimage(self, x: np.ndarray) -> _solver.Solution:
        """Smallest-norm cone point mapped to x, with certificate if none."""
        problem = _solver.MinNormProblem(self.matrix, x, self.cone, self.domain_norm)
        return _solver.solve_min_norm(problem)

    def preimage_gauge(self, x: np.ndarray) -> float:
        """m(x): inf over preimages in the cone, inf when x is unreachable."""
        return self._sweep.value(np.asarray(x, dtype=float))

    def gauge_norm(self, x: np.ndarray) -> float:
        """max(m(x), m(-x)), the symmetrized preimage gauge."""
        x = np.asarray(x, dtype=float)
        return float(max(self._sweep.values(np.array([x, -x]))))

    def operator_norm_bound(self) -> float:
        """Upper bound M with |T c|_X <= M |c|_Y; exact for these norm pairs."""
        return operator_norm_upper(self.matrix, self.domain_norm, self.codomain_norm)

    def norm_equivalence(self, config: SamplerConfig | None = None) -> tuple[float, float]:
        """(lo, hi) with lo |x| <= gauge_norm(x) <= hi |x| on the codomain."""
        M = self.operator_norm_bound()
        K = self.openness_constant(config)
        return 1.0 / M, K

    # -- surjectivity ------------------------------------------------------

    def is_surjective(self, method: str = "auto", config: SamplerConfig | None = None) -> SurjectivityReport:
        """Does T map the cone onto the whole codomain?

        T(C) is a convex cone, so it fills the codomain iff it reaches the 2 d
        signed axes, decided by one batched feasibility call on the map's
        compiled slice.  If it does not, neither does its closure (a convex
        set dense in R^d is R^d), so some axis x is strictly separated from
        it and carries a checked Farkas y (<y, x> > 0, <y, T c> <= 0 on C),
        for curved cones too.  A missed axis that is undecided or has no
        checked y (as on the boundary of a closure T(C) misses) is skipped;
        ArithmeticError when no missed axis has one.  The witness sums -y over
        the certified axes (the first alone when the sum vanishes), scaled to
        max-abs 1.  ``method`` and ``config`` select nothing.
        """
        if method not in ("auto", "exact", "sampled"):
            raise ValueError(f"unknown method {method!r}")
        axes = np.vstack([np.eye(self.codomain_dim), -np.eye(self.codomain_dim)])
        missed = [(x, status, y) for x, (status, y) in zip(axes, self._sweep.feasible_many(axes))
                  if status is not _solver.SolveStatus.OPTIMAL]
        if not missed:
            return SurjectivityReport(True)
        certs = [self._sweep._certificate(x, y) for x, status, y in missed
                 if status is _solver.SolveStatus.INFEASIBLE]
        certified = [-cert.y for cert in certs if cert is not None]
        if not certified:
            raise ArithmeticError("no Farkas certificate at any missed axis; undecided or unchecked: "
                                  f"{[(x.tolist(), status.name) for x, status, _ in missed]}")
        f = np.sum(certified, axis=0)
        if np.linalg.norm(f) <= 1e-9:
            f = certified[0]
        f = f / np.max(np.abs(f))
        note = "functional is nonnegative on the image; its negative is unreachable"
        return SurjectivityReport(False, functional=f, unreachable=-f, note=note)

    # -- openness constant and interior radius ------------------------------

    def openness_constant(self, config: SamplerConfig | None = None) -> float:
        """K = sup of m over the unit sphere of the codomain norm.

        m is convex, so over a polyhedral ball the supremum sits at a vertex
        and the vertex grid is exact.  Euclidean spheres are sampled and the
        incumbent refined locally; inf signals an unreachable direction.
        """
        return self._kind_sup("openness", config or SamplerConfig()).value

    def interior_radius(self, config: SamplerConfig | None = None) -> float:
        """Largest t with t B_X inside T(C ∩ B_Y), from the grid's own gauges.

        r = 1 / sup of m over the unit sphere.  One batched call gives m on
        the search grid with a bracket lo <= m <= hi per row
        (``MinNormSweep.certified``: lo by weak duality, hi a checked primal
        point), so on a vertex grid r lies in [1 / max hi, 1 / max lo] and
        the answer is 1 / max m, with no further solve.  A sampled grid
        refines its worst direction and certifies it with one more solve.
        An unreachable direction (a certified m = inf) gives 0.  A row whose
        bracket does not certify it (undecided, a w outside C*, or lo, m and
        hi more than 1e-9 m apart) raises ArithmeticError with the bracket
        on r that weak duality still gives over the grid's directions.
        """
        config = config or SamplerConfig()
        dirs, exact = search_grid(self.codomain_dim, self.codomain_norm, config)
        brackets = self._sweep.certified(dirs)
        m = brackets[:, 1]
        if np.isinf(m).any():
            return 0.0  # a whole ray misses the image
        if not exact:
            _certified_max(brackets)  # polish m over the sphere from a certified incumbent
            a = int(np.argmax(m))
            x, worst_m = refine_on_sphere(self._sweep.values, dirs[a], m[a], self.codomain_norm,
                                          steps=config.refine_steps, batched=self._sweep.batched())
            if worst_m > m[a]:
                brackets = np.vstack([brackets, self._sweep.certified(x)])
        return 1.0 / _certified_max(brackets)


def _certified_max(brackets: np.ndarray) -> float:
    """max m over rows (lo, m, hi) whose ends all lie within 1e-9 m.  Else
    ArithmeticError with r in [1 / max hi, 1 / max lo]: a NaN hi counts as
    inf, rows with a NaN lo are left out, and no positive lo gives inf."""
    lo, m, hi = brackets.T
    ok = brackets.max(axis=1) - brackets.min(axis=1) <= 1e-9 * m
    if ok.all():
        return float(m.max())
    top = float(np.nan_to_num(hi, nan=math.inf, posinf=math.inf).max())
    low = float(lo[~np.isnan(lo)].max(initial=-math.inf))
    raise ArithmeticError(f"{int((~ok).sum())} of {len(m)} grid gauges not certified: r in "
                          f"[{1.0 / top!r}, {1.0 / low if low > 0.0 else math.inf!r}]")
