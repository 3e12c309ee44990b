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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import cones as _cones
from . import solver as _solver
from .norms import BlockNorm, NormTag, operator_norm_upper
from .sampling import SamplerConfig, refine_on_sphere, search_grid, sphere_directions, sphere_sup

__all__ = ["ConeMap", "SurjectivityReport"]

# relative half-width of the bracket that the gauge opens around a critical
# scale: ball-feasibility verdicts resolve scales to about 1.4e-9 relative,
# so at 4e-10 both ends read reachable, while 1e-8 holds and leaves about
# five bisection steps to the 1e-9 stop rule
_BRACKET = 1e-8


@dataclass
class SurjectivityReport:
    surjective: bool
    method: str  # "dual-cone" | "sampled"
    functional: np.ndarray | None = None  # y with <y, T c> >= 0 on C when not surjective
    unreachable: np.ndarray | None = None  # a point missed by T(C)
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

    def _kind_objective(self, kind: str):
        """X -> per row x, inf over preimages c of the kind's cost (inf if none).

        Over a direct-sum domain with blocks c_1, c_2, ...: "openness" and
        "sum" cost sum_b |c_b| (the domain norm, so m itself), "max" costs
        max_b |c_b| and "plain" |c_1|.  Every kind is a program of the map's
        one compiled slice, and the conic driver solves all rows at once.
        """
        if kind in ("openness", "sum"):
            return self._sweep.values
        if kind == "plain":
            a, b, tag = self.domain_norm.blocks[0]
            gauge = (np.eye(self.domain_dim)[a:b], tag)
            return lambda X: self._sweep.values(X, gauge)
        if kind == "max":
            return lambda X: self._sweep.values(X, "max")
        raise ValueError(f"unknown decomposition kind {kind!r}")

    def min_preimage(self, x: np.ndarray, tol: _solver.Tolerances = _solver.DEFAULT_TOL) -> _solver.Solution:
        """Smallest-norm cone point mapped to x, with certificate if none."""
        problem = _solver.MinNormProblem(self.matrix, x, self.cone, self.domain_norm)
        return _solver.solve_min_norm(problem, tol)

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

        The dual-cone method is exact for polyhedral cones: T(C) fills the
        codomain iff the only y with T^T y in dual(C) is zero, which reduces
        to 2 d bounded linear programs.  Non-polyhedral cones are probed by
        sampled feasibility, honest about being a sample.
        """
        set_cone = _solver._set_level(self.cone)
        if method == "auto":
            method = "exact" if _cones.is_polyhedral(set_cone) else "sampled"
        if method == "exact":
            if not _cones.is_polyhedral(set_cone):
                raise ValueError("exact surjectivity test needs a polyhedral cone")
            return self._surjective_dual(set_cone)
        if method == "sampled":
            return self._surjective_sampled(config or SamplerConfig())
        raise ValueError(f"unknown method {method!r}")

    def _surjective_dual(self, set_cone: _cones.Cone) -> SurjectivityReport:
        d = self.codomain_dim
        # the witness sums optimal vertices that need not be unique; phase 1
        # from artificials alone keeps the vertices, and so the printed
        # witness, that this test has always reached.  Temporary: a witness
        # that does not depend on the pivot path (the lexicographic optimum
        # of each box LP) would let crash=False go
        lp = _solver._box_dual_lp(self.matrix, set_cone, crash=False)
        witnesses = []
        for i in range(d):
            for sgn in (-1.0, 1.0):
                lp.set_objective({i: sgn})  # sgn=-1 maximizes y_i
                status, z, value, _ = lp.solve()
                if status is not _solver.SolveStatus.OPTIMAL:
                    raise ArithmeticError("surjectivity LP did not converge")
                # y = 0 is always feasible, so a nonzero extreme shows up as a
                # strictly negative optimum of sgn * y_i
                if value < -1e-8 and z is not None:
                    witnesses.append(z[:d].copy())
        if not witnesses:
            return SurjectivityReport(True, "dual-cone")
        agg = np.sum(witnesses, axis=0)
        if np.linalg.norm(agg) <= 1e-9:
            agg = witnesses[0]
        agg = agg / np.max(np.abs(agg))
        return SurjectivityReport(
            False,
            "dual-cone",
            functional=agg,
            unreachable=-agg,
            note="functional is nonnegative on the image; its negative is unreachable",
        )

    def _surjective_sampled(self, config: SamplerConfig) -> SurjectivityReport:
        """One batched feasibility solve; the witness is the first unreachable
        direction, with its verdict's certificate (undecided before it: raise)."""
        dirs = sphere_directions(self.codomain_dim, self.codomain_norm, config)
        for x, (status, res) in zip(dirs, self._sweep.feasible_many(dirs)):
            if not _solver._decided(status, x):
                cert = self._sweep._certificate(x, res)
                y = cert.y if cert is not None else None
                return SurjectivityReport(False, "sampled", functional=y, unreachable=x.copy(),
                                          note=f"direction outside the image among {len(dirs)} samples")
        return SurjectivityReport(True, "sampled", note=f"all {len(dirs)} sampled directions reachable")

    # -- openness constant and interior radius ------------------------------

    def openness_constant(self, config: SamplerConfig | None = None) -> float:
        """K = sup of m over the unit sphere of the codomain norm.

        m is convex, so over a polyhedral ball the supremum sits at a vertex
        and the vertex grid is exact.  Euclidean spheres are sampled and the
        incumbent refined locally; inf signals an unreachable direction.
        """
        return sphere_sup(self._sweep.values, self.codomain_dim, self.codomain_norm,
                          config or SamplerConfig()).value

    def interior_radius(self, config: SamplerConfig | None = None) -> float:
        """Largest t with t B_X inside T(C ∩ B_Y), measured independently.

        Works direction by direction: the reachability of t x from the unit
        ball of the cone is monotone in t, so each direction has a critical
        scale, bisected to 1e-9 relative on ball-constrained feasibility;
        the radius is the smallest.  The gauge only seeds the search: the
        critical scale of x is 1/m(x), so directions go in order of
        decreasing m, and two verdicts certify the bracket (1 -+ δ)/m before
        bisecting inside it (a failed end falls back on doubling and
        bisection).  The other directions are checked at once at the
        certified lower end, and any that fail are bracketed in turn.  An
        unreachable direction (m = inf, a certified verdict) gives 0, and an
        undecided gauge seeds nothing.  A curved feasibility test that cannot
        decide a scale puts that scale at the critical one, to the solver's
        resolution.
        """
        config = config or SamplerConfig()
        dirs, exact = search_grid(self.codomain_dim, self.codomain_norm, config)
        ball = _solver.BallConstraint(np.eye(self.domain_dim), self.domain_norm, 1.0)
        sweep = _solver.MinNormSweep(self.matrix, self.cone, self.domain_norm, balls=(ball,))
        try:
            m = self._sweep.values(dirs)
        except ArithmeticError:
            m = np.full(len(dirs), np.nan)
        if np.isinf(m).any():
            return 0.0  # a whole ray misses the image

        def reachable(X) -> list:
            """Whether each row of X lies in T(C ∩ B_Y), in one batch; None
            where the solver cannot tell, which puts that scale at the
            critical one to its resolution."""
            out = []
            for x, (status, _) in zip(X, sweep.feasible_many(X)):
                try:
                    out.append(_solver._decided(status, x))
                except ArithmeticError:
                    out.append(None)
            return out

        def critical(x, m_x: float, guess: float) -> tuple[float, float]:
            """(lo, hi) around the critical scale of x, lo reachable."""
            lo, hi = 0.0, max(guess, 1e-8)
            if 0.0 < m_x < math.inf:
                a, b = (1.0 - _BRACKET) / m_x, (1.0 + _BRACKET) / m_x
                below, above = reachable([a * x, b * x])
                if below is None:
                    return a, a
                lo, hi, inside = (a, b, above) if below else (0.0, a, False)
            else:
                if not self._sweep.feasible(x):
                    return 0.0, 0.0  # the whole ray misses the image
                inside = reachable([hi * x])[0]
            if inside is None:
                return hi, hi
            if inside:
                for _ in range(60):
                    lo, hi = hi, 2.0 * hi
                    inside = reachable([hi * x])[0]
                    if inside is None:
                        return hi, hi
                    if not inside:
                        break
                else:
                    return math.inf, math.inf
            for _ in range(80):
                if hi - lo <= 1e-9 * max(hi, 1e-6):
                    break
                mid = 0.5 * (lo + hi)
                inside = reachable([mid * x])[0]
                if inside is None:
                    return mid, mid
                lo, hi = (mid, hi) if inside else (lo, mid)
            return lo, hi

        lo = running = math.inf
        argmin_dir = None
        # largest gauge first, the smallest critical scale; with an undecided
        # gauge m is all NaN and the grid keeps its order
        pending = np.argsort(-m, kind="stable")
        while pending.size:
            i, pending = pending[0], pending[1:]
            a, b = critical(dirs[i], m[i], lo if math.isfinite(lo) else 1.0)
            if 0.5 * (a + b) < running:
                lo, running, argmin_dir = a, 0.5 * (a + b), dirs[i]
                if running <= 0.0:
                    return 0.0
                if math.isfinite(lo) and pending.size:
                    # a direction reachable at lo has its critical scale above
                    # it; those that are not were last checked at a larger lo
                    pending = pending[[v is not True for v in reachable(lo * dirs[pending])]]
        if not exact and argmin_dir is not None and math.isfinite(running):
            # polish: minimizing the critical scale = maximizing m over the sphere
            _, worst_m = refine_on_sphere(self._sweep.value, argmin_dir, self.codomain_norm,
                                          steps=config.refine_steps)
            if worst_m > 0 and math.isfinite(worst_m):
                running = min(running, 1.0 / worst_m)
        return float(running)
