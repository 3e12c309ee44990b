"""Continuous right inverses of cone-restricted surjections.

When T maps C onto the codomain, the set of norm-controlled preimages

    F(x) = { c in C : T c = x, rho_j(c) <= (alpha_j + eps) |x|_X }

is nonempty-closed-convex valued and positively homogeneous, and for
constants alpha_j that are achievable on the unit sphere with any slack
eps > 0 it is lower hemicontinuous.  Its Euclidean-minimal element is then a
continuous positively homogeneous right inverse gamma: T gamma(x) = x,
gamma(t x) = t gamma(x), and every rho_j bound holds globally.

The rho_j here are seminorms |R c| or linear functionals <w, c>; both are
subadditive and positively homogeneous, which is all the slack argument
needs.  The unconstrained selection (no rho_j at all) is the plain minimal
right inverse used for decompositions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import solver as _solver
from .conemap import ConeMap
from .norms import BlockNorm, NormTag
from .sampling import SamplerConfig, sphere_directions, sphere_sup

__all__ = [
    "ConstraintFunctional",
    "CorrespondenceSpec",
    "EmptyCorrespondence",
    "RightInverse",
    "gamma",
    "gamma_constrained",
    "achievable_alpha",
    "selection_bound",
    "correspondence_value",
    "SphereTable",
    "tabulate_sphere",
    "extend_from_sphere",
    "hemicontinuity_probe",
    "hemicontinuity_schedule",
    "LipschitzReport",
    "lipschitz_estimate",
]


@dataclass(frozen=True, eq=False)
class ConstraintFunctional:
    """A continuous subadditive positively homogeneous rho on the domain.

    Two kinds share the class: with ``norm`` set, rho(c) = |matrix c|_norm
    (a seminorm); with ``norm`` None the matrix must be a single row w and
    rho(c) = <w, c>, a linear functional that may well be negative.
    """

    matrix: np.ndarray
    norm: NormTag | BlockNorm | None = None

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if self.norm is None and m.shape[0] != 1:
            raise ValueError("a linear functional needs a single coefficient row")
        object.__setattr__(self, "matrix", m)

    @staticmethod
    def seminorm(matrix, norm: NormTag | BlockNorm = NormTag.L2) -> "ConstraintFunctional":
        return ConstraintFunctional(matrix, norm)

    @staticmethod
    def linear(vector) -> "ConstraintFunctional":
        return ConstraintFunctional(np.atleast_2d(np.asarray(vector, dtype=float)), None)

    @property
    def is_linear(self) -> bool:
        return self.norm is None

    def value(self, c: np.ndarray) -> float:
        c = np.asarray(c, dtype=float)
        if self.norm is None:
            return float(self.matrix[0] @ c)
        return float(self.norm.of(self.matrix @ c))


class EmptyCorrespondence(ArithmeticError):
    """No admissible preimage at some target: the constants are too tight.

    ``target`` is the witness direction, ``solution`` the infeasible solve
    (whose certificate, when present, separates the target from the image).
    """

    def __init__(self, target: np.ndarray, solution: _solver.Solution | None = None):
        self.target = np.asarray(target, dtype=float)
        self.solution = solution
        super().__init__(f"empty correspondence at target {self.target.tolist()}")


@dataclass(frozen=True, eq=False)
class CorrespondenceSpec:
    """F(x) = {c in C : Tc = x, rho_j(c) <= (alpha_j + slack) |x|_X}.

    The right-hand sides scale with the target norm, which keeps F
    positively homogeneous; on the unit sphere the bounds read
    alpha_j + slack exactly.  ``constraints`` pairs each functional with
    its alpha.  F is compiled once into a ``MinNormSweep`` at unit caps;
    each target rescales the caps and starts phase 1 warm.  On polyhedral
    cones the projection onto F(x) first solves the polyhedral relaxation
    (curved caps dropped) with the active-set QP; the slack usually leaves
    the caps loose, and the conic driver runs only when a cap binds, with
    the squared distance as one rotated second-order cone.  An empty F(x)
    is reported only with a certificate checked on the conic data.
    """

    map: ConeMap
    constraints: tuple[tuple[ConstraintFunctional, float], ...] = ()
    slack: float = 1e-3

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple((f, float(a)) for f, a in self.constraints))
        if self.slack < 0:
            raise ValueError("slack must be nonnegative")

    @cached_property
    def _sweep(self) -> _solver.MinNormSweep:
        """F compiled at |x|_X = 1, where every cap reads alpha_j + slack."""
        bounds = []
        balls = []
        for f, alpha in self.constraints:
            if f.is_linear:
                bounds.append((f.matrix[0], alpha + self.slack))
            else:
                balls.append(_solver.BallConstraint(f.matrix, f.norm, alpha + self.slack))
        return _solver.MinNormSweep(self.map.matrix, self.map.cone, balls=balls,
                                    extra_bounds=bounds)

    def member(self, x: np.ndarray, c: np.ndarray, tol: float = 1e-7) -> bool:
        x = np.asarray(x, dtype=float)
        c = np.asarray(c, dtype=float)
        from . import cones as _cones

        ref = max(1.0, float(np.linalg.norm(c)))
        if not _cones.contains(self.map.cone, c, tol=tol * ref):
            return False
        if float(np.max(np.abs(self.map.matrix @ c - x), initial=0.0)) > tol * ref:
            return False
        scale = self.map.codomain_norm.of(x)
        return all(f.value(c) <= (a + self.slack) * scale + tol * ref
                   for f, a in self.constraints)

    def project(self, x: np.ndarray, point: np.ndarray) -> _solver.Solution:
        """Euclidean projection of ``point`` onto F(x); value is the distance."""
        x = np.asarray(x, dtype=float)
        return self._sweep.project(x, point, scale=self.map.codomain_norm.of(x))

    def project_many(self, X, points) -> list:
        """``project`` at each row of X, of the same row of ``points``: the
        rows that reach the conic driver share one solve."""
        X = [np.asarray(x, dtype=float) for x in X]
        return self._sweep.project_many(X, points, [self.map.codomain_norm.of(x) for x in X])


def correspondence_value(spec: CorrespondenceSpec, x: np.ndarray) -> _solver.Solution:
    """Euclidean-minimal witness of F(x); the spec itself describes the set.

    Infeasible status means F(x) is empty, i.e. the constants fail at x.
    """
    return spec.project(x, np.zeros(spec.map.domain_dim))


@dataclass(frozen=True, eq=False)
class RightInverse:
    """Minimal-selection right inverse of a cone surjection.

    Callable.  Without a spec the selection is the Euclidean-smallest
    preimage in the cone; with one, the smallest point of the constrained
    correspondence.  Either way the map is positively homogeneous and, for
    achievable constants, continuous (unique parametric minimizer).

    Each call projects through the slice compiled once by the map (plain)
    or the spec (constrained), starting phase 1 warm.  A constrained
    call on a polyhedral cone solves the polyhedral relaxation first and
    returns its exact point when every curved cap holds there; the conic
    driver runs only when a cap binds, and on second-order cones always.
    An undecided solve raises ArithmeticError, an empty F(x) its subclass
    EmptyCorrespondence.
    """

    map: ConeMap
    spec: CorrespondenceSpec | None = None

    def __post_init__(self):
        if self.spec is not None and self.spec.map is not self.map:
            raise ValueError("spec was built for a different map")

    def solve(self, x: np.ndarray) -> _solver.Solution:
        if self.spec is None:
            return self.map._sweep.project(x, np.zeros(self.map.domain_dim))
        return correspondence_value(self.spec, x)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not np.any(x):
            return np.zeros(self.map.domain_dim)
        return _selected(x, self.solve(x))


def _selected(x: np.ndarray, sol: _solver.Solution) -> np.ndarray:
    """The point of a solve of F(x): EmptyCorrespondence when F(x) is
    certified empty, ArithmeticError for any other verdict but OPTIMAL."""
    if sol.status is _solver.SolveStatus.INFEASIBLE:
        raise EmptyCorrespondence(x, sol)
    if sol.status is not _solver.SolveStatus.OPTIMAL:
        raise ArithmeticError(f"selection failed at target {x!r}: {sol.status.value}")
    return sol.point


def gamma(cmap: ConeMap) -> RightInverse:
    """The plain minimal right inverse: gamma(x) = argmin{|c|_2 : Tc = x, c in C}."""
    return RightInverse(cmap)


def gamma_constrained(cmap: ConeMap,
                      constraints: tuple[tuple[ConstraintFunctional, float], ...],
                      slack: float = 1e-3) -> RightInverse:
    """Right inverse forced through rho_j(c) <= (alpha_j + slack) |x|.

    Constants straight from achievable_alpha need slack > 0 to keep the
    correspondence nonempty off the attaining directions.  That slack
    usually keeps the caps loose at the minimal preimage; each call then
    costs one warm QP on the polyhedral relaxation, and a target where a
    cap binds costs one interior-point solve of the distance program on the
    slice that the spec compiles once.
    """
    return RightInverse(cmap, CorrespondenceSpec(cmap, constraints, slack))


def achievable_alpha(cmap: ConeMap, rho: ConstraintFunctional | None = None,
                     cap: float | None = None,
                     config: SamplerConfig | None = None) -> float:
    """Smallest alpha with rho(c) <= alpha attainable on the whole sphere.

    Computes sup over unit targets of min{rho(c) : Tc = x, c in C,
    |c|_Y <= cap}.  With the default rho (the domain norm) and no cap this
    is the openness constant.  The cap keeps the minimization bounded for
    functionals that decay along recession directions; it must be at least
    the openness constant or some direction has no admissible preimage at
    all, which raises EmptyCorrespondence with that direction.  The slice
    with its cap is compiled once, and rho is its objective at every target.
    """
    config = config or SamplerConfig()
    if rho is None and cap is None:
        return cmap.openness_constant(config)
    balls = ()
    if cap is not None:
        balls = (_solver.BallConstraint(np.eye(cmap.domain_dim), cmap.domain_norm, cap),)
    if rho is None:
        rho = ConstraintFunctional(np.eye(cmap.domain_dim), cmap.domain_norm)
    norm, objective = None, (rho.matrix, rho.norm)
    if rho.is_linear:
        objective = rho.matrix[0]
    elif isinstance(rho.norm, BlockNorm):
        # block-structured objectives are only supported over the raw point
        if not np.array_equal(rho.matrix, np.eye(cmap.domain_dim)):
            raise ValueError("block seminorms are supported only with an identity matrix")
        norm, objective = rho.norm, "norm"
    sweep = _solver.MinNormSweep(cmap.matrix, cmap.cone, norm, balls=balls)
    sup = sphere_sup(lambda X: sweep.values(X, objective), cmap.codomain_dim, cmap.codomain_norm,
                     config)
    if math.isinf(sup.value):
        raise EmptyCorrespondence(sup.argmax)
    return sup.value


def selection_bound(ri: RightInverse, config: SamplerConfig | None = None) -> float:
    """Sampled sup over unit targets of the domain norm of the selection.

    An empirical constant K with |gamma(x)|_Y <= K |x|_X on the sampled
    directions; by homogeneity the bound extends along every sampled ray.
    """
    cmap = ri.map

    def value(x: np.ndarray) -> float:
        return float(cmap.domain_norm.of(ri(x)))

    # a plain selection trusts a vertex grid, which is exact on lattices:
    # there |gamma(x)| is the sum-kind gauge, convex and so maximal at a
    # vertex; a constrained selection refines its grid maximum anyway
    return sphere_sup(lambda X: [value(x) for x in X], cmap.codomain_dim, cmap.codomain_norm,
                      config or SamplerConfig(), trust_vertices=ri.spec is None).value


# -- sphere tables -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SphereTable:
    """Selections tabulated on unit directions of the codomain.

    points[i] lies in the cone, maps to directions[i], and satisfies every
    bound of the spec it was built from.  A table certifies on its grid what
    the constrained global map asserts everywhere.
    """

    spec: CorrespondenceSpec
    directions: np.ndarray
    points: np.ndarray

    def __len__(self) -> int:
        return self.directions.shape[0]

    def verify(self, tol: float = 1e-7) -> bool:
        return all(self.spec.member(x, c, tol) for x, c in zip(self.directions, self.points))


def tabulate_sphere(spec: CorrespondenceSpec, config: SamplerConfig | None = None) -> SphereTable:
    """Evaluate the constrained selection on a sphere grid.

    Raises EmptyCorrespondence at the first direction whose correspondence
    is empty; the exception carries that direction as the witness.
    """
    config = config or SamplerConfig()
    cmap = spec.map
    dirs = sphere_directions(cmap.codomain_dim, cmap.codomain_norm, config.search())
    pts = np.empty((dirs.shape[0], cmap.domain_dim))
    g = RightInverse(cmap, spec)
    for i, x in enumerate(dirs):
        pts[i] = g(x)
    return SphereTable(spec=spec, directions=dirs, points=pts)


def extend_from_sphere(table: SphereTable):
    """Positively homogeneous extension of a sphere table.

    sigma(x) = |x| * (table point at the direction nearest to x/|x|),
    sigma(0) = 0.  Norm and functional bounds transfer to every x by
    homogeneity; T sigma(x) = x holds exactly on rays through tabulated
    directions and up to the angular resolution elsewhere.
    """
    dirs = table.directions
    pts = table.points
    norm = table.spec.map.codomain_norm

    def sigma(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        scale = norm.of(x)
        if scale <= 0.0:
            return np.zeros(pts.shape[1])
        u = x / scale
        i = int(np.argmin(np.linalg.norm(dirs - u, axis=1)))
        return scale * pts[i]

    return sigma


# -- numerical continuity evidence -------------------------------------------


def hemicontinuity_probe(spec: CorrespondenceSpec, x: np.ndarray, xp: np.ndarray,
                         y: np.ndarray) -> float:
    """dist(y, F(xp)) for a point y picked from F(x).

    Lower hemicontinuity makes this O(|x - xp|) as xp -> x; an empty F(xp)
    returns inf, flagging that the constants fail near x, and a distance the
    conic projection cannot resolve NaN (see ``_distance``), as does any
    "trivial" answer (y kept): on a second-order spec xp = x reads NaN, not 0.
    """
    xp, y = np.asarray(xp, dtype=float), np.asarray(y, dtype=float)
    return _distance(spec.project(xp, y), xp, y)


def _distance(res: _solver.Solution, xp: np.ndarray, y: np.ndarray) -> float:
    """dist(y, F(xp)) as a projection reports it, inf when F(xp) is empty;
    NaN for a conic or "trivial" (y kept) answer below sqrt(2 rho
    ``conic.TARGET``), rho = max(|xp|, |y|) or 1, where the "center"
    program, half the squared distance over rho, is good to ``TARGET``."""
    if res.status is _solver.SolveStatus.INFEASIBLE:
        return math.inf
    if res.status is not _solver.SolveStatus.OPTIMAL:
        raise ArithmeticError("projection onto the correspondence did not converge")
    dist = float(res.value)
    if res.driver in ("conic", "trivial"):
        from .conic import TARGET  # imported on the first curved program only
        rho = max(float(np.linalg.norm(xp)), float(np.linalg.norm(y))) or 1.0
        return math.nan if dist < math.sqrt(2.0 * rho * TARGET) else dist
    return dist


def hemicontinuity_schedule(spec: CorrespondenceSpec, x: np.ndarray,
                            steps: int = 11, base: float = 0.1,
                            seed: int = 0) -> np.ndarray:
    """Probe ratios dist(y, F(x'))/|x - x'| along shrinking steps.

    x' walks toward x on the sphere of radius r = |x| (the codomain norm)
    with step sizes r * base * 2^-k, k = 0..steps-1, along a fixed tangent;
    returns an array of rows (step, ratio).  Bounded ratios across the
    schedule are the empirical signature of lower hemicontinuity; blow-up
    flags a discontinuity.  The tangent is a seeded draw with x projected
    out; a draw along x is replaced by the coordinate axis where |x_j| is
    smallest, x projected out.  The zero target has no sphere and a
    codomain of dimension 1 no tangent: both are refused.
    y is solved first, then every probe in one ``project_many`` call, each
    ratio the one ``hemicontinuity_probe`` gives alone.  A step whose probe
    lands within 1e-15 r of x (x' is x to rounding) is not solved: its row
    is (r * base * 2^-k, NaN).  So is a probe that ``_distance`` reads as
    NaN (below the conic projection's resolution), but at |x - x'|.  An
    empty F(x) raises EmptyCorrespondence, an undecided solve of y
    ArithmeticError.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[0] < 2:
        raise ValueError("hemicontinuity_schedule needs a codomain of dimension 2 or more: "
                         "a line has no tangent")
    norm = spec.map.codomain_norm
    radius = norm.of(x)
    if radius <= 0.0:
        raise ValueError("hemicontinuity_schedule needs a nonzero target, got the zero target")
    y = _selected(x, correspondence_value(spec, x))
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(x.shape[0])
    t -= (t @ x) / (x @ x) * x
    if np.linalg.norm(t) < 1e-12:  # drawn along x
        t = np.eye(x.shape[0])[np.argmin(np.abs(x))]
        t -= (t @ x) / (x @ x) * x
    t /= np.linalg.norm(t)
    out, probes = np.empty((steps, 2)), []
    for k in range(steps):
        theta = base * 2.0 ** (-k)
        xp = x + (theta * radius) * t
        xp = xp / (norm.of(xp) / radius)
        gap = float(np.linalg.norm(x - xp))
        if gap < 1e-15 * radius:
            out[k] = (theta * radius, math.nan)
        else:
            probes.append((k, xp, gap))
    for (k, xp, gap), res in zip(probes, spec.project_many([p[1] for p in probes],
                                                           [y] * len(probes))):
        out[k] = (gap, _distance(res, xp, y) / gap)
    return out


@dataclass(frozen=True)
class LipschitzReport:
    value: float
    pair: tuple[np.ndarray, np.ndarray]


def lipschitz_estimate(ri: RightInverse, pairs: int = 200, gap: float = 0.1,
                       seed: int = 0) -> LipschitzReport:
    """Sampled lower bound on the Lipschitz constant of the selection.

    Draws sphere pairs at most ``gap`` apart (half of them much tighter, to
    probe local behavior) and reports the worst Euclidean difference
    quotient together with the pair attaining it.
    """
    cmap = ri.map
    d = cmap.codomain_dim
    norm = cmap.codomain_norm
    rng = np.random.default_rng(seed)
    worst = 0.0
    arg = (np.zeros(d), np.zeros(d))
    for k in range(pairs):
        u = rng.standard_normal(d)
        u /= norm.of(u)
        step = rng.standard_normal(d)
        size = gap * (1.0 if k % 2 == 0 else 1e-4) * rng.uniform(0.1, 1.0)
        v = u + size * step / np.linalg.norm(step)
        v /= norm.of(v)
        h = float(np.linalg.norm(u - v))
        if h <= 1e-12:
            continue
        q = float(np.linalg.norm(ri(u) - ri(v))) / h
        if q > worst:
            worst, arg = q, (u, v)
    return LipschitzReport(value=worst, pair=arg)
