"""Minimum-norm programs over affine slices of cones.

Everything in this package eventually reduces to

    minimize    |c|            (a tagged block norm of the ambient point)
    subject to  T c = x
                c in C         (one of the cone representations)
                <a_i, c> <= b_i            optional linear bounds
                |R_j c| <= beta_j          optional norm-ball constraints

at desk scale (dimensions well below a few hundred).  The kernel is
self-contained on purpose.  ``MinNormSweep`` compiles one slice, with its
bounds and caps, to canonical form once; every entry point, one-shot or
many-target, solves at a target from it.  One encoder (``_Program``) writes
the canonical problem, every cap and an objective (a sum or maximum of
block norms, a gauge, a linear cost, a distance, or none) as one list of
equality, inequality, cap and epigraph rows plus second-order blocks; a
flat linf cap is the rows +-R c <= beta with no auxiliary variable, and
the cap rows follow the canonical inequality rows.  Rows with no
second-order block go to the dense simplex of ``simplex.py``; all others
(sums and maxima of blocks with a Euclidean one, second-order cones, caps
with a Euclidean block) go to the interior-point method of ``conic.py``,
which solves a whole batch of targets at once (``MinNormSweep.values`` and
``feasible_many``).  Both prove an empty slice with a Farkas ray, whose
equality-row part is the slice's certificate: no separation program runs.
An active-set method handles a single Euclidean objective on polyhedral
data, and projections onto the polyhedral relaxation of a capped slice:
its curved caps dropped, its polyhedral caps kept as rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import cones as _cones
from .norms import BlockNorm, NormTag
from .projops import nonneg_lstsq
from .simplex import FEASIBILITY, OPTIMALITY, LinearProgram, SolveStatus, iteration_cap

__all__ = [
    "SolveStatus",
    "Certificate",
    "Solution",
    "BallConstraint",
    "MinNormProblem",
    "solve_min_norm",
    "solve_min_gauge",
    "solve_min_linear",
    "solve_max_block_norm",
    "project_onto_slice",
    "check_feasible",
    "FeasibilityReport",
    "farkas_certificate",
    "certificate_is_valid",
    "nonneg_lstsq",
    "MinNormSweep",
]


@dataclass
class Certificate:
    """Separating functional for an infeasible slice.

    Farkas evidence: ``<y, x> > OPTIMALITY`` while ``T^T y`` lies in the
    dual cone of ``-C``, so no ``c in C`` can satisfy ``T c = x``: the
    equality-row part of the simplex's or the conic driver's ray that proved
    the slice empty, scaled to max-abs 1, once it has passed
    ``certificate_is_valid``.  Every certificate returned is checked; ``y``
    is its only field.
    """

    y: np.ndarray


@dataclass
class Solution:
    """One solve.  ``driver`` names the method that produced the answer
    ("simplex", "active-set", "conic", or "trivial" for an answer known
    without a solve: the zero point, or a point that is its own projection),
    and ``iterations`` counts its pivots, active-set iterations or
    interior-point iterations."""

    status: SolveStatus
    point: np.ndarray | None = None
    value: float | None = None
    residuals: dict = field(default_factory=dict)
    certificate: Certificate | None = None
    iterations: int = 0
    driver: str = ""


@dataclass(frozen=True, eq=False)
class BallConstraint:
    """|R c| <= bound, with R acting on the ambient point.

    ``norm`` is a flat tag or a block norm on the rows of R; block norms let
    a single constraint bound an l1-sum of Euclidean block norms.
    """

    matrix: np.ndarray
    norm: NormTag | BlockNorm
    bound: float

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.atleast_2d(np.asarray(self.matrix, dtype=float)))
        if self.bound < 0:
            raise ValueError("ball bound must be nonnegative")

    def _block_norm(self) -> BlockNorm:
        if isinstance(self.norm, BlockNorm):
            return self.norm
        return BlockNorm.flat(self.matrix.shape[0], self.norm)

    def value(self, c: np.ndarray) -> float:
        return self._block_norm().of(self.matrix @ c)


@dataclass(frozen=True, eq=False)
class MinNormProblem:
    map: np.ndarray
    target: np.ndarray
    cone: _cones.Cone
    objective: BlockNorm
    extra_bounds: tuple[tuple[np.ndarray, float], ...] = ()
    balls: tuple[BallConstraint, ...] = ()

    def __post_init__(self):
        T = np.atleast_2d(np.asarray(self.map, dtype=float))
        x = np.atleast_1d(np.asarray(self.target, dtype=float))
        if T.shape != (x.shape[0], self.cone.ambient_dim):
            raise ValueError(
                f"map shape {T.shape} inconsistent with target dim {x.shape[0]} "
                f"and cone ambient dim {self.cone.ambient_dim}"
            )
        if self.objective.dim != self.cone.ambient_dim:
            raise ValueError("objective norm dimension must match the cone ambient dim")
        object.__setattr__(self, "map", T)
        object.__setattr__(self, "target", x)
        bounds = tuple((np.asarray(a, dtype=float), float(b)) for a, b in self.extra_bounds)
        object.__setattr__(self, "extra_bounds", bounds)
        object.__setattr__(self, "balls", tuple(self.balls))


# ---------------------------------------------------------------------------
# active-set method for convex quadratic objectives


def active_set_qp(
    H: np.ndarray,
    g: np.ndarray,
    eq_A: np.ndarray,
    eq_b: np.ndarray,
    in_A: np.ndarray,
    in_b: np.ndarray,
    z0: np.ndarray,
):
    """min .5 z H z + g z over {eq_A z = eq_b, in_A z <= in_b} from feasible z0.

    Classical primal active-set iteration: solve the equality-constrained
    subproblem on the current working set through a null-space basis, step to
    the nearest blocking constraint, drop constraints with negative
    multipliers.  Ties break on the lowest row index so runs are
    deterministic.  H must be positive semidefinite; a hair of Tikhonov
    regularization keeps degenerate reduced Hessians solvable.  Returns
    (z, iterations, status, the final working set).
    """
    n = z0.shape[0]
    z = np.asarray(z0, dtype=float).copy()
    scale = max(1.0, float(np.linalg.norm(z)))
    work = [i for i in range(in_A.shape[0]) if in_A[i] @ z >= in_b[i] - FEASIBILITY * scale]
    cap = iteration_cap(in_A.shape[0] + eq_A.shape[0], n)

    it = 0
    while it < cap:
        it += 1
        Aact = np.vstack([eq_A, in_A[work]]) if (eq_A.size or work) else np.zeros((0, n))
        if Aact.shape[0]:
            _, s, vt = np.linalg.svd(Aact, full_matrices=True)
            rank = int(np.sum(s > 1e-11 * max(1.0, s[0] if s.size else 1.0)))
            Z = vt[rank:].T
        else:
            Z = np.eye(n)
        grad = H @ z + g
        if Z.shape[1] > 0:
            red = Z.T @ H @ Z + 1e-13 * np.eye(Z.shape[1])
            try:
                pz = np.linalg.solve(red, -(Z.T @ grad))
            except np.linalg.LinAlgError:
                pz, *_ = np.linalg.lstsq(red, -(Z.T @ grad), rcond=None)
            p = Z @ pz
        else:
            p = np.zeros(n)
        if np.linalg.norm(p) <= 1e-11 * max(1.0, np.linalg.norm(z)):
            if not work:
                return z, it, SolveStatus.OPTIMAL, work
            lam, *_ = np.linalg.lstsq(Aact.T, -grad, rcond=None)
            lam_in = lam[eq_A.shape[0] :]
            if lam_in.size == 0 or np.min(lam_in) >= -FEASIBILITY:
                return z, it, SolveStatus.OPTIMAL, work
            work.pop(int(np.argmin(lam_in)))
            continue
        alpha = 1.0
        blocking = -1
        for i in range(in_A.shape[0]):
            if i in work:
                continue
            ap = in_A[i] @ p
            if ap > FEASIBILITY:
                ratio = (in_b[i] - in_A[i] @ z) / ap
                if ratio < alpha - 1e-14:
                    alpha, blocking = max(ratio, 0.0), i
        z = z + alpha * p
        if blocking >= 0:
            work.append(blocking)
            work.sort()
    return z, it, SolveStatus.ITERATION_LIMIT, work


# ---------------------------------------------------------------------------
# canonical constraint assembly


@dataclass
class _Canon:
    """Solver-variable form of one MinNormProblem.

    Ambient point c = S z, S from the cone's structure alone.  Linear part:
    eq rows, and <= rows for the cone's halfspaces and sign constraints and
    the extra bounds.  Curved part: second-order index blocks.  Caps: one
    norm(E z) <= r per ball, E the ball's matrix times S.  ``_Program._cap``
    writes each into rows after the <= rows (a flat linf cap as +-E z <= r);
    the polyhedral relaxation drops the curved ones, those with an l2 block.
    """

    S: np.ndarray
    eq_A: np.ndarray
    eq_b: np.ndarray
    in_A: np.ndarray
    in_b: np.ndarray
    soc_idx: list
    caps: list  # (E over z, BlockNorm, radius)
    obj_blocks: list  # (E over z, tag)

    @property
    def n(self) -> int:
        return self.S.shape[1]

    @property
    def polyhedral(self) -> bool:
        return not self.soc_idx and all(norm.is_polyhedral for _, norm, _ in self.caps)


def _cone_structure(cone: _cones.Cone):
    """Recursive (S, nonneg mask, halfspace rows, soc index blocks)."""
    if isinstance(cone, _cones.Orthant):
        n = cone.dim
        return np.eye(n), np.ones(n, bool), np.zeros((0, n)), []
    if isinstance(cone, _cones.Halfspaces):
        n = cone.ambient_dim
        return np.eye(n), np.zeros(n, bool), cone.rows.copy(), []
    if isinstance(cone, _cones.Generators):
        G = cone.columns
        return G.copy(), np.ones(G.shape[1], bool), np.zeros((0, G.shape[1])), []
    if isinstance(cone, _cones.SecondOrder):
        n = cone.dim
        return np.eye(n), np.zeros(n, bool), np.zeros((0, n)), [np.arange(n)]
    if isinstance(cone, _cones.Negation):
        S, nn, rows, socs = _cone_structure(cone.inner)
        return -S, nn, rows, socs
    if isinstance(cone, (_cones.Product, _cones.DirectSumL1)):
        pieces = [_cone_structure(p) for p in cone.parts]
        n = sum(S.shape[1] for S, _, _, _ in pieces)
        S = np.zeros((cone.ambient_dim, n))
        rowtotal = sum(r.shape[0] for _, _, r, _ in pieces)
        R = np.zeros((rowtotal, n))
        nn = np.zeros(n, bool)
        socs = []
        ra = ca = aa = 0
        for p, (Sp, nnp, rp, socp) in zip(cone.parts, pieces):
            S[aa : aa + p.ambient_dim, ca : ca + Sp.shape[1]] = Sp
            R[ra : ra + rp.shape[0], ca : ca + Sp.shape[1]] = rp
            nn[ca : ca + Sp.shape[1]] = nnp
            socs.extend(idx + ca for idx in socp)
            ra += rp.shape[0]
            ca += Sp.shape[1]
            aa += p.ambient_dim
        return S, nn, R, socs
    raise TypeError(f"unknown cone variant {type(cone).__name__}")


def _canonicalize(problem: MinNormProblem) -> _Canon:
    S, nonneg, hrows, socs = _cone_structure(problem.cone)
    bounds = problem.extra_bounds
    in_A = np.vstack([-hrows, -np.eye(S.shape[1])[nonneg]] + [a @ S for a, _ in bounds])
    in_b = np.concatenate([np.zeros(in_A.shape[0] - len(bounds)), [b for _, b in bounds]])
    return _Canon(
        S=S,
        eq_A=problem.map @ S,
        eq_b=problem.target.copy(),
        in_A=in_A,
        in_b=in_b,
        soc_idx=list(socs),
        caps=[(ball.matrix @ S, ball._block_norm(), ball.bound) for ball in problem.balls],
        obj_blocks=[(S[a:b, :], tag) for a, b, tag in problem.objective.blocks],
    )


# ---------------------------------------------------------------------------
# one encoder, two backends


class _Program:
    """One canon plus an objective as one list of rows, compiled once.

    Variables: z, then auxiliary epigraph variables in creation order (those
    of the caps first).  Rows (z coefficients, {aux variable: coefficient},
    right-hand side at unit scale): the canon's equality rows and <= rows,
    and the cap rows and objective epigraph rows written here.  An l1 or
    linf block |E z| <= t becomes the rows +-E z <= t (one t per row for l1,
    one for the block for linf) and an l2 block the second-order block
    (t, E z).  The cone's index blocks are second-order blocks too.  Every
    cap is written here (``_cap``), whether polyhedral or curved: a flat
    linf cap as the rows +E z <= r, then -E z <= r, with no auxiliary, a
    flat Euclidean cap as the second-order block (r, E z), and any other as
    its block epigraphs summed under one <= row.  The polyhedral relaxation
    (``MinNormSweep._start``) drops the curved caps.

    ``objective`` is "norm" (the sum of the canon's obj_blocks), "max"
    (their maximum: one epigraph variable t, each l2 block as (t, E z), each
    linf row as +-E z <= t and each l1 block's epigraph summed under one
    <= t row), "center" (half the squared distance of S z to a point given
    per solve, as one rotated cone (t + rho/2, t - rho/2, S z - point), which
    stays away from the apex when the distance is 0), a cost vector over z,
    or None for a feasibility program.  Objective epigraph variables cost 1.
    A "norm" objective of one Euclidean block on polyhedral data is
    ``quadratic``: the active-set QP solves it (see ``MinNormSweep._qp``),
    from a vertex of the feasibility program, and its own rows are never
    compiled.

    With no second-order block the rows become one ``LinearProgram`` over
    free z and nonnegative auxiliaries, built from the stacked matrix of the
    objective epigraph rows, then the equality rows, then the canon's <=
    rows, then the cap rows; a solve writes x into the equality rows of the
    right-hand side, and the program keeps the optimal bases of earlier
    right-hand sides.  Otherwise they become a ``conic.ConeProgram`` whose
    nonnegative rows are the canon's <= rows, then the cap rows, then the
    objective epigraph rows, then -t <= 0 for each auxiliary that no row
    bounds from below.  Either backend is compiled on the first solve,
    and ``conic`` is imported only then.  Every nonzero right-hand side is a
    target entry, a bound or a radius, so a solve at (x, scale) changes only
    the right-hand side.
    """

    def __init__(self, canon: _Canon, objective="norm"):
        self.canon, self.n = canon, canon.n
        self._aux = 0
        self._rows: list = []
        eye = np.eye(self.n)
        self._socs = [[(-eye[j], {}, 0.0) for j in idx] for idx in canon.soc_idx]
        for E, norm, r in canon.caps:
            self._cap(E, norm, r)
        self._caprows, self._rows = self._rows, []
        # on curved data, norm values and feasibility verdicts need no sharper
        # point than conic.TOL gives; on polyhedral data the objective is the
        # only curvature, and its values are printed to 12 digits
        self._sharp = canon.polyhedral
        self.objective, self.quadratic = objective, False
        self._cost, self._epi = np.zeros(self.n), []
        if isinstance(objective, np.ndarray):
            self._sharp, self._cost = True, objective
        elif objective == "norm":
            # one Euclidean block on polyhedral data is the active-set QP's
            self.quadratic = (canon.polyhedral and len(canon.obj_blocks) == 1
                              and canon.obj_blocks[0][1] is NormTag.L2)
            self._epi = [t for E, tag in canon.obj_blocks for t in self._epigraph(E, tag)]
        elif objective == "max":
            t = self._new()
            self._epi = [t]
            for E, tag in canon.obj_blocks:
                aux = self._epigraph(E, tag, t)
                if tag is NormTag.L1 and aux:
                    self._rows.append((np.zeros(self.n), {**dict.fromkeys(aux, 1.0), t: -1.0}, 0.0))
        elif objective == "center":
            self._sharp, self._epi = True, [self._new()]
            self._socs.append([(np.zeros(self.n), {self._epi[0]: -1.0}, 0.0)] * 2
                              + [(-row, {}, 0.0) for row in canon.S])
        self.driver = "conic" if self._socs else "simplex"

    def _new(self) -> int:
        self._aux += 1
        return self.n + self._aux - 1

    def _epigraph(self, E, tag: NormTag, t: int | None = None) -> list:
        """Auxiliary variables whose sum bounds |E z|_tag from above; a linf or
        l2 block is bounded by the variable t when one is given."""
        zero = np.zeros(self.n)
        if tag is NormTag.L2:
            t = self._new() if t is None else t
            self._socs.append([(zero, {t: -1.0}, 0.0)] + [(-row, {}, 0.0) for row in E])
            return [t]
        rows = [row for row in E if np.any(row)]
        if tag is NormTag.L1:
            out = ties = [self._new() for _ in rows]
        else:
            out = [self._new() if t is None else t]
            ties = out * len(rows)
        for row, t in zip(rows, ties):
            self._rows += [(row, {t: -1.0}, 0.0), (-row, {t: -1.0}, 0.0)]
        return out

    def _cap(self, E, norm: BlockNorm, radius: float):
        """Rows for norm(E z) <= radius."""
        tag = norm.blocks[0][2] if norm.is_flat else None
        if tag is NormTag.L2:
            self._socs.append([(np.zeros(self.n), {}, radius)] + [(-row, {}, 0.0) for row in E])
        elif tag is NormTag.LINF:
            self._rows += [(row, {}, radius) for row in np.vstack([E, -E])]
        else:
            aux = [t for a, b, tag in norm.blocks for t in self._epigraph(E[a:b], tag)]
            self._rows.append((np.zeros(self.n), dict.fromkeys(aux, 1.0), radius))

    def _matrix(self, rows) -> np.ndarray:
        M = np.zeros((len(rows), self.n + self._aux))
        for i, (zrow, coefs, _) in enumerate(rows):
            M[i, :self.n] = zrow
            M[i, list(coefs)] = list(coefs.values())
        return M

    def _pad(self, M: np.ndarray) -> np.ndarray:
        """M over z, with zero columns for the auxiliaries."""
        return np.hstack([M, np.zeros((M.shape[0], self._aux))])

    @cached_property
    def constraints(self) -> tuple:
        """(equality rows, <= rows, right-hand side of the <= rows at unit
        scale) over z and the auxiliaries: the canon's <= rows, then the cap
        rows.  The active-set QP reads its rows from here."""
        canon, caps = self.canon, self._caprows
        return (self._pad(canon.eq_A), np.vstack([self._pad(canon.in_A), self._matrix(caps)]),
                np.concatenate([canon.in_b, [r for *_, r in caps]]))

    @cached_property
    def lp(self) -> LinearProgram:
        """The simplex backend, with its right-hand side ``_unit`` at unit scale
        (zero on the equality rows)."""
        eq_A, in_A, in_b = self.constraints
        sizes = [len(self._rows), eq_A.shape[0], in_b.size]
        c = np.zeros(self.n + self._aux)
        c[:self.n], c[self._epi] = self._cost, 1.0
        A = np.vstack([self._matrix(self._rows), eq_A, in_A])
        self._unit = np.concatenate([[r for *_, r in self._rows], np.zeros(sizes[1]), in_b])
        eq = np.repeat([False, True, False], sizes)
        return LinearProgram(c, A, eq, np.arange(c.size) < self.n)

    @cached_property
    def program(self):
        """The conic backend, with its right-hand side ``h`` at unit scale."""
        # imported on the first curved program: compiling the interior-point
        # code is a real share of a cold import, and polyhedral work never needs it
        from . import conic

        canon = self.canon
        lp_rows = ([(row, {}, rhs) for row, rhs in zip(canon.in_A, canon.in_b)]
                   + self._caprows + self._rows)
        soc_rows = [row for blk in self._socs for row in blk]
        bounded = {j for _, coefs, _ in lp_rows + soc_rows for j, v in coefs.items() if v < 0}
        lp_rows += [(np.zeros(self.n), {j: -1.0}, 0.0)
                    for j in range(self.n, self.n + self._aux) if j not in bounded]
        rows = lp_rows + soc_rows
        self.h = np.array([rhs for *_, rhs in rows])
        self._target = conic.TARGET if self._sharp else conic.TOL
        c = np.zeros(self.n + self._aux)
        c[:self.n], c[self._epi] = self._cost, 1.0
        return conic.ConeProgram(c, self._matrix(rows), len(lp_rows), [len(b) for b in self._socs],
                                 self._pad(canon.eq_A))

    def solve(self, x, scale: float = 1.0, lexicographic: bool = False, whole: bool = False,
              dual: bool = False):
        """(status, z, value, iterations, y) at target x with bounds and radii
        times scale.

        ``value`` is the LP's optimal value, None from the conic driver (its
        epigraph variables only bound their blocks to its tolerance).  ``y`` is
        an INFEASIBLE program's Farkas ray on the equality rows, <y, x> > 0.
        ``lexicographic`` asks for the lexicographically smallest optimal
        point; the LP stays as it was.  ``whole`` keeps the LP's auxiliaries
        after z.  ``dual`` asks an OPTIMAL "norm" program for y = (equality-row
        dual, ``_subgradient``).  A "center" objective solves through
        ``solve_many``, which takes its point."""
        x = np.asarray(x, dtype=float)
        if self.driver == "conic":
            program = self.program
            return self._conic(program.solve(x, self.h * scale, target=self._target), dual)
        lp, eq = self.lp, slice(len(self._rows), len(self._rows) + x.shape[0])  # after the epigraphs
        b = self._unit * scale
        b[eq] = x
        status, v, value, its = lp.solve(b)
        if status is not SolveStatus.OPTIMAL:
            y = None if lp.ray is None else lp.ray[eq]
            return status, None, None, its, y
        pi = lp.dual if dual else None  # LP multipliers of <= rows are <= 0
        y = None if pi is None else (pi[eq], self._subgradient(-pi[:len(self._rows)]))
        if lexicographic:
            v, more = self._lexicographic()
            its += more
        return status, v if whole else v[:self.n], value, its, y

    def solve_many(self, X, dual: bool = False, target=None, centers=None) -> list:
        """``solve`` at each row of X at unit scale: one batched call on the
        conic backend (to ``target`` if given), one target after another on
        the simplex, whose cached bases carry over.  A "center" objective
        takes ``centers`` = (points, scales), each row's point and scale."""
        if self.driver == "simplex":
            return [self.solve(x, dual=dual) for x in X]
        program, H = self.program, self.h  # compiled here, which also sets self.h
        if centers is not None:
            points, scales = centers
            H = self.h * np.asarray(scales, dtype=float)[:, None]
            k = H.shape[1] - 2 - self.canon.S.shape[0]
            for h, x, point in zip(H, X, points):
                rho = max(float(np.linalg.norm(x)), float(np.linalg.norm(point))) or 1.0
                h[k], h[k + 1] = 0.5 * rho, -0.5 * rho
                h[k + 2:] = -point
        return [self._conic(r, dual) for r in program.solve_many(X, H, target or self._target)]

    def _conic(self, res, dual: bool = False):
        z = res.x[:self.n] if res.status is SolveStatus.OPTIMAL else None
        y = -res.y if res.status is SolveStatus.INFEASIBLE else None
        if dual and z is not None:  # the epigraph rows follow the canon's and the caps' <= rows
            k = self.canon.in_b.size + len(self._caprows)
            y = -res.y, self._subgradient(res.z[k:k + len(self._rows)])
        return res.status, z, None, res.iterations, y

    def _subgradient(self, mu) -> np.ndarray | None:
        """g = mu+ - mu- over c = S z from the multipliers mu >= 0 of the "norm"
        epigraph rows +-E_i z <= t, a pair per nonzero row E_i of S (None for
        a Euclidean block): T^T y + w = g at an optimum, w in C*."""
        S = self.canon.S
        if any(tag is NormTag.L2 for _, tag in self.canon.obj_blocks):
            return None
        g = np.zeros(S.shape[0])
        g[S.any(axis=1)] = mu[0::2] - mu[1::2]
        return g

    def _lexicographic(self):
        """(v, pivots) minimizing S z in turn over the LP's exact optimal face; no row is added."""
        return self.lp.lexmin(self._pad(self.canon.S))

    def value(self, z: np.ndarray) -> float:
        """The objective at z: the cost, or the sum (the maximum, for "max")
        of the block norms."""
        if isinstance(self.objective, np.ndarray):
            return float(self._cost @ z)
        parts = [tag.of(E @ z) for E, tag in self.canon.obj_blocks]
        return float(max(parts) if self.objective == "max" else sum(parts))


def _euclidean_hessian(E: np.ndarray) -> np.ndarray:
    """Hessian of |E z - center|_2^2, with a hair of regularization."""
    return 2.0 * (E.T @ E) + 1e-12 * np.eye(E.shape[1])


def _decided(status: SolveStatus, x) -> bool:
    """Whether a feasibility verdict at target x is OPTIMAL (a nonempty slice)
    rather than INFEASIBLE (certified empty); ArithmeticError for any other."""
    if status is not SolveStatus.OPTIMAL and status is not SolveStatus.INFEASIBLE:
        raise ArithmeticError(f"feasibility undecided at target {np.asarray(x).tolist()}")
    return status is SolveStatus.OPTIMAL


# ---------------------------------------------------------------------------
# the compiled slice


class MinNormSweep:
    """One slice {c in C : T c = x} plus bounds and caps, compiled once and
    solved at many targets.

    The canon is built once, with the target zero and every bound and cap at
    unit scale.  Each objective's ``_Program`` is compiled on first need and
    kept: "norm" (the sweep's own ``objective``, the Euclidean norm by
    default), "max" (the largest block norm), "center" (the distance to a
    point), a gauge (R, tag) that replaces the objective by |R c|_tag, a
    cost vector over c, and None for feasibility.  A target only swaps their
    right-hand side.

    ``values`` and ``feasible_many`` take a batch of targets: the conic
    driver solves the whole batch in one call, and an LP keeps the optimal
    bases of earlier targets for the whole sweep, so a target inside a known
    critical region costs one matrix product and a target next to one a few
    dual simplex pivots (see ``LinearProgram``).  Values agree with a cold
    solve to rounding; infeasible targets report inf.  ``solve`` gives one
    target's ``Solution``; ``project_many`` gives the Euclidean projection
    at each of a batch of targets, with bounds and caps times a scale per
    target, its conic rows in one stacked solve (``project`` is one row).

    A single Euclidean objective on polyhedral data, and a projection on
    data with no second-order cone, run the active-set QP on the polyhedral
    relaxation: the slice with its curved caps dropped and its polyhedral
    caps kept as rows after its <= rows (a flat linf cap as +-E z <= r, any
    other through auxiliaries).  The QP reads its rows from the relaxation's
    compiled feasibility program (``_start``), once per sweep, and starts
    from that program's warm vertex.  A projection that lands inside every
    curved cap is exact and an empty relaxation means an empty slice; only
    when a curved cap binds (or the QP is undecided) does the projection go
    on to the conic program of the squared distance.
    """

    def __init__(self, map, cone, objective: BlockNorm | None = None, balls=(), extra_bounds=()):
        d = np.atleast_2d(np.asarray(map, dtype=float)).shape[0]
        objective = objective or BlockNorm.flat(cone.ambient_dim, NormTag.L2)
        self.problem = MinNormProblem(map, np.zeros(d), cone, objective,
                                      tuple(extra_bounds), tuple(balls))
        self.canon = _canonicalize(self.problem)
        self._curved = [cap for cap in self.canon.caps if not cap[1].is_polyhedral]
        self._programs: dict = {}
        self._hessians: dict = {}

    def _program(self, objective="norm") -> _Program:
        """The compiled program of an objective (see the class docstring)."""
        key = objective
        if isinstance(objective, tuple):
            R = np.atleast_2d(np.asarray(objective[0], dtype=float))
            key = (R.tobytes(), objective[1])
        elif isinstance(objective, np.ndarray):
            key = objective.tobytes()
        if key not in self._programs:
            canon = self.canon
            if isinstance(objective, tuple):
                canon, objective = replace(canon, obj_blocks=[(R @ canon.S, key[1])]), "norm"
            elif isinstance(objective, np.ndarray):
                objective = canon.S.T @ objective
            self._programs[key] = _Program(canon, objective)
        return self._programs[key]

    @cached_property
    def _start(self) -> _Program:
        """The feasibility program of the polyhedral relaxation (the curved
        caps dropped), which gives the active-set QP its rows and its start."""
        caps = [cap for cap in self.canon.caps if cap[1].is_polyhedral]
        return _Program(replace(self.canon, caps=caps), None) if self._curved else self._program(None)

    def _hessian(self, program: _Program) -> np.ndarray:
        """The active-set QP's Hessian, over z and ``_start``'s cap auxiliaries,
        of a quadratic program's Euclidean block or of "center"'s |S z - point|^2."""
        if program not in self._hessians:
            E = program.canon.obj_blocks[0][0] if program.quadratic else self.canon.S
            self._hessians[program] = _euclidean_hessian(self._start._pad(E))
        return self._hessians[program]

    def _qp(self, x, H: np.ndarray, g: np.ndarray, scale: float = 1.0, dual: bool = False):
        """min .5 v H v + g z over the polyhedral relaxation at target x,
        bounds and caps times scale, v being z and ``_start``'s cap
        auxiliaries, from a warm vertex of ``_start``; as ``_Program.solve``
        (``dual``: minus the final working set's equality-row multipliers)."""
        start = self._start
        status, v0, _, its0, y = start.solve(x, scale, whole=True)
        if status is not SolveStatus.OPTIMAL:
            return status, None, None, its0, y
        eq_A, in_A, in_b = start.constraints
        if start._aux:  # g has no part on the cap auxiliaries
            g = np.concatenate([g, np.zeros(start._aux)])
        v, its, st, work = active_set_qp(H, g, eq_A, x, in_A, in_b * scale, v0)
        if dual and st is SolveStatus.OPTIMAL:
            lam = np.linalg.lstsq(np.vstack([eq_A, in_A[work]]).T, -(H @ v + g), rcond=None)[0]
            y = -lam[:x.shape[0]], None
        return st, v[:self.canon.n], None, its0 + its, y

    def values(self, X, objective="norm") -> np.ndarray:
        """Optimal value at each row of X, inf where the slice is empty;
        ``objective`` is "norm", "max", a gauge (R, tag) or a cost vector
        over c.  Any verdict but OPTIMAL or INFEASIBLE raises ArithmeticError
        naming it."""
        X = np.asarray(X, dtype=float).reshape(-1, self.problem.target.shape[0])
        rows = X.any(axis=1).nonzero()[0]
        if len(rows) < len(X) and (isinstance(objective, np.ndarray)
                                   or self._trivial(self.problem.target) is None):
            rows = np.arange(len(X))  # the zero target needs a solve (a cost may go negative)
        live = X if len(rows) == len(X) else X[rows]
        program = self._program(objective)
        sols, out = self._solve_rows(program, live), np.zeros(len(X))
        for i, (st, z, v, *_) in zip(rows.tolist(), sols):  # v: an LP's optimal value
            if st is not SolveStatus.OPTIMAL and st is not SolveStatus.INFEASIBLE:
                raise ArithmeticError(f"sweep solve ended {st.value}")
            out[i] = (math.inf if st is SolveStatus.INFEASIBLE
                      else v if v is not None else program.value(z))
        return out

    def _solve_rows(self, program: _Program, X, dual: bool = False) -> list:
        """(status, z, value, iterations, dual) of a program at each row of X:
        the active-set QP row by row for a quadratic program, else one
        ``solve_many`` call."""
        if program.quadratic:
            H, g = self._hessian(program), np.zeros(self.canon.n)
            return [self._qp(x, H, g, dual=dual) for x in X]
        return program.solve_many(X, dual=dual)

    def certified(self, X) -> np.ndarray:
        """(lo, value, hi) of the norm objective at each row of X from the one
        solve that gives the value: lo = ``lower_end`` at its dual y and a w
        in C* from its multipliers (for a Euclidean block w = Proj_C(u) - u,
        u = T^T y), hi = ``upper_end`` at its primal point; inf for an empty
        slice, NaN for an undecided solve.  Conic multipliers at ``conic.TOL``
        may leave C* by rounding (lo = NaN): those conic rows are solved again
        to ``conic.TARGET``, in one stacked call."""
        X = np.asarray(X, dtype=float).reshape(-1, self.problem.target.shape[0])
        program = self._program()
        out = self._brackets(X, self._solve_rows(program, X, dual=True))
        redo = (np.isnan(out[:, 0]) & np.isfinite(out[:, 1])).nonzero()[0]
        if redo.size and not program._sharp:  # a curved slice, solved to conic.TOL
            from .conic import TARGET
            out[redo] = self._brackets(X[redo], program.solve_many(X[redo], dual=True, target=TARGET))
        return out

    def _brackets(self, X, sols) -> np.ndarray:
        """``certified``'s rows from the norm program's dual solves at X."""
        program, p = self._program(), self.problem
        out = np.full((len(X), 3), math.nan)
        for row, x, (st, z, v, _, dual) in zip(out, X, sols):
            if st is SolveStatus.INFEASIBLE:
                row[:] = math.inf
            elif st is SolveStatus.OPTIMAL:
                (y, g), u = dual, p.map.T @ dual[0]
                w = _cones.project_l2(p.cone, u) - u if g is None else g - u
                row[:] = (self.lower_end(x, y, w), program.value(z) if v is None else v,
                          self.upper_end(x, z))
        return out

    def lower_end(self, x, y, w) -> float:
        """<y, x> / |T^T y + w|_*, a lower bound on the norm objective at x for
        any y and any w in the dual cone C*: for c in C with T c = x,
        <y, x> = <T^T y + w, c> - <w, c> <= |T^T y + w|_* |c|.  NaN when w
        is not in C* to 1e-10 of the scale of u = T^T y + w and w."""
        p = self.problem
        u = p.map.T @ y + w
        dual_cone = _cones.dual(_set_level(p.cone))
        if not _cones.contains(dual_cone, w, tol=1e-10 * np.abs(np.concatenate([u, w])).max()):
            return math.nan
        top, den = float(y @ x), p.objective.dual_of(u)
        return top / den if den > 0.0 else (math.inf if top > 0.0 else math.nan)

    def upper_end(self, x, z) -> float:
        """|S z|, an upper bound on the norm objective at x once every row of
        the canon (equality, <=, cap and second-order) holds at z to
        ``FEASIBILITY`` times the scale of x and z, as a simplex verdict is
        checked; else inf."""
        canon, z = self.canon, np.asarray(z, dtype=float)
        eps = FEASIBILITY * max(1.0, float(np.abs(x).max()), float(np.abs(z).max()))
        ok = (np.abs(canon.eq_A @ z - x).max(initial=0.0) <= eps
              and (canon.in_A @ z - canon.in_b).max(initial=0.0) <= eps
              and all(norm.of(E @ z) <= r + eps for E, norm, r in canon.caps)
              and all(z[i[0]] >= np.linalg.norm(z[i[1:]]) - eps for i in canon.soc_idx))
        return self.problem.objective.of(canon.S @ z) if ok else math.inf

    def batched(self, objective="norm") -> bool:
        """Whether ``values`` at this objective is one stacked conic solve."""
        program = self._program(objective)
        return program.driver == "conic" and not program.quadratic

    def value(self, x: np.ndarray) -> float:
        """Optimal value for target x, or inf when the slice is empty."""
        return float(self.values(x)[0])

    def feasible_many(self, X) -> list:
        """(status, Farkas y or None) of the feasibility program at each row of
        X, to be read by ``_decided`` and ``_certificate``."""
        X = np.asarray(X, dtype=float).reshape(-1, self.problem.target.shape[0])
        return [(st, y) for st, _, _, _, y in self._program(None).solve_many(X)]

    def feasible(self, x: np.ndarray) -> bool:
        """Whether the slice at x is nonempty; ArithmeticError when undecided."""
        return _decided(self.feasible_many(x)[0][0], x)

    def solve(self, x, objective="norm", lexicographic: bool = False) -> Solution:
        """One target's Solution for an objective as in the class docstring: the
        point, the objective's value, residuals, and for an empty slice with
        no bounds or caps a checked certificate.  ``lexicographic`` asks an
        LP for its lexicographically smallest optimum.  Cost vectors may go
        negative, so only the others answer the zero target with no solve."""
        x = self._target(x)
        if not isinstance(objective, np.ndarray) and (sol := self._trivial(x)) is not None:
            return sol
        program = self._program(objective)
        if program.quadratic:
            st, z, _, its, y = self._qp(x, self._hessian(program), np.zeros(self.canon.n))
        else:
            st, z, _, its, y = program.solve(x, lexicographic=lexicographic)
        driver = "active-set" if program.quadratic else program.driver
        return self._conclude(x, 1.0, st, its, driver,
                              lambda: (self.canon.S @ z, program.value(z)), y)

    def project(self, x, point, scale: float = 1.0) -> Solution:
        """Euclidean projection of ``point`` onto the slice at target x, every
        bound and cap times scale (|x|_X when the caps grow with the target
        norm); value is the distance.  The one-row ``project_many``."""
        return self.project_many([x], [point], [scale])[0]

    def project_many(self, X, points, scales) -> list:
        """``project`` at each row of X, of the point and at the scale in the
        same row of ``points`` and ``scales``.  With no second-order cone
        each row runs its QP in turn; a row it leaves open, or any row on a
        second-order slice, keeps ``_trivial``'s answer if there is one, and
        the others share one stacked conic solve."""
        canon, center, S = self.canon, self._program("center"), self.canon.S
        out, todo = [], []  # todo: (row, x, point, scale, QP iterations) for the conic driver
        for x, point, scale in zip(X, points, scales):
            x, point, st, its = self._target(x), np.asarray(point, dtype=float), None, 0
            if not canon.soc_idx:
                st, z, _, its, y = self._qp(x, self._hessian(center), -2.0 * (S.T @ point), scale)
                # the polyhedral caps are rows of the QP: an exact test on them
                # could send a binding cap, off by rounding, to the conic driver
                if not (canon.polyhedral or st is SolveStatus.INFEASIBLE
                        or (st is SolveStatus.OPTIMAL
                            and all(norm.of(E @ z) <= r * scale for E, norm, r in self._curved))):
                    st = None
            if st is not None:
                out.append(self._conclude(x, scale, st, its, "active-set",
                                          lambda: (S @ z, np.linalg.norm(S @ z - point)), y))
                continue
            # an interior point would converge slowly to a zero distance
            out.append(self._trivial(x, scale, point))
            if out[-1] is None:
                todo.append((len(out) - 1, x, point, scale, its))
        if todo:
            _, xs, pts, scs, _ = zip(*todo)
            for (i, x, point, scale, its), (st, z, _, more, y) in zip(
                    todo, center.solve_many(np.array(xs), centers=(pts, scs))):
                out[i] = self._conclude(x, scale, st, its + more, "conic",
                                        lambda: (S @ z, np.linalg.norm(S @ z - point)), y)
        return out

    # -- checks and certificates at one target --------------------------------

    def _target(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != self.problem.target.shape:
            raise ValueError(f"target dim {x.shape[0]} does not match the map's "
                             f"{self.problem.target.shape[0]} rows")
        return x

    def _residuals(self, c: np.ndarray, x, scale: float = 1.0,
                   cone_tol: float | None = None) -> dict:
        p = self.problem
        eq = float(np.max(np.abs(p.map @ c - x), initial=0.0))
        if cone_tol is None:
            cone_tol = 1e-7 * max(1.0, float(np.linalg.norm(c)))
        cone_ok = _cones.contains(p.cone, c, tol=cone_tol)
        bounds = 0.0
        for a, b in p.extra_bounds:
            bounds = max(bounds, float(a @ c - b * scale))
        for ball in p.balls:
            bounds = max(bounds, ball.value(c) - ball.bound * scale)
        return {"eq": eq, "cone": 0.0 if cone_ok else 1.0, "bounds": max(bounds, 0.0)}

    def _trivial(self, x, scale: float = 1.0, c: np.ndarray | None = None) -> Solution | None:
        """c (the zero point by default) as the answer at value 0, when it
        meets every constraint to rounding: the zero point of a min-norm
        problem at target 0, or a point that is its own projection."""
        if c is None:
            if np.any(x):
                return None
            c = np.zeros(self.problem.cone.ambient_dim)
        tol = 1e-12 * max(float(np.linalg.norm(c)), float(np.linalg.norm(x)))
        strict = self._residuals(c, x, scale, cone_tol=tol)
        if strict["cone"] or max(strict["eq"], strict["bounds"]) > tol:
            return None
        return Solution(SolveStatus.OPTIMAL, c.copy(), 0.0, self._residuals(c, x, scale),
                        driver="trivial")

    def _conclude(self, x, scale: float, st: SolveStatus, its: int, driver: str, answer,
                  y=None) -> Solution:
        """The Solution for a driver's verdict at target x; ``answer()`` gives
        (point, value) when OPTIMAL, and ``y`` is the Farkas ray of an
        INFEASIBLE verdict (see ``_Program.solve``)."""
        if st is SolveStatus.INFEASIBLE:
            sol = Solution(st, certificate=self._certificate(x, y))
        elif st is SolveStatus.OPTIMAL:
            c, value = answer()
            sol = Solution(st, c, float(value), self._residuals(c, x, scale))
        else:
            sol = Solution(st)
        sol.iterations, sol.driver = its, driver
        return sol

    def _certificate(self, x, y) -> Certificate | None:
        """The checked Farkas certificate in the ray y of the verdict that found
        the slice at target x empty, when no bound or cap takes part in it."""
        p = self.problem
        return None if p.extra_bounds or p.balls else _ray_certificate(p.map, x, p.cone, y)


# ---------------------------------------------------------------------------
# one-shot entry points: compile, then solve at the target


def solve_min_norm(problem: MinNormProblem, lexicographic: bool = True) -> Solution:
    """Minimize the problem's block norm over the slice {T c = x} inter C.

    Returns an Optimal solution with the ambient minimizer, an Infeasible
    verdict carrying a separating certificate, or IterationLimit.  For a
    Euclidean objective the minimizer is unique; for l1/linf objectives the
    returned point is the lexicographically smallest optimum (disable with
    ``lexicographic=False`` when only the value matters).
    """
    sweep = MinNormSweep(problem.map, problem.cone, problem.objective, problem.balls,
                         problem.extra_bounds)
    return sweep.solve(problem.target, lexicographic=lexicographic)


def solve_min_gauge(map, target, cone: _cones.Cone, gauge: tuple[np.ndarray, NormTag], *,
                    extra_bounds=(), balls=()) -> Solution:
    """Minimize |R c|_tag over the slice, for a possibly degenerate gauge.

    Unlike solve_min_norm the objective may ignore part of the ambient point
    (R is any matrix), so it is a sublinear gauge rather than a norm.
    Solution.value is the gauge value of the minimizer.
    """
    sweep = MinNormSweep(map, cone, balls=balls, extra_bounds=extra_bounds)
    return sweep.solve(target, gauge)


def solve_min_linear(map, target, cone: _cones.Cone, cost, *, extra_bounds=(),
                     balls=()) -> Solution:
    """Minimize <cost, c> over the slice {T c = x} inter C plus bounds.

    The value can be negative.  The feasible set must be bounded in the
    -cost direction (a norm ball does it); an unbounded objective raises.
    Polyhedral instances solve exactly with the simplex; curved ones with
    the conic driver, to its residual and gap tolerance.
    """
    sweep = MinNormSweep(map, cone, balls=balls, extra_bounds=extra_bounds)
    sol = sweep.solve(target, np.asarray(cost, dtype=float))
    if sol.status is SolveStatus.UNBOUNDED:
        raise ArithmeticError("linear objective unbounded below; add a norm cap")
    return sol


def solve_max_block_norm(problem: MinNormProblem) -> Solution:
    """Minimize max_b |c_b| over the objective blocks of the problem.

    One epigraph variable t bounds every block: an LP for polyhedral block
    tags on polyhedral data, a conic program for any other mix of tags and
    cones.
    """
    sweep = MinNormSweep(problem.map, problem.cone, problem.objective, problem.balls,
                         problem.extra_bounds)
    return sweep.solve(problem.target, "max")


def project_onto_slice(map: np.ndarray, target: np.ndarray, cone: _cones.Cone,
                       point: np.ndarray, *, extra_bounds=(), balls=()) -> Solution:
    """Euclidean projection of ``point`` onto {c in C : T c = x} plus bounds.

    The projection is unique by strict convexity; Infeasible when the slice
    is empty.  Solution.value is the distance.  A one-shot
    ``MinNormSweep.project``; ``ConeMap`` and ``CorrespondenceSpec`` keep
    their compiled slice for many targets.
    """
    sweep = MinNormSweep(map, cone, balls=balls, extra_bounds=extra_bounds)
    return sweep.project(target, point)


@dataclass
class FeasibilityReport:
    """``check_feasible``'s verdict: a point of a nonempty slice, or the
    checked certificate of an empty one (None when bounds or caps take part)."""

    feasible: bool
    certificate: Certificate | None = None
    point: np.ndarray | None = None


def check_feasible(map: np.ndarray, target: np.ndarray, cone: _cones.Cone, *,
                   extra_bounds=(), balls=()) -> FeasibilityReport:
    """Is {c in C : T c = x, bounds} nonempty?

    Polyhedral systems are decided by phase 1, curved ones by the conic
    driver's feasible point or checked certificate: one solve either way.
    ArithmeticError when the program is undecided.  An empty slice with no
    bounds or caps comes with a verified Farkas-type certificate, read off
    the ray of that same verdict.
    """
    sweep = MinNormSweep(map, cone, balls=balls, extra_bounds=extra_bounds)
    x = sweep._target(target)
    st, z, _, _, y = sweep._program(None).solve(x)
    if _decided(st, x):
        return FeasibilityReport(True, point=sweep.canon.S @ z)
    return FeasibilityReport(False, certificate=sweep._certificate(x, y))


def _set_level(cone: _cones.Cone) -> _cones.Cone:
    """DirectSumL1 and Product coincide as point sets; normalize to Product."""
    if isinstance(cone, (_cones.DirectSumL1, _cones.Product)):
        return _cones.Product(tuple(_set_level(p) for p in cone.parts))
    if isinstance(cone, _cones.Negation):
        return _cones.Negation(_set_level(cone.inner))
    return cone


def farkas_certificate(map: np.ndarray, target: np.ndarray, cone: _cones.Cone) -> Certificate | None:
    """Separating y with <y, x> > 0 and T^T y in dual(-C), if one exists.

    One solve of the slice's feasibility program: an INFEASIBLE verdict
    carries its Farkas ray (the simplex's on polyhedral cones, the conic
    driver's on curved ones), whose equality-row part is returned once it
    passes ``certificate_is_valid``.  Images of curved cones need not be
    closed, so a target on the boundary of the closure may have none.
    """
    sweep = MinNormSweep(map, cone)
    x = sweep._target(target)
    return sweep._certificate(x, sweep._program(None).solve(x)[4])


def certificate_is_valid(map, target, cone, y) -> bool:
    """Check <y, x> > ``OPTIMALITY`` and T^T y in dual(-C) within tolerance."""
    T = np.atleast_2d(np.asarray(map, dtype=float))
    x = np.asarray(target, dtype=float)
    y = np.asarray(y, dtype=float)
    if float(y @ x) <= OPTIMALITY:
        return False
    dual_cone = _cones.dual(_cones.Negation(_set_level(cone)))
    u = T.T @ y
    return _cones.contains(dual_cone, u, tol=1e-8 * max(1.0, float(np.linalg.norm(u))))


def _ray_certificate(map, target, cone, y) -> Certificate | None:
    """y, scaled to max-abs 1, as the certificate of the empty slice at target
    when it passes ``certificate_is_valid``; y is the equality-row part of the
    Farkas ray of an INFEASIBLE verdict (see ``_Program.solve``), or None."""
    if y is None or not np.abs(y).max(initial=0.0) > 0.0:
        return None
    y = y / np.abs(y).max()
    return Certificate(y=y) if certificate_is_valid(map, target, cone, y) else None
