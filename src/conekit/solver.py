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
the canonical problem and an objective (a sum or maximum of block norms, a
gauge, a linear cost, a distance, or none) as one list of epigraph,
equality and inequality rows plus second-order blocks.  Rows with no
second-order block go to the dense simplex of ``simplex.py``, which also
yields Farkas-type infeasibility certificates; all others (sums and maxima
of blocks with a Euclidean one, second-order cones, caps with a Euclidean
block) go to the interior-point method of ``conic.py``, which solves a
whole batch of targets at once (``MinNormSweep.values`` and
``feasible_many``).  An active-set method handles a single Euclidean
objective on polyhedral data, and projections onto the polyhedral
relaxation of a capped slice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import cones as _cones
from .norms import BlockNorm, NormTag
from .projops import nonneg_lstsq
from .simplex import DEFAULT_TOL, LinearProgram, SolveStatus, Tolerances

__all__ = [
    "Tolerances",
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

    Farkas evidence: ``<y, x> > 0`` while ``T^T y`` lies in the dual cone
    of ``-C``, so no ``c in C`` can satisfy ``T c = x``.  Polyhedral cones
    get it from a separation LP, curved ones from the conic driver's
    certificate; either way it has passed ``certificate_is_valid``.
    """

    y: np.ndarray
    kind: str = "exact"  # every certificate returned here has been checked
    note: str = ""


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
    tol: Tolerances = DEFAULT_TOL,
):
    """min .5 z H z + g z over {eq_A z = eq_b, in_A z <= in_b} from feasible z0.

    Classical primal active-set iteration: solve the equality-constrained
    subproblem on the current working set through a null-space basis, step to
    the nearest blocking constraint, drop constraints with negative
    multipliers.  Ties break on the lowest row index so runs are
    deterministic.  H must be positive semidefinite; a hair of Tikhonov
    regularization keeps degenerate reduced Hessians solvable.
    """
    n = z0.shape[0]
    eq_A = eq_A.reshape(-1, n) if eq_A.size else np.zeros((0, n))
    in_A = in_A.reshape(-1, n) if in_A.size else np.zeros((0, n))
    z = np.asarray(z0, dtype=float).copy()
    eps = tol.feasibility
    scale = max(1.0, float(np.linalg.norm(z)))
    work = [i for i in range(in_A.shape[0]) if in_A[i] @ z >= in_b[i] - 1e-9 * scale]
    cap = tol.cap(in_A.shape[0] + eq_A.shape[0], n)

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
                return z, it, SolveStatus.OPTIMAL
            lam, *_ = np.linalg.lstsq(Aact.T, -grad, rcond=None)
            lam_in = lam[eq_A.shape[0] :]
            if lam_in.size == 0 or np.min(lam_in) >= -1e-9:
                return z, it, SolveStatus.OPTIMAL
            work.pop(int(np.argmin(lam_in)))
            continue
        alpha = 1.0
        blocking = -1
        for i in range(in_A.shape[0]):
            if i in work:
                continue
            ap = in_A[i] @ p
            if ap > eps:
                ratio = (in_b[i] - in_A[i] @ z) / ap
                if ratio < alpha - 1e-14:
                    alpha, blocking = max(ratio, 0.0), i
        z = z + alpha * p
        if blocking >= 0:
            work.append(blocking)
            work.sort()
    return z, it, SolveStatus.ITERATION_LIMIT


# ---------------------------------------------------------------------------
# canonical constraint assembly


@dataclass
class _Canon:
    """Solver-variable form of one MinNormProblem.

    Ambient point c = S z (plus zero columns for auxiliary variables).
    Linear part: eq rows, <= rows (l1 and linf caps among them, expanded
    exactly).  Curved part: second-order index blocks, and the caps
    norm(E z) <= r of every ball with a Euclidean block, E the ball's matrix
    times S.
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
        return not self.soc_idx and not self.caps


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
    T, x = problem.map, problem.target
    S0, nonneg, hrows, socs = _cone_structure(problem.cone)
    n0 = S0.shape[1]

    eq_rows = [T @ S0]
    eq_rhs = [x.copy()]
    in_rows: list[np.ndarray] = []
    in_rhs: list[np.ndarray] = []
    if hrows.shape[0]:
        in_rows.append(-hrows)
        in_rhs.append(np.zeros(hrows.shape[0]))
    if nonneg.any():
        neg = -np.eye(n0)[nonneg]
        in_rows.append(neg)
        in_rhs.append(np.zeros(neg.shape[0]))
    for a, bnd in problem.extra_bounds:
        in_rows.append((a @ S0).reshape(1, -1))
        in_rhs.append(np.array([bnd]))

    curved: list = []  # balls with a Euclidean block, kept as caps
    aux_specs: list = []  # (E rows in z0 coords, per-aux row groups, bound) for l1-style expansion

    for ball in problem.balls:
        E = ball.matrix @ S0
        bn = ball._block_norm()
        tags = {tag for _, _, tag in bn.blocks}
        # l1 and linf balls expand exactly into <= rows: a flat linf ball
        # needs no aux, l1 blocks and linf blocks of a block norm do
        if NormTag.L2 in tags:
            curved.append(ball)
        elif tags == {NormTag.LINF} and bn.is_flat:
            in_rows.append(E)
            in_rhs.append(np.full(E.shape[0], ball.bound))
            in_rows.append(-E)
            in_rhs.append(np.full(E.shape[0], ball.bound))
        else:
            aux_specs.append((E, bn, ball.bound))

    # count auxiliary variables for the polyhedral ball expansions
    extra = 0
    aux_layout = []
    for E, bn, bound in aux_specs:
        per_block = []
        for a, b, tag in bn.blocks:
            if tag is NormTag.L1:
                ids = list(range(extra, extra + (b - a)))
                extra += b - a
            else:
                ids = [extra]
                extra += 1
            per_block.append((a, b, tag, ids))
        aux_layout.append((E, per_block, bound))

    total_n = n0 + extra
    S = np.zeros((S0.shape[0], total_n))
    S[:, :n0] = S0

    def widen(M: np.ndarray) -> np.ndarray:
        if M.size == 0:
            return np.zeros((0, total_n))
        out = np.zeros((M.shape[0], total_n))
        out[:, : M.shape[1]] = M
        return out

    eq_A = widen(np.vstack(eq_rows))
    eq_b = np.concatenate(eq_rhs)
    in_A = widen(np.vstack(in_rows)) if in_rows else np.zeros((0, total_n))
    in_b = np.concatenate(in_rhs) if in_rhs else np.zeros(0)

    rows2, rhs2 = [], []
    for E, per_block, bound in aux_layout:
        sum_row = np.zeros(total_n)
        for a, b, tag, ids in per_block:
            # an l1 block ties each row to its own aux, a linf block all to one
            ties = ids if tag is NormTag.L1 else ids * (b - a)
            for i, t in zip(range(a, b), ties):
                for sgn in (1.0, -1.0):
                    r = np.zeros(total_n)
                    r[: E.shape[1]] = sgn * E[i]
                    r[n0 + t] = -1.0
                    rows2.append(r)
                    rhs2.append(0.0)
            sum_row[[n0 + i for i in ids]] = 1.0
        rows2.append(sum_row)
        rhs2.append(bound)
    if rows2:
        in_A = np.vstack([in_A, np.array(rows2)])
        in_b = np.concatenate([in_b, np.array(rhs2)])

    obj_blocks = [(S[a:b, :], tag) for a, b, tag in problem.objective.blocks]
    return _Canon(
        S=S,
        eq_A=eq_A,
        eq_b=eq_b,
        in_A=in_A,
        in_b=in_b,
        soc_idx=list(socs),
        caps=[(ball.matrix @ S, ball._block_norm(), ball.bound) for ball in curved],
        obj_blocks=obj_blocks,
    )


# ---------------------------------------------------------------------------
# one encoder, two backends


class _Program:
    """One canon plus an objective as one list of rows, compiled once.

    Variables: z, then auxiliary epigraph variables in creation order.  Rows
    (z coefficients, {aux variable: coefficient}, right-hand side at unit
    scale): the epigraph rows written here, the canon's equality rows and
    its <= rows.  An l1 or linf block |E z| <= t becomes the rows +-E z <= t
    (one t per row for l1, one for the block for linf) and an l2 block the
    second-order block (t, E z).  The cone's index blocks are second-order
    blocks too, and so are the caps: a flat Euclidean cap as (r, E z), any
    other as its block epigraphs summed under one <= row.

    ``objective`` is "norm" (the sum of the canon's obj_blocks), "max"
    (their maximum: one epigraph variable t, each l2 block as (t, E z), each
    linf row as +-E z <= t and each l1 block's epigraph summed under one
    <= t row), "center" (half the squared distance of S z to a point given
    per solve, as one rotated cone (t + rho/2, t - rho/2, S z - point), which
    stays away from the apex when the distance is 0), a cost vector over z,
    or None for a feasibility program.  Objective epigraph variables cost 1.
    A "norm" objective of one Euclidean block on polyhedral data is
    ``quadratic``: the active-set QP solves it with ``hessian``, from a
    vertex of the feasibility program, and its own rows are never compiled.

    With no second-order block the rows become a ``LinearProgram`` over free
    z and nonnegative auxiliaries, its rows the epigraph rows, then the
    equality rows, then the canon's <= rows; it keeps the optimal bases of
    earlier right-hand sides.  Otherwise they become a ``conic.ConeProgram``
    whose nonnegative rows are the canon's <= rows, then the epigraph rows,
    then -t <= 0 for each auxiliary that no row bounds from below.  Either
    backend is compiled on the first solve, and ``conic`` is imported only
    then.  Every nonzero right-hand side is a target entry, a bound or a
    radius, so a solve at (x, scale) changes only the right-hand side.
    """

    def __init__(self, canon: _Canon, objective="norm"):
        self.canon, self.n = canon, canon.n
        self._aux = 0
        self._rows: list = []
        eye = np.eye(self.n)
        self._socs = [[(-eye[j], {}, 0.0) for j in idx] for idx in canon.soc_idx]
        for E, norm, r in canon.caps:
            self._cap(E, norm, r)
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
        if norm.is_flat and norm.blocks[0][2] is NormTag.L2:
            self._socs.append([(np.zeros(self.n), {}, radius)] + [(-row, {}, 0.0) for row in E])
            return
        aux = [t for a, b, tag in norm.blocks for t in self._epigraph(E[a:b], tag)]
        self._rows.append((np.zeros(self.n), dict.fromkeys(aux, 1.0), radius))

    def _matrix(self, rows) -> np.ndarray:
        M = np.zeros((len(rows), self.n + self._aux))
        for i, (zrow, coefs, _) in enumerate(rows):
            M[i, :self.n] = zrow
            M[i, list(coefs)] = list(coefs.values())
        return M

    @cached_property
    def lp(self) -> LinearProgram:
        """The simplex backend; also fixes which rows a solve overrides."""
        canon, lp = self.canon, LinearProgram()
        lp.add_vars(self.n, nonneg=False, obj=self._cost)
        cost = np.zeros(self._aux)
        cost[[t - self.n for t in self._epi]] = 1.0
        lp.add_vars(self._aux, nonneg=True, obj=cost)
        for row, (*_, rhs) in zip(self._matrix(self._rows), self._rows):
            lp.add_row(row, "<=", rhs)
        for row, rhs in zip(canon.eq_A, canon.eq_b):
            lp.add_row(row, "=", rhs)
        for row, rhs in zip(canon.in_A, canon.in_b):
            lp.add_row(row, "<=", rhs)
        unit = np.concatenate([[rhs for *_, rhs in self._rows], np.zeros(canon.eq_A.shape[0]),
                               canon.in_b])
        moving = np.flatnonzero(unit)
        self._eq_start, self._moving, self._unit = len(self._rows), moving.tolist(), unit[moving]
        return lp

    @cached_property
    def program(self):
        """The conic backend, with its right-hand side ``h`` at unit scale."""
        # imported on the first curved program: compiling the interior-point
        # code is a real share of a cold import, and polyhedral work never needs it
        from . import conic

        canon = self.canon
        lp_rows = [(row, {}, rhs) for row, rhs in zip(canon.in_A, canon.in_b)] + self._rows
        soc_rows = [row for blk in self._socs for row in blk]
        bounded = {j for _, coefs, _ in lp_rows + soc_rows for j, v in coefs.items() if v < 0}
        lp_rows += [(np.zeros(self.n), {j: -1.0}, 0.0)
                    for j in range(self.n, self.n + self._aux) if j not in bounded]
        rows = lp_rows + soc_rows
        self.h = np.array([rhs for *_, rhs in rows])
        self._target = conic.TARGET if self._sharp else conic.TOL
        c = np.zeros(self.n + self._aux)
        c[:self.n], c[self._epi] = self._cost, 1.0
        A = np.hstack([canon.eq_A, np.zeros((canon.eq_A.shape[0], self._aux))])
        return conic.ConeProgram(c, self._matrix(rows), len(lp_rows), [len(b) for b in self._socs], A)

    def solve(self, x, scale: float = 1.0, tol: Tolerances = DEFAULT_TOL, center=None,
              lexicographic: bool = False):
        """(status, z, value, iterations, conic result or None) at target x with
        bounds and radii times scale.

        ``value`` is the LP's optimal value, None from the conic driver (its
        epigraph variables only bound their blocks to its tolerance).
        ``center`` is the point of a "center" objective.  ``lexicographic``
        asks for the lexicographically smallest optimal point; the LP stays as it was.
        """
        x = np.asarray(x, dtype=float)
        if self.driver == "conic":
            program = self.program
            h = self.h * scale
            if center is not None:
                k = h.shape[0] - 2 - self.canon.S.shape[0]
                rho = max(float(np.linalg.norm(x)), float(np.linalg.norm(center))) or 1.0
                h[k], h[k + 1] = 0.5 * rho, -0.5 * rho
                h[k + 2:] = -center
            return self._conic(program.solve(x, h, target=self._target))
        lp = self.lp
        override = dict(enumerate(x.tolist(), self._eq_start))
        if self._moving:
            override.update(zip(self._moving, (self._unit * scale).tolist()))
        status, v, value, its = lp.solve(tol, rhs_override=override)
        if status is not SolveStatus.OPTIMAL:
            return status, None, None, its, None
        if lexicographic:
            v, more = self._lexicographic(tol)
            its += more
        return status, v[:self.n], value, its, None

    def solve_many(self, X, tol: Tolerances = DEFAULT_TOL) -> list:
        """``solve`` at each row of X at unit scale: one batched call on the
        conic backend, one target after another on the simplex, whose cached
        bases carry over."""
        if self.driver == "simplex":
            return [self.solve(x, tol=tol) for x in X]
        program = self.program  # compiled here, which also sets self.h
        return [self._conic(r) for r in program.solve_many(X, self.h, target=self._target)]

    def _conic(self, res):
        z = res.x[:self.n] if res.status is SolveStatus.OPTIMAL else None
        return res.status, z, None, res.iterations, res

    def _lexicographic(self, tol: Tolerances):
        """(v, pivots) minimizing S z in turn over the LP's exact optimal face; no row is added."""
        S = self.canon.S
        return self.lp.lexmin(np.hstack([S, np.zeros((S.shape[0], self._aux))]), tol)

    def value(self, z: np.ndarray) -> float:
        """The objective at z: the cost, or the sum (the maximum, for "max")
        of the block norms."""
        if isinstance(self.objective, np.ndarray):
            return float(self._cost @ z)
        parts = [tag.of(E @ z) for E, tag in self.canon.obj_blocks]
        return float(max(parts) if self.objective == "max" else sum(parts))

    @cached_property
    def hessian(self) -> np.ndarray:
        """The active-set QP's Hessian: of the one Euclidean block of a
        quadratic objective, of |S z - point|^2 for "center"."""
        return _euclidean_hessian(self.canon.obj_blocks[0][0] if self.quadratic else self.canon.S)


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
    target's ``Solution`` and ``project`` one Euclidean projection, with
    bounds and caps times a scale.

    A single Euclidean objective on polyhedral data, and a projection on
    data with no second-order cone, run the active-set QP from a warm
    vertex of the feasibility program of the polyhedral relaxation (the
    caps dropped).  A projection that lands inside every cap is exact and
    an empty relaxation means an empty slice; only when a cap binds (or the
    QP is undecided) does the projection go on to the conic program of the
    squared distance.
    """

    def __init__(self, map, cone, objective: BlockNorm | None = None,
                 tol: Tolerances = DEFAULT_TOL, balls=(), extra_bounds=()):
        d = np.atleast_2d(np.asarray(map, dtype=float)).shape[0]
        objective = objective or BlockNorm.flat(cone.ambient_dim, NormTag.L2)
        self.problem = MinNormProblem(map, np.zeros(d), cone, objective,
                                      tuple(extra_bounds), tuple(balls))
        self.tol = tol
        self.canon = _canonicalize(self.problem)
        self._programs: dict = {}

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
        """The feasibility program of the polyhedral relaxation, which starts
        the active-set QP."""
        if not self.canon.caps:
            return self._program(None)
        return _Program(replace(self.canon, caps=[]), None)

    def _qp(self, x, H: np.ndarray, g: np.ndarray, scale: float = 1.0):
        """min .5 z H z + g z over the polyhedral relaxation at target x, bounds
        times scale, from a warm vertex of ``_start``; as ``_Program.solve``."""
        status, z0, _, its0, _ = self._start.solve(x, scale, self.tol)
        if status is not SolveStatus.OPTIMAL:
            return status, None, None, its0, None
        canon = self.canon
        z, its, st = active_set_qp(H, g, canon.eq_A, x, canon.in_A, canon.in_b * scale, z0,
                                   self.tol)
        return st, z, None, its0 + its, None

    def values(self, X, objective="norm") -> np.ndarray:
        """Optimal value at each row of X, inf where the slice is empty;
        ``objective`` is "norm", "max" or a gauge (R, tag)."""
        X = np.asarray(X, dtype=float).reshape(-1, self.problem.target.shape[0])
        rows = X.any(axis=1).nonzero()[0]
        if len(rows) < len(X) and self._trivial(self.problem.target) is None:
            rows = np.arange(len(X))  # the zero target needs a solve too
        live = X if len(rows) == len(X) else X[rows]
        program = self._program(objective)
        if program.quadratic:
            g = np.zeros(self.canon.n)
            sols = [self._qp(x, program.hessian, g) for x in live]
        else:
            sols = program.solve_many(live, self.tol)
        out = np.zeros(len(X))
        for i, (st, z, v, *_) in zip(rows.tolist(), sols):  # v: an LP's optimal value
            if st is not SolveStatus.OPTIMAL and st is not SolveStatus.INFEASIBLE:
                raise ArithmeticError("iteration limit in sweep solve")
            out[i] = (math.inf if st is SolveStatus.INFEASIBLE
                      else v if v is not None else program.value(z))
        return out

    def value(self, x: np.ndarray) -> float:
        """Optimal value for target x, or inf when the slice is empty."""
        return float(self.values(x)[0])

    def feasible_many(self, X) -> list:
        """(status, conic result or None) of the feasibility program at each
        row of X, to be read by ``_decided``."""
        X = np.asarray(X, dtype=float).reshape(-1, self.problem.target.shape[0])
        return [(st, res) for st, _, _, _, res in self._program(None).solve_many(X, self.tol)]

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
            st, z, _, its, res = self._qp(x, program.hessian, np.zeros(self.canon.n))
        else:
            st, z, _, its, res = program.solve(x, tol=self.tol, lexicographic=lexicographic)
        driver = "active-set" if program.quadratic else program.driver
        return self._conclude(x, 1.0, st, its, driver,
                              lambda: (self.canon.S @ z, program.value(z)), res)

    def project(self, x, point, scale: float = 1.0) -> Solution:
        """Euclidean projection of ``point`` onto the slice at target x, every
        bound and cap times scale (|x|_X when the caps grow with the target
        norm); value is the distance."""
        x, point = self._target(x), np.asarray(point, dtype=float)
        st, its, driver, res = None, 0, "active-set", None
        canon, center = self.canon, self._program("center")
        if not canon.soc_idx:
            st, z, _, its, _ = self._qp(x, center.hessian, -2.0 * (canon.S.T @ point), scale)
            if not (canon.polyhedral or st is SolveStatus.INFEASIBLE
                    or (st is SolveStatus.OPTIMAL
                        and all(norm.of(E @ z) <= r * scale for E, norm, r in canon.caps))):
                st = None
        if st is None and (sol := self._trivial(x, scale, point)) is not None:
            return sol  # interior points converge slowly to a zero distance
        if st is None:
            st, z, _, more, res = center.solve(x, scale, center=point)
            its += more
            driver = "conic"
        S = canon.S
        return self._conclude(x, scale, st, its, driver,
                              lambda: (S @ z, np.linalg.norm(S @ z - point)), res)

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
                  res=None) -> Solution:
        """The Solution for a driver's verdict at target x; ``answer()`` gives
        (point, value) when OPTIMAL, and ``res`` is the conic driver's result,
        if it ran."""
        if st is SolveStatus.INFEASIBLE:
            sol = Solution(st, certificate=self._certificate(x, res))
        elif st is SolveStatus.OPTIMAL:
            c, value = answer()
            sol = Solution(st, c, float(value), self._residuals(c, x, scale))
        else:
            sol = Solution(st)
        sol.iterations, sol.driver = its, driver
        return sol

    def _certificate(self, x, res=None) -> Certificate | None:
        """A checked Farkas certificate for the empty slice at target x when
        there are no bounds or caps: from the conic driver's INFEASIBLE result
        ``res`` when it gives one, else from ``farkas_certificate``."""
        p = self.problem
        if p.extra_bounds or p.balls:
            return None
        return ((res is not None and _conic_certificate(p.map, x, p.cone, res, self.tol))
                or farkas_certificate(p.map, x, p.cone, self.tol))


# ---------------------------------------------------------------------------
# one-shot entry points: compile, then solve at the target


def solve_min_norm(
    problem: MinNormProblem,
    tol: Tolerances = DEFAULT_TOL,
    lexicographic: bool = True,
) -> Solution:
    """Minimize the problem's block norm over the slice {T c = x} inter C.

    Returns an Optimal solution with the ambient minimizer, an Infeasible
    verdict carrying a separating certificate, or IterationLimit.  For a
    Euclidean objective the minimizer is unique; for l1/linf objectives the
    returned point is the lexicographically smallest optimum (disable with
    ``lexicographic=False`` when only the value matters).
    """
    sweep = MinNormSweep(problem.map, problem.cone, problem.objective, tol, problem.balls,
                         problem.extra_bounds)
    return sweep.solve(problem.target, lexicographic=lexicographic)


def solve_min_gauge(
    map,
    target,
    cone: _cones.Cone,
    gauge: tuple[np.ndarray, NormTag],
    *,
    extra_bounds=(),
    balls=(),
    tol: Tolerances = DEFAULT_TOL,
) -> Solution:
    """Minimize |R c|_tag over the slice, for a possibly degenerate gauge.

    Unlike solve_min_norm the objective may ignore part of the ambient point
    (R is any matrix), so it is a sublinear gauge rather than a norm.
    Solution.value is the gauge value of the minimizer.
    """
    sweep = MinNormSweep(map, cone, tol=tol, balls=balls, extra_bounds=extra_bounds)
    return sweep.solve(target, gauge)


def solve_min_linear(
    map,
    target,
    cone: _cones.Cone,
    cost,
    *,
    extra_bounds=(),
    balls=(),
    tol: Tolerances = DEFAULT_TOL,
) -> Solution:
    """Minimize <cost, c> over the slice {T c = x} inter C plus bounds.

    The value can be negative.  The feasible set must be bounded in the
    -cost direction (a norm ball does it); an unbounded objective raises.
    Polyhedral instances solve exactly with the simplex; curved ones with
    the conic driver, to its residual and gap tolerance.
    """
    sweep = MinNormSweep(map, cone, tol=tol, balls=balls, extra_bounds=extra_bounds)
    sol = sweep.solve(target, np.asarray(cost, dtype=float))
    if sol.status is SolveStatus.UNBOUNDED:
        raise ArithmeticError("linear objective unbounded below; add a norm cap")
    return sol


def solve_max_block_norm(problem: MinNormProblem, tol: Tolerances = DEFAULT_TOL) -> Solution:
    """Minimize max_b |c_b| over the objective blocks of the problem.

    One epigraph variable t bounds every block: an LP for polyhedral block
    tags on polyhedral data, a conic program for any other mix of tags and
    cones.
    """
    sweep = MinNormSweep(problem.map, problem.cone, problem.objective, tol, problem.balls,
                         problem.extra_bounds)
    return sweep.solve(problem.target, "max")


def project_onto_slice(
    map: np.ndarray,
    target: np.ndarray,
    cone: _cones.Cone,
    point: np.ndarray,
    *,
    extra_bounds=(),
    balls=(),
    tol: Tolerances = DEFAULT_TOL,
) -> Solution:
    """Euclidean projection of ``point`` onto {c in C : T c = x} plus bounds.

    The projection is unique by strict convexity; Infeasible when the slice
    is empty.  Solution.value is the distance.  A one-shot
    ``MinNormSweep.project``; ``ConeMap`` and ``CorrespondenceSpec`` keep
    their compiled slice for many targets.
    """
    sweep = MinNormSweep(map, cone, tol=tol, balls=balls, extra_bounds=extra_bounds)
    return sweep.project(target, point)


@dataclass
class FeasibilityReport:
    feasible: bool
    certificate: Certificate | None = None
    point: np.ndarray | None = None
    note: str = ""


def check_feasible(
    map: np.ndarray,
    target: np.ndarray,
    cone: _cones.Cone,
    *,
    extra_bounds=(),
    balls=(),
    tol: Tolerances = DEFAULT_TOL,
) -> FeasibilityReport:
    """Is {c in C : T c = x, bounds} nonempty?

    Polyhedral systems are decided by phase 1, curved ones by the conic
    driver's feasible point or checked certificate.  ArithmeticError when the
    program is undecided.  An empty slice with no bounds or caps comes with
    a verified Farkas-type certificate, from the conic driver's verdict when
    it passes the check and from ``farkas_certificate`` otherwise.
    """
    sweep = MinNormSweep(map, cone, tol=tol, balls=balls, extra_bounds=extra_bounds)
    x = sweep._target(target)
    st, z, _, _, res = sweep._program(None).solve(x, tol=tol)
    if _decided(st, x):
        return FeasibilityReport(True, point=sweep.canon.S @ z)
    return FeasibilityReport(False, certificate=sweep._certificate(x, res))


def _set_level(cone: _cones.Cone) -> _cones.Cone:
    """DirectSumL1 and Product coincide as point sets; normalize to Product."""
    if isinstance(cone, (_cones.DirectSumL1, _cones.Product)):
        return _cones.Product(tuple(_set_level(p) for p in cone.parts))
    if isinstance(cone, _cones.Negation):
        return _cones.Negation(_set_level(cone.inner))
    return cone


def _encode_dual_membership(lp: LinearProgram, cone: _cones.Cone, expr: np.ndarray, yidx: list[int]):
    """Add rows forcing expr @ y to lie in dual(cone).

    expr is a matrix whose rows are linear forms in the y variables; the
    vector u = expr @ y must satisfy u in dual(cone).
    """
    if isinstance(cone, _cones.Orthant):
        for i in range(expr.shape[0]):
            lp.add_row(expr[i], ">=", 0.0, at=yidx)
        return
    if isinstance(cone, _cones.Generators):
        rows = cone.columns.T @ expr
        for i in range(rows.shape[0]):
            lp.add_row(rows[i], ">=", 0.0, at=yidx)
        return
    if isinstance(cone, _cones.Halfspaces):
        k = cone.rows.shape[0]
        mu = lp.add_vars(k, nonneg=True)
        At = cone.rows.T
        for i in range(expr.shape[0]):
            lp.add_row(np.concatenate([expr[i], -At[i]]), "=", 0.0, at=yidx + mu)
        return
    if isinstance(cone, _cones.Negation):
        _encode_dual_membership(lp, cone.inner, -expr, yidx)
        return
    if isinstance(cone, _cones.Product):
        at = 0
        for p in cone.parts:
            _encode_dual_membership(lp, p, expr[at : at + p.ambient_dim], yidx)
            at += p.ambient_dim
        return
    raise ValueError(f"no polyhedral dual encoding for {type(cone).__name__}")


def _box_dual_lp(T: np.ndarray, cone: _cones.Cone, cost=0.0, crash: bool = True) -> LinearProgram:
    """LP over free y (the first variables, with the given cost) in the box
    |y_i| <= 1, written as e_i y <= 1 and -e_i y <= 1 in turn, with T^T y
    in dual(cone); ``crash`` as in ``LinearProgram``."""
    d = T.shape[0]
    lp = LinearProgram(crash)
    yidx = lp.add_vars(d, nonneg=False, obj=cost)
    for e in np.eye(d):
        lp.add_row(e, "<=", 1.0, at=yidx)
        lp.add_row(-e, "<=", 1.0, at=yidx)
    _encode_dual_membership(lp, cone, T.T, yidx)
    return lp


def farkas_certificate(
    map: np.ndarray, target: np.ndarray, cone: _cones.Cone, tol: Tolerances = DEFAULT_TOL
) -> Certificate | None:
    """Separating y with <y, x> > 0 and T^T y in dual(-C), if one exists.

    Polyhedral cones solve the explicit separation program max <y, x> over
    that dual cone with a box bound.  Curved cones take the equality
    multipliers of the conic driver's certificate for the empty slice; their
    images need not be closed, so a target on the boundary of the closure
    may have none.
    """
    cone = _set_level(cone)
    if not _cones.is_polyhedral(cone):
        sweep = MinNormSweep(map, cone)
        x = sweep._target(target)
        res = sweep._program(None).solve(x)[4]
        if res.status is not SolveStatus.INFEASIBLE:
            return None
        return _conic_certificate(map, x, cone, res, tol)
    T = np.atleast_2d(np.asarray(map, dtype=float))
    x = np.asarray(target, dtype=float)
    lp = _box_dual_lp(T, _cones.Negation(cone), -x)  # minimize -<x, y>
    status, z, value, _ = lp.solve(tol)
    if status is not SolveStatus.OPTIMAL or z is None:
        return None
    attained = -float(value)
    if attained <= tol.optimality:
        return None
    y = z[:T.shape[0]]
    y = y / np.max(np.abs(y))
    if certificate_is_valid(T, x, cone, y, tol):
        return Certificate(y=y, kind="exact")
    return None


def certificate_is_valid(map, target, cone, y, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Check <y, x> > 0 and T^T y in dual(-C) within tolerance."""
    T = np.atleast_2d(np.asarray(map, dtype=float))
    x = np.asarray(target, dtype=float)
    y = np.asarray(y, dtype=float)
    if float(y @ x) <= tol.optimality:
        return False
    dual_cone = _cones.dual(_cones.Negation(_set_level(cone)))
    u = T.T @ y
    return _cones.contains(dual_cone, u, tol=1e-8 * max(1.0, float(np.linalg.norm(u))))


def _conic_certificate(map, target, cone, res, tol: Tolerances) -> Certificate | None:
    """The Farkas certificate in the equality multipliers of the conic driver's
    INFEASIBLE result ``res`` on the slice at target, when it passes
    ``certificate_is_valid``."""
    y = -res.y / np.max(np.abs(res.y))
    if certificate_is_valid(map, target, cone, y, tol):
        return Certificate(y=y, note="conic")
    return None
