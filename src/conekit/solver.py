"""Minimum-norm programs over affine slices of cones.

Everything in this package eventually reduces to

    minimize    |c|            (a tagged block norm of the ambient point)
    subject to  T c = x
                c in C         (one of the cone representations)
                <a_i, c> <= b_i            optional linear bounds
                |R_j c| <= beta_j          optional norm-ball constraints

at desk scale (dimensions well below a few hundred).  The kernel is
self-contained on purpose.  One encoder (``_Program``) writes a canonical
problem and its objective (a sum or maximum of block norms, a linear cost, a
distance, or none) as one list of epigraph, equality and inequality rows
plus second-order blocks.  Rows with no second-order block go to the dense
simplex of ``simplex.py``, which also yields Farkas-type infeasibility
certificates; all others (sums and maxima of blocks with a Euclidean one,
second-order cones, Euclidean and group norm balls, caps with no
orthonormal rows) go to the interior-point method of ``conic.py``, which
solves a whole batch of targets at once (``MinNormSweep.values`` and
``feasible_many``).  An active-set method handles a single Euclidean
objective on polyhedral data.
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


def _signed_selector(E: np.ndarray):
    """Index array when the rows of E are distinct signed unit basis vectors."""
    idx = []
    for row in E:
        nz = np.nonzero(np.abs(row) > 0)[0]
        if nz.size != 1 or abs(abs(row[nz[0]]) - 1.0) > 1e-12:
            return None
        idx.append(int(nz[0]))
    if len(set(idx)) != len(idx):
        return None
    return np.array(idx, dtype=int)


def _orthonormal_rows(E: np.ndarray) -> bool:
    if E.shape[0] > E.shape[1]:
        return False
    G = E @ E.T
    return bool(np.allclose(G, np.eye(E.shape[0]), atol=1e-11))


@dataclass
class _Canon:
    """Solver-variable form of one MinNormProblem.

    Ambient point c = S z (plus zero columns for auxiliary variables).
    Linear part: eq rows, <= rows.  Curved part: second-order index blocks,
    Euclidean balls |R z| <= r with orthonormal-row R, and group balls
    sum_b |z[idx_b]| <= r.  ``exotic`` holds the other curved caps (rows
    that are not orthonormal, mixed block tags), which the conic encoding
    takes as they are.
    """

    S: np.ndarray
    eq_A: np.ndarray
    eq_b: np.ndarray
    in_A: np.ndarray
    in_b: np.ndarray
    soc_idx: list
    l2balls: list  # (R with orthonormal rows, radius)
    groupballs: list  # (list of index arrays, radius)
    obj_blocks: list  # (E over z, tag)
    exotic: list  # other BallConstraint objects

    @property
    def n(self) -> int:
        return self.S.shape[1]

    @property
    def polyhedral(self) -> bool:
        return not self.soc_idx and not self.l2balls and not self.groupballs and not self.exotic

    def at(self, x: np.ndarray, scale: float = 1.0) -> "_Canon":
        """This canon at target x, every bound right-hand side and radius times
        scale (cone and epigraph rows have right-hand side zero)."""
        return replace(self, eq_b=x, in_b=self.in_b * scale,
                       l2balls=[(R, r * scale) for R, r in self.l2balls],
                       groupballs=[(idxs, r * scale) for idxs, r in self.groupballs],
                       exotic=[replace(b, bound=b.bound * scale) for b in self.exotic])


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

    l2balls: list = []
    groupballs: list = []
    exotic: list = []
    aux_specs: list = []  # (E rows in z0 coords, per-aux row groups, bound) for l1-style expansion

    for ball in problem.balls:
        E = ball.matrix @ S0
        bn = ball._block_norm()
        tags = {tag for _, _, tag in bn.blocks}
        if tags <= {NormTag.L1, NormTag.LINF}:
            # exact polyhedral expansion; linf blocks need no aux, l1 blocks do
            if tags == {NormTag.LINF} and bn.is_flat:
                in_rows.append(E)
                in_rhs.append(np.full(E.shape[0], ball.bound))
                in_rows.append(-E)
                in_rhs.append(np.full(E.shape[0], ball.bound))
            else:
                aux_specs.append((E, bn, ball.bound))
        elif tags == {NormTag.L2}:
            if bn.is_flat:
                if _orthonormal_rows(E):
                    l2balls.append((E, ball.bound))
                else:
                    exotic.append(ball)
            else:
                sel = _signed_selector(E)
                if sel is None:
                    exotic.append(ball)
                else:
                    idxs = [sel[a:b] for a, b, _ in bn.blocks]
                    groupballs.append((idxs, ball.bound))
        else:
            exotic.append(ball)

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
            if tag is NormTag.L1:
                for k, i in enumerate(range(a, b)):
                    for sgn in (1.0, -1.0):
                        r = np.zeros(total_n)
                        r[: E.shape[1]] = sgn * E[i]
                        r[n0 + ids[k]] = -1.0
                        rows2.append(r)
                        rhs2.append(0.0)
                sum_row[[n0 + i for i in ids]] = 1.0
            else:  # LINF block
                for i in range(a, b):
                    for sgn in (1.0, -1.0):
                        r = np.zeros(total_n)
                        r[: E.shape[1]] = sgn * E[i]
                        r[n0 + ids[0]] = -1.0
                        rows2.append(r)
                        rhs2.append(0.0)
                sum_row[n0 + ids[0]] = 1.0
        r = sum_row.copy()
        rows2.append(r)
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
        l2balls=l2balls,
        groupballs=groupballs,
        obj_blocks=obj_blocks,
        exotic=exotic,
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
    second-order block (t, E z).  Caps add second-order blocks too: the
    cone's index blocks, flat Euclidean caps as (r, E z) (no orthonormal
    rows needed), group and exotic caps as block epigraphs summed under one
    <= row.

    ``objective`` is "norm" (the sum of the canon's obj_blocks), "max"
    (their maximum: one epigraph variable t, each l2 block as (t, E z), each
    linf row as +-E z <= t and each l1 block's epigraph summed under one
    <= t row), "center" (half the squared distance of S z to a point given
    per solve, as one rotated cone (t + rho/2, t - rho/2, S z - point), which
    stays away from the apex when the distance is 0), a cost vector over z,
    or None for a feasibility program.  Objective epigraph variables cost 1.

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
        for R, r in canon.l2balls:
            self._cap(R, BlockNorm.flat(R.shape[0], NormTag.L2), r)
        for idxs, r in canon.groupballs:
            stops = np.cumsum([len(i) for i in idxs]).tolist()
            blocks = tuple((a, b, NormTag.L2) for a, b in zip([0] + stops[:-1], stops))
            self._cap(eye[np.concatenate(idxs)], BlockNorm(blocks), r)
        for ball in canon.exotic:
            self._cap(ball.matrix @ canon.S, ball._block_norm(), ball.bound)
        # on curved data, norm values and feasibility verdicts need no sharper
        # point than conic.TOL gives; on polyhedral data the objective is the
        # only curvature, and its values are printed to 12 digits
        self._sharp = canon.polyhedral
        self._cost, self._epi = np.zeros(self.n), []
        if isinstance(objective, np.ndarray):
            self._sharp, self._cost = True, objective
        elif objective == "norm":
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


# ---------------------------------------------------------------------------
# objective-specific drivers


def _euclidean_hessian(E: np.ndarray) -> np.ndarray:
    """Hessian of |E z - center|_2^2, with a hair of regularization."""
    return 2.0 * (E.T @ E) + 1e-12 * np.eye(E.shape[1])


def _qp_driver(canon: _Canon, H: np.ndarray, g: np.ndarray, tol: Tolerances, start: _Program,
               scale: float = 1.0):
    """min .5 z H z + g z over the polyhedral constraints, from a vertex of
    ``start``, the feasibility LP of the canon's polyhedral rows at unit scale
    (warm across targets when it is kept)."""
    status, z0, _, its0, _ = start.solve(canon.eq_b, scale, tol)
    if status is not SolveStatus.OPTIMAL:
        return status, None, its0
    z, its, st = active_set_qp(H, g, canon.eq_A, canon.eq_b, canon.in_A, canon.in_b, z0, tol)
    return st, z, its0 + its


def _caps_hold(canon: _Canon, z: np.ndarray) -> bool:
    """Whether z meets every curved cap of the canon, with no tolerance."""
    return (all(np.linalg.norm(R @ z) <= r for R, r in canon.l2balls)
            and all(sum(np.linalg.norm(z[idx]) for idx in idxs) <= r
                    for idxs, r in canon.groupballs)
            and all(ball.value(canon.S @ z) <= ball.bound for ball in canon.exotic))


def _decided(status: SolveStatus, x) -> bool:
    """Whether a feasibility verdict at target x is OPTIMAL (a nonempty slice)
    rather than INFEASIBLE (certified empty); ArithmeticError for any other."""
    if status is not SolveStatus.OPTIMAL and status is not SolveStatus.INFEASIBLE:
        raise ArithmeticError(f"feasibility undecided at target {np.asarray(x).tolist()}")
    return status is SolveStatus.OPTIMAL


# ---------------------------------------------------------------------------
# public entry points


def _residuals(problem: MinNormProblem, c: np.ndarray, cone_tol: float | None = None) -> dict:
    eq = float(np.max(np.abs(problem.map @ c - problem.target), initial=0.0))
    if cone_tol is None:
        cone_tol = 1e-7 * max(1.0, float(np.linalg.norm(c)))
    cone_ok = _cones.contains(problem.cone, c, tol=cone_tol)
    bounds = 0.0
    for a, b in problem.extra_bounds:
        bounds = max(bounds, float(a @ c - b))
    for ball in problem.balls:
        bounds = max(bounds, ball.value(c) - ball.bound)
    return {"eq": eq, "cone": 0.0 if cone_ok else 1.0, "bounds": max(bounds, 0.0)}


def _trivial_solution(problem: MinNormProblem, c: np.ndarray | None = None) -> Solution | None:
    """c (the zero point by default) as the answer at value 0, when it meets
    every constraint to rounding: the zero point of a min-norm problem at
    target 0, or a point that is its own projection."""
    if c is None:
        if np.any(problem.target):
            return None
        c = np.zeros(problem.cone.ambient_dim)
    tol = 1e-12 * max(float(np.linalg.norm(c)), float(np.linalg.norm(problem.target)))
    strict = _residuals(problem, c, cone_tol=tol)
    if strict["cone"] or max(strict["eq"], strict["bounds"]) > tol:
        return None
    return Solution(SolveStatus.OPTIMAL, c.copy(), 0.0, _residuals(problem, c), driver="trivial")


def _conclude(problem: MinNormProblem, tol: Tolerances, st: SolveStatus, its: int, driver: str,
              answer, res=None) -> Solution:
    """The Solution for a driver's verdict; ``answer()`` gives (point, value) when
    OPTIMAL, and ``res`` is the conic driver's result, if it ran."""
    if st is SolveStatus.INFEASIBLE:
        sol = Solution(st, certificate=_certificate(problem, tol, res))
    elif st is SolveStatus.OPTIMAL:
        c, value = answer()
        sol = Solution(st, c, float(value), _residuals(problem, c))
    else:
        sol = Solution(st)
    sol.iterations, sol.driver = its, driver
    return sol


def _quadratic(canon: _Canon) -> bool:
    """Whether the objective is one Euclidean block on polyhedral data, which
    the active-set QP solves."""
    return (canon.polyhedral and len(canon.obj_blocks) == 1
            and canon.obj_blocks[0][1] is NormTag.L2)


def _solve_canon(canon: _Canon, x: np.ndarray, tol: Tolerances, lexicographic: bool,
                 program: _Program | None = None, start: _Program | None = None, H=None):
    """Solve one canonical problem at target x.

    Returns (status, z, value, iterations, driver, conic result or None),
    with ``value`` as ``_Program.solve`` gives it (None from the active-set
    QP).  The objective is whatever canon's obj_blocks say, which need not
    be a norm of the full ambient point.  ``program`` is the canon's
    objective program and ``start`` its feasibility program, and H the
    active-set QP's Hessian, when the caller keeps them; they are built here
    otherwise.
    """
    if _quadratic(canon):
        H = _euclidean_hessian(canon.obj_blocks[0][0]) if H is None else H
        st, z, its = _qp_driver(canon.at(x), H, np.zeros(canon.n), tol,
                                start or _Program(canon, None))
        return st, z, None, its, "active-set", None
    program = program or _Program(canon)
    st, z, value, its, res = program.solve(x, tol=tol, lexicographic=lexicographic)
    return st, z, value, its, program.driver, res


def _values(out: np.ndarray, rows, sols, value) -> np.ndarray:
    """out with the value of each solve at its row: the LP's optimal value or
    value(z), inf for an empty slice; ArithmeticError on an undecided solve."""
    for i, (st, z, v, *_) in zip(rows.tolist(), sols):
        if st is not SolveStatus.OPTIMAL and st is not SolveStatus.INFEASIBLE:
            raise ArithmeticError("iteration limit in sweep solve")
        out[i] = math.inf if st is SolveStatus.INFEASIBLE else v if v is not None else value(z)
    return out


def _canon_objective_value(canon: _Canon, z: np.ndarray) -> float:
    return float(sum(tag.of(E @ z) for E, tag in canon.obj_blocks))


def _canon_max_value(canon: _Canon, z: np.ndarray) -> float:
    return float(max(tag.of(E @ z) for E, tag in canon.obj_blocks))


def _solution_from_canon(problem: MinNormProblem, canon: _Canon, tol: Tolerances,
                         lexicographic: bool) -> Solution:
    st, z, _, its, driver, res = _solve_canon(canon, canon.eq_b, tol, lexicographic)
    return _conclude(problem, tol, st, its, driver,
                     lambda: (canon.S @ z, _canon_objective_value(canon, z)), res)


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
    if (sol := _trivial_solution(problem)) is not None:
        return sol
    canon = _canonicalize(problem)
    return _solution_from_canon(problem, canon, tol, lexicographic)


def solve_min_gauge(
    map,
    target,
    cone: _cones.Cone,
    gauge: tuple[np.ndarray, NormTag],
    *,
    extra_bounds=(),
    balls=(),
    tol: Tolerances = DEFAULT_TOL,
    lexicographic: bool = False,
) -> Solution:
    """Minimize |R c|_tag over the slice, for a possibly degenerate gauge.

    Unlike solve_min_norm the objective may ignore part of the ambient point
    (R is any matrix), so it is a sublinear gauge rather than a norm.
    Solution.value is the gauge value of the minimizer.
    """
    R, tag = gauge
    R = np.atleast_2d(np.asarray(R, dtype=float))
    objective = BlockNorm.flat(cone.ambient_dim, NormTag.L2)  # placeholder for residual checks
    problem = MinNormProblem(map, target, cone, objective, tuple(extra_bounds), tuple(balls))
    if (sol := _trivial_solution(problem)) is not None:
        return sol
    canon = _canonicalize(problem)
    canon.obj_blocks = [(R @ canon.S, tag)]
    return _solution_from_canon(problem, canon, tol, lexicographic)


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
    cost = np.asarray(cost, dtype=float)
    objective = BlockNorm.flat(cone.ambient_dim, NormTag.L2)  # placeholder, not minimized
    problem = MinNormProblem(map, target, cone, objective, tuple(extra_bounds), tuple(balls))
    canon = _canonicalize(problem)
    program = _Program(canon, canon.S.T @ cost)
    st, z, _, its, res = program.solve(canon.eq_b, tol=tol)
    if st is SolveStatus.UNBOUNDED:
        raise ArithmeticError("linear objective unbounded below; add a norm cap")
    return _conclude(problem, tol, st, its, program.driver,
                     lambda: (canon.S @ z, cost @ (canon.S @ z)), res)


def solve_max_block_norm(problem: MinNormProblem, tol: Tolerances = DEFAULT_TOL) -> Solution:
    """Minimize max_b |c_b| over the objective blocks of the problem.

    One epigraph variable t bounds every block: an LP for polyhedral block
    tags on polyhedral data, a conic program for any other mix of tags and
    cones.
    """
    if (sol := _trivial_solution(problem)) is not None:
        return sol
    canon = _canonicalize(problem)
    program = _Program(canon, "max")
    st, z, _, its, res = program.solve(canon.eq_b, tol=tol)
    return _conclude(problem, tol, st, its, program.driver,
                     lambda: (canon.S @ z, _canon_max_value(canon, z)), res)


class _SliceTemplate:
    """Euclidean projections onto {c in C : T c = x} plus bounds, compiled once.

    The canon is built once with the bounds at unit scale; a call gives the
    target, the point and a scale for every bound right-hand side and ball
    radius (|x|_X when the caps grow with the target norm).  Templates on a
    polyhedral cone keep the Euclidean Hessian and the feasibility LP of the
    polyhedral relaxation (equality and <= rows, curved caps dropped), and
    each call first projects onto that relaxation with the active-set QP
    from a warm vertex of the LP.  A point inside every cap is the exact
    projection and an empty relaxation means an empty slice.  Only when a
    cap binds (or the QP is undecided) does the call go to the conic driver,
    whose program (the squared distance as one rotated cone) is also built
    once, on first need.  Second-order cones skip the screen and always take
    the conic driver, unless the point already lies in the slice.
    """

    def __init__(self, map, cone: _cones.Cone, extra_bounds=(), balls=()):
        d = np.atleast_2d(np.asarray(map, dtype=float)).shape[0]
        objective = BlockNorm.flat(cone.ambient_dim, NormTag.L2)
        self.problem = MinNormProblem(map, np.zeros(d), cone, objective, tuple(extra_bounds),
                                      tuple(balls))
        self.canon = _canonicalize(self.problem)
        if not self.canon.soc_idx:
            self._H = _euclidean_hessian(self.canon.S)
            self._phase1 = _Program(replace(self.canon, l2balls=[], groupballs=[], exotic=[]), None)

    @cached_property
    def _conic(self) -> _Program:
        return _Program(self.canon, "center")

    def project(self, x, point, scale: float = 1.0, tol: Tolerances = DEFAULT_TOL) -> Solution:
        """Projection of ``point`` onto the slice at target x; value is the distance."""
        p = self.problem
        problem = replace(p, target=x,
                          extra_bounds=tuple((a, b * scale) for a, b in p.extra_bounds),
                          balls=tuple(replace(b, bound=b.bound * scale) for b in p.balls))
        point = np.asarray(point, dtype=float)
        st, its, driver, res = None, 0, "active-set", None
        if not self.canon.soc_idx:
            canon = self.canon.at(problem.target, scale)
            g = -2.0 * (canon.S.T @ point)
            st, z, its = _qp_driver(canon, self._H, g, tol, self._phase1, scale)
            if not (canon.polyhedral or st is SolveStatus.INFEASIBLE
                    or (st is SolveStatus.OPTIMAL and _caps_hold(canon, z))):
                st = None
        if st is None and (sol := _trivial_solution(problem, point)) is not None:
            return sol  # interior points converge slowly to a zero distance
        if st is None:
            st, z, _, more, res = self._conic.solve(problem.target, scale, center=point)
            its += more
            driver = "conic"
        S = self.canon.S
        return _conclude(problem, tol, st, its, driver,
                         lambda: (S @ z, np.linalg.norm(S @ z - point)), res)


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
    is empty.  Solution.value is the distance.  A one-shot slice template;
    ``ConeMap`` and ``CorrespondenceSpec`` keep theirs for many targets.
    """
    template = _SliceTemplate(map, cone, extra_bounds, balls)
    return template.project(target, point, tol=tol)


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
    objective = BlockNorm.flat(cone.ambient_dim, NormTag.L2)
    problem = MinNormProblem(map, target, cone, objective, tuple(extra_bounds), tuple(balls))
    canon = _canonicalize(problem)
    st, z, _, _, res = _Program(canon, None).solve(canon.eq_b, tol=tol)
    if _decided(st, canon.eq_b):
        return FeasibilityReport(True, point=canon.S @ z)
    return FeasibilityReport(False, certificate=_certificate(problem, tol, res))


class MinNormSweep:
    """Re-solve one min-norm (or min-gauge) template against many targets.

    Canonicalization happens once, and so does compiling the objective's
    ``_Program`` and the feasibility program, each on first need; each
    target only swaps their right-hand side.
    Infeasible targets report inf.  An optional gauge (R, tag) replaces the
    objective by |R c|_tag.

    ``values`` and ``feasible_many`` take a batch of targets: the conic
    driver solves the whole batch in one call, and an LP keeps the optimal
    bases of earlier targets for the whole sweep, so a target inside a known
    critical region costs one matrix product and a target next to one a few
    dual simplex pivots (see ``LinearProgram``).  Values agree with a cold
    solve to rounding.  A single Euclidean objective on polyhedral data runs
    the active-set QP from a warm vertex of the feasibility LP.
    """

    def __init__(self, map, cone, objective: BlockNorm, tol: Tolerances = DEFAULT_TOL,
                 balls=(), extra_bounds=(), gauge: tuple | None = None):
        d = np.atleast_2d(np.asarray(map, dtype=float)).shape[0]
        self.problem = MinNormProblem(map, np.zeros(d), cone, objective,
                                      tuple(extra_bounds), tuple(balls))
        self.tol = tol
        self.canon = _canonicalize(self.problem)
        if gauge is not None:
            R, tag = gauge
            R = np.atleast_2d(np.asarray(R, dtype=float))
            self.canon.obj_blocks = [(R @ self.canon.S, tag)]
        if _quadratic(self.canon):  # the active-set QP's Hessian, once per sweep
            self._hessian = _euclidean_hessian(self.canon.obj_blocks[0][0])

    @cached_property
    def _objective(self) -> _Program:
        return _Program(self.canon)

    @cached_property
    def _feasibility(self) -> _Program:
        """The program behind ``feasible`` and the active-set QP's starts."""
        return _Program(self.canon, None)

    def values(self, X) -> np.ndarray:
        """Optimal value at each row of X, inf where the slice is empty."""
        X = np.asarray(X, dtype=float).reshape(-1, self.problem.target.shape[0])
        rows = X.any(axis=1).nonzero()[0]
        if len(rows) < len(X) and _trivial_solution(self.problem) is None:
            rows = np.arange(len(X))  # the zero target needs a solve too
        live = X if len(rows) == len(X) else X[rows]
        if _quadratic(self.canon):
            sols = [_solve_canon(self.canon, x, self.tol, False, start=self._feasibility,
                                 H=self._hessian) for x in live]
        else:
            sols = self._objective.solve_many(live, self.tol)
        return _values(np.zeros(len(X)), rows, sols, lambda z: _canon_objective_value(self.canon, z))

    def value(self, x: np.ndarray) -> float:
        """Optimal value for target x, or inf when the slice is empty."""
        return float(self.values(x)[0])

    def feasible_many(self, X) -> list:
        """(status, conic result or None) of the feasibility program at each
        row of X, to be read by ``_decided``."""
        X = np.asarray(X, dtype=float).reshape(-1, self.problem.target.shape[0])
        return [(st, res) for st, _, _, _, res in self._feasibility.solve_many(X, self.tol)]

    def feasible(self, x: np.ndarray) -> bool:
        """Whether the slice at x is nonempty; ArithmeticError when undecided."""
        return _decided(self.feasible_many(x)[0][0], x)


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
        problem = MinNormProblem(map, target, cone, BlockNorm.flat(cone.ambient_dim, NormTag.L2))
        res = _Program(_canonicalize(problem), None).solve(problem.target)[4]
        if res.status is not SolveStatus.INFEASIBLE:
            return None
        return _conic_certificate(problem, res, tol)
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


def _conic_certificate(problem: MinNormProblem, res, tol: Tolerances) -> Certificate | None:
    """The Farkas certificate in the equality multipliers of the conic driver's
    INFEASIBLE result ``res`` on the problem's slice, when it passes
    ``certificate_is_valid``."""
    y = -res.y / np.max(np.abs(res.y))
    if certificate_is_valid(problem.map, problem.target, problem.cone, y, tol):
        return Certificate(y=y, note="conic")
    return None


def _certificate(problem: MinNormProblem, tol: Tolerances, res=None) -> Certificate | None:
    """A checked Farkas certificate for an empty slice with no bounds or caps:
    from the conic driver's INFEASIBLE result ``res`` when it gives one, else
    from ``farkas_certificate``."""
    if problem.extra_bounds or problem.balls:
        return None
    return ((res is not None and _conic_certificate(problem, res, tol))
            or farkas_certificate(problem.map, problem.target, problem.cone, tol))
