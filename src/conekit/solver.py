"""Minimum-norm programs over affine slices of cones.

Everything in this package eventually reduces to

    minimize    |c|            (a tagged block norm of the ambient point)
    subject to  T c = x
                c in C         (one of the cone representations)
                <a_i, c> <= b_i            optional linear bounds
                |R_j c| <= beta_j          optional norm-ball constraints

at desk scale (dimensions well below a few hundred).  The kernel is
self-contained on purpose: a dense simplex (``simplex.py``) handles the
polyhedral paths and produces Farkas-type infeasibility certificates, an
active-set method handles a single Euclidean objective on polyhedral data,
and everything else (sums and maxima of blocks with a Euclidean one,
second-order cones, Euclidean and group norm balls, caps with no orthonormal
rows) is encoded once as a conic program over LP x SOC cones and solved by
the interior-point method of ``conic.py``.  Dykstra projections remain as
the fast yes of curved feasibility.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import cones as _cones
from . import projops
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
    that are not orthonormal, mixed block tags); Dykstra has no projector
    for them, and the conic encoding takes them as they are.
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
    exotic: list  # BallConstraint objects without a Dykstra projector

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


def _canon_violation(canon: _Canon, z: np.ndarray) -> float:
    v = 0.0
    if canon.eq_A.size:
        v = max(v, float(np.max(np.abs(canon.eq_A @ z - canon.eq_b), initial=0.0)))
    if canon.in_A.size:
        v = max(v, float(np.max(canon.in_A @ z - canon.in_b, initial=0.0)))
    for idx in canon.soc_idx:
        seg = z[idx]
        v = max(v, float(np.linalg.norm(seg[1:]) - seg[0]))
    for R, r in canon.l2balls:
        v = max(v, float(np.linalg.norm(R @ z) - r))
    for idxs, r in canon.groupballs:
        v = max(v, sum(float(np.linalg.norm(z[idx])) for idx in idxs) - r)
    return max(v, 0.0)


class _Phase1:
    """The zero-objective LP over a canon's polyhedral rows, built once.

    Each solve overrides the equality rows and the inequality rows with a
    nonzero right-hand side at build time (cone and epigraph rows stay zero
    at every target and scale), so it starts from the optimal bases of
    earlier right-hand sides (``LinearProgram``).
    """

    def __init__(self, canon: _Canon):
        self.lp = LinearProgram()
        self.lp.add_vars(canon.n, nonneg=False)
        for row, rhs in zip(canon.eq_A, canon.eq_b):
            self.lp.add_row(row, "=", rhs)
        for row, rhs in zip(canon.in_A, canon.in_b):
            self.lp.add_row(row, "<=", rhs)
        self.moving = np.flatnonzero(canon.in_b)
        self.rows = (canon.eq_A.shape[0] + self.moving).tolist()

    def start(self, eq_b: np.ndarray, in_b: np.ndarray, tol: Tolerances):
        """(status, vertex, pivots) for the given right-hand sides."""
        override = dict(enumerate(eq_b.tolist()))
        override.update(zip(self.rows, in_b[self.moving].tolist()))
        status, z, _, its = self.lp.solve(tol, rhs_override=override)
        return status, z, its


def _feasible_point(canon: _Canon, tol: Tolerances, phase1: _Phase1 | None = None):
    """Phase-1 start for the active-set method (simplex vertex), warm when
    ``phase1`` is the LP of the template the canon was retargeted from."""
    return (phase1 or _Phase1(canon)).start(canon.eq_b, canon.in_b, tol)


def _canon_projectors(canon: _Canon):
    projs = []
    if canon.eq_A.size:
        projs.append(projops.affine_projector(canon.eq_A, canon.eq_b))
    for i in range(canon.in_A.shape[0]):
        projs.append(projops.project_halfspace(-canon.in_A[i], -canon.in_b[i]))
    for idx in canon.soc_idx:
        idx = np.asarray(idx)

        def soc_proj(z, idx=idx):
            out = z.copy()
            out[idx] = projops.project_soc(z[idx])
            return out

        projs.append(soc_proj)
    for R, r in canon.l2balls:

        def ball_proj(z, R=R, r=r):
            w = R @ z
            nn = np.linalg.norm(w)
            if nn <= r:
                return z
            return z + R.T @ (w * (r / nn) - w)

        projs.append(ball_proj)
    for idxs, r in canon.groupballs:
        projs.append(projops.project_group_l1_ball(idxs, r))
    return projs


# ---------------------------------------------------------------------------
# conic encoding of curved canons


class _ConicForm:
    """One canon as a ``conic.ConeProgram`` over z and epigraph variables, built once.

    Equality rows are the canon's.  Nonnegative rows: its <= rows, then the
    l1 and linf epigraph rows.  Second-order blocks: the cone's index
    blocks; each curved cap |E z| <= r, flat Euclidean caps directly as
    (r, E z) (no orthonormal rows needed), group and exotic caps as block
    epigraphs summed under one <= row; each l2 objective block as (t, E z).

    ``objective`` is "norm" (the sum of the canon's obj_blocks), "max"
    (their maximum: one epigraph variable t, each l2 block as (t, E z) and
    each polyhedral block's epigraph summed under one <= t row), "center"
    (half the squared distance of S z to a point given per solve, as one
    rotated cone (t + rho/2, t - rho/2, S z - point), which stays away from
    the apex when the distance is 0), a cost vector over z, or None for a
    feasibility program.  Every nonzero right-hand side is a target entry,
    a bound or a radius, so a solve at (x, scale) rebuilds only b and h.
    """

    def __init__(self, canon: _Canon, objective="norm"):
        # imported on the first curved program: compiling the interior-point
        # code is a real share of a cold import, and polyhedral work never needs it
        from . import conic

        self.n = n = canon.n
        self._aux = 0
        # rows: (z coefficients, {aux variable: coefficient}, rhs at unit scale)
        self._lp = [(row, {}, rhs) for row, rhs in zip(canon.in_A, canon.in_b)]
        eye = np.eye(n)
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
        # point than TOL gives; on polyhedral data the objective is the only
        # curvature, and its values are printed to 12 digits
        self._target = conic.TARGET if canon.polyhedral else conic.TOL
        cost, epi = np.zeros(n), []
        if isinstance(objective, np.ndarray):
            self._target, cost = conic.TARGET, objective
        elif objective == "norm":
            epi = [t for E, tag in canon.obj_blocks for t in self._epigraph(E, tag)]
        elif objective == "max":
            t = self._new()
            epi = [t]
            for E, tag in canon.obj_blocks:
                aux = self._epigraph(E, tag, t)
                if tag is not NormTag.L2:
                    self._lp.append((np.zeros(n), {**dict.fromkeys(aux, 1.0), t: -1.0}, 0.0))
        elif objective == "center":
            self._target, epi = conic.TARGET, [self._new()]
            self._center = len(self._lp) + sum(map(len, self._socs))
            self._socs.append([(np.zeros(n), {epi[0]: -1.0}, 0.0)] * 2
                              + [(-row, {}, 0.0) for row in canon.S])
        rows = self._lp + [row for blk in self._socs for row in blk]
        G = np.zeros((len(rows), n + self._aux))
        for i, (zrow, coefs, _) in enumerate(rows):
            G[i, :n] = zrow
            G[i, list(coefs)] = list(coefs.values())
        self.h = np.array([rhs for *_, rhs in rows])
        c = np.zeros(n + self._aux)
        c[:n], c[epi] = cost, 1.0
        A = np.hstack([canon.eq_A, np.zeros((canon.eq_A.shape[0], self._aux))])
        self.program = conic.ConeProgram(c, G, len(self._lp), [len(b) for b in self._socs], A)

    def _new(self) -> int:
        self._aux += 1
        return self.n + self._aux - 1

    def _epigraph(self, E, tag: NormTag, t: int | None = None) -> list:
        """Auxiliary variables whose sum bounds |E z|_tag from above; an l2
        block is bounded by the variable t when one is given."""
        zero = np.zeros(self.n)
        if tag is NormTag.L2:
            t = self._new() if t is None else t
            self._socs.append([(zero, {t: -1.0}, 0.0)] + [(-row, {}, 0.0) for row in E])
            return [t]
        rows = [row for row in E if np.any(row)]
        if tag is NormTag.L1:
            out = ties = [self._new() for _ in rows]
        else:
            out = [self._new()] if rows else []
            ties = out * len(rows)
        for row, t in zip(rows, ties):
            self._lp += [(row, {t: -1.0}, 0.0), (-row, {t: -1.0}, 0.0)]
        return out

    def _cap(self, E, norm: BlockNorm, radius: float):
        """Rows for norm(E z) <= radius."""
        if norm.is_flat and norm.blocks[0][2] is NormTag.L2:
            self._socs.append([(np.zeros(self.n), {}, radius)] + [(-row, {}, 0.0) for row in E])
            return
        aux = [t for a, b, tag in norm.blocks for t in self._epigraph(E[a:b], tag)]
        self._lp.append((np.zeros(self.n), dict.fromkeys(aux, 1.0), radius))

    def solve(self, x, scale: float = 1.0, center=None):
        """(status, z, iterations, result) at target x with bounds and radii times scale."""
        h = self.h * scale
        if center is not None:
            k = self._center
            rho = max(float(np.linalg.norm(x)), float(np.linalg.norm(center))) or 1.0
            h[k], h[k + 1] = 0.5 * rho, -0.5 * rho
            h[k + 2:k + 2 + center.shape[0]] = -center
        res = self.program.solve(x, h, target=self._target)
        z = res.x[:self.n] if res.status is SolveStatus.OPTIMAL else None
        return res.status, z, res.iterations, res


# ---------------------------------------------------------------------------
# objective-specific drivers


def _lp_driver(canon: _Canon, tol: Tolerances, lexicographic: bool):
    lp, zidx, aux_meta, eq_row_ids = _build_lp(canon)
    status, zfull, value, its = lp.solve(tol)
    if status is not SolveStatus.OPTIMAL:
        return status, None, None, its
    z = zfull[: canon.n]
    if lexicographic:
        if aux_meta:
            lp.add_row(np.ones(len(aux_meta)), "<=", value + 1e-9 * max(1.0, abs(value)), at=aux_meta)
        for i in range(canon.S.shape[0]):
            srow = canon.S[i]
            if not np.any(srow):
                continue
            lp.set_objective({zidx[k]: srow[k] for k in np.nonzero(srow)[0]})
            st2, zf2, v2, it2 = lp.solve(tol)
            its += it2
            if st2 is not SolveStatus.OPTIMAL:
                break
            z = zf2[: canon.n]
            lp.add_row(srow[np.nonzero(srow)[0]], "<=", v2 + 1e-10 * max(1.0, abs(v2)),
                       at=[zidx[k] for k in np.nonzero(srow)[0]])
    return SolveStatus.OPTIMAL, z, value, its


def _build_lp(canon: _Canon):
    lp = LinearProgram()
    zidx = lp.add_vars(canon.n, nonneg=False)
    aux_meta = []
    for E, tag in canon.obj_blocks:
        if tag is NormTag.L1:
            for i in range(E.shape[0]):
                if not np.any(E[i]):
                    continue
                s = lp.add_vars(1, nonneg=True, obj=1.0)[0]
                nz = np.nonzero(E[i])[0].tolist()
                lp.add_row(np.concatenate([E[i][nz], [-1.0]]), "<=", 0.0, at=[zidx[k] for k in nz] + [s])
                lp.add_row(np.concatenate([-E[i][nz], [-1.0]]), "<=", 0.0, at=[zidx[k] for k in nz] + [s])
                aux_meta.append(s)
        elif tag is NormTag.LINF:
            t = lp.add_vars(1, nonneg=True, obj=1.0)[0]
            for i in range(E.shape[0]):
                nz = np.nonzero(E[i])[0].tolist()
                if not nz:
                    continue
                lp.add_row(np.concatenate([E[i][nz], [-1.0]]), "<=", 0.0, at=[zidx[k] for k in nz] + [t])
                lp.add_row(np.concatenate([-E[i][nz], [-1.0]]), "<=", 0.0, at=[zidx[k] for k in nz] + [t])
            aux_meta.append(t)
        else:
            raise ValueError("LP driver got a non-polyhedral block")
    eq_row_ids = []
    for row, rhs in zip(canon.eq_A, canon.eq_b):
        eq_row_ids.append(lp.add_row(row, "=", rhs, at=zidx))
    for row, rhs in zip(canon.in_A, canon.in_b):
        lp.add_row(row, "<=", rhs, at=zidx)
    return lp, zidx, aux_meta, eq_row_ids


def _euclidean_hessian(E: np.ndarray) -> np.ndarray:
    """Hessian of |E z - center|_2^2, with a hair of regularization."""
    return 2.0 * (E.T @ E) + 1e-12 * np.eye(E.shape[1])


def _qp_driver(canon: _Canon, H: np.ndarray, g: np.ndarray, tol: Tolerances,
               phase1: _Phase1 | None = None):
    """min .5 z H z + g z over the polyhedral constraints, from a phase-1 vertex."""
    status, z0, its0 = _feasible_point(canon, tol, phase1)
    if status is not SolveStatus.OPTIMAL:
        return status, None, its0
    z, its, st = active_set_qp(H, g, canon.eq_A, canon.eq_b, canon.in_A, canon.in_b, z0, tol)
    return st, z, its0 + its


def _dykstra_project(canon: _Canon, center_z: np.ndarray):
    return projops.dykstra(_canon_projectors(canon), center_z,
                           lambda zz: _canon_violation(canon, zz))


def _caps_hold(canon: _Canon, z: np.ndarray) -> bool:
    """Whether z meets every curved cap of the canon, with no tolerance."""
    return (all(np.linalg.norm(R @ z) <= r for R, r in canon.l2balls)
            and all(sum(np.linalg.norm(z[idx]) for idx in idxs) <= r
                    for idxs, r in canon.groupballs)
            and all(ball.value(canon.S @ z) <= ball.bound for ball in canon.exotic))


def _maxblock_lp(canon: _Canon, tol: Tolerances):
    """min max_b |E_b z|_tag as one epigraph LP, for polyhedral tags."""
    lp = LinearProgram()
    zidx = lp.add_vars(canon.n, nonneg=False)
    t = lp.add_vars(1, nonneg=True, obj=1.0)[0]
    for E, tag in canon.obj_blocks:
        if tag is NormTag.LINF:
            for i in range(E.shape[0]):
                nz = np.nonzero(E[i])[0].tolist()
                if not nz:
                    continue
                for sgn in (1.0, -1.0):
                    lp.add_row(np.concatenate([sgn * E[i][nz], [-1.0]]), "<=", 0.0,
                               at=[zidx[k] for k in nz] + [t])
        elif tag is NormTag.L1:
            saux = []
            for i in range(E.shape[0]):
                nz = np.nonzero(E[i])[0].tolist()
                if not nz:
                    continue
                s = lp.add_vars(1, nonneg=True)[0]
                saux.append(s)
                for sgn in (1.0, -1.0):
                    lp.add_row(np.concatenate([sgn * E[i][nz], [-1.0]]), "<=", 0.0,
                               at=[zidx[k] for k in nz] + [s])
            if saux:
                lp.add_row(np.ones(len(saux) + 1).tolist()[:-1] + [-1.0], "<=", 0.0, at=saux + [t])
        else:
            raise ValueError("LP max-block path got a Euclidean block")
    for row, rhs in zip(canon.eq_A, canon.eq_b):
        lp.add_row(row, "=", rhs, at=zidx)
    for row, rhs in zip(canon.in_A, canon.in_b):
        lp.add_row(row, "<=", rhs, at=zidx)
    status, zfull, value, its = lp.solve(tol)
    if status is not SolveStatus.OPTIMAL:
        return status, None, its
    return status, zfull[: canon.n], its


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
        sol = _infeasible_solution(problem, tol, res)
    elif st is SolveStatus.OPTIMAL:
        c, value = answer()
        sol = Solution(st, c, float(value), _residuals(problem, c))
    else:
        sol = Solution(st)
    sol.iterations, sol.driver = its, driver
    return sol


def _solve_canon(canon: _Canon, tol: Tolerances, lexicographic: bool,
                 phase1: _Phase1 | None = None):
    """Dispatch one canonical problem to the right driver.

    Returns (status, z, iterations, driver, conic result or None); the
    objective is whatever canon's obj_blocks say, which need not be a norm
    of the full ambient point.  ``phase1`` warm-starts the active-set QP.
    """
    if _conic_objective(canon):
        st, z, its, res = _ConicForm(canon).solve(canon.eq_b)
        return st, z, its, "conic", res
    if all(tag is not NormTag.L2 for _, tag in canon.obj_blocks):
        st, z, _, its = _lp_driver(canon, tol, lexicographic)
        return st, z, its, "simplex", None
    H = _euclidean_hessian(canon.obj_blocks[0][0])
    return (*_qp_driver(canon, H, np.zeros(canon.n), tol, phase1), "active-set", None)


def _conic_objective(canon: _Canon) -> bool:
    """Whether the canon's objective runs on the conic driver: on curved data,
    and on a sum of several blocks one of which is Euclidean."""
    return not canon.polyhedral or (len(canon.obj_blocks) > 1
                                    and any(tag is NormTag.L2 for _, tag in canon.obj_blocks))


def _canon_objective_value(canon: _Canon, z: np.ndarray) -> float:
    return float(sum(tag.of(E @ z) for E, tag in canon.obj_blocks))


def _solution_from_canon(problem: MinNormProblem, canon: _Canon, tol: Tolerances,
                         lexicographic: bool, phase1: _Phase1 | None = None) -> Solution:
    st, z, its, driver, res = _solve_canon(canon, tol, lexicographic, phase1)
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
    w = canon.S.T @ cost
    if canon.polyhedral:
        lp = _Phase1(canon).lp
        lp.set_objective(dict(enumerate(w.tolist())))
        st, z, _, its = lp.solve(tol)
        driver, res = "simplex", None
    else:
        st, z, its, res = _ConicForm(canon, w).solve(canon.eq_b)
        driver = "conic"
    if st is SolveStatus.UNBOUNDED:
        raise ArithmeticError("linear objective unbounded below; add a norm cap")
    return _conclude(problem, tol, st, its, driver, lambda: (canon.S @ z, cost @ (canon.S @ z)),
                     res)


def solve_max_block_norm(problem: MinNormProblem, tol: Tolerances = DEFAULT_TOL) -> Solution:
    """Minimize max_b |c_b| over the objective blocks of the problem.

    Polyhedral block tags on polyhedral data become a single epigraph LP;
    any other mix of tags and cones is one conic program, with an epigraph
    variable t bounding every block.
    """
    if (sol := _trivial_solution(problem)) is not None:
        return sol
    canon = _canonicalize(problem)
    if canon.polyhedral and all(tag is not NormTag.L2 for _, tag in canon.obj_blocks):
        st, z, its = _maxblock_lp(canon, tol)
        driver, res = "simplex", None
    else:
        st, z, its, res = _ConicForm(canon, "max").solve(canon.eq_b)
        driver = "conic"
    return _conclude(problem, tol, st, its, driver,
                     lambda: (canon.S @ z, max(tag.of(E @ z) for E, tag in canon.obj_blocks)), res)


class _SliceTemplate:
    """Euclidean projections onto {c in C : T c = x} plus bounds, compiled once.

    The canon is built once with the bounds at unit scale; a call gives the
    target, the point and a scale for every bound right-hand side and ball
    radius (|x|_X when the caps grow with the target norm).  Templates on a
    polyhedral cone keep the Euclidean Hessian and one ``_Phase1`` LP, and
    each call first projects onto the polyhedral relaxation (equality and
    <= rows, curved caps dropped) with the active-set QP from a warm
    phase-1 vertex.  A point inside every cap is the exact projection and
    an empty relaxation means an empty slice.  Only when a cap binds (or the
    QP is undecided) does the call go to the conic driver, whose program
    (the squared distance as one rotated cone) is also built once, on first
    need.  Second-order cones skip the screen and always take the conic
    driver, unless the point already lies in the slice.
    """

    def __init__(self, map, cone: _cones.Cone, extra_bounds=(), balls=()):
        d = np.atleast_2d(np.asarray(map, dtype=float)).shape[0]
        objective = BlockNorm.flat(cone.ambient_dim, NormTag.L2)
        self.problem = MinNormProblem(map, np.zeros(d), cone, objective, tuple(extra_bounds),
                                      tuple(balls))
        self.canon = _canonicalize(self.problem)
        if not self.canon.soc_idx:
            self._H = _euclidean_hessian(self.canon.S)
            self._phase1 = _Phase1(self.canon)

    @cached_property
    def _conic(self) -> _ConicForm:
        return _ConicForm(self.canon, "center")

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
            st, z, its = _qp_driver(canon, self._H, g, tol, self._phase1)
            if not (canon.polyhedral or st is SolveStatus.INFEASIBLE
                    or (st is SolveStatus.OPTIMAL and _caps_hold(canon, z))):
                st = None
        if st is None and (sol := _trivial_solution(problem, point)) is not None:
            return sol  # interior points converge slowly to a zero distance
        if st is None:
            st, z, more, res = self._conic.solve(problem.target, scale, center=point)
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

    Polyhedral systems are decided by phase 1.  Curved systems take a
    converged Dykstra run as the fast yes and otherwise the conic driver's
    feasible point or checked certificate; ArithmeticError when that is
    undecided too.  An empty slice with no bounds or caps comes with a
    verified Farkas-type certificate.
    """
    objective = BlockNorm.flat(cone.ambient_dim, NormTag.L2)
    problem = MinNormProblem(map, target, cone, objective, tuple(extra_bounds), tuple(balls))
    canon = _canonicalize(problem)
    if canon.polyhedral:
        st, z, _ = _feasible_point(canon, tol)
        feasible = st is SolveStatus.OPTIMAL
    else:
        feasible, z = _curved_feasible(canon)
    if feasible:
        return FeasibilityReport(True, point=canon.S @ z)
    cert = None
    if not extra_bounds and not balls:
        cert = farkas_certificate(problem.map, problem.target, cone, tol)
    return FeasibilityReport(False, certificate=cert)


def _curved_feasible(canon: _Canon, form: _ConicForm | None = None):
    """(feasible, z) on a curved canon.

    A converged Dykstra run is the fast yes.  Any other run asks the conic
    driver (``form``, the canon's feasibility program, built here when not
    given) for a feasible point or a checked certificate; when that is
    undecided too, ArithmeticError.
    """
    res = _dykstra_project(canon, np.zeros(canon.n))
    if res.converged:
        return True, res.point
    st, z, _, _ = (form or _ConicForm(canon, None)).solve(canon.eq_b)
    if st is SolveStatus.INFEASIBLE:
        return False, None
    if st is not SolveStatus.OPTIMAL:
        raise ArithmeticError(f"feasibility undecided at target {canon.eq_b.tolist()}")
    return True, z


class MinNormSweep:
    """Re-solve one min-norm (or min-gauge) template against many targets.

    Canonicalization and LP standardization happen once; each target only
    swaps the equality right-hand side.  Infeasible targets report inf.
    An optional gauge (R, tag) replaces the objective by |R c|_tag.

    On polyhedral templates ``value`` and ``feasible`` keep their LPs for
    the whole sweep, so the optimal bases of earlier targets carry over:
    a target inside a known critical region costs one matrix product, and
    a target next to one costs a few dual simplex pivots (see
    ``LinearProgram``); ``feasible`` and the phase-1 starts of Euclidean
    objectives share one ``_Phase1`` LP.  Values agree with a cold solve to
    rounding.  On curved templates the objective and the feasibility test
    are conic programs built once, on first need, and so is the objective
    of a sum of blocks with a Euclidean one; a target changes only their
    right-hand side.
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
        tags = {tag for _, tag in self.canon.obj_blocks}
        if self.canon.polyhedral and NormTag.L2 not in tags:
            self._mode = "lp"
            self._lp, self._zidx, self._aux, self._eq_ids = _build_lp(self.canon)
        else:
            self._mode = "general"

    @cached_property
    def _phase1(self) -> _Phase1 | None:
        """The LP behind ``feasible`` and the active-set QP's starts, on polyhedral data."""
        return _Phase1(self.canon) if self.canon.polyhedral else None

    @cached_property
    def _conic(self) -> _ConicForm:
        """The objective's conic program, where ``_conic_objective`` asks for one."""
        return _ConicForm(self.canon)

    @cached_property
    def _conic_feasibility(self) -> _ConicForm:
        return _ConicForm(self.canon, None)

    def value(self, x: np.ndarray) -> float:
        """Optimal value for target x, or inf when the slice is empty."""
        x = np.asarray(x, dtype=float)
        if not np.any(x) and _trivial_solution(self.problem) is not None:
            return 0.0
        if self._mode == "lp":
            override = {rid: float(x[i]) for i, rid in enumerate(self._eq_ids)}
            st, z, value, _ = self._lp.solve(self.tol, rhs_override=override)
            if st is SolveStatus.INFEASIBLE:
                return math.inf
            if st is not SolveStatus.OPTIMAL:
                raise ArithmeticError("iteration limit in sweep solve")
            return float(value)
        if _conic_objective(self.canon):
            st, z, _, _ = self._conic.solve(x)
        else:
            st, z, *_ = _solve_canon(self.canon.at(x), self.tol, False, self._phase1)
        if st is SolveStatus.INFEASIBLE:
            return math.inf
        if st is not SolveStatus.OPTIMAL:
            raise ArithmeticError("iteration limit in sweep solve")
        return _canon_objective_value(self.canon, z)

    def feasible(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        if self._phase1 is not None:
            return self._phase1.start(x, self.canon.in_b, self.tol)[0] is SolveStatus.OPTIMAL
        return _curved_feasible(self.canon.at(x), self._conic_feasibility)[0]


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
        res = _ConicForm(_canonicalize(problem), None).solve(problem.target)[3]
        if res.status is not SolveStatus.INFEASIBLE:
            return None
        return _conic_certificate(problem, res, tol)
    T = np.atleast_2d(np.asarray(map, dtype=float))
    x = np.asarray(target, dtype=float)
    d = T.shape[0]
    lp = LinearProgram()
    yidx = lp.add_vars(d, nonneg=False, obj=-x)  # minimize -<x, y>
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        lp.add_row(e, "<=", 1.0, at=yidx)
        lp.add_row(-e, "<=", 1.0, at=yidx)
    _encode_dual_membership(lp, _cones.Negation(cone), T.T, yidx)
    status, z, value, _ = lp.solve(tol)
    if status is not SolveStatus.OPTIMAL or z is None:
        return None
    attained = -float(value)
    if attained <= tol.optimality:
        return None
    y = z[:d]
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


def _infeasible_solution(problem: MinNormProblem, tol: Tolerances, res=None) -> Solution:
    """INFEASIBLE, with a checked Farkas certificate when the slice has no bounds
    or caps: from the conic driver's result ``res`` when it gives one, else
    from ``farkas_certificate``."""
    cert = None
    if not problem.extra_bounds and not problem.balls:
        cert = ((res is not None and _conic_certificate(problem, res, tol))
                or farkas_certificate(problem.map, problem.target, problem.cone, tol))
    return Solution(SolveStatus.INFEASIBLE, certificate=cert)
