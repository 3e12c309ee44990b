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
active-set method handles Euclidean objectives, and the non-polyhedral cases
(second-order cones, Euclidean norm balls, sums and maxima of block norms)
are refined on top of those cores with Dykstra projections, iteratively
reweighted least squares, and a Newton polish on the identified face.

Interior-point methods and sparse large-scale work are out of scope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import cones as _cones
from . import projops
from .norms import BlockNorm, NormTag
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

    For a polyhedral cone the certificate is exact Farkas evidence:
    ``<y, x> > 0`` while ``T^T y`` lies in the dual cone of ``-C``, so no
    ``c in C`` can satisfy ``T c = x``.  Non-polyhedral domains get a
    residual-based approximate certificate, flagged as such.
    """

    y: np.ndarray
    kind: str = "exact"  # "exact" | "approximate"
    note: str = ""


@dataclass
class Solution:
    status: SolveStatus
    point: np.ndarray | None = None
    value: float | None = None
    residuals: dict = field(default_factory=dict)
    certificate: Certificate | None = None
    iterations: int = 0


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

    @staticmethod
    def with_tag(map, target, cone, tag: NormTag, **kw) -> "MinNormProblem":
        return MinNormProblem(map, target, cone, _cones.space_norm(cone, tag), **kw)


# ---------------------------------------------------------------------------
# nonnegative least squares (Lawson-Hanson), used for generator cones


def nonneg_lstsq(A: np.ndarray, b: np.ndarray, tol: float = 1e-11, maxiter: int | None = None):
    """min |A lam - b|_2 over lam >= 0.  Returns (lam, residual norm)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if maxiter is None:
        maxiter = 6 * n + 60
    scale = max(1.0, float(np.linalg.norm(b)))
    passive: list[int] = []
    lam = np.zeros(n)
    resid = b.copy()
    for _ in range(maxiter):
        w = A.T @ resid
        candidates = [j for j in range(n) if j not in passive and w[j] > tol * scale]
        if not candidates:
            break
        passive.append(max(candidates, key=lambda j: (w[j], -j)))
        while True:
            Ap = A[:, passive]
            sol, *_ = np.linalg.lstsq(Ap, b, rcond=None)
            if np.all(sol >= -tol):
                lam = np.zeros(n)
                lam[passive] = np.maximum(sol, 0.0)
                break
            cur = lam[passive]
            denom = cur - sol
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(sol < -tol, cur / np.where(denom != 0, denom, 1e-300), np.inf)
            alpha = float(np.min(ratios))
            newvals = cur - alpha * (cur - sol)
            lam = np.zeros(n)
            lam[passive] = np.maximum(newvals, 0.0)
            passive = [j for j in passive if lam[j] > tol]
            if not passive:
                break
        resid = b - A @ lam
    return lam, float(np.linalg.norm(b - A @ lam))


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


def _feasibility_lp(eq_A, eq_b, in_A, in_b) -> LinearProgram:
    """Zero-objective LP over {eq_A z = eq_b, in_A z <= in_b}; row i is eq row i."""
    n = eq_A.shape[1] if eq_A.size else (in_A.shape[1] if in_A.size else 0)
    lp = LinearProgram()
    lp.add_vars(n, nonneg=False)
    for row, rhs in zip(eq_A, eq_b):
        lp.add_row(row, "=", rhs)
    for row, rhs in zip(in_A, in_b):
        lp.add_row(row, "<=", rhs)
    return lp


def _feasible_point(eq_A, eq_b, in_A, in_b, tol: Tolerances):
    """Phase-1 start for the active-set method (simplex vertex)."""
    status, z, _, its = _feasibility_lp(eq_A, eq_b, in_A, in_b).solve(tol)
    return status, z, its


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
    sum_b |z[idx_b]| <= r.  ``exotic`` flags ball constraints that none of
    the exact paths can represent; those fall to the projected-gradient
    driver.
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
    exotic: list  # BallConstraint objects without an exact encoding

    @property
    def n(self) -> int:
        return self.S.shape[1]

    @property
    def polyhedral(self) -> bool:
        return not self.soc_idx and not self.l2balls and not self.groupballs and not self.exotic

    @property
    def orthogonal_S(self) -> bool:
        StS = self.S.T @ self.S
        return bool(np.allclose(StS, np.eye(self.n), atol=1e-11))


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


def _canon_projectors(canon: _Canon, extra_balls=()):
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
    for R, r in list(canon.l2balls) + list(extra_balls):

        def ball_proj(z, R=R, r=r):
            w = R @ z
            nn = np.linalg.norm(w)
            if nn <= r:
                return z
            return z + R.T @ (w * (r / nn) - w)

        projs.append(ball_proj)
    for idxs, r in canon.groupballs:

        def group_proj(z, idxs=idxs, r=r):
            norms = np.array([np.linalg.norm(z[idx]) for idx in idxs])
            if norms.sum() <= r:
                return z
            s = np.sort(norms)[::-1]
            csum = np.cumsum(s)
            lam = (csum[-1] - r) / len(s)
            for k in range(1, len(s) + 1):
                cand = (csum[k - 1] - r) / k
                nxt = s[k] if k < len(s) else 0.0
                if nxt - 1e-15 <= cand <= s[k - 1] + 1e-15:
                    lam = cand
                    break
            out = z.copy()
            for idx, nn in zip(idxs, norms):
                if nn <= lam:
                    out[idx] = 0.0
                else:
                    out[idx] = z[idx] * ((nn - lam) / nn)
            return out

        projs.append(group_proj)
    return projs


# ---------------------------------------------------------------------------
# objective-specific drivers


def _lp_driver(canon: _Canon, tol: Tolerances, lexicographic: bool, rhs_lp=None):
    lp, zidx, aux_meta, eq_row_ids = _build_lp(canon)
    status, zfull, value, its = lp.solve(tol, rhs_override=rhs_lp)
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
            st2, zf2, v2, it2 = lp.solve(tol, rhs_override=rhs_lp)
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


def _qp_driver(canon: _Canon, E: np.ndarray, center: np.ndarray | None, tol: Tolerances):
    """min |E z - center|_2^2 over the polyhedral constraints."""
    H = 2.0 * (E.T @ E) + 1e-12 * np.eye(canon.n)
    g = np.zeros(canon.n) if center is None else -2.0 * (E.T @ center)
    status, z0, its0 = _feasible_point(canon.eq_A, canon.eq_b, canon.in_A, canon.in_b, tol)
    if status is not SolveStatus.OPTIMAL:
        return status, None, its0
    z, its, st = active_set_qp(H, g, canon.eq_A, canon.eq_b, canon.in_A, canon.in_b, z0, tol)
    return st, z, its0 + its


def _irls_driver(canon: _Canon, tol: Tolerances):
    """min sum_b |E_b z|_tag via reweighted QPs plus a Newton face polish.

    The surrogate weights 1/sqrt(|E_b z|^2 + mu^2) majorize the Euclidean
    block norms; driving mu down recovers the nonsmooth optimum, and the
    final Newton step on the identified face removes the smoothing bias.
    Polyhedral blocks inside the sum ride along as exact epigraph rows with
    a linear cost.
    """
    l2_blocks = [E for E, tag in canon.obj_blocks if tag is NormTag.L2]
    poly_blocks = [(E, tag) for E, tag in canon.obj_blocks if tag is not NormTag.L2]
    n = canon.n
    eq_A, eq_b = canon.eq_A, canon.eq_b
    in_A, in_b = canon.in_A, canon.in_b
    lin = np.zeros(n)
    if poly_blocks:
        rows = []
        extra = 0
        for E, tag in poly_blocks:
            if tag is NormTag.L1:
                for i in range(E.shape[0]):
                    rows.append((E[i], extra))
                    rows.append((-E[i], extra))
                    extra += 1
            else:
                for i in range(E.shape[0]):
                    rows.append((E[i], extra))
                    rows.append((-E[i], extra))
                extra += 1
        total = n + extra
        eq_A = np.hstack([eq_A, np.zeros((eq_A.shape[0], extra))]) if eq_A.size else np.zeros((0, total))
        newin = np.zeros((len(rows), total))
        for r, (coeff, aux) in enumerate(rows):
            newin[r, : coeff.shape[0]] = coeff
            newin[r, n + aux] = -1.0
        in_A = np.hstack([in_A, np.zeros((in_A.shape[0], extra))]) if in_A.size else np.zeros((0, total))
        in_A = np.vstack([in_A, newin])
        in_b = np.concatenate([in_b, np.zeros(len(rows))])
        lin = np.concatenate([lin, np.ones(extra)])
        l2_blocks = [np.hstack([E, np.zeros((E.shape[0], extra))]) for E in l2_blocks]
        n = total

    status, z, its0 = _feasible_point(eq_A, eq_b, in_A, in_b, tol)
    if status is not SolveStatus.OPTIMAL:
        return status, None, its0

    its = its0
    scale = max(1.0, float(np.linalg.norm(z)))
    mu = 0.1 * scale
    for _ in range(45):
        H = 1e-11 * np.eye(n)
        for E in l2_blocks:
            w = 1.0 / math.sqrt(float(np.sum((E @ z) ** 2)) + mu * mu)
            H = H + w * (E.T @ E)
        znew, it_qp, _ = active_set_qp(H, lin, eq_A, eq_b, in_A, in_b, z, tol)
        its += it_qp
        move = float(np.linalg.norm(znew - z))
        z = znew
        if mu <= 1e-12 * scale and move <= 1e-11 * scale:
            break
        mu = max(mu * 0.25, 1e-13 * scale)

    z = _newton_face_polish(z, l2_blocks, lin, eq_A, eq_b, in_A, in_b)
    return SolveStatus.OPTIMAL, z[: canon.n], its


def _newton_face_polish(z, l2_blocks, lin, eq_A, eq_b, in_A, in_b):
    """Newton refinement of sum-of-norms on the face identified by IRLS."""
    n = z.shape[0]
    scale = max(1.0, float(np.linalg.norm(z)))
    active = [i for i in range(in_A.shape[0]) if in_A[i] @ z >= in_b[i] - 1e-7 * scale]
    zero_blocks = [E for E in l2_blocks if np.linalg.norm(E @ z) <= 1e-7 * scale]
    live_blocks = [E for E in l2_blocks if np.linalg.norm(E @ z) > 1e-7 * scale]
    rows = []
    rhs = []
    if eq_A.size:
        rows.append(eq_A)
        rhs.append(eq_b)
    if active:
        rows.append(in_A[active])
        rhs.append(in_b[active])
    for E in zero_blocks:
        rows.append(E)
        rhs.append(np.zeros(E.shape[0]))
    if rows:
        Aact = np.vstack(rows)
        bact = np.concatenate(rhs)
        _, s, vt = np.linalg.svd(Aact, full_matrices=True)
        rank = int(np.sum(s > 1e-11 * max(1.0, s[0] if s.size else 1.0)))
        Z = vt[rank:].T
        z = z - np.linalg.pinv(Aact, rcond=1e-12) @ (Aact @ z - bact)
    else:
        Z = np.eye(n)
    if Z.shape[1] == 0:
        return z

    def fval(zz):
        return float(lin @ zz) + sum(float(np.linalg.norm(E @ zz)) for E in live_blocks)

    best = fval(z)
    for _ in range(60):
        grad = lin.copy()
        Hess = np.zeros((n, n))
        ok = True
        for E in live_blocks:
            r = E @ z
            nr = float(np.linalg.norm(r))
            if nr <= 1e-13 * scale:
                ok = False
                break
            grad = grad + E.T @ (r / nr)
            u = E.T @ r
            Hess = Hess + (E.T @ E) / nr - np.outer(u, u) / nr**3
        if not ok:
            break
        gz = Z.T @ grad
        if np.linalg.norm(gz) <= 1e-13 * max(1.0, best):
            break
        Hz = Z.T @ Hess @ Z + 1e-13 * np.eye(Z.shape[1])
        try:
            step = np.linalg.solve(Hz, -gz)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(Hz, -gz, rcond=None)
        t = 1.0
        improved = False
        for _ in range(30):
            zc = z + t * (Z @ step)
            feas = (not in_A.size) or float(np.max(in_A @ zc - in_b, initial=0.0)) <= 1e-9 * scale
            if feas and fval(zc) < best - 1e-16:
                z, best = zc, fval(zc)
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return z


def _dykstra_project(canon: _Canon, center_z: np.ndarray, tol_val: float = 1e-11,
                     extra_balls=(), maxiter: int = 20000):
    projs = _canon_projectors(canon, extra_balls)

    def viol(zz):
        v = _canon_violation(canon, zz)
        for R, r in extra_balls:
            v = max(v, float(np.linalg.norm(R @ zz) - r))
        return v

    return projops.dykstra(projs, center_z, viol, tol=tol_val, maxiter=maxiter)


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


def _maxblock_driver(canon: _Canon, tol: Tolerances):
    """min max_b |E_b z|_2 by bisection on the level with Dykstra feasibility."""
    Rs = []
    for E, tag in canon.obj_blocks:
        if tag is not NormTag.L2 or not _orthonormal_rows(E):
            raise ValueError("max-of-blocks driver expects orthonormal Euclidean blocks")
        Rs.append(E)
    if canon.polyhedral:
        status, z0, its = _feasible_point(canon.eq_A, canon.eq_b, canon.in_A, canon.in_b, tol)
        if status is not SolveStatus.OPTIMAL:
            return status, None, its
    else:
        its = 0
        base = _dykstra_project(canon, np.zeros(canon.n))
        if not base.converged:
            return SolveStatus.INFEASIBLE, None, 0
        z0 = base.point
    hi = max(float(np.linalg.norm(R @ z0)) for R in Rs)
    lo = 0.0
    zbest = z0
    scale = max(1.0, hi)
    for _ in range(48):
        if hi - lo <= 1e-10 * scale:
            break
        mid = 0.5 * (lo + hi)
        res = _dykstra_project(canon, zbest, extra_balls=[(R, mid) for R in Rs], maxiter=4000)
        if res.converged:
            hi = mid
            zbest = res.point
        else:
            lo = mid
    return SolveStatus.OPTIMAL, zbest, its


def _projected_gradient_driver(canon: _Canon, center: np.ndarray | None, tol: Tolerances):
    """Smoothed projected-gradient fallback for combinations with no exact
    path.  Slow; only exotic instances land here."""
    n = canon.n
    ex_pairs = [(b.matrix @ canon.S[:, : canon.n], b) for b in canon.exotic]

    def viol(zz):
        v = _canon_violation(canon, zz)
        for E, ball in ex_pairs:
            v = max(v, ball._block_norm().of(E @ zz) - ball.bound)
        return v

    projs = _canon_projectors(canon)

    def project(zz):
        # exotic balls enter through repeated shrink steps of their own
        out = projops.dykstra(projs, zz, lambda v: _canon_violation(canon, v), tol=1e-10).point
        for E, ball in ex_pairs:
            w = E @ out
            val = ball._block_norm().of(w)
            if val > ball.bound and val > 0:
                out = out - E.T @ np.linalg.lstsq(E @ E.T, w, rcond=None)[0] * (1.0 - ball.bound / val)
        return out

    z = project(np.zeros(n))
    mu = 1e-2

    def grad(zz):
        g = np.zeros(n)
        for E, tag in canon.obj_blocks:
            r = E @ zz
            if center is not None:
                r = r - center
            if tag is NormTag.L2:
                g += E.T @ (r / math.sqrt(float(r @ r) + mu * mu))
            elif tag is NormTag.L1:
                g += E.T @ (r / np.sqrt(r * r + mu * mu))
            else:
                m = float(np.max(np.abs(r), initial=0.0))
                w = np.exp((np.abs(r) - m) / max(mu, 1e-12))
                w /= max(w.sum(), 1e-300)
                g += E.T @ (np.sign(r) * w)
        return g

    L_est = sum(float(np.linalg.norm(E, 2)) ** 2 for E, _ in canon.obj_blocks) or 1.0
    steps = 0
    for _ in range(6):
        step = mu / L_est
        for _ in range(500):
            z_new = project(z - step * grad(z))
            steps += 1
            if np.linalg.norm(z_new - z) <= 1e-12:
                z = z_new
                break
            z = z_new
        mu *= 0.1
    return SolveStatus.OPTIMAL, z, steps


# ---------------------------------------------------------------------------
# public entry points


def _residuals(problem: MinNormProblem, c: np.ndarray) -> dict:
    eq = float(np.max(np.abs(problem.map @ c - problem.target), initial=0.0))
    cone_ok = _cones.contains(problem.cone, c, tol=1e-7 * max(1.0, float(np.linalg.norm(c))))
    bounds = 0.0
    for a, b in problem.extra_bounds:
        bounds = max(bounds, float(a @ c - b))
    for ball in problem.balls:
        bounds = max(bounds, ball.value(c) - ball.bound)
    return {"eq": eq, "cone": 0.0 if cone_ok else 1.0, "bounds": max(bounds, 0.0)}


def _zero_point_admissible(problem: MinNormProblem) -> bool:
    if np.any(problem.target != 0.0):
        return False
    return all(b >= 0.0 for _, b in problem.extra_bounds)


def _finish(problem: MinNormProblem, status: SolveStatus, c: np.ndarray, its: int,
            value: float | None = None) -> Solution:
    if value is None:
        value = problem.objective.of(c)
    return Solution(status, c, float(value), _residuals(problem, c), iterations=its)


def _solve_canon(canon: _Canon, tol: Tolerances, lexicographic: bool):
    """Dispatch one canonical problem to the right driver.

    Returns (status, z, iterations); the objective is whatever canon's
    obj_blocks say, which need not be a norm of the full ambient point.
    """
    tags = {tag for _, tag in canon.obj_blocks}
    single_l2 = len(canon.obj_blocks) == 1 and tags == {NormTag.L2}

    if canon.polyhedral:
        if NormTag.L2 not in tags:
            st, z, _, its = _lp_driver(canon, tol, lexicographic)
            return st, z, its
        if single_l2:
            return _qp_driver(canon, canon.obj_blocks[0][0], None, tol)
        return _irls_driver(canon, tol)

    if not canon.exotic and single_l2:
        E = canon.obj_blocks[0][0]
        if canon.orthogonal_S and np.array_equal(E, canon.S):
            # min |S z| = min |z| for orthonormal S: a single projection
            res = _dykstra_project(canon, np.zeros(canon.n))
            if not res.converged:
                return SolveStatus.INFEASIBLE, None, res.iterations
            return SolveStatus.OPTIMAL, res.point, res.iterations
    st, z, its = _projected_gradient_driver(canon, None, tol)
    if st is SolveStatus.OPTIMAL and _canon_violation(canon, z) > 1e-6:
        return SolveStatus.INFEASIBLE, None, its
    return st, z, its


def _canon_objective_value(canon: _Canon, z: np.ndarray) -> float:
    return float(sum(tag.of(E @ z) for E, tag in canon.obj_blocks))


def _solution_from_canon(problem: MinNormProblem, canon: _Canon, tol: Tolerances,
                         lexicographic: bool) -> Solution:
    st, z, its = _solve_canon(canon, tol, lexicographic)
    if st is SolveStatus.INFEASIBLE:
        return _infeasible_solution(problem, tol)
    if st is not SolveStatus.OPTIMAL:
        return Solution(st, iterations=its)
    c = canon.S @ z
    return _finish(problem, st, c, its, value=_canon_objective_value(canon, z))


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
    if _zero_point_admissible(problem):
        c = np.zeros(problem.cone.ambient_dim)
        return Solution(SolveStatus.OPTIMAL, c, 0.0, _residuals(problem, c))
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
    if _zero_point_admissible(problem):
        c = np.zeros(cone.ambient_dim)
        sol = Solution(SolveStatus.OPTIMAL, c, 0.0, _residuals(problem, c))
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
    Polyhedral instances solve exactly; Euclidean balls go through proximal
    projections, accurate to roughly the Dykstra tolerance.
    """
    cost = np.asarray(cost, dtype=float)
    objective = BlockNorm.flat(cone.ambient_dim, NormTag.L2)  # placeholder, not minimized
    problem = MinNormProblem(map, target, cone, objective, tuple(extra_bounds), tuple(balls))
    canon = _canonicalize(problem)
    w = canon.S.T @ cost

    if canon.polyhedral:
        lp = LinearProgram()
        lp.add_vars(canon.n, nonneg=False, obj=w)
        for i in range(canon.eq_A.shape[0]):
            lp.add_row(canon.eq_A[i], "=", canon.eq_b[i])
        for i in range(canon.in_A.shape[0]):
            lp.add_row(canon.in_A[i], "<=", canon.in_b[i])
        st, z, _, its = lp.solve(tol)
        if st is SolveStatus.UNBOUNDED:
            raise ArithmeticError("linear objective unbounded below; add a norm cap")
        if st is SolveStatus.INFEASIBLE:
            return _infeasible_solution(problem, tol)
        if st is not SolveStatus.OPTIMAL:
            return Solution(st, iterations=its)
        c = canon.S @ z
        return Solution(SolveStatus.OPTIMAL, c, float(cost @ c), _residuals(problem, c),
                        iterations=its)

    if canon.exotic or not canon.orthogonal_S:
        raise ValueError("linear objectives support polyhedral constraints and "
                         "orthogonal ball structure only")
    res = _dykstra_project(canon, np.zeros(canon.n))
    if not res.converged:
        return _infeasible_solution(problem, tol)
    z = res.point
    if float(np.linalg.norm(w)) == 0.0:
        c = canon.S @ z
        return Solution(SolveStatus.OPTIMAL, c, 0.0, _residuals(problem, c),
                        iterations=res.iterations)
    # proximal steps z <- P(z - lam w); for growing lam the projections slide
    # down the objective and settle on the minimizing face
    scale = (1.0 + float(np.linalg.norm(z))) / float(np.linalg.norm(w))
    its = res.iterations
    for lam in scale * 10.0 ** np.arange(0, 11):
        step = _dykstra_project(canon, z - lam * w)
        if not step.converged:
            break
        z = step.point
        its += step.iterations
    c = canon.S @ z
    return Solution(SolveStatus.OPTIMAL, c, float(cost @ c), _residuals(problem, c),
                    iterations=its)


def solve_max_block_norm(problem: MinNormProblem, tol: Tolerances = DEFAULT_TOL) -> Solution:
    """Minimize max_b |c_b| over the objective blocks of the problem.

    Polyhedral block tags become a single epigraph LP; Euclidean blocks go
    through bisection on the level set.  Mixing the two is not supported.
    """
    if _zero_point_admissible(problem):
        c = np.zeros(problem.cone.ambient_dim)
        return Solution(SolveStatus.OPTIMAL, c, 0.0, _residuals(problem, c))
    canon = _canonicalize(problem)
    tags = {tag for _, tag in canon.obj_blocks}
    if NormTag.L2 in tags and len(tags) > 1:
        raise ValueError("max-of-blocks objective cannot mix Euclidean and polyhedral tags")
    if NormTag.L2 not in tags:
        if not canon.polyhedral:
            raise ValueError("polyhedral max-of-blocks objective needs polyhedral constraints")
        st, z, its = _maxblock_lp(canon, tol)
    else:
        st, z, its = _maxblock_driver(canon, tol)
    if st is not SolveStatus.OPTIMAL:
        return _infeasible_solution(problem, tol) if st is SolveStatus.INFEASIBLE else Solution(st)
    c = canon.S @ z
    value = max(tag.of(E @ z) for E, tag in canon.obj_blocks)
    return Solution(SolveStatus.OPTIMAL, c, float(value), _residuals(problem, c), iterations=its)


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
    is empty.  Solution.value is the distance.
    """
    objective = BlockNorm.flat(cone.ambient_dim, NormTag.L2)
    problem = MinNormProblem(map, target, cone, objective, tuple(extra_bounds), tuple(balls))
    point = np.asarray(point, dtype=float)
    canon = _canonicalize(problem)
    if canon.polyhedral:
        st, z, its = _qp_driver(canon, canon.S, point, tol)
        if st is SolveStatus.INFEASIBLE:
            return _infeasible_solution(problem, tol)
        if st is not SolveStatus.OPTIMAL:
            return Solution(st, iterations=its)
        c = canon.S @ z
        return Solution(st, c, float(np.linalg.norm(c - point)), _residuals(problem, c),
                        iterations=its)
    if not canon.exotic and canon.orthogonal_S:
        res = _dykstra_project(canon, canon.S.T @ point)
        if not res.converged:
            return _infeasible_solution(problem, tol)
        c = canon.S @ res.point
        return Solution(SolveStatus.OPTIMAL, c, float(np.linalg.norm(c - point)),
                        _residuals(problem, c), iterations=res.iterations)
    st, z, its = _projected_gradient_driver(canon, point, tol)
    c = canon.S @ z
    return Solution(st, c, float(np.linalg.norm(c - point)), _residuals(problem, c), iterations=its)


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
    """Is {c in C : T c = x, bounds} nonempty?  Infeasible polyhedral systems
    come with a verified Farkas-type certificate."""
    objective = BlockNorm.flat(cone.ambient_dim, NormTag.L2)
    problem = MinNormProblem(map, target, cone, objective, tuple(extra_bounds), tuple(balls))
    canon = _canonicalize(problem)
    if canon.polyhedral:
        st, z, its = _feasible_point(canon.eq_A, canon.eq_b, canon.in_A, canon.in_b, tol)
        if st is SolveStatus.OPTIMAL:
            return FeasibilityReport(True, point=canon.S @ z)
        cert = None
        if not extra_bounds and not balls:
            cert = farkas_certificate(problem.map, problem.target, cone, tol)
        return FeasibilityReport(False, certificate=cert)
    res = _dykstra_project(canon, np.zeros(canon.n))
    if res.converged:
        return FeasibilityReport(True, point=canon.S @ res.point, note="sampled")
    cert = _approximate_certificate(problem.map, problem.target, cone)
    return FeasibilityReport(False, certificate=cert, note="sampled")


class MinNormSweep:
    """Re-solve one min-norm (or min-gauge) template against many targets.

    Canonicalization and LP standardization happen once; each target only
    swaps the equality right-hand side.  Infeasible targets report inf.
    An optional gauge (R, tag) replaces the objective by |R c|_tag.

    On polyhedral templates ``value`` and ``feasible`` each keep one LP for
    the whole sweep, so the optimal bases of earlier targets carry over:
    a target inside a known critical region costs one matrix product, and
    a target next to one costs a few dual simplex pivots (see
    ``LinearProgram``).  Values agree with a cold solve to rounding.
    """

    def __init__(self, map, cone, objective: BlockNorm, tol: Tolerances = DEFAULT_TOL,
                 balls=(), extra_bounds=(), gauge: tuple | None = None):
        d = np.atleast_2d(np.asarray(map, dtype=float)).shape[0]
        self.problem = MinNormProblem(map, np.zeros(d), cone, objective,
                                      tuple(extra_bounds), tuple(balls))
        self.d = d
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
        self._feas_lp = None

    def _retarget(self, x: np.ndarray) -> _Canon:
        canon = self.canon
        eq_b = canon.eq_b.copy()
        eq_b[: self.d] = x
        return _Canon(canon.S, canon.eq_A, eq_b, canon.in_A, canon.in_b, canon.soc_idx,
                      canon.l2balls, canon.groupballs, canon.obj_blocks, canon.exotic)

    def value(self, x: np.ndarray) -> float:
        """Optimal value for target x, or inf when the slice is empty."""
        x = np.asarray(x, dtype=float)
        if not np.any(x) and _zero_point_admissible(self.problem):
            return 0.0
        if self._mode == "lp":
            override = {rid: float(x[i]) for i, rid in enumerate(self._eq_ids)}
            st, z, value, _ = self._lp.solve(self.tol, rhs_override=override)
            if st is SolveStatus.INFEASIBLE:
                return math.inf
            if st is not SolveStatus.OPTIMAL:
                raise ArithmeticError("iteration limit in sweep solve")
            return float(value)
        st, z, _ = _solve_canon(self._retarget(x), self.tol, lexicographic=False)
        if st is SolveStatus.INFEASIBLE:
            return math.inf
        if st is not SolveStatus.OPTIMAL:
            raise ArithmeticError("iteration limit in sweep solve")
        return _canon_objective_value(self.canon, z)

    def solve(self, x: np.ndarray) -> Solution:
        x = np.asarray(x, dtype=float)
        problem = replace(self.problem, target=x)
        if _zero_point_admissible(problem):
            c = np.zeros(problem.cone.ambient_dim)
            return Solution(SolveStatus.OPTIMAL, c, 0.0, _residuals(problem, c))
        return _solution_from_canon(problem, self._retarget(x), self.tol, lexicographic=False)

    def feasible(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        canon = self.canon
        if canon.polyhedral:
            if self._feas_lp is None:
                self._feas_lp = _feasibility_lp(canon.eq_A, canon.eq_b, canon.in_A, canon.in_b)
            st, _, _, _ = self._feas_lp.solve(self.tol, rhs_override=dict(enumerate(x.tolist())))
            return st is SolveStatus.OPTIMAL
        return _dykstra_project(self._retarget(x), np.zeros(canon.n)).converged


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

    Solved as the explicit separation program max <y, x> over that dual cone
    with a box bound.  Exact for polyhedral cones; second-order domains fall
    back to an approximate residual certificate since their images need not
    be closed.
    """
    cone = _set_level(cone)
    if not _cones.is_polyhedral(cone):
        return _approximate_certificate(map, target, cone)
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


def _approximate_certificate(map, target, cone) -> Certificate | None:
    """Residual direction of min |T c - x| over the cone, by projected gradient."""
    T = np.atleast_2d(np.asarray(map, dtype=float))
    x = np.asarray(target, dtype=float)
    c = np.zeros(cone.ambient_dim)
    L = float(np.linalg.norm(T, 2)) ** 2
    step = 1.0 / max(L, 1e-9)
    for _ in range(5000):
        grad = T.T @ (T @ c - x)
        c_new = _cones.project_l2(cone, c - step * grad)
        if np.linalg.norm(c_new - c) <= 1e-13:
            c = c_new
            break
        c = c_new
    r = x - T @ c
    if np.linalg.norm(r) <= 1e-7 * max(1.0, np.linalg.norm(x)):
        return None
    y = r / np.max(np.abs(r))
    return Certificate(y=y, kind="approximate", note="projected-gradient residual direction")


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


def _infeasible_solution(problem: MinNormProblem, tol: Tolerances) -> Solution:
    cert = None
    if not problem.extra_bounds and not problem.balls:
        cert = farkas_certificate(problem.map, problem.target, problem.cone, tol)
    return Solution(SolveStatus.INFEASIBLE, certificate=cert)
