"""Dense simplex kernel: the linear programs under every polyhedral path.

``LinearProgram`` builds a program over free and nonnegative variables and
solves it in standard form with a two-phase primal simplex on a dense
tableau.  Programs re-solved with only their right-hand side changed
restart from the optimal bases of earlier solves and repair them with dual
simplex pivots; the cold two-phase method remains the fallback.  The
shared tolerances and solve statuses live here as well.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared across the kernel.

    feasibility: primal/dual feasibility of returned points.
    optimality:  objective-gap / KKT residual target.
    cap(m, n):   iteration budget, quadratic in the problem size.
    """

    feasibility: float = 1e-9
    optimality: float = 1e-8

    def cap(self, m: int, n: int) -> int:
        return 10 * (m + n) ** 2 + 100


DEFAULT_TOL = Tolerances()


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


# ---------------------------------------------------------------------------
# dense two-phase primal simplex on standard form


class _StandardLP:
    """min c v s.t. A v = b, v >= 0 with deterministic pivoting.

    Dantzig's rule (lowest index on ties) with a switch to Bland's rule after
    a stall budget guards against cycling.  Desk-scale dense tableau.
    ``solve`` returns (status, v, value, pivots, basis); an optimal basis is
    the pair (kept rows, basic columns), where phase 1 dropped the rows it
    found redundant.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, c: np.ndarray, tol: Tolerances = DEFAULT_TOL):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.b = np.asarray(b, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.tol = tol

    def solve(self):
        A, b, c = self.A.copy(), self.b.copy(), self.c.copy()
        m, n = A.shape
        neg = b < 0
        A[neg] *= -1.0
        b[neg] *= -1.0
        eps = self.tol.feasibility
        cap = self.tol.cap(m, n)

        # phase 1: columns [original | artificial | rhs]
        T = np.zeros((m + 1, n + m + 1))
        T[:m, :n] = A
        T[:m, n : n + m] = np.eye(m)
        T[:m, -1] = b
        basis = list(range(n, n + m))
        T[m, :n] = -A.sum(axis=0)
        T[m, -1] = -b.sum()
        it1 = self._pivot_loop(T, basis, restrict=n + m, eps=eps, cap=cap)
        if it1 == -1:
            return SolveStatus.ITERATION_LIMIT, None, None, cap, None
        if -T[m, -1] > 1e-9 * max(1.0, float(np.abs(b).max(initial=0.0))):
            return SolveStatus.INFEASIBLE, None, None, max(it1, 0), None
        keep_rows = []
        for i in range(m):
            if basis[i] >= n:
                piv = next((j for j in range(n) if abs(T[i, j]) > 1e-9), None)
                if piv is None:
                    continue  # redundant row
                self._pivot(T, i, piv, basis)
            keep_rows.append(i)
        # phase 2 on the original columns
        T2 = np.zeros((len(keep_rows) + 1, n + 1))
        T2[: len(keep_rows), :n] = T[keep_rows][:, :n]
        T2[: len(keep_rows), -1] = T[keep_rows][:, -1]
        basis2 = [basis[i] for i in keep_rows]
        T2[-1, :n] = c
        for i, bi in enumerate(basis2):
            if c[bi] != 0.0:
                T2[-1, :] -= c[bi] * T2[i, :]
        it2 = self._pivot_loop(T2, basis2, restrict=n, eps=eps, cap=cap)
        if it2 == -2:
            return SolveStatus.UNBOUNDED, None, None, it1, None
        if it2 == -1:
            return SolveStatus.ITERATION_LIMIT, None, None, cap, None
        v = np.zeros(n)
        for i, bi in enumerate(basis2):
            v[bi] = T2[i, -1]
        return SolveStatus.OPTIMAL, v, float(-T2[-1, -1]), it1 + it2, (keep_rows, basis2)

    @staticmethod
    def _pivot(T, row, col, basis):
        T[row, :] /= T[row, col]
        colvals = T[:, col].copy()
        colvals[row] = 0.0
        T -= np.outer(colvals, T[row, :])
        basis[row] = col

    def _pivot_loop(self, T, basis, restrict, eps, cap):
        m = len(basis)
        it = 0
        bland_after = 4 * (m + restrict) + 50
        while it < cap:
            costs = T[-1, :restrict]
            if it < bland_after:
                j = int(np.argmin(costs))
                if costs[j] >= -eps:
                    return it
            else:
                below = np.nonzero(costs < -eps)[0]
                if below.size == 0:
                    return it
                j = int(below[0])
            col = T[:m, j]
            pos = col > eps
            if not np.any(pos):
                return -2
            with np.errstate(divide="ignore"):
                ratios = np.where(pos, T[:m, -1] / np.where(pos, col, 1.0), np.inf)
            best = np.min(ratios)
            tie = np.nonzero(ratios <= best + 1e-12)[0]
            row = int(min(tie, key=lambda r: basis[r]))
            self._pivot(T, row, j, basis)
            it += 1
        return -1


# optimal bases kept per standardized LP; the oldest is evicted first.  A
# sweep LP of the poly_sweep benchmark meets 5 distinct optimal bases at the
# median, 16 at the 90th percentile and at most 36-39 (seeds 1 and 7); 16
# keeps 0.85 pivots per solve against 0.83 with no limit, and 8 gives 0.97.
_BASIS_CACHE_SIZE = 16


class _WarmStart:
    """Solves of one standardized LP (A, c) as its right-hand side moves.

    Dual feasibility of a basis B depends on (A, c) alone, so a basis that
    was optimal for one b stays optimal for every b with B^-1 b >= 0: the
    critical regions of multiparametric LP (Gal & Nedoma 1972).  A new b is
    tested against every cached optimal basis with one stacked product; when
    none fits, the dual simplex (Lemke 1954) repairs the least infeasible
    one.  A warm OPTIMAL has passed a residual check on the full A, and a
    warm INFEASIBLE carries a dual ray y with y A >= 0 > y b checked on the
    original data.  Anything else is settled by the cold two-phase simplex,
    whose optimal bases feed the cache.

    Bases are recorded as indices and factorized only when a second solve
    reaches the same LP, so a program solved once pays nothing.  Until some
    right-hand side is feasible there is no basis to start from, and every
    solve is cold.  Returned pivot counts include abandoned dual pivots.
    """

    def __init__(self, A: np.ndarray, c: np.ndarray):
        self.A, self.c = A, c
        self.entries: list = []  # [rows, cols, M or None], oldest first; M b = B^-1 b[rows]
        self._stack = None  # every entry's M stacked, rebuilt after a change
        self._starts = None

    def solve(self, b: np.ndarray, tol: Tolerances):
        """(status, v, value, pivots) for right-hand side b."""
        spent = 0
        if self._factorize(tol):
            status, v, value, spent = self._warm(b, tol)
            if status is not None:
                return status, v, value, spent
        status, v, value, its = self._cold(b, tol)
        return status, v, value, spent + its

    def _cold(self, b: np.ndarray, tol: Tolerances):
        status, v, value, its, basis = _StandardLP(self.A, b, self.c, tol).solve()
        if basis is not None:
            self._record(*basis)
        return status, v, value, its

    def _record(self, rows, cols, M=None):
        rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
        if cols.size == 0:
            return
        for r, c, _ in self.entries:
            if np.array_equal(r, rows) and set(c.tolist()) == set(cols.tolist()):
                return
        if len(self.entries) == _BASIS_CACHE_SIZE:
            self.entries.pop(0)
        self.entries.append([rows, cols, M])
        self._stack = None

    def _factorize(self, tol: Tolerances) -> bool:
        if self._stack is None and self.entries:
            entries = [[r, c, M if M is not None else self._inverse(r, c, tol)]
                       for r, c, M in self.entries]
            self.entries = [e for e in entries if e[2] is not None]
            if self.entries:
                self._stack = np.vstack([M for _, _, M in self.entries])
                self._starts = np.cumsum([0] + [c.size for _, c, _ in self.entries[:-1]])
                for e, start in zip(self.entries, self._starts):  # one copy of each inverse
                    e[2] = self._stack[start : start + e[1].size]
        return self._stack is not None

    def _inverse(self, rows, cols, tol: Tolerances):
        """M with M b = B^-1 b[rows], or None for a singular or dual infeasible B."""
        A = self.A[rows]
        B = A[:, cols]
        try:
            Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            return None
        if np.abs(Binv @ B - np.eye(cols.size)).max() > 1e-8:
            return None
        reduced = self.c - (self.c[cols] @ Binv) @ A
        if reduced.min() < -tol.feasibility * max(1.0, float(np.abs(self.c).max(initial=0.0))):
            return None
        M = np.zeros((rows.size, self.A.shape[0]))
        M[:, rows] = Binv
        return M

    def _warm(self, b: np.ndarray, tol: Tolerances):
        """A checked answer from the cache, or status None after the pivots spent."""
        feas = tol.feasibility * max(1.0, float(np.abs(b).max(initial=0.0)))
        X = self._stack @ b
        lows = np.minimum.reduceat(X, self._starts)
        fits = lows >= -feas
        for k in np.nonzero(fits)[0]:
            cols = self.entries[k][1]
            out = self._accept(cols, X[self._starts[k] : self._starts[k] + cols.size], b, feas, 0)
            if out is not None:
                return out
        # a basis that fits b but fails the residual check cannot be repaired by pivoting
        gaps = np.where(fits, -np.inf, np.add.reduceat(np.minimum(X, 0.0), self._starts))
        k = int(np.argmax(gaps))
        if gaps[k] == -np.inf:
            return None, None, None, 0
        return self._dual_simplex(k, b, tol, feas)

    def _accept(self, cols, xB, b, feas: float, pivots: int):
        v = np.zeros(self.A.shape[1])
        v[cols] = xB
        if np.abs(self.A @ v - b).max(initial=0.0) > feas:
            return None
        return SolveStatus.OPTIMAL, v, float(self.c @ v), pivots

    def _dual_simplex(self, k: int, b: np.ndarray, tol: Tolerances, feas: float):
        rows, cols, M = self.entries[k]
        A = self.A[rows]
        r, n = A.shape
        eps = tol.feasibility
        T = np.zeros((r + 1, n + 1))
        T[:r, :n] = M[:, rows] @ A
        T[:r, n] = M @ b
        T[r, :n] = self.c - self.c[cols] @ T[:r, :n]
        basis = cols.tolist()
        its = 0
        while its < 2 * (r + n):
            p = int(np.argmin(T[:r, n]))
            if T[p, n] >= -feas:
                out = self._repaired(rows, np.array(basis), b, tol, feas, its)
                break
            alpha = T[p, :n]
            cand = np.nonzero(alpha < -eps)[0]
            if cand.size == 0:
                out = self._ray(rows, np.array(basis), p, b, tol, its)
                break
            ratios = np.maximum(T[r, cand], 0.0) / -alpha[cand]
            _StandardLP._pivot(T, p, int(cand[np.argmin(ratios)]), basis)
            its += 1
        else:
            out = None
        return out if out is not None else (None, None, None, its)

    def _repaired(self, rows, cols, b, tol: Tolerances, feas: float, pivots: int):
        """Refactorize the basis the dual simplex ended on, check it, keep it."""
        M = self._inverse(rows, cols, tol)
        if M is None:
            return None
        xB = M @ b
        if xB.min() < -feas:
            return None
        out = self._accept(cols, xB, b, feas, pivots)
        if out is not None:
            self._record(rows, cols, M)
        return out

    def _ray(self, rows, cols, p: int, b, tol: Tolerances, pivots: int):
        """INFEASIBLE when row p of B^-1 is a dual ray on the original data."""
        e = np.zeros(rows.size)
        e[p] = 1.0
        try:
            yr = np.linalg.solve(self.A[np.ix_(rows, cols)].T, e)
        except np.linalg.LinAlgError:
            return None
        y = np.zeros(self.A.shape[0])
        y[rows] = yr / np.abs(yr).max()
        eps = tol.feasibility
        if (float((y @ self.A).min()) >= -eps * max(1.0, float(np.abs(self.A).max()))
                and float(y @ b) < -eps * max(1.0, float(np.abs(b).max(initial=0.0)))):
            return SolveStatus.INFEASIBLE, None, None, pivots
        return None


class LinearProgram:
    """Row/column builder over free and nonnegative variables.

    Free variables are split into positive and negative parts at
    standardization; <= and >= rows get slack columns.  The standardized
    matrix is cached so right-hand-side sweeps only reassemble b, and the
    optimal bases found so far are cached with it: a later solve that only
    overrides right-hand sides first tries those bases and repairs the
    closest one by dual simplex pivots, falling back to the cold two-phase
    simplex when neither gives a checked answer.  The pivot count returned
    covers every pivot the call made.  Any edit drops both caches.
    """

    def __init__(self):
        self.var_nonneg: list[bool] = []
        self.obj: list[float] = []
        self.rows: list[tuple[np.ndarray, str, float]] = []
        self._cache = None

    def add_vars(self, k: int, nonneg: bool, obj: float | np.ndarray = 0.0) -> list[int]:
        self._cache = None
        idx = list(range(len(self.var_nonneg), len(self.var_nonneg) + k))
        self.var_nonneg.extend([nonneg] * k)
        o = np.broadcast_to(np.asarray(obj, dtype=float), (k,))
        self.obj.extend(o.tolist())
        return idx

    def add_row(self, coeffs, sense: str, rhs: float, at: list[int] | None = None) -> int:
        self._cache = None
        coeffs = np.asarray(coeffs, dtype=float)
        if at is None:
            at = list(range(coeffs.shape[0]))
        packed = np.zeros(len(self.var_nonneg))
        packed[at] = coeffs
        self.rows.append((packed, sense, float(rhs)))
        return len(self.rows) - 1

    def set_objective(self, coeffs: dict[int, float], reset: bool = True):
        self._cache = None
        if reset:
            self.obj = [0.0] * len(self.obj)
        for j, v in coeffs.items():
            self.obj[j] = v

    def _standardize(self):
        if self._cache is not None:
            return self._cache
        nr = len(self.rows)
        col_of = []
        cols = 0
        for nonneg in self.var_nonneg:
            if nonneg:
                col_of.append((cols, -1))
                cols += 1
            else:
                col_of.append((cols, cols + 1))
                cols += 2
        slack_cols = sum(1 for _, s, _ in self.rows if s != "=")
        A = np.zeros((nr, cols + slack_cols))
        b = np.zeros(nr)
        c = np.zeros(cols + slack_cols)
        for j, (p, q) in enumerate(col_of):
            c[p] = self.obj[j]
            if q >= 0:
                c[q] = -self.obj[j]
        s_at = cols
        for i, (row, sense, rhs) in enumerate(self.rows):
            for j in np.nonzero(row)[0]:
                p, q = col_of[j]
                A[i, p] = row[j]
                if q >= 0:
                    A[i, q] = -row[j]
            b[i] = rhs
            if sense == "<=":
                A[i, s_at] = 1.0
                s_at += 1
            elif sense == ">=":
                A[i, s_at] = -1.0
                s_at += 1
            elif sense != "=":
                raise ValueError(f"bad sense {sense!r}")
        self._cache = (A, b, c, col_of, _WarmStart(A, c))
        return self._cache

    def solve(self, tol: Tolerances = DEFAULT_TOL, rhs_override: dict[int, float] | None = None):
        A, b, c, col_of, warm = self._standardize()
        if rhs_override:
            b = b.copy()
            for i, v in rhs_override.items():
                b[i] = v
        status, v, value, its = warm.solve(b, tol)
        if status is not SolveStatus.OPTIMAL:
            return status, None, None, its
        z = np.empty(len(col_of))
        for j, (p, q) in enumerate(col_of):
            z[j] = v[p] - (v[q] if q >= 0 else 0.0)
        return status, z, value, its
