"""Dense simplex kernel: the linear programs under every polyhedral path.

``LinearProgram(c, A, eq, free)`` is a program over free and nonnegative
variables with = and <= rows, put in standard form once when it is built;
``solve(b)`` solves it at a whole right-hand side b by the dual simplex on a
dense tableau that carries B^-1.  A cold solve starts from the slack crash
basis, which is dual feasible when c >= 0 and drops dependent rows (or proves
b inconsistent on one); a program re-solved at another b starts from the
optimal bases of earlier solves.  The two-phase primal simplex is the
fallback where no crash basis exists.  Every verdict is
checked on the original data, or is ITERATION_LIMIT.  Ties among optima are
broken lexicographically by primal passes on the last answer's optimal face.
The fixed thresholds of every simplex and active-set verdict
(``FEASIBILITY``, ``OPTIMALITY``, ``iteration_cap``) and the solve statuses
live here as well.
"""
from __future__ import annotations

import math
from enum import Enum
from functools import partial

import numpy as np


# primal and dual feasibility of returned points, relative to the data's scale
FEASIBILITY = 1e-9
# a Farkas certificate y needs <y, x> above this
OPTIMALITY = 1e-8


def iteration_cap(m: int, n: int) -> int:
    """Iteration budget of a program with m rows and n columns, quadratic in its size."""
    return 10 * (m + n) ** 2 + 100


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


# ---------------------------------------------------------------------------
# dense two-phase primal simplex on standard form: the cold fallback


class _StandardLP:
    """min c v s.t. A v = b, v >= 0 with deterministic pivoting, where the
    slack crash basis is not dual feasible (a negative cost) or does not exist.

    Dantzig's rule (lowest index on ties) with a switch to Bland's rule after
    a stall budget guards against cycling.  Desk-scale dense tableau.
    ``solve`` returns (status, pivots, proof) for ``_WarmStart._cold`` to
    check.  OPTIMAL's proof is its basis: kept rows (phase 1 drops the rows
    it finds redundant), basic columns, and M with M A = B^-1 A over the kept
    rows, read off the starting basis's columns, which ride along through
    phase 2.  INFEASIBLE's is the phase-1 dual, UNBOUNDED's a ray d >= 0.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, c: np.ndarray):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.b = np.asarray(b, dtype=float)
        self.c = np.asarray(c, dtype=float)

    def solve(self):
        A, b, c = self.A.copy(), self.b.copy(), self.c.copy()
        m, n = A.shape
        neg = b < 0
        A[neg] *= -1.0
        b[neg] *= -1.0
        cap = iteration_cap(m, n)

        # phase 1: columns [original | artificial | rhs], from a slack basis
        # (Bixby 2002): a row owning a +1 unit column (the slack of a
        # <= row with b >= 0) starts with that column basic, and only the
        # other rows get artificials
        owner = {}
        unit = ((A == 0.0).sum(axis=0) == m - 1) & (A.sum(axis=0) == 1.0)
        for j in np.flatnonzero(unit):
            owner.setdefault(int(np.argmax(A[:, j])), int(j))
        art = [i for i in range(m) if i not in owner]
        owner.update((i, n + k) for k, i in enumerate(art))
        T = np.zeros((m + 1, n + len(art) + 1))
        T[:m, :n] = A
        T[art, n + np.arange(len(art))] = 1.0
        T[:m, -1] = b
        start = np.array([owner[i] for i in range(m)], dtype=int)  # e_i of row i
        basis = start.tolist()
        T[m, :n] = -A[art].sum(axis=0)
        T[m, -1] = -b[art].sum()
        it1 = self._pivot_loop(T, basis, restrict=n + len(art), cap=cap)
        if it1 == -1:
            return SolveStatus.ITERATION_LIMIT, cap, None
        if -T[m, -1] > FEASIBILITY * _scale(b):
            # the phase-1 dual: a starting column is the unit vector e_i at
            # phase-1 cost [artificial], so its reduced cost is that cost - y_i
            y = (start >= n) - T[m, start]
            y[neg] *= -1.0
            return SolveStatus.INFEASIBLE, max(it1, 0), y
        keep_rows = []
        for i in range(m):
            if basis[i] >= n:
                piv = next((j for j in range(n) if abs(T[i, j]) > 1e-9), None)
                if piv is None:
                    continue  # redundant row
                self._pivot(T, i, piv, basis)
            keep_rows.append(i)
        # phase 2 on the original columns; the starting columns ride along,
        # so their entries stay B^-1 of the sign-flipped rows
        T2 = T[keep_rows + [m]]
        basis2 = [basis[i] for i in keep_rows]
        T2[-1], T2[-1, :n] = 0.0, c
        for i, bi in enumerate(basis2):
            if c[bi] != 0.0:
                T2[-1, :] -= c[bi] * T2[i, :]
        it2 = self._pivot_loop(T2, basis2, restrict=n, cap=cap)
        if it2 == -2:  # a column with negative reduced cost and no positive entry
            j = np.flatnonzero((T2[-1, :n] < -FEASIBILITY) & (T2[:-1, :n] <= FEASIBILITY).all(axis=0))[0]
            d = np.zeros(n)
            d[basis2], d[j] = np.maximum(-T2[:-1, j], 0.0), 1.0
            return SolveStatus.UNBOUNDED, it1, d
        if it2 == -1:
            return SolveStatus.ITERATION_LIMIT, cap, None
        M = T2[:-1, start] * np.where(neg, -1.0, 1.0)
        return SolveStatus.OPTIMAL, it1 + it2, (np.array(keep_rows, dtype=int), np.array(basis2, dtype=int), M)

    @classmethod
    def lexmin(cls, T, basis, c, costs):
        """(v, pivots): from the tableau T (changed in place) of a basis optimal
        for c, the point of the optimal face minimizing each row of costs in turn.
        That face is the feasible set with v_j = 0 where the reduced cost d_j > 0
        (complementary slackness): each cost runs phase 2 from the current basis,
        then columns with d_j > eps = FEASIBILITY are zeroed.  An unbounded pass
        or the cap stops, and so does a pass after which no cost row left has a
        reduced cost below -eps on a live nonbasic column, so that no later pass
        could pivot: the face is one point, or the costs left are constant on it."""
        r, n, eps = len(basis), c.size, FEASIBILITY
        basis, dead, its = list(basis), np.zeros(n, bool), 0
        for k, cost in enumerate((c, *costs)):
            cost = np.where(dead, 0.0, cost)
            T[r, :n] = cost - cost[basis] @ T[:r, :n]
            got = cls._pivot_loop(T, basis, n, iteration_cap(r, n))
            if got < 0:
                break
            its += got
            dead |= T[r, :n] > eps
            dead[basis] = False
            T[:, np.flatnonzero(dead)] = 0.0
            rest, live = costs[k:], ~dead
            live[basis] = False
            if (rest[:, live] - rest[:, basis] @ T[:r, :n][:, live] >= -eps).all():
                break
        v = np.zeros(n)
        v[basis] = T[:r, -1]
        return v, its

    @staticmethod
    def _pivot(T, row, col, basis):
        T[row] /= T[row, col]
        colvals = T[:, col].copy()
        colvals[row] = 0.0
        T -= colvals[:, None] * T[row]
        basis[row] = col

    @classmethod
    def _pivot_loop(cls, T, basis, restrict, cap):
        m, it, eps = len(basis), 0, FEASIBILITY
        bland_after = 4 * (m + restrict) + 50
        with np.errstate(divide="ignore"):
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
                ratios = np.where(pos, T[:m, -1] / np.where(pos, col, 1.0), np.inf)
                best = np.min(ratios)
                tie = np.nonzero(ratios <= best + 1e-12)[0]
                row = int(tie[0]) if tie.size == 1 else min(tie.tolist(), key=basis.__getitem__)
                cls._pivot(T, row, j, basis)
                it += 1
        return -1


def _scale(v: np.ndarray) -> float:
    return max(1.0, float(np.abs(v).max(initial=0.0)))


def _farkas_ray(A, b, y):
    """y scaled to max-abs 1 when it proves {A v = b, v >= 0} empty, with
    y A <= 0 < y b within FEASIBILITY times the scale of A, and of b or of
    the terms of y b if smaller; else None."""
    top = float(np.abs(y).max(initial=0.0))
    if not 0.0 < top < math.inf:
        return None
    y = y / top
    eps = FEASIBILITY
    pairing = eps * min(_scale(b), float(np.abs(y) @ np.abs(b)))
    return y if (y @ A).max(initial=0.0) <= eps * _scale(A) and y @ b > pairing else None


def _power_scale(top: float) -> float:
    """The power of two that brings top, a largest entry in size, into [1, 2)
    when it is below 1, else 1: dividing by it and multiplying back are exact."""
    return math.ldexp(1.0, math.frexp(top)[1] - 1) if 0.0 < top < 1.0 else 1.0


def _below(M, xB, b) -> int:
    """The row of the most negative basic value xB = M b below -FEASIBILITY
    times its own scale, else -1: |M_k| |b|, plus 2^-16 max|M_k| times the
    largest |b_l| with M_kl nonzero for the rounding M carries (about 70 ulp),
    so an exact zero of M keeps a large b_l, such as a cap radius, from excusing a small row."""
    rows = (xB < 0.0).nonzero()[0]
    if rows.size:
        Mk, b = np.abs(M[rows]), np.abs(b)
        reach = np.where(Mk > 0.0, b, 0.0).max(axis=1)
        rows = rows[xB[rows] < -FEASIBILITY * (Mk @ b + 2.0**-16 * Mk.max(axis=1) * reach)]
    return int(rows[xB[rows].argmin()]) if rows.size else -1


# optimal bases kept per standardized LP; the oldest is evicted first.  A
# sweep LP of the poly_sweep benchmark meets 5 distinct optimal bases at the
# median, 16 at the 90th percentile and at most 36-39 (seeds 1 and 7); 16
# keeps 0.85 pivots per solve against 0.83 with no limit, and 8 gives 0.97.
_BASIS_CACHE_SIZE = 16


class _WarmStart:
    """Solves of one standardized LP (A, c) as its right-hand side moves.

    Every solve runs the dual simplex (Lemke 1954) from a dual feasible basis
    B on the tableau [B^-1 A | B^-1 | B^-1 b; reduced costs]: the middle
    columns carry M = B^-1 through every pivot.  A basis optimal for one b
    stays optimal for every b with B^-1 b >= 0, the critical regions of
    multiparametric LP (Gal & Nedoma 1972), so a new b is tested against
    every cached optimal basis with one stacked product and, when none fits,
    the least infeasible one is repaired.  A cold solve starts from the slack
    crash basis (``_crash``, Bixby 2002), which drops dependent rows or proves
    b inconsistent on one; ``_StandardLP`` settles the rest, and any cold
    answer that fails its check.  OPTIMAL needs M B = I, dual
    feasibility and a residual check on the full A; INFEASIBLE a Farkas ray
    (``_farkas_ray``), minus a row of M or the phase-1 dual.  A negative
    basic value is also judged at its own row's scale (``_below``), so a
    large entry of b cannot excuse a small row.  A basis is recorded with M
    once per key (its kept rows and column set): M is appended to the one
    stack, and the 17th basis evicts the oldest by dropping its rows.  Pivot
    counts include abandoned dual pivots.
    Thresholds on b and c are relative to max(1, their largest entry), so a
    b or c with every entry below 1 in size is divided by ``_power_scale``
    (``b_scale``, ``c_scale``) and the answer multiplied back.  ``last`` is
    the last OPTIMAL answer's (rows, cols, M) and a function giving a fresh
    [M A | M | M b / b_scale] for it; ``ray`` is the last INFEASIBLE
    answer's Farkas ray y (else None).
    """

    def __init__(self, A: np.ndarray, c: np.ndarray):
        self.c_scale = _power_scale(float(np.abs(c).max(initial=0.0)))
        self.A, self.c = A, c / self.c_scale
        self.c_top = _scale(self.c)
        self.entries: list = []  # (rows, cols), oldest first
        self._keys: dict = {}  # the entries' rows and sorted cols as bytes, oldest first
        # every entry's M, oldest first (M A = B^-1 A); entry k's from row _starts[k]
        self._stack, self._starts = np.empty((0, A.shape[0])), np.zeros(0, dtype=int)

    def solve(self, b: np.ndarray):
        """(status, v, value, pivots) for right-hand side b."""
        spent, self.last, self.ray, status = 0, None, None, None
        top = float(np.abs(b).max(initial=0.0))
        self.b_scale = _power_scale(top)
        b, feas = b / self.b_scale, FEASIBILITY * max(1.0, top / self.b_scale)
        if self.entries:
            status, v, value, spent = self._warm(b, feas)
        if status is None:
            status, v, value, its = self._cold(b, feas)
            spent += its
        if status is SolveStatus.OPTIMAL and self.b_scale * self.c_scale != 1.0:
            v, value = v * self.b_scale, value * self.b_scale * self.c_scale
        return status, v, value, spent

    def _cold(self, b: np.ndarray, feas: float):
        """The dual simplex from the crash basis, else the two-phase simplex,
        its verdict checked (ITERATION_LIMIT when the check fails): a primal
        ray d >= 0 needs A d = 0 > c d.  The crash basis's pivots count."""
        spent, crash = 0, self._crash(b)
        if crash is not None:
            rows, T, basis, spent = crash
            if rows is None:  # a dependent row whose b disagrees
                return SolveStatus.INFEASIBLE, None, None, spent
            status, v, value, its = self._dual_simplex(rows, T, basis, b, feas)
            spent += its
            if status is not None:
                return status, v, value, spent
        status, its, proof = _StandardLP(self.A, b, self.c).solve()
        its += spent
        if status is SolveStatus.OPTIMAL:
            out = self._repaired(*proof, b, feas, its)
            if out is not None:
                return out
        elif status is SolveStatus.INFEASIBLE:
            self.ray = _farkas_ray(self.A, b, proof)
            if self.ray is not None:
                return status, None, None, its
        elif status is SolveStatus.UNBOUNDED:
            d = proof / proof.max()
            if (np.abs(self.A @ d).max(initial=0.0) <= FEASIBILITY * _scale(self.A)
                    and self.c @ d < -FEASIBILITY * self.c_top):
                return status, None, None, its
        return SolveStatus.ITERATION_LIMIT, None, None, its

    def _crash(self, b: np.ndarray):
        """(rows, T, basis, pivots): the tableau [A | I | b; c] on the kept rows
        at the slack crash basis, each +1 slack column basic on its row and on
        every other row the zero-cost column of largest entry pivoted in, so
        that c_B = 0 and, with c >= 0, the basis is dual feasible.  A dependent
        row, all below FEASIBILITY times its largest, is dropped, or its row of
        M (y A ~ 0) is the ``ray`` (rows None).  None when a cost is negative or
        some row has entries only on positive-cost columns."""
        A, c = self.A, self.c
        m, n = A.shape
        if c.min(initial=0.0) < 0.0 or m == 0:
            return None
        T = np.zeros((m + 1, n + m + 1))
        T[:m, :n], T[:m, -1], T[m, :n] = A, b, c
        np.fill_diagonal(T[:m, n:], 1.0)
        free = np.flatnonzero(c == 0.0)
        unit = free[((A[:, free] != 0.0).sum(axis=0) == 1) & (A[:, free].sum(axis=0) == 1.0)]
        owner = dict(zip(A[:, unit[::-1]].argmax(axis=0).tolist(), unit[::-1].tolist()))
        basis = [owner.get(i, -1) for i in range(m)]  # the first unit column of each row
        kept, its = [], 0
        for i in range(m):
            if basis[i] < 0:
                row, tol = np.abs(T[i, :n]), FEASIBILITY * np.abs(A[i]).max()
                if row[free].max(initial=0.0) > tol:
                    _StandardLP._pivot(T, i, int(free[row[free].argmax()]), basis)
                    its += 1
                elif row.max(initial=0.0) > tol:
                    return None
                else:
                    self.ray = _farkas_ray(A, b, np.sign(T[i, -1]) * T[i, n:-1])
                    if self.ray is not None:
                        return None, None, None, its
                    continue
            kept.append(i)
        return np.array(kept, dtype=int), T[kept + [m]], [basis[i] for i in kept], its

    def _record(self, rows, cols, M):
        key = rows.tobytes() + np.sort(cols).tobytes()  # one column per kept row
        if cols.size == 0 or key in self._keys:
            return
        stack, starts = self._stack, self._starts
        if len(self.entries) == _BASIS_CACHE_SIZE:  # evict the oldest: drop its rows
            del self.entries[0], self._keys[next(iter(self._keys))]
            stack, starts = stack[starts[1] :], starts[1:] - starts[1]
        self._stack = np.concatenate((stack, M))
        self._starts = np.concatenate((starts, [len(stack)]))
        self.entries.append((rows, cols))
        self._keys[key] = None

    def _entry(self, k: int):
        """(rows, cols, M) of entry k, M a view of the stack."""
        rows, cols = self.entries[k]
        return rows, cols, self._stack[self._starts[k] : self._starts[k] + cols.size]

    def _warm(self, b: np.ndarray, feas: float):
        """A checked answer from the cache, or status None after the pivots spent."""
        X, starts = self._stack @ b, self._starts
        fits = np.minimum.reduceat(X, starts) >= -feas
        for k in fits.nonzero()[0].tolist():
            entry = self._entry(k)
            out = self._accept(entry, X[starts[k] : starts[k] + entry[1].size], b, feas, 0)
            if out is not None:
                return out
        # a basis that fits b but fails its checks is not repaired
        gaps = np.where(fits, -np.inf, np.add.reduceat(np.minimum(X, 0.0), self._starts))
        k = int(np.argmax(gaps))
        if gaps[k] == -np.inf:
            return None, None, None, 0
        rows, cols, M = self._entry(k)
        T = self._tableau(self.A, M, b)
        T[-1, : self.A.shape[1]] = self.c - self.c[cols] @ T[:-1, : self.A.shape[1]]
        return self._dual_simplex(rows, T, cols.tolist(), b, feas)

    def _accept(self, entry, xB, b, feas: float, pivots: int):
        """OPTIMAL at basis entry = (rows, cols, M) with basic values xB = M b >= -feas,
        when none is ``_below`` its own tolerance and v passes the residual check."""
        rows, cols, M = entry
        if _below(M, xB, b) >= 0:
            return None
        v = np.zeros(self.A.shape[1])
        v[cols] = np.maximum(xB, 0.0)  # a value rounded into (-feas, 0) leaves the cone
        if np.abs(self.A @ v - b).max(initial=0.0) > feas:
            return None
        self.last = rows, cols, M, partial(self._tableau, self.A, M, b)
        return SolveStatus.OPTIMAL, v, float(self.c @ v), pivots

    @staticmethod
    def _tableau(A, M, b: np.ndarray):
        """[M A | M | M b] and a zero cost row (static, so that ``last`` holds
        no reference cycle through the cache)."""
        (r, m), n = M.shape, A.shape[1]
        T = np.zeros((r + 1, n + m + 1))
        T[:r, :n], T[:r, n:-1], T[:r, -1] = M @ A, M, M @ b
        return T

    def _dual_simplex(self, rows, T, basis: list, b, feas: float):
        """Dual simplex pivots on T (changed in place) from its dual feasible
        basis; a basic value in (-feas, 0) leaves only when ``_below`` its own tolerance."""
        r, n = len(basis), self.A.shape[1]
        M, xB, its = T[:r, n:-1], T[:r, -1], 0  # views, kept up to date by the pivots
        while its < 2 * (r + n):
            # the most negative value, else the values below their own tolerance, if any
            p = int(xB.argmin()) if xB.min(initial=0.0) < -feas else _below(M, xB, b)
            if p < 0:
                out = self._repaired(rows, np.array(basis, dtype=int), M.copy(), b, feas, its)
                break
            alpha = T[p, :n]
            cand = np.flatnonzero(alpha < -FEASIBILITY)
            if cand.size == 0:
                self.ray = _farkas_ray(self.A, b, -M[p])
                out = None if self.ray is None else (SolveStatus.INFEASIBLE, None, None, its)
                break
            ratios = np.maximum(T[r, cand], 0.0) / -alpha[cand]
            # ties (most columns cost 0) go to the largest |alpha|, the most stable pivot
            tie = cand[ratios == ratios.min()]
            _StandardLP._pivot(T, p, int(tie[np.argmin(alpha[tie])]), basis)
            its += 1
        else:
            out = None
        return out if out is not None else (None, None, None, its)

    def _repaired(self, rows, cols, M, b, feas: float, pivots: int):
        """Check the carried inverse M of the basis cols, its entries below 2^-52
        of their row's largest zeroed as rounding residue (M B = I, dual
        feasible), then the answer at it (as ``_accept``), and keep it."""
        absM = np.abs(M)
        M[absM <= 2.0**-52 * absM.max(axis=1, initial=0.0)[:, None]] = 0.0
        G = M @ self.A[:, cols]
        G.flat[:: cols.size + 1] -= 1.0
        if np.abs(G).max(initial=0.0) > 1e-8:
            return None
        if (self.c - (self.c[cols] @ M) @ self.A).min() < -FEASIBILITY * self.c_top:
            return None
        xB = M @ b
        if xB.min(initial=0.0) < -feas:
            return None
        out = self._accept((rows, cols, M), xB, b, feas, pivots)
        if out is not None:
            self._record(rows, cols, M)
        return out


class LinearProgram:
    """min c z s.t. A z = b on the rows where ``eq`` holds, A z <= b on the
    others, z_j >= 0 unless ``free`` holds for j; built once from its data.

    Standard form: each free variable takes two adjacent columns, z+ then
    -z- (``_split``), and each <= row one +1 slack column, in row order.
    ``solve`` takes a whole right-hand side b: a program re-solved at
    another b first tries the optimal bases of earlier solves and repairs
    the closest one by dual simplex pivots; a cold solve runs the dual
    simplex from the slack crash basis, or the two-phase primal simplex
    where that basis does not exist or is not dual feasible (``_WarmStart``).
    The pivot count returned covers every pivot the call made.

    After an INFEASIBLE ``solve``, ``ray`` is its checked Farkas ray, one
    multiplier per row: y A <= 0 < y b on the standard form (else None).
    """

    def __init__(self, c, A, eq, free):
        A, c = np.asarray(A, dtype=float), np.asarray(c, dtype=float)
        eq, free = np.asarray(eq, dtype=bool), np.asarray(free, dtype=bool)
        if A.ndim != 2 or c.shape != (A.shape[1],) or free.shape != c.shape or eq.shape != A.shape[:1]:
            raise ValueError(f"LinearProgram needs A (m, n), c (n,), eq (m,) and free (n,): "
                             f"got A {A.shape}, c {c.shape}, eq {eq.shape}, free {free.shape}")
        width = 1 + free  # a free variable takes two columns
        p = np.cumsum(width) - width
        self._split = p, np.flatnonzero(free), p[free] + 1  # columns, free variables, 2nd columns
        slack = np.flatnonzero(~eq)
        self.A = np.zeros((A.shape[0], int(width.sum()) + slack.size))
        # + 0.0 turns an entry -0.0 into the 0.0 of the zero fill
        self.A[:, p], self.A[:, self._split[2]] = A + 0.0, -A[:, free] + 0.0
        self.A[slack, self.A.shape[1] - slack.size + np.arange(slack.size)] = 1.0
        self.c = self._costs(c[None])[0]
        self._warm = _WarmStart(self.A, self.c)
        self.ray = None

    def _costs(self, costs) -> np.ndarray:
        """Rows of costs over the variables as rows over the standard columns."""
        (p, free, q), costs = self._split, np.asarray(costs, dtype=float)
        out = np.zeros((costs.shape[0], self.A.shape[1]))
        out[:, p], out[:, q] = costs, -costs[:, free]
        return out

    def _unsplit(self, v: np.ndarray) -> np.ndarray:
        p, free, q = self._split
        z = v[p]
        z[free] -= v[q]
        return z

    def solve(self, b):
        """(status, z, value, pivots) at right-hand side b."""
        status, v, value, its = self._warm.solve(np.asarray(b, dtype=float))
        self.ray = self._warm.ray
        if status is not SolveStatus.OPTIMAL:
            return status, None, None, its
        return status, self._unsplit(v), value, its

    @property
    def dual(self) -> np.ndarray:
        """After an OPTIMAL ``solve``, y = c_B B^-1 of its checked basis, one
        multiplier per row: y b is the optimal value and c - y A >= 0."""
        warm = self._warm
        _, cols, M, _ = warm.last
        return (warm.c[cols] @ M) * warm.c_scale

    def lexmin(self, costs):
        """(z, pivots) after an OPTIMAL ``solve``: its optimum minimizing each cost row in turn."""
        warm = self._warm
        _, cols, _, tableau = warm.last
        v, its = _StandardLP.lexmin(tableau(), cols, warm.c, self._costs(costs))
        return self._unsplit(v * warm.b_scale), its
