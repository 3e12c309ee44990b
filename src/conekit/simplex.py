"""Dense simplex kernel: the linear programs under every polyhedral path.

``LinearProgram(c, A, eq, free)`` is a program over free and nonnegative
variables with = and <= rows, put in standard form once when it is built;
``solve(b)`` solves it at a whole right-hand side b by the dual simplex on a
dense tableau that carries B^-1.  A cold solve starts from the slack crash
basis, which drops dependent rows (or proves b inconsistent on one), with
any negative reduced cost raised to 0 so that the dual simplex can start;
primal pivots on the true costs finish from the primal feasible basis it
reaches.  A program re-solved at another b starts from the optimal bases of
earlier solves.  Every verdict is checked on the original data, or is
ITERATION_LIMIT.  Ties among optima are broken lexicographically by primal
passes on the last answer's optimal face.
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
# dense tableau pivots


def _pivot(T, row, col, basis):
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= colvals[:, None] * T[row]
    basis[row] = col


def _pivot_loop(T, basis, restrict, cap):
    """Primal simplex pivots on T (changed in place), whose last row holds
    the reduced costs, over its first ``restrict`` columns: the pivot count
    once none is below -FEASIBILITY, -2 at a column with a negative reduced
    cost and no positive entry, -1 after cap pivots.  Dantzig's rule (lowest
    index on ties) with a switch to Bland's rule after a stall budget guards
    against cycling."""
    m, it, eps = len(basis), 0, FEASIBILITY
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
        ratios = np.where(pos, T[:m, -1] / np.where(pos, col, 1.0), np.inf)
        best = np.min(ratios)
        tie = np.nonzero(ratios <= best + 1e-12)[0]
        row = int(tie[0]) if tie.size == 1 else min(tie.tolist(), key=basis.__getitem__)
        _pivot(T, row, j, basis)
        it += 1
    return -1


def _lexmin(T, basis, c, costs):
    """(v, pivots): from the tableau T (changed in place) of a basis optimal
    for c, the point of the optimal face minimizing each row of costs in turn.
    That face is the feasible set with v_j = 0 where the reduced cost d_j > 0
    (complementary slackness): each cost runs primal pivots from the current
    basis, then columns with d_j > eps = FEASIBILITY are zeroed.  An unbounded
    pass or the cap stops, and so does a pass after which no cost row left has
    a reduced cost below -eps on a live nonbasic column, so that no later pass
    could pivot: the face is one point, or the costs left are constant on it."""
    r, n, eps = len(basis), c.size, FEASIBILITY
    basis, dead, its = list(basis), np.zeros(n, bool), 0
    for k, cost in enumerate((c, *costs)):
        cost = np.where(dead, 0.0, cost)
        T[r, :n] = cost - cost[basis] @ T[:r, :n]
        got = _pivot_loop(T, basis, n, iteration_cap(r, n))
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


def _below(M, xB, b, feas: float) -> int:
    """The row of the most negative basic value xB = M b below -feas, else of
    the most negative one below -FEASIBILITY times its own scale, else -1:
    |M_k| |b|, plus 2^-16 max|M_k| times the largest |b_l| with M_kl nonzero
    for the rounding M carries (about 70 ulp), so an exact zero of M keeps a
    large b_l, such as a cap radius, from excusing a small row."""
    if xB.min(initial=0.0) < -feas:
        return int(xB.argmin())
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
    b inconsistent on one, and whose negative reduced costs are raised to 0
    (cost shifting, Koberstein 2005); the true costs come back for primal
    pivots once the basis is primal feasible.  OPTIMAL needs M B = I, dual
    feasibility and a residual check on the full A; INFEASIBLE a Farkas ray
    (``_farkas_ray``), minus a row of M or a sum of such rows; UNBOUNDED a
    ray d >= 0 with A d = 0 > c d.  A negative basic value is also judged at
    its own row's scale (``_below``), so a large entry of b cannot excuse a
    small row.  A basis is recorded with M once per key (its kept rows and
    column set): M is appended to the one stack, and the 17th basis evicts
    the oldest by dropping its rows.  Pivot counts include abandoned dual
    pivots.
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
        """The dual simplex from the crash basis, its verdict checked
        (ITERATION_LIMIT when the check fails).  The crash basis's pivots count."""
        rows, T, basis, spent = self._crash(b)
        if rows is None:  # a dependent row whose b disagrees
            return SolveStatus.INFEASIBLE, None, None, spent
        status, v, value, its = self._dual_simplex(rows, T, basis, b, feas)
        return status or SolveStatus.ITERATION_LIMIT, v, value, spent + its

    def _crash(self, b: np.ndarray):
        """(rows, T, basis, pivots): the tableau [A | I | b; d] on the kept rows
        at the slack crash basis, each +1 slack column basic on its row and on
        every other row the zero-cost column of largest entry pivoted in, or,
        on a row with none, the column of largest entry.  The cost row d is
        the reduced costs with each negative one raised to 0, which leaves
        the basis dual feasible (and, with c >= 0 and c_B = 0, is c itself).
        A dependent row, all below FEASIBILITY times its largest, is dropped,
        or its row of M (y A ~ 0) is the ``ray`` (rows None)."""
        A, c = self.A, self.c
        m, n = A.shape
        T = np.zeros((m + 1, n + m + 1))
        T[:m, :n], T[:m, -1], T[m, :n] = A, b, c
        np.fill_diagonal(T[:m, n:], 1.0)
        free = np.flatnonzero(c == 0.0)
        unit = free[((A[:, free] != 0.0).sum(axis=0) == 1) & (A[:, free].sum(axis=0) == 1.0)]
        at = A[:, unit].T.nonzero()[1]  # the row of each unit column
        owner = dict(zip(at[::-1].tolist(), unit[::-1].tolist()))
        basis = [owner.get(i, -1) for i in range(m)]  # the first unit column of each row
        kept, its = [], 0
        for i in range(m):
            if basis[i] < 0:
                row, tol = np.abs(T[i, :n]), FEASIBILITY * np.abs(A[i]).max()
                if row[free].max(initial=0.0) > tol:
                    _pivot(T, i, int(free[row[free].argmax()]), basis)
                elif row.max(initial=0.0) > tol:
                    _pivot(T, i, int(row.argmax()), basis)
                else:
                    self.ray = _farkas_ray(A, b, np.sign(T[i, -1]) * T[i, n:-1])
                    if self.ray is not None:
                        return None, None, None, its
                    continue
                its += 1
            kept.append(i)
        np.maximum(T[m, :n], 0.0, out=T[m, :n])
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
        if _below(M, xB, b, feas) >= 0:
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
        """Dual simplex pivots on T (changed in place) from a basis dual
        feasible for its cost row, to a Farkas ray or a primal feasible basis.
        There the true reduced costs c - c_B M A, which a cold start may have
        raised to 0, are restored for primal pivots (``_pivot_loop``), which
        end at a primal ray d >= 0 with A d = 0 > c d or at the answer.  A
        basic value in (-feas, 0) leaves when ``_below`` its own tolerance.
        The answer is judged on M with its entries below 2^-52 of their row's
        largest zeroed as rounding residue, and xB = M b on that M; when it
        fails its check with a negative basic value, the most negative one
        leaves.  Status None when the verdict fails its check."""
        r, n = len(basis), self.A.shape[1]
        M, xB, its = T[:r, n:-1], T[:r, -1], 0  # views, kept up to date by the pivots
        while its < 2 * (r + n):
            p = _below(M, xB, b, feas)
            if p < 0:
                T[r, :n] = self.c - self.c[basis] @ T[:r, :n]
                got = _pivot_loop(T, basis, n, iteration_cap(r, n))
                if got == -2:
                    return self._unbounded(T, basis, its)
                if got == -1:
                    break
                its += got
                absM = np.abs(M)
                M[absM <= 2.0**-52 * absM.max(axis=1, initial=0.0)[:, None]] = 0.0
                xB[:] = M @ b
                out = self._repaired(rows, np.array(basis, dtype=int), M.copy(), xB, b, feas, its)
                if out is not None or xB.min(initial=0.0) >= 0.0:
                    return out or (None, None, None, its)
                p = int(xB.argmin())  # rounded into (-feas, 0), it fails the answer
            alpha = T[p, :n]
            cand = np.flatnonzero(alpha < -FEASIBILITY)
            if cand.size == 0:
                # -M[p] proves b out of reach, or on a knife edge the sum of
                # -M[k] over every negative row k with no entering column does
                self.ray = _farkas_ray(self.A, b, -M[p])
                if self.ray is None:
                    dead = (xB < 0.0) & (T[:r, :n] >= -FEASIBILITY).all(axis=1)
                    self.ray = _farkas_ray(self.A, b, -M[dead].sum(axis=0))
                return (None if self.ray is None else SolveStatus.INFEASIBLE), None, None, its
            ratios = np.maximum(T[r, cand], 0.0) / -alpha[cand]
            # ties (most columns cost 0) go to the largest |alpha|, the most stable pivot
            tie = cand[ratios == ratios.min()]
            _pivot(T, p, int(tie[np.argmin(alpha[tie])]), basis)
            its += 1
        return None, None, None, its

    def _unbounded(self, T, basis: list, pivots: int):
        """UNBOUNDED at a column of T with a negative reduced cost and no
        positive entry, when its ray d >= 0 has A d = 0 > c d; else status None."""
        r, n = len(basis), self.A.shape[1]
        j = np.flatnonzero((T[r, :n] < -FEASIBILITY) & (T[:r, :n] <= FEASIBILITY).all(axis=0))[0]
        d = np.zeros(n)
        d[basis], d[j] = np.maximum(-T[:r, j], 0.0), 1.0
        d /= d.max()
        if (np.abs(self.A @ d).max(initial=0.0) <= FEASIBILITY * _scale(self.A)
                and self.c @ d < -FEASIBILITY * self.c_top):
            return SolveStatus.UNBOUNDED, None, None, pivots
        return None, None, None, pivots

    def _repaired(self, rows, cols, M, xB, b, feas: float, pivots: int):
        """Check the carried inverse M of the basis cols (M B = I, dual
        feasible), then the answer xB = M b at it (as ``_accept``), and keep it."""
        G = M @ self.A[:, cols]
        G.flat[:: cols.size + 1] -= 1.0
        if np.abs(G).max(initial=0.0) > 1e-8:
            return None
        if (self.c - (self.c[cols] @ M) @ self.A).min() < -FEASIBILITY * self.c_top:
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
    simplex from the slack crash basis, its negative reduced costs raised
    to 0, then primal pivots on the true costs (``_WarmStart``).
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
        v, its = _lexmin(tableau(), cols, warm.c, self._costs(costs))
        return self._unsplit(v * warm.b_scale), its
