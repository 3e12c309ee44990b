"""Dense primal-dual interior-point method for linear programs over LP x SOC cones.

Solves

    minimize    c'x
    subject to  A x = b
                G x + s = h,    s in K = R+^l x Q^q1 x ... x Q^qk

where Q^q = {(t, u) in R x R^(q-1) : |u|_2 <= t} is the second-order cone,
together with its dual

    maximize    -b'y - h'z
    subject to  A'y + G'z + c = 0,    z in K.

The method is the homogeneous self-dual embedding of Ye, Todd & Mizuno
(1994), followed with Nesterov-Todd scaling and Mehrotra's
predictor-corrector, as in the CVXOPT cone solvers (Vandenberghe 2010) and
ECOS (Domahidi, Chu & Boyd 2013).  The embedding needs no feasible start and
ends either at an optimal pair or at a certificate: an empty program yields
(y, z) with A'y + G'z = 0, z in K and b'y + h'z < 0, an unbounded one a ray.

Everything is dense and numpy-only: the programs in this package have a few
dozen variables.  A ``ConeProgram`` is compiled once from (c, A, G, K) and
solved for many right-hand sides (b, h).  Compiling reduces A to orthonormal
rows and keeps a basis N of its null space, so each Newton system is one
small quasi-definite matrix in (N-coordinates of dx, W dz).  Each
nonnegative row counts as a second-order block of size one, so every cone
operation (Jordan product and division, the scaling W and its inverse, the
step to the boundary) is a handful of array expressions over all blocks at
once, with block sums by ``np.add.reduceat``: there is no loop over blocks.

Statuses mean exactly what they say.  OPTIMAL needs primal and dual
residuals and the relative gap each at most ``TOL``; INFEASIBLE and UNBOUNDED
need a certificate that passes ``certifies_infeasible`` or
``certifies_unbounded`` on the original data; anything else is
ITERATION_LIMIT.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simplex import SolveStatus

__all__ = ["ConeProgram", "ConicResult", "TARGET", "TOL"]

TOL = 1e-9  # residuals and relative gap of an OPTIMAL answer
TARGET = 1e-12  # by default, iterate on toward this while the steps still gain
_STEP = 0.99  # fraction of the step to the cone boundary
_MAXITER = 60
_RADIUS = 1e8  # a certificate rules out points this many data scales out


@dataclass
class ConicResult:
    """One solve.  ``x, s, y, z`` are the optimal pair when OPTIMAL; an
    INFEASIBLE result carries the certificate in ``y, z`` (scaled so that
    b'y + h'z = -1) and an UNBOUNDED one the ray in ``x, s`` (c'x = -1).
    ``pres, dres, gap`` are the relative residuals and gap of the answer."""

    status: SolveStatus
    x: np.ndarray | None = None
    s: np.ndarray | None = None
    y: np.ndarray | None = None
    z: np.ndarray | None = None
    iterations: int = 0
    pres: float = math.inf
    dres: float = math.inf
    gap: float = math.inf


class ConeProgram:
    """min c'x s.t. A x = b, G x + s = h, s in R+^l x Q^soc[0] x ..., compiled once.

    ``soc`` lists the second-order block sizes in the order their rows
    follow the l nonnegative rows of G.  ``solve(b, h)`` may be called for
    any number of right-hand sides.
    """

    def __init__(self, c, G, l: int, soc=(), A=None):
        c = np.asarray(c, dtype=float)
        n = c.shape[0]
        G = np.asarray(G, dtype=float).reshape(-1, n)
        A = np.zeros((0, n)) if A is None else np.asarray(A, dtype=float).reshape(-1, n)
        soc = tuple(int(q) for q in soc)
        if l < 0 or min(soc, default=1) < 1 or G.shape[0] != l + sum(soc):
            raise ValueError("G rows must match the cone dimensions")
        self.c, self.G, self.A, self.l, self.soc = c, G, A, l, soc
        self.n, self.m = n, G.shape[0]
        self._cone = _Cone((1,) * l + soc)
        # A = U diag(sv) Ar with orthonormal rows Ar; the columns of N span its null space
        if A.shape[0] and np.any(A):
            U, sv, Vt = np.linalg.svd(A)
            r = int(np.sum(sv > 1e-12 * max(A.shape) * sv[0]))
            self._U, self._sv, self._Ar, self._N = U[:, :r], sv[:r], Vt[:r], Vt[r:].T
        else:
            self._U, self._sv = np.zeros((A.shape[0], 0)), np.zeros(0)
            self._Ar, self._N = np.zeros((0, n)), np.eye(n)
        self._cscale = float(np.max(np.abs(c), initial=0.0)) or 1.0
        self._gscale = max(float(np.max(np.abs(G), initial=0.0)),
                           float(np.max(np.abs(A), initial=0.0))) or 1.0

    def solve(self, b=None, h=None, target: float = TARGET) -> ConicResult:
        """Solve for the right-hand sides b (equality rows) and h (cone rows).

        The iteration stops once residuals and gap are below ``target``, or
        once they stop falling after passing ``TOL``.  Iterating past
        ``TOL`` sharpens the point (which converges about as fast as the
        gap on nondegenerate programs), not the verdict; ``target=TOL``
        suits callers that want only the optimal value.
        """
        b = np.zeros(self.A.shape[0]) if b is None else np.asarray(b, dtype=float)
        h = np.zeros(self.m) if h is None else np.asarray(h, dtype=float)
        ub = self._U.T @ b
        off = b - self._U @ ub
        if _nrm(off) > 1e-9 * _nrm(b):
            # inconsistent equality rows: y = -off has A'y = 0 and b'y < 0
            return self._infeasible(b, h, -off, np.zeros(self.m), 0)
        br = ub / self._sv
        scale = max(float(np.max(np.abs(br), initial=0.0)),
                    float(np.max(np.abs(h), initial=0.0))) or 1.0
        kind, (x, y, s, z), it, meas = self._ipm(self.c / self._cscale, br / scale, h / scale,
                                                 target)
        if kind == "optimal":
            return ConicResult(SolveStatus.OPTIMAL, x * scale, s * scale,
                               self._U @ (y / self._sv) * self._cscale, z * self._cscale,
                               it, *meas)
        if kind == "unbounded":
            return self._unbounded(x, s, it)
        res = self._infeasible(b, h, self._U @ (y / self._sv), z, it)
        if res.status is SolveStatus.INFEASIBLE:
            return res
        return ConicResult(SolveStatus.ITERATION_LIMIT, iterations=it, pres=meas[0],
                           dres=meas[1], gap=meas[2])

    def certifies_infeasible(self, b, h, y, z) -> bool:
        """Whether (y, z) proves {A x = b, G x + s = h, s in K} empty.

        For feasible x, 0 <= s'z = h'z + b'y - x'(A'y + G'z), so with
        g = -(b'y + h'z) > 0 every feasible x has |x| >= g / |A'y + G'z|.
        The check asks z in K and that radius beyond ``_RADIUS`` times the
        natural scale of the data, max(|b|, |h|) / max(|A|, |G|).
        """
        if not self._cone.contains(z):
            return False
        g = -float(b @ y + h @ z)
        if not g > 0.0:
            return False
        r = _nrm(self.A.T @ y + self.G.T @ z)
        data = max(float(np.max(np.abs(b), initial=0.0)), float(np.max(np.abs(h), initial=0.0)))
        return r * _RADIUS * data <= g * self._gscale

    def certifies_unbounded(self, x, s) -> bool:
        """Whether x is a ray: c'x < 0, A x = 0 and G x + s = 0 with s in K,
        the residuals below 1e-9 of -c'x at the scale of the data."""
        if not self._cone.contains(s):
            return False
        g = -float(self.c @ x)
        if not g > 0.0:
            return False
        r = max(_nrm(self.A @ x), _nrm(self.G @ x + s))
        return r * self._cscale <= 1e-9 * g * self._gscale

    def _infeasible(self, b, h, y, z, it) -> ConicResult:
        z = self._cone.lift(z)
        g = -float(b @ y + h @ z)
        if g > 0.0 and self.certifies_infeasible(b, h, y / g, z / g):
            return ConicResult(SolveStatus.INFEASIBLE, y=y / g, z=z / g, iterations=it)
        return ConicResult(SolveStatus.ITERATION_LIMIT, iterations=it)

    def _unbounded(self, x, s, it) -> ConicResult:
        s = self._cone.lift(s)
        g = -float(self.c @ x)
        if g > 0.0 and self.certifies_unbounded(x / g, s / g):
            return ConicResult(SolveStatus.UNBOUNDED, x=x / g, s=s / g, iterations=it)
        return ConicResult(SolveStatus.ITERATION_LIMIT, iterations=it)

    # -- the interior-point iteration -----------------------------------------

    def _ipm(self, c, b, h, target):
        """Run the embedding on data scaled to unit size.

        Returns (kind, (x, y, s, z), iterations, (pres, dres, relgap)) with
        kind "optimal", "infeasible", "unbounded" or "limit"; the point is the
        best iterate divided by tau when optimal, else the last raw iterate
        (y is the reduced multiplier of the rows Ar).

        With dx = Ar'F2 + N u and dz~ = W dz, each Newton system reads
        [0 B'; B -I] (u, dz~) = (N'F1, f3 - W^-1 G Ar'F2), B = W^-1 G N.  The
        matrix is inverted once per iteration, with a light ridge on its zero
        block for directions G leaves free.
        """
        cone = self._cone
        G, Ar, N = self.G, self._Ar, self._N
        n, r, m, k = self.n, Ar.shape[0], self.m, N.shape[1]
        zs_ = slice(n + r, n + r + m)
        nb = max(1.0, _nrm(b), _nrm(h))
        nc = max(1.0, _nrm(c))
        KH = np.zeros((n + r + m, n + r + m))  # [0 A' G'; A 0 0; G 0 0], for the residuals
        KH[:n, n:n + r], KH[n:n + r, :n] = Ar.T, Ar
        KH[:n, zs_], KH[zs_, :n] = G.T, G
        K = np.zeros((k + m, k + m))
        K[k:, k:] = -np.eye(m)
        ridge = np.zeros((k + m, k + m))
        ridge[range(k), range(k)] = 1e-13
        q = np.concatenate([c, -b, -h])
        p = np.concatenate([c, b, h])
        NT, ArT = N.T, Ar.T

        def factor(Winv):
            WG = Winv @ G
            B = WG @ N
            K[:k, k:], K[k:, :k] = B.T, B
            return Winv, WG, np.linalg.inv(K + ridge)

        def solve(F1, F2, f3, fac):
            """(d, W dz): d = (dx, dy, dz) with A'dy + G'dz = F1, A dx = F2 and
            W^-1 G dx - W dz = f3, for one right-hand side or stacked columns."""
            Winv, WG, Kinv = fac
            xp = ArT @ F2
            rhs = np.concatenate([NT @ F1, f3 - WG @ xp])
            sol = Kinv @ rhs
            dzs = sol[k:]
            dz = Winv @ dzs
            return np.concatenate([xp + N @ sol[:k], Ar @ (F1 - WG.T @ dzs), dz]), dzs

        # least-squares starts (W = I), pushed into the cone interior
        fac = factor(np.eye(m))
        D, Z = solve(np.column_stack([np.zeros(n), -c]), np.column_stack([b, np.zeros(r)]),
                     np.column_stack([h, np.zeros(m)]), fac)
        v = D[:, 1].copy()
        v[:n] = D[:n, 0]
        v[zs_] = cone.shift(v[zs_])
        s = cone.shift(-Z[:, 0])
        tau = kap = 1.0

        # two-column right-hand sides: the tau direction, then the residual one
        F1, F2, f3, hr = np.empty((n, 2)), np.empty((r, 2)), np.empty((m, 2)), np.empty((m, 2))
        F1[:, 0], F2[:, 0], hr[:, 0] = -c, b, h
        best = (math.inf, None, (math.inf,) * 3)
        pair, both = np.empty((2, m)), np.empty((2, m))
        kind = "limit"
        alpha = 1.0
        it = 0
        for it in range(_MAXITER + 1):
            z = v[zs_]
            res = KH @ v + tau * q
            res[zs_] += s
            rx, ry, rz = res[:n], res[n:n + r], res[zs_]
            cx = float(c @ v[:n])
            byhz = float(p @ v) - cx
            rt = cx + byhz + kap
            sz = float(s @ z)
            pres = math.sqrt(max(float(ry @ ry), float(rz @ rz))) / (tau * nb)
            dres = _nrm(rx) / (tau * nc)
            relgap = max(sz, 0.0) / (tau * max(tau, abs(cx)))
            meas = max(pres, dres, relgap)
            if not math.isfinite(meas):
                break
            if meas < best[0]:
                best = (meas, (v.copy(), s.copy(), tau), (pres, dres, relgap))
            elif best[0] <= TOL:
                break  # no further gain once the answer is good enough
            if meas <= target:
                break
            if byhz < 0.0 and _nrm(rx - c * tau) <= 1e-10 * -byhz * nc:
                kind = "infeasible"
                break
            if cx < 0.0 and max(_nrm(ry + b * tau), _nrm(rz + h * tau)) <= 1e-10 * -cx * nb:
                kind = "unbounded"
                break
            if it == _MAXITER or alpha < 1e-10:
                break
            both[0], both[1] = s, z
            W = _Scaling(cone, both)
            if not W.ok:
                break
            lam = W.lam
            mu = (sz + tau * kap) / (cone.degree + 1)
            fac = factor(W.inv)
            hr[:, 1] = rz
            wh, wrz = (W.inv @ hr).T
            F1[:, 1], F2[:, 1], f3[:, 0], f3[:, 1] = -rx, -ry, wh, lam - wrz
            D, Z = solve(F1, F2, f3, fac)
            (d1, z1), (d0, z0) = (D[:, 0], Z[:, 0]), (D[:, 1], Z[:, 1])
            denom = float(p @ d1) - kap / tau

            def combine(d0, z0, sigma, xi, xi_tau):
                """The direction d0 + dtau d1 and the step to the boundary along it."""
                dtau = (-(1.0 - sigma) * rt - float(p @ d0) - xi_tau / tau) / denom
                dzs = z0 + dtau * z1
                dss = xi - dzs
                dkap = (xi_tau - kap * dtau) / tau
                pair[0], pair[1] = dss, dzs
                step = min(W.max_step(pair), _ray(tau, dtau), _ray(kap, dkap))
                return (d0 + dtau * d1, dss, dzs, dtau, dkap), step

            (_, dss, dzs, dtau, dkap), step_aff = combine(d0, z0, 0.0, -lam, -tau * kap)
            sigma = (1.0 - min(1.0, step_aff)) ** 3
            xi = W.div(sigma * mu * cone.e - cone.prod(dss, dzs)) - lam
            xi_tau = sigma * mu - tau * kap - dtau * dkap
            d0, z0 = solve(-(1.0 - sigma) * rx, -(1.0 - sigma) * ry,
                           -(1.0 - sigma) * wrz - xi, fac)
            (d, _, _, dtau, dkap), step = combine(d0, z0, sigma, xi, xi_tau)
            alpha = min(1.0, _STEP * step)
            v += alpha * d
            # the primal rows fix ds exactly, which keeps the primal residual
            # shrinking where a product with an ill-conditioned W would not
            s = s + alpha * (h * dtau - (1.0 - sigma) * rz - G @ d[:n])
            tau += alpha * dtau
            kap += alpha * dkap

        if kind == "limit" and best[0] <= TOL:
            kind = "optimal"
        if kind == "optimal":
            v, s, tau = best[1]
            v, s = v / tau, s / tau
        return kind, (v[:n], v[n:n + r], s, v[zs_]), it, best[2]


def _nrm(v) -> float:
    return math.sqrt(float(v @ v))


def _ray(v: float, dv: float) -> float:
    return -v / dv if dv < 0.0 else math.inf


class _Cone:
    """A product of second-order blocks of the given sizes, one after another
    (a nonnegative row is a block of size one), with its Jordan algebra.

    Block sums go through ``np.add.reduceat`` at the block heads, and a
    per-block quantity reaches its rows by indexing with ``blk``.
    """

    def __init__(self, sizes):
        sizes = np.asarray(sizes, dtype=int)
        self.degree = sizes.shape[0]
        self.starts = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(int)
        self.blk = np.repeat(np.arange(self.degree), sizes)
        m = int(sizes.sum())
        self.e = np.zeros(m)  # the identity: 1 at every head
        self.e[self.starts] = 1.0
        self.jd = 2.0 * self.e - 1.0  # the diagonal of the reflection J
        self.minus_j = np.diag(-self.jd)
        self.mask = (self.blk[:, None] == self.blk[None, :]).astype(float)

    def bsum(self, u):
        """Sums over each block (along the last axis)."""
        return np.add.reduceat(u, self.starts, axis=-1)

    def det(self, u):
        """u0^2 - |u1|^2 per block."""
        return self.bsum(u * u * self.jd)

    def tail_norm(self, u):
        tail = u * (1.0 - self.e)
        return np.sqrt(self.bsum(tail * tail))

    def prod(self, u, v):
        """Jordan product u o v."""
        s, b = self.starts, self.blk
        out = u[s][b] * v + v[s][b] * u
        out[s] = self.bsum(u * v)
        return out

    def contains(self, u) -> bool:
        return bool(np.all(self.tail_norm(u) <= u[self.starts]))

    def lift(self, u):
        """u with each head raised to the norm of its tail, with a hair of
        margin so that rescaling u keeps it in the cone."""
        out = u.copy()
        out[self.starts] = np.maximum(u[self.starts], self.tail_norm(u) * (1.0 + 1e-12))
        return out

    def shift(self, u):
        """u moved along the identity e into the interior when it is not inside."""
        if not u.size:
            return u.copy()
        low = float(np.min(u[self.starts] - self.tail_norm(u)))
        if low >= 1e-8 * max(1.0, _nrm(u)):
            return u.copy()
        return u + (1.0 - low) * self.e


class _Scaling:
    """Nesterov-Todd scaling W with W z = W^-1 s = lambda, for s, z interior.

    Per block, with s and z normalized to u'Ju = 1 and w'Jw = 1 their NT
    point, W^-1 = (v v' - J) / eta with v = (Jw + e) / sqrt(1 + w0) and
    eta = (det s / det z)^(1/4); on a block of size one that is
    1 / sqrt(s / z).  W^-1 is kept as a dense block-diagonal matrix, and
    lambda comes from its closed form (as in CVXOPT), not from a product.
    ``sz`` holds s and z as its two rows.  ``ok`` is False when s or z has
    left the interior through rounding.
    """

    def __init__(self, cone: _Cone, sz):
        self.cone = cone
        st, b = cone.starts, cone.blk
        s, z = sz
        dets = cone.det(sz)
        self.ok = bool(dets.min() > 0.0 and s[st].min() > 0.0 and z[st].min() > 0.0)
        if not self.ok:
            return
        roots = np.sqrt(dets)
        rs, rz = roots
        sb, zb = s / rs[b], z / rz[b]
        sb0, zb0 = sb[st], zb[st]
        gamma = np.sqrt(0.5 + 0.5 * cone.bsum(sb * zb))
        jw = (sb * cone.jd + zb) / (2.0 * gamma)[b]
        v = (jw + cone.e) / np.sqrt(1.0 + jw[st])[b]
        self.inv = (np.outer(v, v) * cone.mask + cone.minus_j) / np.sqrt(rs / rz)[b][:, None]
        # lambda = sqrt(rs rz) u with u on the unit hyperboloid
        u = ((gamma + zb0)[b] * sb + (gamma + sb0)[b] * zb) / (sb0 + zb0 + 2.0 * gamma)[b]
        u[st] = gamma
        self._root = np.sqrt(rs * rz)
        self.lam = u * self._root[b]
        self._u, self._uj, self._u0 = u, u * cone.jd, gamma + 1.0

    def div(self, v):
        """The x with lambda o x = v."""
        cone, lam = self.cone, self.lam
        st, b = cone.starts, cone.blk
        x0 = cone.bsum(lam * cone.jd * v) / (self._root * self._root)
        out = (v - x0[b] * lam) / lam[st][b]
        out[st] = x0
        return out

    def max_step(self, D) -> float:
        """Largest alpha with lambda + alpha d in the cone for every row d of D.

        The eigenvalue rule of ECOS: with u the block of lambda scaled to
        u'Ju = 1, the step is 1 / (|rho1| - rho0) for the direction rho
        expressed in u's frame (on a block of size one, -lambda / d).
        """
        cone = self.cone
        st, b = cone.starts, cone.blk
        t = cone.bsum(D * self._uj)
        rho = D - ((t + D[:, st]) / self._u0)[:, b] * self._u
        rho[:, st] = 0.0
        top = float(((np.sqrt(cone.bsum(rho * rho)) - t) / self._root).max())
        return 1.0 / top if top > 0.0 else math.inf
