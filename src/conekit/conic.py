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

Everything is dense and numpy-only: the programs here have a few dozen
variables.  A ``ConeProgram`` is compiled once from (c, A, G, K); A becomes
orthonormal rows and a null-space basis N, so each Newton system is one small
quasi-definite matrix in (N-coordinates of dx, W dz).  ``solve_many`` runs
the iteration for a whole batch of right-hand sides (b, h) as stacked arrays,
each target with its own steps and verdict, and ``solve`` is its case of one.
A nonnegative row counts as a second-order block of size one, so every cone
operation is a few array expressions over all blocks (sums by
``np.add.reduceat``), with no loop over blocks or targets.

Statuses mean exactly what they say.  OPTIMAL needs primal and dual
residuals and the relative gap each at most ``TOL``; INFEASIBLE and UNBOUNDED
need a certificate that passes ``certifies_infeasible`` or
``certifies_unbounded`` on the original data; anything else is
ITERATION_LIMIT.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

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
    follow the l nonnegative rows of G.  ``solve`` takes one right-hand side
    (b, h), ``solve_many`` a batch of them.
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
        # per program: [0 A' G'; A 0 0; G 0 0] for the residuals, [0 B'; B -I] at
        # B = 0 with a light ridge on its zero block, and its factors at W = I
        r, k = self._Ar.shape[0], self._N.shape[1]
        self._k, self._NT, self._ArT = k, self._N.T, self._Ar.T
        self._KH = np.zeros((n + r + self.m,) * 2)
        self._KH[:n, n:], self._KH[n:, :n] = np.vstack([self._Ar, G]).T, np.vstack([self._Ar, G])
        self._K = np.diag(np.concatenate([np.full(k, 1e-13), -np.ones(self.m)]))
        self._start = self._factor(np.eye(self.m), self._K.copy())

    def solve(self, b=None, h=None, target: float = TARGET) -> ConicResult:
        """Solve for the right-hand sides b (equality rows) and h (cone rows):
        the one-target case of ``solve_many``."""
        b = np.zeros(self.A.shape[0]) if b is None else np.asarray(b, dtype=float)
        h = np.zeros(self.m) if h is None else np.asarray(h, dtype=float)
        return self.solve_many(b[None], h, target)[0]

    def solve_many(self, B, H, target: float = TARGET) -> list[ConicResult]:
        """Solve for the rows of B (equality rows) and of H (cone rows; one
        row serves every target), one result per row.

        The iteration stops once residuals and gap are below ``target``, or
        once they stop falling after passing ``TOL``.  Iterating past
        ``TOL`` sharpens the point (which converges about as fast as the
        gap on nondegenerate programs), not the verdict; ``target=TOL``
        suits callers that want only the optimal value.  Every row runs its
        own iteration, and a row's result does not depend on the other rows.
        """
        B, H = np.asarray(B, dtype=float), np.asarray(H, dtype=float)
        if B.shape[0] == 1:  # a lone target runs unstacked, where numpy costs least per call
            B, H = B[0], H.reshape(-1, self.m)[0]
        else:
            H = np.broadcast_to(H, (B.shape[0], self.m))
        UB = _mv(self._U.T, B)
        off = B - _mv(self._U, UB)
        BR = UB / self._sv
        scale = np.abs(np.concatenate([BR, H], axis=-1)).max(axis=-1, initial=0.0)
        scale = scale + (scale == 0.0)  # 1 where the right-hand side is zero
        b, h = BR / scale[..., None], H / scale[..., None]
        B, H, off, scale = (np.atleast_2d(a) for a in (B, H, off, scale))
        bad = _nrm(off) > 1e-9 * _nrm(B)
        # inconsistent equality rows: y = -off has A'y = 0 and b'y < 0
        out = [self._infeasible(B[i], H[i], -off[i], np.zeros(self.m), 0) if e else None
               for i, e in enumerate(bad.tolist())]
        run = (~bad).nonzero()[0]
        if 0 < run.size < bad.shape[0]:
            b, h = b[run], h[run]
        kinds, its, bests, raws, ms = (self._ipm(self.c / self._cscale, b, h, target) if run.size
                                       else [()] * 5)
        n, r, nv = self.n, self._Ar.shape[0], self.n + self._Ar.shape[0] + self.m
        for j, i in enumerate(run.tolist()):
            p_y, p_z, dres, gap, tau = ms[j].tolist()  # of the best iterate
            it, sc, pres = int(its[j]), scale[0, i], max(p_y, p_z)
            v = bests[j] / tau if kinds[j] == _OPTIMAL else raws[j]
            x, y, z, s = v[:n], self._U @ (v[n:n + r] / self._sv), v[n + r:nv], v[nv:]
            if kinds[j] == _OPTIMAL:
                out[i] = ConicResult(SolveStatus.OPTIMAL, x * sc, s * sc, y * self._cscale,
                                     z * self._cscale, it, pres, dres, gap)
            elif kinds[j] == _UNBOUNDED:
                out[i] = self._unbounded(x, s, it)
            else:
                out[i] = self._infeasible(B[i], H[i], y, z, it)
                if out[i].status is not SolveStatus.INFEASIBLE:
                    out[i] = ConicResult(SolveStatus.ITERATION_LIMIT, iterations=it, pres=pres,
                                         dres=dres, gap=gap)
        # a ray proves unboundedness only with a feasible point: ask the rows at zero cost
        rays = [i for i, res in enumerate(out) if res.status is SolveStatus.UNBOUNDED]
        if rays:
            for i, res in zip(rays, self._zero.solve_many(B[rays], H[rays], TOL)):
                keep = {SolveStatus.OPTIMAL: out[i], SolveStatus.INFEASIBLE: res}.get(
                    res.status, ConicResult(SolveStatus.ITERATION_LIMIT))
                out[i] = replace(keep, iterations=out[i].iterations + res.iterations)
        return out

    @cached_property
    def _zero(self) -> "ConeProgram":
        """The program at zero cost, which asks whether a ray's rows have a point."""
        return ConeProgram(np.zeros(self.n), self.G, self.l, self.soc, self.A)

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
        return bool(r * _RADIUS * data <= g * self._gscale)

    def certifies_unbounded(self, x, s) -> bool:
        """Whether x is a ray: c'x < 0, A x = 0 and G x + s = 0 with s in K,
        the residuals below 1e-9 of -c'x at the scale of the data."""
        if not self._cone.contains(s):
            return False
        g = -float(self.c @ x)
        if not g > 0.0:
            return False
        r = max(_nrm(self.A @ x), _nrm(self.G @ x + s))
        return bool(r * self._cscale <= 1e-9 * g * self._gscale)

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
    #
    # With dx = Ar'F2 + N u and dz~ = W dz, each Newton system reads
    # [0 B'; B -I] (u, dz~) = (N'F1, f3 - W^-1 G Ar'F2), B = W^-1 G N.  The
    # matrix is inverted once per iteration, with a light ridge on its zero
    # block for directions G leaves free.

    def _factor(self, Winv, K):
        """(W^-1, W^-1 G, the inverse Newton matrix), one or a stack; the
        off-diagonal blocks of the Newton matrices K are set here."""
        WG = Winv @ self.G
        Bm = WG @ self._N
        K[..., :self._k, self._k:], K[..., self._k:, :self._k] = Bm.mT, Bm
        return Winv, WG, np.linalg.inv(K)

    def _newton(self, F1, F2, f3, fac):
        """(d, W dz) for each column: d = (dx, dy, dz) with A'dy + G'dz = F1,
        A dx = F2 and W^-1 G dx - W dz = f3."""
        Winv, WG, Kinv = fac
        xp = self._ArT @ F2
        sol = Kinv @ np.concatenate([self._NT @ F1, f3 - WG @ xp], axis=-2)
        dzs = sol[..., self._k:, :]
        return np.concatenate([xp + self._N @ sol[..., :self._k, :],
                               self._Ar @ (F1 - WG.mT @ dzs), Winv @ dzs], axis=-2), dzs

    def _ipm(self, c, B, H, target):
        """Run the embedding on data scaled to unit size, for one target (b, h
        vectors) or a stack (one per row of B and H).  Returns (kinds,
        iterations, best, last, measures), a row per target: kind _OPTIMAL,
        _INFEASIBLE, _UNBOUNDED or _LIMIT, the best and the last iterate
        (x, y, z, s) unscaled by tau (y is the reduced multiplier of the rows
        Ar), and (|ry|, |rz|, dres, relgap, tau) of the best, pres being the
        larger of the first two.

        A stack carries a leading axis: W^-1 and the Newton matrices are
        (K, ., .) arrays, and tau, kappa, the step, the centering and the best
        iterate one number per target.  A target leaves the stack once it
        stops.  Every product is taken per target (matrix-vector and dot
        products of rows, never a matrix product across rows), so a target's
        iterates are the same alone and in any stack.
        """
        cone, G, KH, factor, newton = self._cone, self.G, self._KH, self._factor, self._newton
        n, r, m = self.n, self._Ar.shape[0], self.m
        lead = B.shape[:-1]  # () for one target, (K,) for a stack
        sqrt, most, least, col, ray, recip, cube, dot, mv, any_of, all_of = (
            _STACK if lead else _ONE)
        total = lead[0] if lead else 1
        zs_, nv = slice(n + r, n + r + m), n + r + m
        nb, cn = most(most(1.0, _nrm(B)), _nrm(H)), float(_nrm(c))
        nc, C = max(1.0, cn), np.empty(lead + (n,))
        C[...] = c
        Q, P = np.concatenate([C, -B, -H], axis=-1), np.concatenate([C, B, H], axis=-1)
        K = self._K + np.zeros(lead + (1, 1))  # the Newton matrices, updated in place

        # least-squares starts (W = I), pushed into the cone interior; F1, F2
        # and hr keep their first column for the tau direction from here on
        F1, F2, hr = _cols(C, -C), _cols(B, B), _cols(H, H)
        F1[..., 0], F2[..., 1], hr[..., 1] = 0.0, 0.0, 0.0
        D, Z = newton(F1, F2, hr, self._start)
        F1[..., 0] = -c
        # each target's iterate: v = (x, y, z), then s, so that z and s are
        # the rows of one (2, m) view
        X = np.empty(lead + (nv + m,))
        v, s, zs = X[..., :nv], X[..., nv:], X[..., n + r:].reshape(lead + (2, m))
        v[...] = D[..., 1]
        v[..., :n] = D[..., :n, 0]
        v[..., zs_] = cone.shift(v[..., zs_])
        s[...] = cone.shift(-Z[..., 0])
        tau = kap = alpha = np.ones(lead)[()]
        best, best_X = np.full(lead, math.inf)[()], X.copy()
        best_m = np.full((5,) + lead, math.inf)  # |ry|, |rz| (pres is the larger), dres, relgap, tau
        rows = np.arange(total).reshape(lead)  # the target of each stacked row
        kinds, its = np.empty(total, dtype=int), np.empty(total, dtype=int)
        bests, raws, ms = np.empty((total, nv + m)), np.empty((total, nv + m)), np.empty((total, 5))
        with np.errstate(divide="ignore", invalid="ignore"):
            for it in range(_MAXITER + 1):
                z = v[..., zs_]
                res = mv(KH, v) + col(tau) * Q
                res[..., zs_] += s
                rx, ry, rz = res[..., :n], res[..., n:n + r], res[..., zs_]
                cx = dot(v[..., :n], c)
                byhz = dot(P, v) - cx
                rt = cx + byhz + kap
                sz = dot(s, z)
                tnb = tau * nb
                rxn = sqrt(dot(rx, rx))
                m5 = (sqrt(dot(ry, ry)) / tnb, sqrt(dot(rz, rz)) / tnb, rxn / (tau * nc),
                      (sz + abs(sz)) * 0.5 / (tau * most(tau, abs(cx))), tau)  # max(sz, 0)
                meas = most(most(m5[0], m5[1]), most(m5[2], m5[3]))
                better = meas < best
                # go on while the answer is not good enough or still gains
                go = (meas < math.inf) & (meas > target) & (better | (best > TOL))
                if all_of(better):
                    best, best_m, best_X = meas, m5, X.copy()
                elif any_of(better):  # some targets of a stack
                    best, best_m = np.where(better, meas, best), np.where(better, m5, best_m)
                    best_X = np.where(better[:, None], X, best_X)
                # an empty program: b'y + h'z < 0 with |rx - c tau| small
                infeasible = go & (byhz < 0.0)
                if any_of(infeasible):
                    bound = 1e-10 * -byhz * nc
                    if cn:  # |rx - c tau| >= |c| tau - |rx|, which rules out most iterates cheaply
                        infeasible &= cn * tau - rxn <= 2.0 * bound + 1e-9 * (cn * tau + rxn)
                    if any_of(infeasible):
                        rc = rx - c * col(tau)
                        infeasible &= (sqrt(dot(rc, rc)) if cn else rxn) <= bound
                go ^= infeasible
                unbounded = go & (cx < 0.0)
                if any_of(unbounded):
                    rb, rh = ry + F2[..., 0] * col(tau), rz + hr[..., 0] * col(tau)
                    unbounded &= sqrt(most(dot(rb, rb), dot(rh, rh))) <= 1e-10 * -cx * nb
                go ^= unbounded
                dets = cone.det(zs)  # det z and det s per block
                go &= ((np.minimum(dets, cone.heads(zs)).reshape(lead + (-1,)).min(axis=-1) > 0)
                       & (alpha >= 1e-10) & _GO[it < _MAXITER])
                if not all_of(go):
                    stop = ~go
                    at = rows[stop]
                    kind = infeasible + 2 * unbounded + 3 * ~(infeasible | unbounded | (best <= TOL))
                    kinds[at], its[at] = kind[stop], it
                    bests[at], raws[at], ms[at] = best_X[stop], X[stop], np.asarray(best_m)[..., stop].T
                    if not any_of(go):
                        break
                    keep = go
                    X, tau, kap, Q, P, F1, F2, hr, K, nb, rows, best, best_X, res, rt, sz, dets = (
                        a[keep] for a in (X, tau, kap, Q, P, F1, F2, hr, K, nb, rows, best, best_X,
                                          res, rt, sz, dets))
                    best_m, lead = np.asarray(best_m)[:, keep], tau.shape
                    v, s, zs = X[..., :nv], X[..., nv:], X[..., n + r:].reshape(lead + (2, m))
                    z = v[..., zs_]
                    rx, ry, rz = res[..., :n], res[..., n:n + r], res[..., zs_]
                W = _Scaling(cone, zs, dets)
                lam = W.lam
                mu = (sz + tau * kap) / (cone.degree + 1)
                fac = factor(W.inv, K)
                hr[..., 1] = rz
                f3 = W.inv @ hr
                wrz = f3[..., 1].copy()
                # not np.negative(rx, out=F1[..., 1]): numpy 2.4 writes wrong
                # values there when the input rows are 64 bytes apart
                F1[..., 1], F2[..., 1] = -rx, -ry
                np.subtract(lam, wrz, out=f3[..., 1])
                D, Z = newton(F1, F2, f3, fac)
                d1, z1 = D[..., 0], Z[..., 0]
                denom = dot(P, d1) - kap / tau
                pair = np.empty(lead + (2, m))  # (ds, dz) of a direction

                def combine(d0, z0, sigma, xi, xi_tau):
                    """The direction d0 + dtau d1 and the step to the boundary along it."""
                    dtau = (-(1.0 - sigma) * rt - dot(P, d0) - xi_tau / tau) / denom
                    dzs = np.add(z0, col(dtau) * z1, out=pair[..., 1, :])
                    dss = np.subtract(xi, dzs, out=pair[..., 0, :])
                    dkap = (xi_tau - kap * dtau) / tau
                    step = least(least(recip(W.max_step(pair)), ray(tau, dtau)), ray(kap, dkap))
                    return (d0 + col(dtau) * d1, dss, dzs, dtau, dkap), step

                (_, dss, dzs, dtau, dkap), step_aff = combine(D[..., 1], Z[..., 1], 0.0, -lam,
                                                              -tau * kap)
                sigma = cube(1.0 - least(1.0, step_aff))
                xi = W.div(col(sigma * mu) * cone.e - cone.prod(dss, dzs)) - lam
                xi_tau = sigma * mu - tau * kap - dtau * dkap
                cut = col(-(1.0 - sigma))
                D, Z = newton((cut * rx)[..., None], (cut * ry)[..., None],
                              (cut * wrz - xi)[..., None], fac)
                (d, _, _, dtau, dkap), step = combine(D[..., 0], Z[..., 0], sigma, xi, xi_tau)
                alpha = least(1.0, _STEP * step)
                # the primal rows fix ds exactly, which keeps the primal residual
                # shrinking where a product with an ill-conditioned W would not
                s += col(alpha) * (hr[..., 0] * col(dtau) - col(1.0 - sigma) * rz
                                   - mv(G, d[..., :n]))
                v += col(alpha) * d
                tau = tau + alpha * dtau
                kap = kap + alpha * dkap
        return kinds, its, bests, raws, ms


_OPTIMAL, _INFEASIBLE, _UNBOUNDED, _LIMIT = range(4)  # the kind code the iteration computes


# Products per row: ``@`` on one target's vectors, numpy's gufuncs on a stack.
def _dot(X, Y):
    return X @ Y if X.ndim == 1 else np.vecdot(X, Y)


def _mv(M, X):
    return M @ X if X.ndim == 1 else np.matvec(M, X)


def _nrm(X):
    return np.sqrt(_dot(X, X))


def _cols(a, b):
    out = np.empty(a.shape + (2,))  # a and b as two columns
    out[..., 0], out[..., 1] = a, b
    return out


# The iteration's per-target functions (sqrt, max, min, column, ray to where
# v + alpha dv = 0 for v > 0, step from max_step, cube, dot and matrix-vector
# products, any and all): Python's or ``@`` on one target, cheaper per call,
# and numpy's elementwise ones on a stack; both round alike.
_ONE = (math.sqrt, max, min, lambda x: x, lambda v, dv: -v / dv if dv < 0.0 else math.inf,
        lambda top: 1.0 / top if top > 0.0 else math.inf, lambda x: x ** 3,
        np.matmul, np.matmul, bool, bool)
_STACK = (np.sqrt, np.maximum, np.minimum, lambda x: x[:, None],
          lambda v, dv: -v / np.minimum(dv, -0.0),  # -v / -0.0 = inf where dv >= 0
          lambda top: 1.0 / np.maximum(top, 0.0), lambda x: np.float_power(x, 3),
          np.vecdot, np.matvec, np.ndarray.any, np.ndarray.all)
_GO = (np.False_, np.True_)


class _Cone:
    """A product of second-order blocks of the given sizes, one after another
    (a nonnegative row is a block of size one), with its Jordan algebra.
    Block sums go through ``np.add.reduceat`` at the block heads.  Every
    operation acts on the last axis, so it takes one point or a stack.
    """

    def __init__(self, sizes):
        sizes = np.asarray(sizes, dtype=int)
        self.degree = sizes.shape[0]
        self.starts = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(int)
        self.blk = np.repeat(np.arange(self.degree), sizes)
        m = int(sizes.sum())
        self.e = np.zeros(m)  # the identity: 1 at every head
        self.e[self.starts] = 1.0
        self.tail, self.jd = 1.0 - self.e, 2.0 * self.e - 1.0  # jd: the diagonal of J
        self.minus_j = np.diag(-self.jd)
        self.mask = (self.blk[:, None] == self.blk[None, :]).astype(float)

    def bsum(self, u):
        """Sums over each block."""
        return np.add.reduceat(u, self.starts, axis=-1)

    def rows(self, u):
        """A per-block quantity on the rows of each block (fancy indexing is
        the cheaper call on one point, ``take`` on a stack)."""
        return u[self.blk] if u.ndim == 1 else u.take(self.blk, axis=-1)

    def heads(self, u):
        return u[self.starts] if u.ndim == 1 else u.take(self.starts, axis=-1)

    def det(self, u):
        """u0^2 - |u1|^2 per block."""
        return self.bsum(u * u * self.jd)

    def tail_norm(self, u):
        tail = u * self.tail
        return np.sqrt(self.bsum(tail * tail))

    def prod(self, u, v):
        """Jordan product u o v."""
        out = self.rows(self.heads(u)) * v + self.rows(self.heads(v)) * u
        out[..., self.starts] = self.bsum(u * v)
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
        low = (self.heads(u) - self.tail_norm(u)).min(axis=-1)
        inside = low >= 1e-8 * np.maximum(1.0, _nrm(u))
        if inside.all():
            return u.copy()
        moved = u + (1.0 - low)[..., None] * self.e
        return np.where(inside[..., None], u, moved) if inside.any() else moved


class _Scaling:
    """Nesterov-Todd scaling W with W z = W^-1 s = lambda, for z and s
    interior (the rows of ``zs``, one pair or a stack), given ``dets``,
    their determinants per block.

    Per block, with s and z normalized to u'Ju = 1 and w'Jw = 1 their NT
    point, W^-1 = (v v' - J) / eta with v = (Jw + e) / sqrt(1 + w0) and
    eta = (det s / det z)^(1/4); on a block of size one that is
    1 / sqrt(s / z).  W^-1 is kept as a dense block-diagonal matrix, and
    lambda comes from its closed form (as in CVXOPT), not from a product.
    """

    def __init__(self, cone: _Cone, zs, dets):
        self.cone = cone
        roots = np.sqrt(dets)
        rz, rs = roots[..., 0, :], roots[..., 1, :]
        zsb = zs / cone.rows(roots)
        zsb0 = cone.heads(zsb)
        zb, sb, zb0, sb0 = zsb[..., 0, :], zsb[..., 1, :], zsb0[..., 0, :], zsb0[..., 1, :]
        gamma = np.sqrt(0.5 + 0.5 * cone.bsum(sb * zb))
        jw = (sb * cone.jd + zb) / cone.rows(2.0 * gamma)
        v = (jw + cone.e) / cone.rows(np.sqrt(1.0 + cone.heads(jw)))
        self.inv = ((v[..., :, None] * v[..., None, :] * cone.mask + cone.minus_j)
                    / cone.rows(np.sqrt(rs / rz))[..., None])
        # lambda = sqrt(rs rz) u with u on the unit hyperboloid
        u = ((cone.rows(gamma + zb0) * sb + cone.rows(gamma + sb0) * zb)
             / cone.rows(sb0 + zb0 + 2.0 * gamma))
        u[..., cone.starts] = gamma
        root = np.sqrt(rs * rz)
        self._rr = root * root
        self.lam = u * cone.rows(root)
        # for max_step, which works on pairs of directions
        self._u, self._uj = u[..., None, :], (u * cone.jd)[..., None, :]
        self._u0, self._root = (gamma + 1.0)[..., None, :], root[..., None, :]

    def div(self, v):
        """The x with lambda o x = v."""
        cone, lam = self.cone, self.lam
        x0 = cone.bsum(lam * cone.jd * v) / self._rr
        out = (v - cone.rows(x0) * lam) / cone.rows(cone.heads(lam))
        out[..., cone.starts] = x0
        return out

    def max_step(self, D):
        """1 / alpha for the largest alpha with lambda + alpha d in the cone
        for both rows d of D (one per target; at most 0 when any alpha does).

        The eigenvalue rule of ECOS: with u the block of lambda scaled to
        u'Ju = 1, the step is 1 / (|rho1| - rho0) for the direction rho
        expressed in u's frame (on a block of size one, -lambda / d).
        """
        cone = self.cone
        t = cone.bsum(D * self._uj)
        rho = D - cone.rows((t + cone.heads(D)) / self._u0) * self._u
        rho[..., cone.starts] = 0.0
        return ((np.sqrt(cone.bsum(rho * rho)) - t) / self._root).max(axis=(-2, -1))
