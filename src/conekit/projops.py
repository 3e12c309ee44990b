"""Closed-form Euclidean projectors, nonnegative least squares and Dykstra's
alternating scheme.

The projectors onto the orthant and the second-order cone and the
nonnegative least squares behind ``cones.project_l2`` live here.  Every curved
solve runs on the conic driver (``conic.py``); nothing in the package calls
``dykstra`` any more, which stays importable for outside callers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "project_orthant",
    "project_soc",
    "nonneg_lstsq",
    "dykstra",
    "DykstraResult",
]


def project_orthant(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def project_soc(z: np.ndarray) -> np.ndarray:
    """Projection onto {(t, y) : ||y||_2 <= t}.  Scalar coordinate first."""
    z = np.asarray(z, dtype=float)
    t, y = z[0], z[1:]
    s = np.linalg.norm(y)
    if s <= t:
        return z.copy()
    if s <= -t:
        return np.zeros_like(z)
    # boundary point along (1, y/s), scaled so residual is orthogonal
    a = 0.5 * (t + s)
    out = np.empty_like(z)
    out[0] = a
    out[1:] = (a / s) * y
    return out


def nonneg_lstsq(A: np.ndarray, b: np.ndarray, tol: float = 1e-11, maxiter: int | None = None):
    """min |A lam - b|_2 over lam >= 0 (Lawson-Hanson), the projection onto a
    finitely generated cone.  Returns (lam, residual norm)."""
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


@dataclass
class DykstraResult:
    point: np.ndarray
    iterations: int
    max_violation: float
    converged: bool


def dykstra(
    projectors: Sequence[Callable[[np.ndarray], np.ndarray]],
    z0: np.ndarray,
    violation: Callable[[np.ndarray], float],
    tol: float = 1e-11,
    maxiter: int = 20000,
) -> DykstraResult:
    """Dykstra's cyclic projection scheme started at z0.

    Converges to the projection of z0 onto the intersection when it is
    nonempty.  ``violation`` measures distance-like infeasibility of an
    iterate against all sets; iteration stops once both the iterate movement
    and the violation are below tol.  A run whose movement stalls while the
    violation stays above tol stops early, unconverged, as does one that
    reaches maxiter: neither says the intersection is empty.
    """
    m = len(projectors)
    z = np.asarray(z0, dtype=float).copy()
    increments = [np.zeros_like(z) for _ in range(m)]
    it = 0
    for it in range(1, maxiter + 1):
        z_prev = z.copy()
        for i, proj in enumerate(projectors):
            w = z + increments[i]
            z = proj(w)
            increments[i] = w - z
        move = np.linalg.norm(z - z_prev)
        if move <= tol:
            v = violation(z)
            if v <= 10 * tol:
                return DykstraResult(z, it, v, True)
            if move <= tol * 1e-3:
                return DykstraResult(z, it, v, False)
    return DykstraResult(z, it, violation(z), violation(z) <= 10 * tol)
