"""Reference values computed without the package: closed forms and grid scans.

Every expected number in the test suite either comes from one of these
helpers or is a hand calculation recorded next to its assert.  Nothing here
imports conekit; the only dependency is numpy.
"""
import dataclasses
import itertools

import numpy as np


def norm(v, tag: str) -> float:
    v = np.asarray(v, dtype=float)
    if tag == "l1":
        return float(np.sum(np.abs(v)))
    if tag == "l2":
        return float(np.linalg.norm(v))
    if tag == "linf":
        return float(np.max(np.abs(v), initial=0.0))
    raise ValueError(tag)


def lattice_parts(x):
    """Componentwise decomposition x = plus + minus, plus >= 0 >= minus.

    For any monotone norm this pair is optimal simultaneously for the summed,
    the max, and the one-sided cost: every feasible decomposition dominates
    it coordinate by coordinate.
    """
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0), np.minimum(x, 0.0)


def sphere_grid(dim: int, tag: str, n: int) -> np.ndarray:
    """n deterministic unit-norm directions; dense angle grid in the plane."""
    if dim == 2:
        th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        pts = np.column_stack([np.cos(th), np.sin(th)])
    else:
        rng = np.random.default_rng(12345)
        pts = rng.standard_normal((n, dim))
        pts = pts[np.linalg.norm(pts, axis=1) > 1e-12]
    return pts / np.array([norm(p, tag) for p in pts])[:, None]


def lattice_sum_constant(tag: str, n: int = 10_000, dim: int = 2) -> float:
    """sup over the unit sphere of |x_plus| + |x_minus|, by grid scan."""
    return max(norm(np.maximum(u, 0.0), tag) + norm(np.minimum(u, 0.0), tag)
               for u in sphere_grid(dim, tag, n))


def lattice_plain_constant(tag: str, n: int = 10_000, dim: int = 2) -> float:
    """sup over the unit sphere of |x_plus|: the one-sided cost."""
    return max(norm(np.maximum(u, 0.0), tag) for u in sphere_grid(dim, tag, n))


def lattice_max_constant(tag: str, n: int = 10_000, dim: int = 2) -> float:
    return max(max(norm(np.maximum(u, 0.0), tag), norm(np.minimum(u, 0.0), tag))
               for u in sphere_grid(dim, tag, n))


def soc_project(x):
    """Euclidean projection onto {(t, y) : |y|_2 <= t}, closed form."""
    x = np.asarray(x, dtype=float)
    t, y = x[0], x[1:]
    ny = float(np.linalg.norm(y))
    if ny <= t:
        return x.copy()
    if ny <= -t:
        return np.zeros_like(x)
    a = 0.5 * (t + ny)
    out = np.empty_like(x)
    out[0] = a
    out[1:] = a * y / ny
    return out


def orthant_min_l2(T, x, grid=None):
    """min |c|_2 over {c >= 0 : T c = x} by dense ray scan for 2x2 systems.

    Only used for desk-check problems where T is invertible on each feasible
    support; general cases get hand-derived values instead.
    """
    T = np.asarray(T, dtype=float)
    x = np.asarray(x, dtype=float)
    best = np.inf
    # supports of size <= 2 in a 2-column system: enumerate exactly
    n = T.shape[1]
    from itertools import combinations
    for k in range(1, n + 1):
        for idx in combinations(range(n), k):
            A = T[:, idx]
            c, res, *_ = np.linalg.lstsq(A, x, rcond=None)
            if np.all(c >= -1e-12) and np.linalg.norm(A @ c - x) <= 1e-9:
                full = np.zeros(n)
                full[list(idx)] = np.maximum(c, 0.0)
                if np.linalg.norm(T @ full - x) <= 1e-9:
                    best = min(best, float(np.linalg.norm(full)))
    return best


def farkas_checks(T, x, y, dual_tol=1e-8):
    """(y.x, worst violation of T^T y in dual(-Orthant)) for orthant domains.

    dual(-Orthant) is the nonpositive orthant, so the membership defect is
    the largest positive entry of T^T y.
    """
    T = np.atleast_2d(np.asarray(T, dtype=float))
    y = np.asarray(y, dtype=float)
    u = T.T @ y
    return float(np.asarray(x, dtype=float) @ y), float(np.max(u, initial=0.0))


def standard_form_by_rows(costs, free, rows):
    """(A, c) of min costs z over rows (coefficients, "=" or "<="), with
    z_j >= 0 unless free[j], in standard form, written one row and one
    nonzero at a time: a free variable takes two adjacent columns, z+ then
    -z-, and each <= row one +1 slack column, in row order."""
    columns, width = [], 0
    for f in free:
        columns.append((width, width + 1) if f else (width,))
        width += len(columns[-1])
    A = np.zeros((len(rows), width + sum(sense == "<=" for _, sense in rows)))
    c = np.zeros(A.shape[1])
    for j, cols in enumerate(columns):
        for sign, k in zip((1.0, -1.0), cols):
            c[k] = sign * costs[j]
    slack = width
    for i, (row, sense) in enumerate(rows):
        for j in np.flatnonzero(row):
            for sign, k in zip((1.0, -1.0), columns[j]):
                A[i, k] = sign * row[j]
        if sense == "<=":
            A[i, slack] = 1.0
            slack += 1
    return A, c


def polyhedral_cap_rows(E, blocks, radius: float):
    """(rows, right-hand sides) of the polyhedral cap norm(E z) <= radius,
    blocks given as (start, stop, "l1" or "linf"), written one row at a time
    over z and then the cap's own auxiliaries t: a flat linf cap as
    +E z <= radius, then -E z <= radius, with no t; otherwise each nonzero
    row e of an l1 block gives e z - t <= 0 and -e z - t <= 0 with a t of
    its own, the nonzero rows of a linf block the same pairs with one t for
    the block, and the sum of every t <= radius closes the cap."""
    n = E.shape[1]
    if len(blocks) == 1 and blocks[0][2] == "linf":
        return [sign * e for sign in (1.0, -1.0) for e in E], [radius] * (2 * len(E))
    ties, count = [], 0
    for a, b, tag in blocks:
        rows = [e for e in E[a:b] if np.any(e)]
        ties += [(e, count + i if tag == "l1" else count) for i, e in enumerate(rows)]
        count += len(rows) if tag == "l1" else 1
    out = []
    for e, t in ties:
        for sign in (1.0, -1.0):
            row = np.zeros(n + count)
            row[:n], row[n + t] = sign * e, -1.0
            out.append(row)
    total = np.zeros(n + count)
    total[n:] = 1.0
    return out + [total], [0.0] * len(out) + [radius]


# -- projections and Dykstra's scheme ------------------------------------------
#
# The package solves every curved program with its conic driver; these
# projectors and Dykstra's alternating scheme are an independent route to the
# same projections.


def project_halfspace(a, b: float):
    """Projector onto {z : <a, z> >= b}."""
    a = np.asarray(a, dtype=float)
    nn = float(a @ a)
    if nn == 0.0:
        raise ValueError("halfspace normal must be nonzero")

    def proj(z):
        r = float(a @ z) - b
        return z if r >= 0.0 else z - (r / nn) * a

    return proj


def affine_projector(A, b):
    """Projector onto {z : A z = b}, through the pseudoinverse, so that
    consistent rank-deficient systems behave."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    pinv = np.linalg.pinv(A, rcond=1e-13)
    return lambda z: z - pinv @ (A @ z - b)


def project_group_l1_ball(blocks, radius: float):
    """Projector onto {z : sum_b |z[b]|_2 <= radius}; a block is a (start,
    stop) pair or an index array.  Each block shrinks by the common
    threshold lam with sum max(|z[b]| - lam, 0) = radius."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    blocks = [slice(*b) if isinstance(b, tuple) else np.asarray(b, dtype=int) for b in blocks]

    def proj(z):
        norms = np.array([np.linalg.norm(z[b]) for b in blocks])
        if norms.sum() <= radius:
            return z
        s = np.sort(norms)[::-1]
        csum = np.cumsum(s)
        lam = (csum[-1] - radius) / len(s)
        for k in range(1, len(s) + 1):
            cand = (csum[k - 1] - radius) / k
            if (s[k] if k < len(s) else 0.0) - 1e-15 <= cand <= s[k - 1] + 1e-15:
                lam = cand
                break
        out = z.copy()
        for b, n in zip(blocks, norms):
            out[b] = 0.0 if n <= lam else z[b] * ((n - lam) / n)
        return out

    return proj


def project_l1_ball(idx, radius: float):
    """Projector onto {z : sum_i |z[idx_i]| <= radius}: the entries at idx
    shrink by the threshold of the sort-based method of Duchi,
    Shalev-Shwartz, Singer and Chandra (ICML 2008), the others stay."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")

    def proj(z):
        w = z[idx]
        a = np.abs(w)
        if a.sum() <= radius:
            return z
        u = np.sort(a)[::-1]
        css = np.cumsum(u)
        k = np.nonzero(u * np.arange(1, u.size + 1) > css - radius)[0]
        lam = (css[k[-1]] - radius) / (k[-1] + 1) if k.size else u[0]
        out = z.copy()
        out[idx] = np.sign(w) * np.maximum(a - lam, 0.0)
        return out

    return proj


def project_linf_ball(idx, radius: float):
    """Projector onto {z : |z[idx_i]| <= radius for each i}, by clipping."""
    def proj(z):
        out = z.copy()
        out[idx] = np.clip(z[idx], -radius, radius)
        return out

    return proj


def dykstra(projectors, z0, violation, tol: float = 1e-11, maxiter: int = 20000):
    """Dykstra's cyclic projections from z0: (point, converged).  The iterate
    converges to the projection of z0 onto the intersection when it is
    nonempty; a run counts as converged once it moves and violates the sets
    by at most tol (10 tol for the violation)."""
    z = np.asarray(z0, dtype=float).copy()
    increments = [np.zeros_like(z) for _ in projectors]
    for _ in range(maxiter):
        z_prev = z
        for i, proj in enumerate(projectors):
            w = z + increments[i]
            z = proj(w)
            increments[i] = w - z
        move = np.linalg.norm(z - z_prev)
        if move <= tol:
            if violation(z) <= 10 * tol:
                return z, True
            if move <= tol * 1e-3:
                break
    return z, violation(z) <= 10 * tol


def signed_selector(E):
    """Column index of each row of E when the rows are distinct signed unit
    vectors, else None."""
    nz = np.abs(E) > 0
    if not np.all(nz.sum(axis=1) == 1):
        return None
    idx = nz.argmax(axis=1)
    if np.abs(np.abs(E[np.arange(E.shape[0]), idx]) - 1.0).max(initial=0.0) > 1e-12:
        return None
    return idx if len(set(idx.tolist())) == len(idx) else None


def projectable_caps(caps):
    """(l2 balls, group balls) among canonical caps (E, block norm, r) that
    have a closed-form projector: a flat l2 cap whose rows of E are
    orthonormal, as (E, r), and an l1-sum of l2 blocks whose rows are
    distinct signed unit vectors, as (index array per block, r).  Other caps
    are left out."""
    balls, groups = [], []
    for E, bn, r in caps:
        if any(tag != "l2" for _, _, tag in bn.blocks):
            continue
        if len(bn.blocks) == 1:
            if E.shape[0] <= E.shape[1] and np.allclose(E @ E.T, np.eye(E.shape[0]), atol=1e-11):
                balls.append((E, r))
        elif (sel := signed_selector(E)) is not None:
            groups.append(([sel[a:b] for a, b, _ in bn.blocks], r))
    return balls, groups


def polyhedral_caps(caps):
    """(projector, excess) of each polyhedral cap (E, block norm, r) among
    canonical caps, excess(z) = norm(E z) - r.  The rows of E must be
    distinct signed unit vectors, and the norm l1 (flat, or an l1-sum of l1
    blocks) or a flat linf: the l1 ball has its sort-based projector and the
    linf ball its clipping.  Any other polyhedral cap raises ValueError,
    since leaving it out would project onto a larger set."""
    out = []
    for E, bn, r in caps:
        tags = [tag for _, _, tag in bn.blocks]
        if "l2" in tags:
            continue
        idx, tag = signed_selector(E), "linf" if tags == ["linf"] else "l1"
        if idx is None or not all(t == tag for t in tags):
            raise ValueError(f"no projector for the polyhedral cap {bn} on rows {E.tolist()}")
        project = project_l1_ball if tag == "l1" else project_linf_ball
        out.append((project(idx, r), lambda z, idx=idx, r=r, tag=tag: norm(z[idx], tag) - r))
    return out


def dykstra_on_canon(canon):
    """Dykstra's projection of the origin onto a canonical slice (any object
    with the fields of the package's canonical form: eq_A, eq_b, in_A, in_b,
    soc_idx and caps).  Curved caps with no projector are left out, and a
    polyhedral cap with none raises (see ``polyhedral_caps``)."""
    l2balls, groupballs = projectable_caps(canon.caps)
    polys = polyhedral_caps(canon.caps)
    projs = [affine_projector(canon.eq_A, canon.eq_b)] if canon.eq_A.size else []
    projs += [project_halfspace(-a, -b) for a, b in zip(canon.in_A, canon.in_b)]
    for idx in canon.soc_idx:
        def soc(z, idx=np.asarray(idx)):
            out = z.copy()
            out[idx] = soc_project(z[idx])
            return out
        projs.append(soc)
    for R, r in l2balls:
        def ball(z, R=R, r=r):
            w = R @ z
            nn = np.linalg.norm(w)
            return z if nn <= r else z + R.T @ (w * (r / nn) - w)
        projs.append(ball)
    projs += [project_group_l1_ball(idxs, r) for idxs, r in groupballs]
    projs += [proj for proj, _ in polys]

    def violation(z):
        v = [0.0]
        if canon.eq_A.size:
            v.append(np.max(np.abs(canon.eq_A @ z - canon.eq_b)))
        if canon.in_A.size:
            v.append(np.max(canon.in_A @ z - canon.in_b))
        v += [np.linalg.norm(z[idx][1:]) - z[idx][0] for idx in canon.soc_idx]
        v += [np.linalg.norm(R @ z) - r for R, r in l2balls]
        v += [sum(np.linalg.norm(z[i]) for i in idxs) - r for idxs, r in groupballs]
        v += [excess(z) for _, excess in polys]
        return float(max(v))

    return dykstra(projs, np.zeros(canon.S.shape[1]), violation)


def dykstra_reference(spec, x):
    """(canon, point, converged) for a correspondence spec at target x: its
    compiled canonical form retargeted to x (bounds and caps at the scale
    |x|), and Dykstra's projection of the origin onto it."""
    canon, s = spec._sweep.canon, spec.map.codomain_norm.of(x)
    canon = dataclasses.replace(canon, eq_b=x, in_b=canon.in_b * s,
                                caps=[(E, bn, r * s) for E, bn, r in canon.caps])
    return (canon,) + dykstra_on_canon(canon)


# -- lexicographic minima by vertex enumeration -----------------------------------


def lexmin_by_vertices(T, x, G, tag: str, tol: float = 1e-9):
    """(value, c): the smallest tag-norm (l1 or linf) of c = G lam, lam >= 0,
    with T c = x, and the lexicographically smallest such c; None when the
    slice is empty.

    The program is lifted to w = (lam, t) with t bounding |c_i| (l1, one t
    per coordinate) or |c|_inf (one t), a pointed polyhedron whose optimal
    face is a polytope.  The lexicographic minimum of c over that face is
    attained at one of its vertices, so it is read off the list of every
    vertex: each choice of inequalities that, active with the equalities,
    pins w down.  Desk sizes only (a handful of variables).
    """
    T, x, G = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (T, x, G))
    x = x.ravel()
    n, k = G.shape
    aux = n if tag == "l1" else 1
    width = k + aux
    tie = np.eye(aux)[np.arange(n) if tag == "l1" else np.zeros(n, int)]
    A_in = np.vstack([np.hstack([G, -tie]), np.hstack([-G, -tie]),
                      np.hstack([-np.eye(k), np.zeros((k, aux))])])
    A_eq = np.hstack([T @ G, np.zeros((T.shape[0], aux))])
    free = width - A_eq.shape[0]
    combos = np.array(list(itertools.combinations(range(A_in.shape[0]), free)))
    M = np.concatenate([np.broadcast_to(A_eq, (len(combos),) + A_eq.shape), A_in[combos]], axis=1)
    M = M[np.linalg.cond(M) < 1e10]
    rhs = np.broadcast_to(np.concatenate([x, np.zeros(free)]), M.shape[:2])
    W = np.linalg.solve(M, rhs[..., None])[..., 0]
    scale = max(1.0, float(np.abs(W).max(initial=0.0)))
    W = W[(W @ A_in.T).max(axis=1) <= tol * scale]
    if not len(W):
        return None
    values = W[:, k:].sum(axis=1)
    best = values.min()
    C = W[values <= best + tol * max(1.0, abs(best)), :k] @ G.T
    for i in range(n):
        C = C[C[:, i] <= C[:, i].min() + tol * scale]
    return float(best), C[0]


# -- interior radius by ball-constrained feasibility --------------------------------


def _critical_scale(reachable, x, t: float, rel: float):
    """(lo, hi, decided) around sup{s : reachable(s x)}, lo reachable: doubling
    from t while reachable, then bisection until hi - lo <= rel * hi.  A scale
    the solver cannot decide (None) ends the search there, undecided."""
    lo, hi = 0.0, t
    for _ in range(60):
        inside = reachable(hi * x[None])[0]
        if inside is None:
            return lo, hi, False
        if not inside:
            break
        lo, hi = hi, 2.0 * hi
    for _ in range(80):
        if hi - lo <= rel * hi:
            break
        mid = 0.5 * (lo + hi)
        inside = reachable(mid * x[None])[0]
        if inside is None:
            return lo, mid, False
        lo, hi = (mid, hi) if inside else (lo, mid)
    return lo, hi, True


def interior_radius_by_bisection(reachable, directions, t: float = 1.0, rel: float = 1e-9):
    """(lo, hi, decided) around the largest r with r x in T(C ∩ B_Y) for every
    row x of directions, from ball-constrained feasibility verdicts alone.

    ``reachable(X)`` says for each row of X whether it lies in the image of
    the cone's unit ball: True, False, or None when undecided.  That set is
    convex and holds 0, so each direction has a critical scale.  Rows go in
    the order given: the first is doubled from t and bisected to rel, the
    rest are checked in one batch at the lower end found so far, and only
    those that fail there are bisected in turn.  ``decided`` is False when a
    bisection met a scale the solver could not decide, and hi is then that
    scale.  A direction whose ray misses the image gives lo = 0.
    """
    X = np.asarray(directions, dtype=float)
    best = (np.inf, np.inf, True)
    pending = list(range(len(X)))
    while pending:
        i = pending.pop(0)
        lo, hi, decided = _critical_scale(reachable, X[i], t if np.isinf(best[0]) else best[0], rel)
        if hi < best[1]:
            best = (lo, hi, decided)
        if best[0] == 0.0:
            break
        if pending:  # a row reachable at best's lower end has its critical scale above it
            pending = [j for j, inside in zip(pending, reachable(best[0] * X[pending]))
                       if inside is not True]
    return best


def sampled_surjectivity(directions, reachable):
    """(surjective, first missed row or None) by sampling: T(C) is a convex
    cone, so it fills the codomain as far as a grid of directions can tell
    iff it reaches every row.

    ``reachable(X)`` says for each row of X whether T(C) reaches it: True,
    False, or None when undecided, which raises ArithmeticError, since a
    sampled verdict read past an undecided row would be a guess.  Rows go in
    the order given, and the first one missed decides.
    """
    X = np.asarray(directions, dtype=float)
    for x, inside in zip(X, reachable(X)):
        if inside is None:
            raise ArithmeticError(f"feasibility undecided at {x.tolist()}")
        if not inside:
            return False, x
    return True, None
