"""Deterministic direction sampling on unit spheres.

Openness constants are suprema of convex positively homogeneous functions
over a unit sphere.  For polyhedral norms the supremum is attained at a ball
vertex, so the vertex set is an exact search grid.  Euclidean spheres get a
seeded quasi-uniform sample, and its argmax is refined by a compass search
whose steps are batches: one call of the function per step (per run of
steps on a conic batch), stopped once the step is below what the conic
solver resolves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .norms import NormTag

__all__ = ["SamplerConfig", "ball_vertices", "sphere_directions", "search_grid",
           "refine_on_sphere", "covering_radius", "SphereSup", "sphere_sup"]


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for sphere sampling; identical seeds give identical grids.

    Sphere searches use the ``search_directions`` grid plus refinement, at
    most ``refine_steps`` compass steps of ``refine_on_sphere``.
    ``directions`` sizes the grid of ``sphere_directions`` when called with
    this config itself; no surjectivity probe reads it, since
    ``ConeMap.is_surjective`` tests the signed axes.
    """

    directions: int = 2048
    search_directions: int = 192
    seed: int = 0
    refine_steps: int = 48
    vertex_cap: int = 4096  # largest sign-vector enumeration we attempt

    def search(self) -> "SamplerConfig":
        return SamplerConfig(self.search_directions, self.search_directions,
                             self.seed, self.refine_steps, self.vertex_cap)


def ball_vertices(dim: int, tag: NormTag, cap: int = 4096) -> np.ndarray | None:
    """Extreme points of the unit ball, or None when not enumerable.

    l1 balls have the 2*dim signed axes, linf balls the 2**dim sign vectors.
    Euclidean balls have no finite vertex set.
    """
    if tag is NormTag.L1:
        eye = np.eye(dim)
        return np.vstack([eye, -eye])
    if tag is NormTag.LINF:
        if 2**dim > cap:
            return None
        grid = np.array(np.meshgrid(*([[-1.0, 1.0]] * dim), indexing="ij"))
        return grid.reshape(dim, -1).T.copy()
    return None


def sphere_directions(dim: int, tag: NormTag, config: SamplerConfig | None = None) -> np.ndarray:
    """Directions of unit ``tag``-norm covering the sphere.

    Polyhedral tags return the exact vertex grid when small enough.  The
    Euclidean case uses an angle grid in the plane and a seeded Gaussian
    sample (plus the axes) in higher dimension.
    """
    config = config or SamplerConfig()
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if tag.is_polyhedral:
        verts = ball_vertices(dim, tag, cap=config.vertex_cap)
        if verts is not None:
            return verts
    if dim == 2:
        theta = np.linspace(0.0, 2.0 * math.pi, config.directions, endpoint=False)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        rng = np.random.default_rng(config.seed)
        pts = rng.standard_normal((config.directions, dim))
        eye = np.eye(dim)
        pts = np.vstack([pts, eye, -eye])
        pts = pts[np.linalg.norm(pts, axis=1) > 1e-12]
    norms = np.array([tag.of(p) for p in pts])
    return pts / norms[:, None]


def search_grid(dim: int, tag: NormTag, config: SamplerConfig) -> tuple[np.ndarray, bool]:
    """(directions, exact) for a sphere search; exact means ball vertices.

    A polyhedral ball whose vertices can be enumerated gives its vertex
    set, where a convex function attains its maximum over the sphere.
    Anything else gets the ``config.search()`` sample.
    """
    if tag.is_polyhedral:
        verts = ball_vertices(dim, tag, cap=config.vertex_cap)
        if verts is not None:
            return verts, True
    return sphere_directions(dim, tag, config.search()), False


@dataclass(frozen=True, eq=False)
class SphereSup:
    """A supremum over the unit ``tag``-sphere, measured on a direction grid.

    ``value`` is the lower end: the grid maximum, raised by local refinement
    when the grid is a sample, or inf when some direction has value inf
    (``argmax`` is then the first such direction).  ``values[i]`` belongs to
    ``directions[i]``.
    """

    value: float
    argmax: np.ndarray
    directions: np.ndarray
    values: np.ndarray
    exact: bool
    tag: NormTag
    config: SamplerConfig

    def upper(self) -> float:
        """Sampled upper end, grid max / (1 - covering radius); exact grids give value."""
        if self.exact:
            return self.value
        delta = covering_radius(self.directions, self.tag, self.config)
        upper = float(np.max(self.values)) / (1.0 - delta) if delta < 1.0 else math.inf
        return max(upper, self.value)


def sphere_sup(values, dim: int, tag: NormTag, config: SamplerConfig,
               trust_vertices: bool = True, batched: bool = False) -> SphereSup:
    """sup of a convex positively homogeneous function on the unit ``tag``-sphere.

    ``values(X)`` gives it at each row of X: once on all of ``search_grid``
    (one batch for a batched solver), then once per refine step on that
    step's probes, or per run of steps with ``batched`` (``refine_on_sphere``).
    A vertex grid is the answer as it stands; a sampled grid refines its
    argmax with ``refine_on_sphere``, from the grid value there.
    ``trust_vertices=False`` refines on a vertex grid too, for functions that
    need not be convex.
    """
    dirs, exact = search_grid(dim, tag, config)
    exact = exact and trust_vertices
    vals = np.asarray(values(dirs), dtype=float)
    unreachable = np.isinf(vals)
    if unreachable.any():
        first = int(np.argmax(unreachable))
        return SphereSup(math.inf, dirs[first], dirs, vals, exact, tag, config)
    best = int(np.argmax(vals))
    top, arg = float(vals[best]), dirs[best]
    if not exact:
        arg, top = refine_on_sphere(values, arg, top, tag, steps=config.refine_steps,
                                    batched=batched)
    return SphereSup(top, arg, dirs, vals, exact, tag, config)


def refine_on_sphere(values, x0: np.ndarray, v0: float, tag: NormTag,
                     steps: int = 48, batched: bool = False) -> tuple[np.ndarray, float]:
    """Batched compass search for a local maximum on the unit ``tag``-sphere.

    ``values(X)`` gives one value per row and ``v0`` is its value at the
    unit direction x0, which is not evaluated again.  Each step sends all
    its probes in one call: the angle theta +- h in the Euclidean plane, else
    the 2*dim coordinate probes x +- h e_j scaled back to the sphere.  The
    search moves to the best probe (the first on ties) that beats the
    incumbent by more than 1e-15, and shrinks h by 0.35 when none does.  It
    stops after ``steps`` steps or once h falls below the square root of the
    conic solver's resolution ``conic.TARGET``: near a smooth maximum the
    value moves by O(h^2).  Returns the incumbent and its value, one that
    ``values`` returned or v0.

    With ``batched`` (a ``values`` that is one stacked conic solve) a call
    looks ahead: it carries the next ``look`` steps, h, 0.35 h, ..., at the
    incumbent as if none moved, read in order up to the first move; ``look``
    doubles after a call with no move and is 1 after one.  Each row's value
    is its own, so the steps and the answer are the same either way.
    """
    from .conic import TARGET  # on use: importing sampling loads no interior-point code

    x, best = np.asarray(x0, dtype=float), float(v0)
    planar = x.shape[0] == 2 and tag is NormTag.L2
    h = 0.05 * math.pi if planar else 0.5
    theta = math.atan2(x[1], x[0]) if planar else 0.0
    signed = np.stack([np.eye(x.shape[0]), -np.eye(x.shape[0])], axis=1)
    floor, look = math.sqrt(TARGET), 1
    while steps > 0 and h >= floor:
        hs = [h]  # the steps of this call, as if none moves
        while len(hs) < min(look, steps) and hs[-1] * 0.35 >= floor:
            hs.append(hs[-1] * 0.35)
        if planar:
            angles = [theta + np.array([g, -g]) for g in hs]
            probes = [np.column_stack([np.cos(a), np.sin(a)]) for a in angles]
        else:  # x + g e_0, x - g e_0, x + g e_1, ...
            probes = [(x + g * signed).reshape(-1, x.shape[0]) for g in hs]
            for P in probes:
                P /= np.array([tag.of(p) for p in P])[:, None]
        vals = np.asarray(values(np.vstack(probes)), dtype=float).reshape(len(hs), -1)
        look = 2 * look if batched else 1
        for k, (P, V) in enumerate(zip(probes, vals)):
            steps -= 1
            i = int(np.argmax(V))
            if V[i] > best + 1e-15:
                x, best, look = P[i], float(V[i]), 1
                if planar:
                    theta = float(angles[k][i])
                break
            h *= 0.35
    return x, best


def covering_radius(points: np.ndarray, tag: NormTag, config: SamplerConfig | None = None) -> float:
    """How far a unit-sphere point can be from the grid, in the tag norm.

    Drives the sampled upper end of constant brackets: a convex positively
    homogeneous m with m <= 1 + K d(u, grid) pointwise satisfies
    K <= max_grid / (1 - delta) once delta < 1.  The planar Euclidean value
    is exact (half the largest angular gap, as a chord); other cases probe a
    five-times-denser grid and pad by half, which is an estimate rather than
    a certificate.  Polyhedral vertex grids never need this: their suprema
    are attained on the grid itself.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, dim = pts.shape
    if n == 0:
        return math.inf
    if dim == 1:
        return 0.0 if n >= 2 else 2.0
    if dim == 2 and tag is NormTag.L2:
        ang = np.sort(np.arctan2(pts[:, 1], pts[:, 0]))
        gaps = np.diff(np.concatenate([ang, [ang[0] + 2.0 * math.pi]]))
        return 2.0 * math.sin(float(np.max(gaps)) / 4.0)
    probe_cfg = SamplerConfig(directions=5 * n, seed=(config.seed if config else 0) + 1)
    probes = sphere_directions(dim, tag, probe_cfg)
    worst = 0.0
    for chunk in np.array_split(probes, max(1, len(probes) // 256)):
        diffs = chunk[:, None, :] - pts[None, :, :]
        if tag is NormTag.L2:
            dists = np.linalg.norm(diffs, axis=2)
        elif tag is NormTag.L1:
            dists = np.sum(np.abs(diffs), axis=2)
        else:
            dists = np.max(np.abs(diffs), axis=2)
        worst = max(worst, float(np.max(np.min(dists, axis=1))))
    return 1.5 * worst
