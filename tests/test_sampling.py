import contextlib
import io
import json
import math

import numpy as np
import pytest

from conekit import (ConormalityKind, ConstraintFunctional, NormTag, OrderedSpace, Orthant,
                     achievable_alpha, conormality_constant, gamma, gamma_constrained,
                     conic, positive_part_functional, sampling, selection_bound,
                     summing_map)
from conekit.cli import main
from conekit.sampling import SamplerConfig, covering_radius, sphere_sup

CFG = SamplerConfig(directions=64, search_directions=24, seed=3, refine_steps=8)


def peak(x):
    # convex and positively homogeneous, largest along (1, 1)
    return float(abs(x[0] + x[1]))


def each(f):
    """sphere_sup's batched form of a function of one direction."""
    return lambda X: [f(x) for x in X]


@pytest.mark.parametrize("tag,top", [(NormTag.L1, 1.0), (NormTag.LINF, 2.0)])
def test_vertex_grid_is_the_answer(tag, top, spy):
    calls = []
    spy(sampling, "refine_on_sphere", calls)
    sup = sphere_sup(each(peak), 2, tag, CFG)
    assert calls == []
    assert sup.exact
    assert sup.value == top == float(np.max(sup.values))
    assert sup.upper() == top
    assert peak(sup.argmax) == top


def test_sampled_grid_refines_once(spy):
    calls = []
    spy(sampling, "refine_on_sphere", calls)
    sup = sphere_sup(each(peak), 2, NormTag.L2, CFG)
    assert not sup.exact
    assert len(calls) == 1
    _, refined = calls[0]
    assert sup.value == max(refined, float(np.max(sup.values)))
    assert sup.value == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert peak(sup.argmax) == sup.value
    delta = covering_radius(sup.directions, NormTag.L2, CFG)
    assert sup.upper() == max(float(np.max(sup.values)) / (1.0 - delta), sup.value)


def test_untrusted_vertex_grid_refines(spy):
    calls = []
    spy(sampling, "refine_on_sphere", calls)
    sup = sphere_sup(each(peak), 2, NormTag.L1, CFG, trust_vertices=False)
    assert not sup.exact
    assert len(calls) == 1
    assert sup.value == 1.0


def test_an_unreachable_direction_gives_inf(spy):
    calls = []
    spy(sampling, "refine_on_sphere", calls)

    def one_sided(x):
        return math.inf if x[1] < 0.0 else float(np.linalg.norm(x))

    sup = sphere_sup(each(one_sided), 2, NormTag.L2, CFG)
    first = next(i for i, x in enumerate(sup.directions) if x[1] < 0.0)
    assert sup.value == math.inf
    np.testing.assert_array_equal(sup.argmax, sup.directions[first])
    assert calls == []


# -- the batched refinement --------------------------------------------------


def logged(f, log):
    """f in sphere_sup's batched form, logging every batch it is given."""
    def values(X):
        X = np.array(X)
        log.append(X)
        return [f(x) for x in X]
    return values


def smooth_peak(x):
    # a smooth maximum at a direction off every grid point
    u = np.array([math.cos(0.3), math.sin(0.3), 0.0, 0.0, 0.0])[:x.shape[0]]
    return float(u @ x + 1.0)


@pytest.mark.parametrize("dim,tag", [(2, NormTag.L2), (3, NormTag.L2), (5, NormTag.L2),
                                     (2, NormTag.L1), (3, NormTag.LINF)])
def test_each_refine_step_is_one_batch(dim, tag):
    # the angle +- h in the Euclidean plane, else the 2 dim coordinate probes
    batches = []
    sphere_sup(logged(smooth_peak, batches), dim, tag, CFG, trust_vertices=False)
    grid = sampling.search_grid(dim, tag, CFG)[0]
    np.testing.assert_array_equal(batches[0], grid)
    probes = 2 if (dim, tag) == (2, NormTag.L2) else 2 * dim
    assert len(batches) > 1 and [len(X) for X in batches[1:]] == [probes] * (len(batches) - 1)
    for X in batches[1:]:
        np.testing.assert_allclose([tag.of(x) for x in X], 1.0, atol=1e-15)


@pytest.mark.parametrize("dim,h", [(2, 0.05 * math.pi), (3, 0.5)])
def test_refine_stops_at_the_solver_resolution(dim, h):
    # on a smooth peak the search stops once its step h, shrunk by 0.35 on
    # every step that does not move, falls below sqrt(conic.TARGET), long
    # before the step budget runs out
    batches = []
    config = SamplerConfig(search_directions=24, seed=3, refine_steps=500)
    sup = sphere_sup(logged(smooth_peak, batches), dim, NormTag.L2, config)
    assert sup.value == pytest.approx(2.0, abs=1e-12)
    assert len(batches) - 1 < 100
    shrinks, best = 0, float(np.max(sup.values))
    for X in batches[1:]:
        top = max(smooth_peak(x) for x in X)
        if top > best + 1e-15:
            best = top
        else:
            shrinks += 1
    want = 0
    while h >= math.sqrt(conic.TARGET):
        h, want = 0.35 * h, want + 1
    assert shrinks == want


@pytest.mark.parametrize("dim,tag", [(2, NormTag.L2), (3, NormTag.L2), (2, NormTag.L1)])
def test_refined_value_is_one_the_function_returned(dim, tag):
    returned = []

    def values(X):
        out = [smooth_peak(x) + 1e-3 * math.sin(7.0 * x[0]) for x in X]
        returned.extend(out)
        return out

    sup = sphere_sup(values, dim, tag, CFG, trust_vertices=False)
    assert sup.value in returned
    assert sup.value >= float(np.max(sup.values))
    assert values([sup.argmax])[0] == sup.value


def test_no_refine_steps_make_no_call():
    batches = []
    sup = sphere_sup(logged(smooth_peak, batches), 3, NormTag.L2,
                     SamplerConfig(search_directions=24, refine_steps=0))
    assert len(batches) == 1
    assert sup.value == float(np.max(sup.values))


@pytest.mark.parametrize("dim", [2, 3, 5])
@pytest.mark.parametrize("steps", [10, 48])
def test_look_ahead_takes_the_same_steps(dim, steps):
    # from far below the peak the search moves many times; looking ahead
    # sends later steps' probes early, and the search still reads them in
    # order, so it ends at the same point with the same value
    x0 = -np.ones(dim) / math.sqrt(dim)
    got = {}
    for batched in (False, True):
        batches = []
        got[batched] = sampling.refine_on_sphere(logged(smooth_peak, batches), x0,
                                                 smooth_peak(x0), NormTag.L2, steps, batched)
        probes = 2 if dim == 2 else 2 * dim
        runs = [len(X) // probes for X in batches]
        assert all(len(X) % probes == 0 for X in batches)
        if not batched:
            assert runs == [1] * len(runs) and len(runs) <= steps
        else:  # a call after a move carries one step, and some call carries more
            best, moved = smooth_peak(x0), False
            for X, run in zip(batches, runs):
                assert run == 1 or not moved
                tops = [max(smooth_peak(p) for p in X[j:j + probes])
                        for j in range(0, len(X), probes)]
                moved = any(t > best + 1e-15 for t in tops)
                best = next((t for t in tops if t > best + 1e-15), best)
            assert max(runs) > 1 or steps < 48
    (x, value), (xb, valueb) = got[False], got[True]
    assert value > smooth_peak(x0) + 0.5
    assert np.array_equal(x, xb) and value == valueb


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_a_search_that_never_moves_doubles_its_look_ahead(dim):
    # at the peak no probe beats the incumbent: the steps go in runs of 1,
    # 2, 4, ... until h falls below sqrt(conic.TARGET)
    u = np.array([math.cos(0.3), math.sin(0.3), 0.0, 0.0, 0.0])[:dim]
    h, left = 0.05 * math.pi if dim == 2 else 0.5, 0
    while h >= math.sqrt(conic.TARGET):
        h, left = 0.35 * h, left + 1
    want, look = [], 1
    while left:
        want.append(min(look, left))
        left, look = left - want[-1], 2 * look
    batches = []
    x, value = sampling.refine_on_sphere(logged(smooth_peak, batches), u, smooth_peak(u),
                                         NormTag.L2, batched=True)
    probes = 2 if dim == 2 else 2 * dim
    assert [len(X) / probes for X in batches] == want
    assert np.array_equal(x, u) and value == smooth_peak(u)


@pytest.mark.parametrize("dim", [3, 5])
def test_look_ahead_on_the_conic_lattice_sum(dim):
    # the l2 lattice sum constant, a conic batch per call, moves on the way
    # to sqrt 2: the same point and value bit for bit either way
    cm = summing_map(OrderedSpace(Orthant(dim), NormTag.L2))
    values = cm._kind_objective("sum")
    assert cm._sweep.batched()
    plain = sphere_sup(values, dim, NormTag.L2, SamplerConfig())
    ahead = sphere_sup(values, dim, NormTag.L2, SamplerConfig(), batched=True)
    assert plain.value == ahead.value == pytest.approx(math.sqrt(2.0), abs=1e-6)
    assert np.array_equal(plain.argmax, ahead.argmax)


# refine calls per constant on the planar lattices: one on the Euclidean
# sphere, none on the vertex grids, except the constrained selection bound,
# which refines on every grid (the counts of the separate sweep loops that
# sphere_sup replaced)
def lattice_sweeps(tag):
    space = OrderedSpace(Orthant(2), tag)
    cmap = summing_map(space)
    rho = positive_part_functional(space)
    cap = ConstraintFunctional.seminorm(np.eye(cmap.domain_dim), cmap.domain_norm)
    sweeps = {
        "openness_constant": lambda: cmap.openness_constant(CFG),
        "achievable_alpha": lambda: achievable_alpha(cmap, rho=rho, config=CFG),
        "selection_bound/plain": lambda: selection_bound(gamma(cmap), CFG),
        "selection_bound/constrained": lambda: selection_bound(
            gamma_constrained(cmap, ((rho, 1.0), (cap, 2.0)), slack=0.01), CFG),
    }
    for kind in ConormalityKind:
        sweeps[f"conormality_constant/{kind.value}"] = (
            lambda kind=kind: conormality_constant(space, kind, CFG))
    return sweeps


@pytest.mark.parametrize("tag", [NormTag.L1, NormTag.L2, NormTag.LINF])
def test_refine_calls_per_constant(tag, spy, tmp_path):
    calls = []
    spy(sampling, "refine_on_sphere", calls)
    got = {}
    for name, sweep in lattice_sweeps(tag).items():
        calls.clear()
        sweep()
        got[name] = len(calls)
    doc = {"dimension": 2, "norm": tag.value,
           "cones": [{"variant": "orthant", "dim": 2},
                     {"variant": "negation", "inner": {"variant": "orthant", "dim": 2}}],
           "sampler": {"directions": 64, "search_directions": 24, "seed": 3, "refine_steps": 8}}
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc), encoding="utf-8")
    for kind in ("openness", "plain", "max", "sum"):
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["constant", str(inst), "--kind", kind]) == 0
        got[f"constant/{kind}"] = len(calls)
    sampled = int(tag is NormTag.L2)
    want = {name: sampled for name in got}
    want["selection_bound/constrained"] = 1
    assert got == want
