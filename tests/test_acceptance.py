"""Release gates for the package's headline behaviors.

Every test here checks one end-to-end claim and prints a single verdict
line, so a full run reads as a checklist.  Every tolerance is pinned in the
asserts; the helper values they compare against live in oracles.py and
were computed independently of the library code.
"""

import functools
import json
import math
import time

import numpy as np

from conekit.cli import main
from conekit.conemap import ConeMap
from conekit.cones import Halfspaces, Orthant, SecondOrder
from conekit.instances import parse_instance, random_polyhedral_instance
from conekit.norms import NormTag
from conekit.ordered import (ConormalityKind, OrderedSpace, conormality_constant,
                             is_generating, positive_part_functional, summing_map)
from conekit.sampling import SamplerConfig
from conekit.selection import (ConstraintFunctional, CorrespondenceSpec,
                               EmptyCorrespondence, achievable_alpha,
                               extend_from_sphere, gamma, gamma_constrained,
                               hemicontinuity_schedule, tabulate_sphere)
from conekit.solver import SolveStatus
from conekit.funclift import SampledFunction, SampledSpace, function_space_conormality, lift, pointwise_recover

import oracles


def _verdict(capsys, label: str, ok: bool, detail: str = ""):
    with capsys.disabled():
        print(f"criterion {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"{label}: {detail}"


@functools.cache
def lattice_map():
    return summing_map(OrderedSpace(Orthant(2), NormTag.L2))


@functools.cache
def generated_suite():
    """50 random polyhedral instances with their three image measurements."""
    rows = []
    for seed in range(50):
        inst = parse_instance(random_polyhedral_instance(seed))
        cfg = inst.sampler
        rep = inst.map.is_surjective(config=cfg)
        K = inst.map.openness_constant(cfg)
        r = inst.map.interior_radius(cfg)
        rows.append((seed, inst, rep, K, r))
    return rows


def test_01_lattice_constants(capsys):
    cases = [
        (NormTag.L1, ConormalityKind.SUM, 1.0, 1e-9, oracles.lattice_sum_constant("l1")),
        (NormTag.L2, ConormalityKind.SUM, math.sqrt(2.0), 1e-3, oracles.lattice_sum_constant("l2")),
        (NormTag.LINF, ConormalityKind.SUM, 2.0, 1e-3, oracles.lattice_sum_constant("linf")),
        (NormTag.L2, ConormalityKind.PLAIN, 1.0, 1e-6, oracles.lattice_plain_constant("l2")),
    ]
    problems = []
    for tag, kind, want, tol, grid in cases:
        t0 = time.perf_counter()
        got = conormality_constant(OrderedSpace(Orthant(2), tag), kind)
        dt = time.perf_counter() - t0
        if abs(got - want) > tol:
            problems.append(f"{tag.value}/{kind.value}: {got} vs {want}")
        if abs(got - grid) > max(tol, 1e-3):
            problems.append(f"{tag.value}/{kind.value}: {got} vs grid {grid}")
        if dt >= 5.0:
            problems.append(f"{tag.value}/{kind.value}: {dt:.1f}s")
    _verdict(capsys, "01 lattice constants", not problems, "; ".join(problems))


def test_02_open_mapping_equivalence(capsys):
    t0 = time.perf_counter()
    suite = generated_suite()
    total = time.perf_counter() - t0
    bad = []
    for seed, inst, rep, K, r in suite:
        agree = rep.surjective == bool(math.isfinite(K)) == bool(r > 0.0)
        if not agree:
            bad.append(f"seed {seed}: surjective={rep.surjective} K={K} r={r}")
        elif rep.surjective and abs(r * K - 1.0) > 1e-6:
            bad.append(f"seed {seed}: rK={r * K}")
    if total >= 60.0:
        bad.append(f"took {total:.1f}s")
    _verdict(capsys, "02 open mapping equivalence", not bad, "; ".join(bad[:4]))


def test_03_gauge_norm_axioms(capsys):
    bad = []
    for seed, inst, rep, K, _ in generated_suite():
        if not rep.surjective:
            continue
        g = inst.map.gauge_norm
        lo = 1.0 / inst.map.operator_norm_bound()
        d = inst.map.codomain_dim
        rng = np.random.default_rng(1000 + seed)
        q = rng.standard_normal((500, d))
        pts = np.empty((1000, d))
        pts[0::2] = q
        pts[1::2] = -q  # negations sit next to their partners
        gv = np.array([g(p) for p in pts])
        gsum = np.array([g(pts[i] + pts[(i + 1) % 1000]) for i in range(1000)])
        norms = np.array([float(inst.map.codomain_norm.of(p)) for p in pts])

        tri = gsum - (gv + gv[(np.arange(1000) + 1) % 1000])
        sym = np.abs(gv - gv[np.arange(1000) ^ 1])
        if tri.max() > 1e-8:
            bad.append(f"seed {seed}: triangle defect {tri.max():.2e}")
        if sym.max() > 1e-8:
            bad.append(f"seed {seed}: asymmetry {sym.max():.2e}")
        if (gv <= 1e-8).any():
            bad.append(f"seed {seed}: vanishing gauge at a nonzero point")
        low = gv - lo * norms
        high = gv - K * norms
        if low.min() < -1e-6 or high.max() > 1e-6:
            bad.append(f"seed {seed}: sandwich violated by "
                       f"{max(-low.min(), high.max()):.2e}")
    _verdict(capsys, "03 gauge norm axioms", not bad, "; ".join(bad[:4]))


def test_04_right_inverse(capsys):
    cmap = lattice_map()
    ri = gamma(cmap)
    rng = np.random.default_rng(7)
    xs = rng.standard_normal((1000, 2))
    worst_inv = worst_hom = worst_parts = 0.0
    for x in xs:
        c = ri(x)
        worst_inv = max(worst_inv, float(np.abs(cmap.matrix @ c - x).max()))
        plus, minus = oracles.lattice_parts(x)
        worst_parts = max(worst_parts,
                          float(np.abs(c - np.concatenate([plus, minus])).max()))
        for lam in (0.0, 0.5, 2.0, 10.0):
            worst_hom = max(worst_hom,
                            float(np.abs(ri(lam * x) - lam * c).max()))
    ok = worst_inv <= 1e-8 and worst_hom <= 1e-8 and worst_parts <= 1e-8
    _verdict(capsys, "04 right inverse", ok,
             f"inverse {worst_inv:.2e} homogeneity {worst_hom:.2e} "
             f"parts {worst_parts:.2e}")


def test_05_certified_selection_pipeline(capsys):
    cmap = lattice_map()
    space = OrderedSpace(Orthant(2), NormTag.L2)
    cfg = SamplerConfig(directions=256, search_directions=96, seed=0)
    K = achievable_alpha(cmap, config=cfg)
    rho1 = positive_part_functional(space)
    alpha1 = achievable_alpha(cmap, rho=rho1, cap=K, config=cfg)
    norm_cap = ConstraintFunctional.seminorm(np.eye(cmap.domain_dim), cmap.domain_norm)
    constraints = ((norm_cap, K), (rho1, alpha1))
    rng = np.random.default_rng(11)
    problems = []

    for eps in (0.1, 0.01):
        half = CorrespondenceSpec(cmap, constraints, slack=eps / 2.0)
        table = tabulate_sphere(half, cfg)
        if not table.verify(1e-7):
            problems.append(f"eps={eps}: sphere table fails its own bounds")
        sigma = extend_from_sphere(table)
        for u in table.directions[rng.choice(len(table.directions), 40)]:
            t = float(rng.uniform(0.1, 5.0))
            s = sigma(t * u)
            if np.abs(cmap.matrix @ s - t * u).max() > 1e-8 * max(1.0, t):
                problems.append(f"eps={eps}: ray extension misses its target")
            if cmap.domain_norm.of(s) > (K + eps) * t + 1e-8:
                problems.append(f"eps={eps}: ray norm cap violated")
            if rho1.value(s) > (alpha1 + eps) * t + 1e-8:
                problems.append(f"eps={eps}: ray part bound violated")

        ge = gamma_constrained(cmap, constraints, slack=eps)
        for x in rng.standard_normal((1000, 2)):
            c = ge(x)
            nx = float(np.linalg.norm(x))
            if np.abs(cmap.matrix @ c - x).max() > 1e-8:
                problems.append(f"eps={eps}: selection is not a right inverse")
                break
            if cmap.domain_norm.of(c) > (K + eps) * nx + 1e-8:
                problems.append(f"eps={eps}: norm cap violated at {x}")
                break
            if rho1.value(c) > (alpha1 + eps) * nx + 1e-8:
                problems.append(f"eps={eps}: part bound violated at {x}")
                break

        bad_spec = CorrespondenceSpec(cmap, ((norm_cap, K), (rho1, 0.5)),
                                      slack=eps / 2.0)
        try:
            tabulate_sphere(bad_spec, cfg)
            problems.append(f"eps={eps}: undersized bound was not caught")
        except EmptyCorrespondence as e:
            w = e.target
            if oracles.norm(np.maximum(w, 0.0), "l2") <= 0.5:
                problems.append(f"eps={eps}: witness {w} does not exceed the bound")
    _verdict(capsys, "05 certified selection pipeline", not problems,
             "; ".join(problems[:4]))


def test_06_hemicontinuity_probe(capsys):
    lat = CorrespondenceSpec(lattice_map(), slack=1e-3)
    ice = CorrespondenceSpec(summing_map(OrderedSpace(SecondOrder(3), NormTag.L2)),
                             slack=1e-3)
    rng = np.random.default_rng(3)
    problems = []
    for name, spec, steps in (("lattice", lat, 9), ("ice-cream", ice, 8)):
        d = spec.map.codomain_dim
        for trial in range(3):
            x = rng.standard_normal(d)
            x /= np.linalg.norm(x)
            rows = hemicontinuity_schedule(spec, x, steps=steps, seed=trial)
            ratios = rows[:, 1]
            if not np.all(np.isfinite(ratios)):
                problems.append(f"{name}: non-finite ratio")
            elif ratios.max() > 10.0:
                problems.append(f"{name}: ratio blow-up {ratios.max():.2f}")
    _verdict(capsys, "06 hemicontinuity probe", not problems, "; ".join(problems[:4]))


def test_07_function_lift(capsys):
    ri = gamma(lattice_map())
    n, tail = 200, 20
    ts = 4.0 * math.pi * np.arange(n) / n
    labels = tuple(f"t{k:03d}" for k in range(n))
    sp = SampledSpace(labels, tail=frozenset(labels[-tail:]))
    f = SampledFunction(sp, np.outer(np.sin(ts), [1.0, 2.0]))
    res = lift(ri, f)
    problems = [] if res.report.ok() else [
        f"{c.name} worst {c.worst:.2e}" for c in res.report.checks if not c.passed]

    x = np.array([3.0, -4.0])
    bump = SampledFunction(sp, np.outer(np.exp(-0.5 * (ts - ts[7]) ** 2), x))
    parts = pointwise_recover(lift(ri, bump).components, "t007", 1.0)
    if np.abs(parts[0] + parts[1] - x).max() > 1e-9:
        problems.append("recovered parts do not sum back to the point")

    space = OrderedSpace(Orthant(2), NormTag.L2)
    rng = np.random.default_rng(0)
    small = SampledSpace(tuple(f"p{i}" for i in range(8)))
    funcs = [SampledFunction(small, rng.normal(size=(8, 2))) for _ in range(50)]
    fn_plain = function_space_conormality(space, funcs, ConormalityKind.PLAIN)
    x_plain = conormality_constant(space, ConormalityKind.PLAIN)
    if abs(fn_plain - x_plain) > 0.02:
        problems.append(f"plain: {fn_plain} vs {x_plain}")
    worst = SampledFunction(SampledSpace(("w",)),
                            np.array([[1.0, -1.0]]) / math.sqrt(2.0))
    fn_sum = function_space_conormality(space, funcs + [worst], ConormalityKind.SUM)
    x_sum = conormality_constant(space, ConormalityKind.SUM)
    if abs(fn_sum - x_sum) > 0.02:
        problems.append(f"sum: {fn_sum} vs {x_sum}")
    _verdict(capsys, "07 function lift", not problems, "; ".join(problems[:4]))


def test_08_halfspace_cone(capsys):
    problems = []
    inst = parse_instance({
        "dimension": 2,
        "norm": "l2",
        "cones": [
            {"variant": "halfspaces", "rows": [[1.0, 0.0]]},
            {"variant": "negation",
             "inner": {"variant": "halfspaces", "rows": [[1.0, 0.0]]}},
        ],
    })
    if not inst.map.is_surjective().surjective:
        problems.append("parsed summing instance not surjective")
    space = OrderedSpace(Halfspaces(np.array([[1.0, 0.0]])), NormTag.L2)
    if not is_generating(space):
        problems.append("halfspace not recognized as generating")
    const = conormality_constant(space, ConormalityKind.SUM)
    if abs(const - 1.0) > 1e-6:
        problems.append(f"sum constant {const}")
    _verdict(capsys, "08 halfspace cone", not problems, "; ".join(problems))


def test_09_infeasibility_certificates(capsys):
    cmap = ConeMap(np.array([[1.0, 0.0]]), Orthant(2), codomain_norm=NormTag.L2)
    problems = []
    rep = cmap.is_surjective()
    if rep.surjective:
        problems.append("rank-one positive map reported surjective")
    if rep.unreachable is None:
        problems.append("no witness direction")
    elif cmap.min_preimage(rep.unreachable).status is not SolveStatus.INFEASIBLE:
        problems.append("witness direction is actually reachable")

    sol = cmap.min_preimage(np.array([-1.0]))
    if sol.status is not SolveStatus.INFEASIBLE:
        problems.append("negative target reported feasible")
    elif sol.certificate is None:
        problems.append("no separation certificate")
    else:
        ydotx, maxpos = oracles.farkas_checks(cmap.matrix, np.array([-1.0]),
                                              sol.certificate.y)
        if ydotx <= 0.0:
            problems.append(f"certificate does not separate: y.x={ydotx}")
        if maxpos > 1e-8:
            problems.append(f"certificate leaves the dual cone by {maxpos:.2e}")
    _verdict(capsys, "09 infeasibility certificates", not problems,
             "; ".join(problems))


def test_10_cli_determinism(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "dimension": 2,
        "norm": "l2",
        "cones": [
            {"variant": "orthant", "dim": 2},
            {"variant": "negation", "inner": {"variant": "orthant", "dim": 2}},
        ],
        "sampler": {"directions": 256, "search_directions": 64, "seed": 3},
    }), encoding="utf-8")
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2\n3,-4\n1,1\n", encoding="utf-8")
    fn = tmp_path / "fn.csv"
    fn.write_text("label,tail_flag,c1,c2\na,0,1,0\nb,0,0,-1\nc,1,0.5,0.5\n",
                  encoding="utf-8")
    cst = str(tmp_path / "cst.csv")
    dec = str(tmp_path / "dec.csv")
    lif = str(tmp_path / "lift.csv")
    commands = [
        (["check-surjective", str(inst), "--seed", "3"], []),
        (["constant", str(inst), "--kind", "sum", "--seed", "3",
          "--report", cst], [cst]),
        (["decompose", str(inst), "--points", str(pts), "--seed", "3",
          "--report", dec], [dec]),
        (["lift", str(inst), "--function", str(fn), "--seed", "3",
          "--report", lif],
         [lif, lif[:-4] + "_component1.csv", lif[:-4] + "_component2.csv"]),
    ]
    problems = []
    for argv, files in commands:
        code1 = main(argv)
        out1 = capsys.readouterr().out
        blob1 = [open(p, "rb").read() for p in files]
        code2 = main(argv)
        out2 = capsys.readouterr().out
        blob2 = [open(p, "rb").read() for p in files]
        if code1 != code2 or out1 != out2:
            problems.append(f"{argv[0]}: stdout or exit code drifted")
        if blob1 != blob2:
            problems.append(f"{argv[0]}: written files drifted")
    _verdict(capsys, "10 cli determinism", not problems, "; ".join(problems))
