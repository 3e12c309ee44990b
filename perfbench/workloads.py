"""The four benchmark workloads: generated inputs, op lists and answer checks.

Each workload turns ``--seed`` into plain data (instance documents, target
vectors, CSV and JSON files) before anything is timed.  ``build`` turns that
data into fresh conekit objects; every round of the benchmark calls it, so
no program object, and no cache inside one, outlives a round.  ``ops`` is
the fixed list a round executes in order, one closed-loop client.  A point
op answers for one target; a task op returns a whole answer.  ``check``
judges one round's answers after the timed phase, against closed forms and
oracles computed here with numpy rather than by the package.

Calls into conekit go through module attributes at call time
(``ck.parse_instance``, ``ck.cli.main``) so the tracer's patched bindings
are the ones used.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import conekit as ck
import conekit.cli  # noqa: F401  (makes ck.cli available)
from conekit import (ConormalityKind, CorrespondenceSpec, NormTag, Orthant, OrderedSpace,
                     SampledFunction, SampledSpace, SamplerConfig, SecondOrder,
                     SolveStatus)

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Op:
    kind: str  # "point" | "task"
    label: str  # the call, optionally "/" and a variant, e.g. "gamma/d3"
    fn: Callable[[dict], object]
    exact: bool = False  # the answer must repeat byte for byte in every round


def _norm(v, tag: str) -> float:
    v = np.asarray(v, dtype=float)
    if tag == "l1":
        return float(np.sum(np.abs(v)))
    if tag == "l2":
        return float(np.linalg.norm(v))
    return float(np.max(np.abs(v)))


def _scaled(count: int, size: float, least: int = 1) -> int:
    return max(least, round(count * size))


def _cli(argv: list[str], reports: tuple[str, ...] = ()) -> tuple:
    """Run one CLI command; returns (exit code, stdout, stderr, report bytes)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ck.cli.main(argv)
    files = tuple(Path(p).read_bytes() for p in reports)
    return rc, out.getvalue(), err.getvalue(), files


def _bracket(text: str, prefix: str) -> tuple[float, float]:
    line = next(s for s in text.splitlines() if s.startswith(prefix))
    lo, hi = line.split("[", 1)[1].rstrip("]").split(",")
    return float(lo), float(hi)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


class Workload:
    """Inputs made from a seed, a fixed op list, and the checks on its answers."""

    name = ""

    def __init__(self, seed: int, workdir: Path, size: float = 1.0):
        self.seed = seed
        self.workdir = Path(workdir)
        self.size = size
        self.rng = np.random.default_rng([seed & (2**64 - 1), sum(map(ord, self.name))])
        self.inputs: list = []  # everything the op list is made from, for the digest
        self.ops: list[Op] = []
        self._reference: dict = {}
        self.generate()

    def generate(self) -> None:
        raise NotImplementedError

    def build(self) -> dict:
        raise NotImplementedError

    def check(self, answers: list) -> dict[int, str]:
        """Failures of one round, by op index; a None answer means the op raised."""
        raise NotImplementedError

    def _api(self, key, compute):
        """A reference answer from the package, computed once per run."""
        if key not in self._reference:
            self._reference[key] = compute()
        return self._reference[key]

    def digest(self) -> str:
        """Hash of the generated inputs and op labels; fixed by the seed."""
        h = hashlib.sha256()
        h.update(json.dumps([op.kind + ":" + op.label for op in self.ops]).encode())
        h.update(json.dumps(self.inputs, default=lambda a: np.asarray(a).tolist(),
                            sort_keys=True).encode())
        return h.hexdigest()

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)


# ---------------------------------------------------------------------------


def _draw_instances(rng, quota: int, classes) -> list[tuple[dict, bool]]:
    """Random instance documents, ``quota`` of each (dimension, norm, onto) class.

    ``random_polyhedral_instance`` makes the map onto exactly at even seeds.
    A fixed count per class keeps the mix of LP sizes, and so the cost of a
    round, the same from one benchmark seed to the next.
    """
    taken = Counter()
    out = []
    while len(out) < quota * len(classes):
        seed = int(rng.integers(0, 2**30))
        doc = ck.random_polyhedral_instance(seed)
        key = (doc["dimension"], doc["norm"], seed % 2 == 0)
        if key in classes and taken[key] < quota:
            taken[key] += 1
            out.append((doc, key[2]))
    return out


POLY_CLASSES = tuple((d, tag) for d in (2, 3, 4) for tag in ("l1", "linf"))


class PolySweep(Workload):
    """Many gauge targets per surjective polyhedral map, plus its constants.

    ``random_polyhedral_instance`` pairs the identity matrix with a
    generating cone when it makes the map onto, so the gauge of x is exactly
    |x| in the codomain norm and every constant is 1.
    """

    name = "poly_sweep"
    # planar lattice constants with closed forms; four of them, so that the
    # task median falls inside the group of ops costing 10-20 ms (the 4-d
    # linf openness constants and the 2-d linf interior radii) and not at
    # the edge of a group
    lattice = (("l1", "sum", 1.0), ("linf", "sum", 2.0), ("l1", "plain", 1.0),
               ("linf", "max", 1.0))

    def generate(self):
        self.docs = [doc for doc, _ in _draw_instances(
            self.rng, _scaled(4, self.size), [c + (True,) for c in POLY_CLASSES])]
        pairs = _scaled(20, self.size)
        self.targets = [self.rng.standard_normal((pairs, doc["dimension"])) for doc in self.docs]
        self.inputs = [self.docs, self.targets]

        ops = []
        for i, xs in enumerate(self.targets):
            for x in xs:
                for t in (x, -x):
                    ops.append(Op("point", "gauge_norm",
                                  lambda st, i=i, t=t: st["inst"][i].map.gauge_norm(t)))
            ops.append(Op("task", "openness_constant",
                          lambda st, i=i: st["inst"][i].map.openness_constant(st["inst"][i].sampler)))
            ops.append(Op("task", "interior_radius",
                          lambda st, i=i: st["inst"][i].map.interior_radius(st["inst"][i].sampler)))
        for tag, kind, _ in self.lattice:
            ops.append(Op("task", f"conormality_{tag}_{kind}",
                          lambda st, tag=tag, kind=kind: ck.conormality_constant(
                              st["lattice"][tag], ConormalityKind(kind))))
        self.ops = ops

    def build(self):
        return {"inst": [ck.parse_instance(doc) for doc in self.docs],
                "lattice": {tag: OrderedSpace(Orthant(2), NormTag(tag)) for tag in ("l1", "linf")}}

    def check(self, answers):
        bad = {}
        lows = self._api("lows", lambda: [1.0 / inst.map.operator_norm_bound()
                                          for inst in self.build()["inst"]])
        k = 0
        for i, (doc, xs) in enumerate(zip(self.docs, self.targets)):
            tag = doc["norm"]
            n_pts = 2 * len(xs)
            gauges, (K, r) = answers[k:k + n_pts], answers[k + n_pts:k + n_pts + 2]
            lo = lows[i]
            k_ok = K is not None and _close(K, 1.0, 1e-9)
            if not k_ok:
                bad[k + n_pts] = f"openness constant {K} != 1"
            if r is None or K is None or r <= 0.0 or abs(r * K - 1.0) > 1e-6:
                bad[k + n_pts + 1] = f"r*K = {r}*{K} not within 1e-6 of 1"
            for j, g in enumerate(gauges):
                x = xs[j // 2]
                nx = _norm(x, tag)
                if g is None or not _close(g, nx, 1e-9):
                    bad[k + j] = f"gauge {g} != |x| = {nx}"
                elif j % 2 and abs(g - gauges[j - 1]) > 1e-9 * max(1.0, nx):
                    bad[k + j] = "gauge_norm(-x) != gauge_norm(x)"
                elif g < lo * nx - 1e-6 or (k_ok and g > K * nx + 1e-6):
                    bad[k + j] = "gauge outside the operator-norm sandwich"
            k += n_pts + 2
        for (tag, kind, want), got in zip(self.lattice, answers[k:]):
            if got is None or abs(got - want) > 1e-9:
                bad[k] = f"lattice {tag} {kind} constant {got} != {want}"
            k += 1
        return bad


# ---------------------------------------------------------------------------


def _generators(doc: dict) -> np.ndarray:
    return np.array(doc["cones"][0]["generators"], dtype=float).T


def _farkas_ok(G: np.ndarray, x: np.ndarray, y) -> bool:
    """y separates x from cone(G): <y, x> > 0 and G^T y <= 0."""
    if y is None:
        return False
    y = np.asarray(y, dtype=float)
    return float(y @ x) > 1e-9 and float(np.max(G.T @ y)) <= 1e-8 * max(1.0, float(np.abs(y).max()))


class PolyCold(Workload):
    """Distinct polyhedral instances, each parsed and solved once per round.

    Half the instances are not onto: their cones lie inside a halfspace.
    Their targets alternate between a positive combination of the generators
    (reachable) and its negative (unreachable, so the solver must return a
    Farkas certificate).  Maps that are onto reach every target.
    """

    name = "poly_cold"

    def generate(self):
        classes = [c + (onto,) for c in POLY_CLASSES for onto in (True, False)]
        point = _draw_instances(self.rng, _scaled(20, self.size), classes)
        surj = _draw_instances(self.rng, _scaled(3, self.size), classes)
        cli = _draw_instances(self.rng, 1, classes[:_scaled(len(classes), self.size, 2)])
        self.point_docs = [doc for doc, _ in point]
        self.texts = [json.dumps(doc) for doc in self.point_docs]
        self.surj_docs, self.surj_onto = [doc for doc, _ in surj], [o for _, o in surj]
        self.cli_docs, self.cli_onto = [doc for doc, _ in cli], [o for _, o in cli]
        self.targets = []
        flip = Counter()
        for doc, onto in point:
            G = _generators(doc)
            if onto:
                self.targets.append((self.rng.standard_normal(doc["dimension"]), True))
                continue
            x = G @ self.rng.uniform(0.1, 1.0, G.shape[1])
            key = (doc["dimension"], doc["norm"])
            self.targets.append((-x, False) if flip[key] % 2 else (x, True))
            flip[key] += 1
        self.files = [self._write(f"cold{k}.json", json.dumps(doc))
                      for k, doc in enumerate(self.cli_docs)]
        self.inputs = [self.texts, self.targets, self.surj_docs, self.cli_docs]

        ops = []
        for k, (text, (x, _)) in enumerate(zip(self.texts, self.targets)):
            ops.append(Op("point", "parse_instance", lambda st, k=k, text=text: st["parsed"].setdefault(
                k, ck.parse_instance(text))))
            ops.append(Op("point", "min_preimage",
                          lambda st, k=k, x=x: st["parsed"][k].map.min_preimage(x)))
            ops.append(Op("point", "check_feasible",
                          lambda st, k=k, x=x: ck.check_feasible(
                              st["parsed"][k].map.matrix, x, st["parsed"][k].map.cone)))
        for k in range(len(self.surj_docs)):
            ops.append(Op("task", "is_surjective",
                          lambda st, k=k: st["surj"][k].map.is_surjective(method="exact")))
        for path in self.files:
            ops.append(Op("task", "cli_check_surjective",
                          lambda st, path=path: _cli(["check-surjective", path]), exact=True))
            ops.append(Op("task", "cli_constant",
                          lambda st, path=path: _cli(["constant", path]), exact=True))
        self.ops = ops

    def build(self):
        return {"parsed": {}, "surj": [ck.parse_instance(doc) for doc in self.surj_docs]}

    def check(self, answers):
        bad = {}
        k = 0
        for doc, (x, reachable) in zip(self.point_docs, self.targets):
            G = _generators(doc)
            d, tag = doc["dimension"], doc["norm"]
            inst, sol, rep = answers[k:k + 3]
            if inst is None or not (np.array_equal(inst.map.matrix, np.eye(d))
                                    and np.array_equal(inst.map.cone.columns, G)):
                bad[k] = "parsed instance differs from its document"
            scale = max(1.0, float(np.abs(x).max()))
            if sol is None:
                bad[k + 1] = "min_preimage raised"
            elif reachable:
                if sol.status is not SolveStatus.OPTIMAL:
                    bad[k + 1] = f"reachable target reported {sol.status.value}"
                elif (np.abs(sol.point - x).max() > 1e-8 * scale
                      or not _close(sol.value, _norm(x, tag), 1e-8)):
                    bad[k + 1] = "min-norm preimage is not the target itself"
            elif sol.status is not SolveStatus.INFEASIBLE:
                bad[k + 1] = f"unreachable target reported {sol.status.value}"
            elif not _farkas_ok(G, x, sol.certificate and sol.certificate.y):
                bad[k + 1] = "missing or invalid Farkas certificate"
            if rep is None or rep.feasible != reachable:
                bad[k + 2] = f"check_feasible says {rep and rep.feasible}, expected {reachable}"
            elif reachable and np.abs(rep.point - x).max() > 1e-8 * scale:
                bad[k + 2] = "feasible point does not map to the target"
            elif not reachable and not _farkas_ok(G, x, rep.certificate and rep.certificate.y):
                bad[k + 2] = "missing or invalid Farkas certificate"
            k += 3
        for doc, expect, rep in zip(self.surj_docs, self.surj_onto, answers[k:]):
            if rep is None or rep.surjective != expect:
                bad[k] = f"is_surjective says {rep and rep.surjective}, expected {expect}"
            elif not expect:
                f = rep.functional
                if (f is None or np.abs(f).max() == 0.0
                        or float(np.min(_generators(doc).T @ f)) < -1e-8
                        or not np.array_equal(rep.unreachable, -f)):
                    bad[k] = "invalid non-surjectivity witness"
            k += 1
        for expect, path in zip(self.cli_onto, self.files):
            check, const = answers[k:k + 2]
            onto, K = self._api(path, lambda: _file_answers(path))
            verdict = "yes" if onto else "no"
            if onto != expect:
                bad[k] = f"API says onto={onto} for an instance made with onto={expect}"
            elif check is None or check[0] != (0 if onto else 2) or \
                    f"surjective: {verdict}\n" not in check[1]:
                bad[k] = f"check-surjective disagrees with the API verdict ({verdict})"
            if const is None:
                bad[k + 1] = "constant raised"
            elif onto:
                lo, hi = _bracket(const[1], "constant openness:") if const[0] == 0 else (None, None)
                if lo is None or not (_close(lo, K, 1e-11) and _close(hi, K, 1e-11)):
                    bad[k + 1] = f"constant bracket {lo, hi} != API {K}"
            elif const[0] != 2 or "surjective: no\n" not in const[1]:
                bad[k + 1] = "constant did not report the map as not onto"
            k += 2
        return bad


def _file_answers(path: str) -> tuple[bool, float | None]:
    """The API's surjectivity verdict and openness constant for an instance file."""
    inst = ck.load_instance(path)
    onto = inst.map.is_surjective(config=inst.sampler).surjective
    return onto, inst.map.openness_constant(inst.sampler) if onto else None


# ---------------------------------------------------------------------------


def _lattice_parts(x: np.ndarray) -> np.ndarray:
    """(x+, x-) as the summing-map preimage (p, q) with q <= 0."""
    return np.concatenate([np.maximum(x, 0.0), np.minimum(x, 0.0)])


def _lattice_doc(d: int, cfg: SamplerConfig) -> dict:
    return {"dimension": d, "norm": "l2",
            "cones": [{"variant": "orthant", "dim": d},
                      {"variant": "negation", "inner": {"variant": "orthant", "dim": d}}],
            "sampler": {"directions": cfg.directions, "search_directions": cfg.search_directions,
                        "seed": cfg.seed, "refine_steps": cfg.refine_steps}}


class Selection(Workload):
    """Right inverses of lattice summing maps over Orthant(d), l2 norms.

    With the norm cap K = sqrt(2) and the positive-part bound alpha = 1 the
    unconstrained minimal selection (x+, x-) is admissible, so the plain and
    the constrained selection agree on every target.
    """

    name = "selection"
    dims = (2, 3, 5)
    slack = 0.01

    def generate(self):
        n = _scaled(40, self.size)
        # 24 refinement steps put the sampled selection bound that lift uses as
        # its constant within 1e-15 of sqrt(2); with 8 it can land 1e-6 below,
        # and about one random sample in a thousand then exceeds it
        self.cfg = SamplerConfig(directions=64, search_directions=_scaled(32, self.size, 8),
                                 seed=int(self.rng.integers(0, 2**16)), refine_steps=24)
        self.alpha_cfg = SamplerConfig(directions=64, search_directions=_scaled(16, self.size, 8),
                                       seed=self.cfg.seed, refine_steps=_scaled(4, self.size, 2))
        self.targets = {d: self.rng.standard_normal((3, n, d)) for d in self.dims}
        n_samples = _scaled(24, self.size, 4)
        self.labels = tuple(f"s{i:02d}" for i in range(n_samples))
        self.tail = frozenset(self.labels[-max(1, n_samples // 6):])
        self.fvalues = {d: self.rng.standard_normal((n_samples, d)) for d in self.dims}
        self.points = {d: self.rng.standard_normal((_scaled(20, self.size, 2), d)) for d in self.dims}
        self.fs_funcs = [self.rng.standard_normal((8, 3)) for _ in range(_scaled(10, self.size, 2))]
        self.files = {}
        for d in self.dims:
            inst = self._write(f"lattice{d}.json", json.dumps(_lattice_doc(d, self.cfg)))
            pts = self._write(f"points{d}.csv", "".join(
                [",".join(f"x{i + 1}" for i in range(d)) + "\n"]
                + [",".join(repr(float(v)) for v in p) + "\n" for p in self.points[d]]))
            fn = self._write(f"function{d}.csv", "".join(
                ["label,tail_flag," + ",".join(f"x{i + 1}" for i in range(d)) + "\n"]
                + [f"{lab},{int(lab in self.tail)}," + ",".join(repr(float(v)) for v in row) + "\n"
                   for lab, row in zip(self.labels, self.fvalues[d])]))
            self.files[d] = (inst, pts, fn, str(self.workdir / f"parts{d}.csv"),
                             str(self.workdir / f"lift{d}.csv"))
        self.inputs = [self.cfg.seed, self.targets, self.fvalues, self.points, self.fs_funcs]

        ops = []
        for d in self.dims:
            plain, constrained, ando = self.targets[d]
            ops += [Op("point", f"gamma/d{d}", lambda st, d=d, x=x: st[d]["gamma"](x)) for x in plain]
            ops += [Op("point", f"gamma_constrained/d{d}",
                       lambda st, d=d, x=x: st[d]["constrained"](x)) for x in constrained]
            ops += [Op("point", f"ando_decompose/d{d}",
                       lambda st, d=d, x=x: ck.ando_decompose(st[d]["space"], x)) for x in ando]
        ops.append(Op("task", "achievable_alpha", lambda st: ck.achievable_alpha(
            st[2]["map"], rho=st[2]["rho"], cap=SQRT2, config=self.alpha_cfg)))
        for d in self.dims:
            inst, pts, fn, parts, report = self.files[d]
            ops.append(Op("task", "tabulate_sphere",
                          lambda st, d=d: ck.tabulate_sphere(st[d]["spec"], self.cfg)))
            ops.append(Op("task", "lift", lambda st, d=d: ck.lift(
                st[d]["gamma"], SampledFunction(st["space"], self.fvalues[d]), config=self.cfg)))
            ops.append(Op("task", "cli_decompose", lambda st, inst=inst, pts=pts, parts=parts: _cli(
                ["decompose", inst, "--points", pts, "--report", parts], (parts,)), exact=True))
            lift_files = (report,) + tuple(report[:-4] + f"_component{c}.csv" for c in (1, 2))
            ops.append(Op("task", "cli_lift", lambda st, inst=inst, fn=fn, report=report, lf=lift_files:
                          _cli(["lift", inst, "--function", fn, "--report", report], lf), exact=True))
        ops.append(Op("task", "function_space_conormality", lambda st: ck.function_space_conormality(
            st[3]["space"], [SampledFunction(st["fs_space"], v) for v in self.fs_funcs],
            ConormalityKind.PLAIN)))
        ops.append(Op("task", "cli_constant_plain", lambda st: _cli(
            ["constant", self.files[2][0], "--kind", "plain"]), exact=True))
        self.ops = ops

    def build(self):
        st = {"space": SampledSpace(self.labels, self.tail),
              "fs_space": SampledSpace(tuple(f"p{i}" for i in range(8)))}
        for d in self.dims:
            space = OrderedSpace(Orthant(d), NormTag.L2)
            cmap = ck.summing_map(space)
            rho = ck.positive_part_functional(space)
            cap = ck.ConstraintFunctional.seminorm(np.eye(cmap.domain_dim), cmap.domain_norm)
            constraints = ((cap, SQRT2), (rho, 1.0))
            st[d] = {"space": space, "map": cmap, "rho": rho, "gamma": ck.gamma(cmap),
                     "constrained": ck.gamma_constrained(cmap, constraints, slack=self.slack),
                     "spec": CorrespondenceSpec(cmap, constraints, slack=self.slack / 2.0)}
        return st

    def check(self, answers):
        bad = {}
        k = 0
        for d in self.dims:
            for variant, xs in zip(("gamma", "gamma_constrained", "ando"), self.targets[d]):
                for x in xs:
                    got = answers[k]
                    want = _lattice_parts(x)
                    nx = float(np.linalg.norm(x))
                    if got is None:
                        bad[k] = f"{variant} raised"
                    elif variant == "ando":
                        if (np.abs(got.plus - want[:d]).max() > 1e-8
                                or np.abs(got.minus + want[d:]).max() > 1e-8 or got.defect() > 1e-8):
                            bad[k] = "decomposition differs from (x+, x-)"
                    elif np.abs(got[:d] + got[d:] - x).max() > 1e-8:
                        bad[k] = "T gamma(x) != x"
                    elif np.abs(got - want).max() > 1e-8:
                        bad[k] = f"{variant}(x) differs from (x+, x-)"
                    elif variant == "gamma_constrained" and (
                            np.linalg.norm(got[:d]) + np.linalg.norm(got[d:])
                            > (SQRT2 + self.slack) * nx + 1e-8
                            or np.linalg.norm(got[:d]) > (1.0 + self.slack) * nx + 1e-8):
                        bad[k] = "constrained selection breaks its bounds"
                    k += 1
        alpha = answers[k]
        if alpha is None or abs(alpha - 1.0) > 1e-6:
            bad[k] = f"achievable alpha {alpha} != 1"
        k += 1
        for d in self.dims:
            table, res, dec, lifted = answers[k:k + 4]
            if table is None or not table.verify(1e-7) or any(
                    np.abs(c - _lattice_parts(u)).max() > 1e-8
                    for u, c in zip(table.directions, table.points)):
                bad[k] = "sphere table is not the lattice decomposition"
            f = self.fvalues[d]
            if res is None or not res.report.ok() or not (
                    1.0 - 1e-9 <= res.report.constant <= SQRT2 + 1e-9) or any(
                    np.abs(res.stacked.values[i] - _lattice_parts(f[i])).max() > 1e-8
                    for i in range(len(f))):
                bad[k + 1] = "lift report failed or components are not (f+, f-)"
            ratios = [(np.linalg.norm(np.maximum(p, 0)) + np.linalg.norm(np.minimum(p, 0)))
                      / np.linalg.norm(p) for p in self.points[d]]
            lines = [] if dec is None else [s for s in dec[1].splitlines() if s.startswith("point ")]
            if dec is None or dec[0] != 0 or len(lines) != len(ratios) or any(
                    not _close(float(s.rsplit(" ", 1)[1]), r, 1e-10) for s, r in zip(lines, ratios)):
                bad[k + 2] = "decompose ratios disagree with (x+, x-)"
            if lifted is None or lifted[0] != 0 or lifted[1].count(": PASS") != 5:
                bad[k + 3] = "lift command failed a property"
            else:
                api = self._api(("lift", d), lambda: ck.lift(
                    ck.gamma(ck.summing_map(OrderedSpace(Orthant(d), NormTag.L2))),
                    SampledFunction(SampledSpace(self.labels, self.tail), f),
                    config=self.cfg).report.constant)
                line = next(s for s in lifted[1].splitlines() if s.startswith("constant: "))
                if not _close(float(line.split()[1]), api, 1e-11):
                    bad[k + 3] = f"lift {line} != API {api}"
            k += 4
        fs = answers[k]
        oracle = max(max(np.linalg.norm(np.maximum(r, 0)) for r in v)
                     / max(np.linalg.norm(r) for r in v) for v in self.fs_funcs)
        if fs is None or not _close(fs, oracle, 1e-8):
            bad[k] = f"function-space plain constant {fs} != {oracle}"
        k += 1
        plain = answers[k]
        if plain is None or plain[0] != 0:
            bad[k] = "constant --kind plain failed"
        else:
            lo, hi = _bracket(plain[1], "constant plain:")
            api = self._api("plain", lambda: ck.conormality_constant(
                OrderedSpace(Orthant(2), NormTag.L2), ConormalityKind.PLAIN, self.cfg))
            if abs(lo - 1.0) > 1e-6 or hi < lo or not _close(lo, api, 1e-11):
                bad[k] = f"plain bracket [{lo}, {hi}] vs API {api}"
        return bad


# ---------------------------------------------------------------------------


def _soc_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectral split x = p - m with p, m in the second-order cone."""
    nb = float(np.linalg.norm(x[1:]))
    w = x[1:] / nb if nb > 0.0 else np.eye(x.shape[0] - 1)[0]
    u1 = 0.5 * np.concatenate([[1.0], w])
    u2 = 0.5 * np.concatenate([[1.0], -w])
    p = max(x[0] + nb, 0.0) * u1 + max(x[0] - nb, 0.0) * u2
    return p, p - x


def _in_soc(v: np.ndarray, tol: float) -> bool:
    return float(np.linalg.norm(v[1:])) <= v[0] + tol


class Curved(Workload):
    """The ice-cream order SecondOrder(3) and the planar l2 lattice constants.

    The l1 gauges run the projected-gradient fallback, whose cost depends
    strongly on where the target sits: about 0.2 s inside the cone and about
    1.8 s outside both the cone and its negative.  They use fixed
    representatives of both kinds, mapped by a seed-chosen symmetry of the
    cone and the norm (a signed permutation of the spatial coordinates,
    then an overall sign), so the seed changes the targets but not the work.
    """

    name = "curved"
    l1_reps = ((0.6, 0.1, -0.3), (0.25, 0.7, 0.05))
    lattice = (("plain", 1.0, 1e-9), ("sum", SQRT2, 1e-6), ("max", 1.0, 1e-6))
    # the smoothed projected-gradient fallback lands within about 2e-5 of the optimum
    l1_rel_tol = 1e-4

    def generate(self):
        n = _scaled(24, self.size)
        self.l2_pg, self.l2_gn, self.gam = (self._ring(n) for _ in range(3))
        self.l1 = []
        for rep in self.l1_reps[:_scaled(2, self.size)]:
            x = np.array(rep)
            if self.rng.integers(2):
                x[[1, 2]] = x[[2, 1]]
            x[1:] *= self.rng.choice([-1.0, 1.0], size=2)
            self.l1.append(x * self.rng.choice([-1.0, 1.0]))
        self.cfg = SamplerConfig(directions=128, search_directions=_scaled(48, self.size, 8),
                                 seed=int(self.rng.integers(0, 2**16)),
                                 refine_steps=_scaled(8, self.size, 2))
        self.lattice_cfg = SamplerConfig(search_directions=_scaled(192, self.size, 16),
                                         refine_steps=_scaled(48, self.size, 4))
        self.hemi = [v / np.linalg.norm(v) for v in self.rng.standard_normal((2, 3))]
        self.inputs = [self.l2_pg, self.l2_gn, self.gam, self.l1, self.cfg.seed, self.hemi]

        ops = [Op("point", "preimage_gauge_l2", lambda st, x=x: st["ice2"].preimage_gauge(x))
               for x in self.l2_pg]
        ops += [Op("point", "gauge_norm_l2", lambda st, x=x: st["ice2"].gauge_norm(x))
                for x in self.l2_gn]
        ops += [Op("point", "gamma", lambda st, x=x: st["gamma"](x)) for x in self.gam]
        ops += [Op("point", "preimage_gauge_l1", lambda st, x=x: st["ice1"].preimage_gauge(x))
                for x in self.l1]
        ops += [Op("task", f"lattice_{kind}", lambda st, kind=kind: ck.conormality_constant(
            st["lattice"], ConormalityKind(kind), self.lattice_cfg)) for kind, _, _ in self.lattice]
        ops.append(Op("task", "openness_constant",
                      lambda st: st["ice2"].openness_constant(self.cfg)))
        ops.append(Op("task", "is_surjective_sampled",
                      lambda st: st["ice2"].is_surjective(method="sampled", config=self.cfg)))
        ops += [Op("task", "hemicontinuity_schedule", lambda st, x=x, j=j: ck.hemicontinuity_schedule(
            st["spec"], x, steps=8, seed=self.cfg.seed + j)) for j, x in enumerate(self.hemi)]
        self.ops = ops

    def _ring(self, n: int) -> np.ndarray:
        """n unit targets whose angles to the cone axis are evenly spaced.

        The cost of a curved solve depends on that angle; turning the spatial
        part about the axis is a symmetry of the cone and the l2 norm.  So
        the seed sets a common offset of the angles and each target's turn.
        """
        phi = 2.0 * math.pi * (np.arange(n) + self.rng.uniform()) / n
        theta = self.rng.uniform(0.0, 2.0 * math.pi, n)
        return np.column_stack([np.cos(phi), np.sin(phi) * np.cos(theta),
                                np.sin(phi) * np.sin(theta)])

    def build(self):
        ice2 = ck.summing_map(OrderedSpace(SecondOrder(3), NormTag.L2))
        return {"ice2": ice2, "ice1": ck.summing_map(OrderedSpace(SecondOrder(3), NormTag.L1)),
                "gamma": ck.gamma(ice2), "spec": CorrespondenceSpec(ice2, slack=1e-3),
                "lattice": OrderedSpace(Orthant(2), NormTag.L2)}

    def check(self, answers):
        bad = {}
        k = 0
        for x in list(self.l2_pg) + list(self.l2_gn):
            p, m = _soc_parts(x)
            lo, hi = _norm(x, "l2"), _norm(p, "l2") + _norm(m, "l2")
            g = answers[k]
            if g is None or not lo * (1.0 - 1e-9) <= g <= hi + 1e-7 * hi:
                bad[k] = f"l2 gauge {g} outside [{lo}, {hi}]"
            k += 1
        for x in self.gam:
            c = answers[k]
            p, m = _soc_parts(x)
            if c is None or np.abs(c[:3] + c[3:] - x).max() > 1e-8:
                bad[k] = "T gamma(x) != x"
            elif not (_in_soc(c[:3], 1e-8) and _in_soc(-c[3:], 1e-8)):
                bad[k] = "gamma(x) leaves the cone"
            elif np.abs(c - np.concatenate([p, -m])).max() > 1e-8:
                bad[k] = "gamma(x) differs from the spectral parts"
            k += 1
        for x in self.l1:
            p, m = _soc_parts(x)
            lo, hi = _norm(x, "l1"), _norm(p, "l1") + _norm(m, "l1")
            g = answers[k]
            if g is None or not lo * (1.0 - 1e-9) <= g <= hi * (1.0 + self.l1_rel_tol):
                bad[k] = f"l1 gauge {g} outside [{lo}, {hi}]"
            k += 1
        for (kind, want, tol), got in zip(self.lattice, answers[k:]):
            if got is None or abs(got - want) > tol:
                bad[k] = f"lattice l2 {kind} constant {got} != {want}"
            k += 1
        K, rep = answers[k:k + 2]
        if K is None or not 1.0 - 1e-9 <= K <= SQRT2 + 1e-6:
            bad[k] = f"ice-cream openness constant {K} outside [1, sqrt 2]"
        if rep is None or not rep.surjective:
            bad[k + 1] = "ice-cream map reported not onto"
        k += 2
        for rows in answers[k:]:
            if rows is None or not np.all(np.isfinite(rows[:, 1])) or rows[:, 1].max() > 10.0:
                bad[k] = "hemicontinuity ratios blow up"
            k += 1
        return bad


WORKLOADS = {w.name: w for w in (PolySweep, PolyCold, Selection, Curved)}
