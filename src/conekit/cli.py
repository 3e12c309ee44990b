"""Command line front end.

Four operations on instance files:

    conekit check-surjective INSTANCE
    conekit constant  INSTANCE [--kind openness|plain|max|sum] [--report CSV]
    conekit decompose INSTANCE --points CSV [--report CSV] [--epsilon E]
    conekit lift      INSTANCE --function CSV --report CSV [--epsilon E]

Exit codes: 0 success, 1 parse or solver error, 2 the map is not onto,
3 infeasible data rows or a failed lift property.  All CSV output is
comma-separated with a header row, UTF-8, LF line endings, floats at 12
significant digits.  Identical inputs and seeds give byte-identical files.
"""
from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from dataclasses import replace

import numpy as np

from .funclift import LiftInfeasible, SampledFunction, SampledSpace, lift
from .instances import Instance, InstanceError, load_instance
from .sampling import SamplerConfig
from .selection import CorrespondenceSpec, EmptyCorrespondence, RightInverse, gamma

__all__ = ["main", "cmd_check_surjective", "cmd_constant", "cmd_decompose", "cmd_lift"]


def _fmt(v: float) -> str:
    v = float(v) + 0.0  # flush -0.0
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".12g")


def _fmt_vec(v) -> str:
    return ", ".join(_fmt(x) for x in np.asarray(v, dtype=float))


def _open_csv(path):
    fh = open(path, "w", encoding="utf-8", newline="")
    return fh, csv.writer(fh, lineterminator="\n")


def _read_rows(path, what: str) -> list[list[str]]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as e:
        raise InstanceError(what, str(e)) from None
    if len(rows) < 2:
        raise InstanceError(what, "needs a header row and at least one data row")
    return rows[1:]  # header is fixed by position, not by name


def _floats(cells: list[str], what: str) -> list[float]:
    try:
        out = [float(c) for c in cells]
        if not all(map(math.isfinite, out)):
            raise ValueError("values must be finite")
    except ValueError as e:
        raise InstanceError(what, str(e)) from None
    return out


def _selection(inst: Instance, epsilon: float) -> RightInverse:
    if inst.functionals:
        return RightInverse(inst.map, CorrespondenceSpec(inst.map, inst.functionals,
                                                         slack=epsilon))
    return gamma(inst.map)


# -- check-surjective --------------------------------------------------------

def cmd_check_surjective(inst: Instance, sampler: SamplerConfig, args) -> int:
    rep = inst.map.is_surjective()
    print("mode: exact")
    print(f"surjective: {'yes' if rep.surjective else 'no'}")
    if not rep.surjective and rep.unreachable is not None:
        print(f"witness: {_fmt_vec(rep.unreachable)}")
    if rep.note:
        print(f"note: {rep.note}")
    return 0 if rep.surjective else 2


# -- constant ----------------------------------------------------------------

def cmd_constant(inst: Instance, sampler: SamplerConfig, args) -> int:
    rep = inst.map.is_surjective()
    if not rep.surjective:
        print("surjective: no")
        if rep.unreachable is not None:
            print(f"witness: {_fmt_vec(rep.unreachable)}")
        return 2

    cmap = inst.map
    sup = cmap._kind_sup(args.kind, sampler)
    print(f"mode: {'exact' if sup.exact else 'sampled'}")
    print(f"constant {args.kind}: [{_fmt(sup.value)}, {_fmt(sup.upper())}]")
    if args.report:
        fh, w = _open_csv(args.report)
        with fh:
            w.writerow([f"u{i + 1}" for i in range(cmap.codomain_dim)] + ["value"])
            for u, v in zip(sup.directions, sup.values):
                w.writerow([_fmt(x) for x in u] + [_fmt(v)])
        print(f"report: {args.report}")
    return 0


# -- decompose ---------------------------------------------------------------

def cmd_decompose(inst: Instance, sampler: SamplerConfig, args) -> int:
    d = inst.map.codomain_dim
    n = inst.map.domain_dim
    points = []
    for i, row in enumerate(_read_rows(args.points, "points")):
        if len(row) != d:
            raise InstanceError(f"points row {i + 1}",
                                f"{len(row)} columns, instance dimension is {d}")
        points.append(_floats(row, f"points row {i + 1}"))

    ri = _selection(inst, args.epsilon)
    norm = inst.map.domain_norm
    blocks = norm.blocks
    rows_out = []
    bad = 0
    for i, x in enumerate(points):
        x = np.array(x)
        try:
            c = ri(x)
        except EmptyCorrespondence:
            bad += 1
            print(f"point {i}: infeasible")
            rows_out.append([str(i)] + [_fmt(v) for v in x] + ["0"]
                            + [""] * (n + len(blocks) + 1))
            continue
        xnorm = float(inst.map.codomain_norm.of(x))
        total = float(norm.of(c))
        ratio = total / xnorm if xnorm > 0.0 else 0.0
        print(f"point {i}: ratio {_fmt(ratio)}")
        rows_out.append([str(i)] + [_fmt(v) for v in x] + ["1"]
                        + [_fmt(v) for v in c]
                        + [_fmt(tag.of(c[a:b])) for a, b, tag in blocks]
                        + [_fmt(ratio)])

    if args.report:
        fh, w = _open_csv(args.report)
        with fh:
            w.writerow(["index"] + [f"x{i + 1}" for i in range(d)] + ["feasible"]
                       + [f"c{i + 1}" for i in range(n)]
                       + [f"norm{i + 1}" for i in range(len(blocks))] + ["ratio"])
            w.writerows(rows_out)
        print(f"report: {args.report}")
    return 3 if bad else 0


# -- lift ----------------------------------------------------------------------

def _read_function(path, d: int) -> SampledFunction:
    labels, tails, values = [], set(), []
    for i, row in enumerate(_read_rows(path, "function")):
        if len(row) != d + 2:
            raise InstanceError(f"function row {i + 1}",
                                f"{len(row)} columns, expected label, tail_flag and "
                                f"{d} coordinates")
        labels.append(row[0])
        flag = row[1].strip().lower()
        if flag in ("1", "true", "yes"):
            tails.add(row[0])
        elif flag not in ("0", "false", "no", ""):
            raise InstanceError(f"function row {i + 1}", f"bad tail flag {row[1]!r}")
        values.append(_floats(row[2:], f"function row {i + 1}"))
    try:
        space = SampledSpace(tuple(labels), frozenset(tails))
    except ValueError as e:
        raise InstanceError("function", str(e)) from None
    return SampledFunction(space, np.array(values))


def cmd_lift(inst: Instance, sampler: SamplerConfig, args) -> int:
    rep = inst.map.is_surjective()
    if not rep.surjective:
        print("surjective: no")
        if rep.unreachable is not None:
            print(f"witness: {_fmt_vec(rep.unreachable)}")
        return 2

    f = _read_function(args.function, inst.map.codomain_dim)
    ri = _selection(inst, args.epsilon)
    try:
        res = lift(ri, f, config=sampler)
    except LiftInfeasible as e:
        print(f"lift infeasible at sample {e.label!r}")
        return 2

    print(f"constant: {_fmt(res.report.constant)}")
    for c in res.report.checks:
        where = f" at {c.where}" if c.where else ""
        print(f"{c.name}: {'PASS' if c.passed else 'FAIL'} (worst {_fmt(c.worst)}{where})")

    base = args.report[:-4] if args.report.endswith(".csv") else args.report
    for k, comp in enumerate(res.components):
        path = f"{base}_component{k + 1}.csv"
        fh, w = _open_csv(path)
        with fh:
            w.writerow(["label", "tail_flag"] + [f"c{i + 1}" for i in range(comp.dim)])
            for label, v in zip(f.space.labels, comp.values):
                w.writerow([label, "1" if label in f.space.tail else "0"]
                           + [_fmt(x) for x in v])
        print(f"component {k + 1}: {path}")
    fh, w = _open_csv(args.report)
    with fh:
        w.writerow(["property", "passed", "worst", "where"])
        for c in res.report.checks:
            w.writerow([c.name, "1" if c.passed else "0", _fmt(c.worst), c.where])
    print(f"report: {args.report}")
    return 0 if res.report.ok() else 3


# -- wiring --------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="conekit",
                                     description="Openness constants, norm-controlled "
                                                 "decompositions, and function lifts for "
                                                 "linear maps restricted to cones.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("instance", help="instance file (JSON)")
        p.add_argument("--samples", type=int, default=None,
                       help="override the instance sampler's direction counts")
        p.add_argument("--seed", type=int, default=None,
                       help="override the instance sampler's seed")

    p = sub.add_parser("check-surjective", help="does the map cover the codomain?")
    p.add_argument("instance", help="instance file (JSON)")
    p.set_defaults(func=cmd_check_surjective, samples=None, seed=None)  # it reads no sampler

    p = sub.add_parser("constant", help="sphere sweep for a decomposition constant")
    common(p)
    p.add_argument("--kind", choices=["openness", "plain", "max", "sum"],
                   default="openness")
    p.add_argument("--report", default=None, help="per-direction CSV")
    p.set_defaults(func=cmd_constant)

    p = sub.add_parser("decompose", help="decompose points from a CSV")
    common(p)
    p.add_argument("--points", required=True, help="CSV of points, one per row")
    p.add_argument("--report", default=None, help="per-point CSV")
    p.add_argument("--epsilon", type=float, default=1e-3,
                   help="slack for instance functionals")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("lift", help="lift a sampled function across the cones")
    common(p)
    p.add_argument("--function", required=True,
                   help="CSV with label, tail_flag, coordinates")
    p.add_argument("--report", required=True, help="property report CSV")
    p.add_argument("--epsilon", type=float, default=1e-3,
                   help="slack for instance functionals")
    p.set_defaults(func=cmd_lift)
    return parser


def _override_sampler(base: SamplerConfig, args) -> SamplerConfig:
    if args.samples is not None:
        if args.samples < 1:
            raise InstanceError("--samples", "must be positive")
        base = replace(base, directions=args.samples, search_directions=args.samples)
    if args.seed is not None:
        if args.seed < 0:
            raise InstanceError("--seed", "must be nonnegative")
        base = replace(base, seed=args.seed)
    return base


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if (e.code or 0) == 0 else 1
    try:
        inst = load_instance(args.instance)
        sampler = _override_sampler(inst.sampler, args)
        return args.func(inst, sampler, args)
    except InstanceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ArithmeticError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
