"""conekit benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload poly_sweep --seed 1 --seconds 28 --trace 0

The workloads are defined in ``workloads.py``.  A run generates the
workload's inputs from the seed, then repeats rounds of the workload's fixed
op list until the measuring time is spent (at least one round).  Every
round works on freshly built program objects.  After the timed phase every
answer is checked; the process exits 1 if any check failed.

Reported times are scaled to a reference machine speed, measured by a fixed
kernel that runs between ops, so that a shared host's drift in speed does
not show as a change of the program (``NOTES.md`` has the numbers).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half with spans around each layer's public entry points,
and prints the per-layer metrics, per round, from the traced half.  Spans go
to ``.perfbench_out/`` at the root of the checkout.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.

The process pins numpy's thread pools to one thread before numpy loads, and
builds conekit from ``src/`` beside this directory, never from an installed
copy.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("poly_sweep", "poly_cold", "selection", "curved")
SETUP_REPEATS = 5
# point_tail_ms reports the highest of these percentiles that leaves at least
# TAIL_BEYOND point ops of a round above it
TAIL_LEVELS = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_BEYOND = 10

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("point_per_s", "1/s"),
              ("point_p50_ms", "ms"), ("point_tail_ms", "ms"), ("task_p50_s", "s"),
              ("peak_rss_mb", "MB"))


# Median time of reference_kernel on the machine the notes describe.  Every
# reported time is scaled by KERNEL_REF_S / (median kernel time of the run),
# which cancels the drift in speed of a shared host; see NOTES.md.
KERNEL_REF_S = 0.018
# the kernel runs once per this much op time, so it samples the host's speed
# about as often as the ops do (about a tenth of the run)
KERNEL_EVERY_S = 0.2


@dataclass
class Round:
    wall: float
    latency: list[float]
    answers: list
    errors: dict[int, str]
    kernels: list[float]  # reference_kernel times taken before and during the round


def reference_kernel() -> float:
    """Time a fixed workload of the same kind as conekit's, without conekit.

    Dense pivots on a small tableau, small SVDs and solves, and a plain
    Python loop: the mix that dominates the solver.  Host contention slows
    it about as much as it slows the program (NOTES.md has the comparison).
    """
    rng = np.random.default_rng(12345)
    tableau = rng.standard_normal((12, 25))
    blocks = rng.standard_normal((80, 6, 6))
    t0 = perf_counter()
    for _ in range(120):
        A = tableau.copy()
        for k in range(10):
            j = int(np.argmax(np.abs(A[k, :-1])))
            A[k] /= A[k, j]
            col = A[:, j].copy()
            col[k] = 0.0
            A -= np.outer(col, A[k])
    for B in blocks:
        _, s, vt = np.linalg.svd(B)
        np.linalg.solve(B @ B.T + np.eye(6), vt[0] * s[0])
    total = 0
    for i in range(40000):
        total += i % 7
    return perf_counter() - t0


def run_rounds(wl, seconds: float, tracer=None) -> list[Round]:
    """Repeat the op list while another round still fits in ``seconds``.

    The reference kernel runs between ops, once per KERNEL_EVERY_S of op
    time, outside the op timers; its time is taken out of the round's wall.
    """
    rounds = []
    start = perf_counter()
    while True:
        kernels = [reference_kernel()]
        r0 = perf_counter()
        state = wl.build()
        latency, answers, errors = [], [], {}
        since_kernel = 0.0
        for i, op in enumerate(wl.ops):
            if since_kernel >= KERNEL_EVERY_S:
                kernels.append(reference_kernel())
                since_kernel = 0.0
            sid = tracer.open(f"op.{op.kind}.{op.label}") if tracer else -1
            t0 = perf_counter()
            try:
                value = op.fn(state)
            except Exception as e:  # a raising op is a failed op, not a failed run
                value = None
                errors[i] = traceback.format_exception_only(e)[-1].strip()
            latency.append(perf_counter() - t0)
            since_kernel += latency[-1]
            if tracer:
                tracer.close(sid)
            answers.append(value)
        wall = perf_counter() - r0 - sum(kernels[1:])
        rounds.append(Round(wall, latency, answers, errors, kernels))
        if perf_counter() - start + wall > seconds:
            return rounds


def judge(wl, rounds: list[Round]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every round of the run."""
    attempted = failed = 0
    messages = []
    first = rounds[0].answers
    for r in rounds:
        try:
            bad = wl.check(r.answers)
        except Exception:  # a malformed answer can break a check; fail the round
            reason = "check raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
            bad = dict.fromkeys(range(len(wl.ops)), reason)
        bad.update({i: "raised " + msg for i, msg in r.errors.items()})
        for i, op in enumerate(wl.ops):
            if op.exact and i not in bad and r.answers[i] != first[i]:
                bad[i] = "output differs from the first round"
        attempted += len(wl.ops)
        failed += len(bad)
        messages += [f"op {i} ({wl.ops[i].label}): {msg}" for i, msg in sorted(bad.items())]
    return attempted, failed, messages


def tail_level(points_per_round: int) -> float:
    for level in TAIL_LEVELS:
        if points_per_round * (100.0 - level) / 100.0 >= TAIL_BEYOND:
            return level
    return TAIL_LEVELS[-1]


def speed(rounds: list[Round]) -> float:
    """Factor that scales this run's times to the reference machine speed."""
    return KERNEL_REF_S / statistics.median(k for r in rounds for k in r.kernels)


def end_to_end(wl, rounds: list[Round], setup_s: float) -> tuple[dict, str]:
    is_point = np.array([op.kind == "point" for op in wl.ops])
    factor = speed(rounds)
    latency = np.array([r.latency for r in rounds]) * factor  # rounds x ops
    point, task = latency[:, is_point], latency[:, ~is_point]
    # the tail is taken per round and the median over rounds reported, so a
    # burst of contention in one round does not set it
    level = tail_level(point.shape[1])
    values = {
        "setup_s": setup_s * factor,
        "wall_s": statistics.median(r.wall for r in rounds) * factor,
        "point_per_s": point.size / float(point.sum()),
        "point_p50_ms": float(np.median(point)) * 1e3,
        "point_tail_ms": float(np.median(np.percentile(point, level, axis=1))) * 1e3,
        "task_p50_s": float(np.median(task)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beyond = round(point.shape[1] * (100.0 - level) / 100.0)
    note = (f"point_tail_ms is the median over {len(rounds)} rounds of each round's "
            f"p{level:g} of {point.shape[1]} point ops ({beyond} beyond it)\n"
            f"times are scaled by {factor:.4f} to the reference speed; unscaled: "
            f"setup_s {setup_s:.6g}, wall_s {statistics.median(r.wall for r in rounds):.6g}")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, note


def op_table(wl, rounds: list[Round]) -> list[str]:
    """Median latency of each op label, pooled over rounds."""
    by_label: dict[str, list[float]] = {}
    for i, op in enumerate(wl.ops):
        by_label.setdefault(f"{op.kind} {op.label}", []).extend(r.latency[i] for r in rounds)
    return [f"    {label}: {len(ts) // len(rounds)}/round, median {statistics.median(ts) * 1e3:.4g} ms"
            for label, ts in by_label.items()]


def per_layer(wl, tracer, traced: list[Round], plain: list[Round], fail_ratio: float) -> dict:
    from spans import SPAN_NAMES

    n = len(traced)
    self_t = tracer.self_times() * speed(traced)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    busy = dict.fromkeys(SPAN_NAMES, 0.0)
    amount = dict.fromkeys(("solver.lp", "solver.qp", "projops.dykstra"), 0)
    sweep_pivots = lp_in_points = 0
    in_gamma = {"solver.lp": 0, "solver.qp": 0}
    names = tracer.names
    for i, name in enumerate(names):
        if name not in calls:
            continue
        calls[name] += 1
        busy[name] += float(self_t[i])
        if name not in amount:
            continue
        amount[name] += tracer.amount[i]
        root = names[tracer.root[i]]
        if name in in_gamma and root.split("/")[0] == "op.point.gamma":
            in_gamma[name] += 1
        if name == "solver.lp":
            lp_in_points += root.startswith("op.point.")
            if tracer.parent[i] >= 0 and names[tracer.parent[i]] == "solver.sweep_value":
                sweep_pivots += tracer.amount[i]
    flags = tracer.flags
    n_points = sum(op.kind == "point" for op in wl.ops) * n
    n_gamma = sum(op.kind == "point" and op.label.split("/")[0] == "gamma" for op in wl.ops) * n

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name] / n, "count")
        out[f"{name}.self_s"] = (busy[name] / n, "s")
    out.update({
        "solver.lp.pivots": (amount["solver.lp"] / n, "count"),
        "solver.lp.pivots_per_call": (ratio(amount["solver.lp"], calls["solver.lp"]), "1"),
        "solver.lp.calls_per_point": (ratio(lp_in_points, n_points), "1"),
        "solver.lp.infeasible_ratio": (ratio(flags["solver.lp.infeasible"], calls["solver.lp"]), "1"),
        "solver.lp.iter_limit": (flags["solver.lp.iter_limit"] / n, "count"),
        "solver.sweep_value.pivots_per_call": (ratio(sweep_pivots, calls["solver.sweep_value"]), "1"),
        "solver.qp.iters": (amount["solver.qp"] / n, "count"),
        "projops.dykstra.iters": (amount["projops.dykstra"] / n, "count"),
        "projops.dykstra.unconverged_ratio": (
            ratio(flags["projops.dykstra.unconverged"], calls["projops.dykstra"]), "1"),
        "point.gamma.lp_per_op": (ratio(in_gamma["solver.lp"], n_gamma), "1"),
        "point.gamma.qp_per_op": (ratio(in_gamma["solver.qp"], n_gamma), "1"),
        "trace.overhead_ratio": (statistics.median(r.wall for r in traced) * speed(traced)
                                 / (statistics.median(r.wall for r in plain) * speed(plain))
                                 - 1.0, "1"),
        "fail_ratio": (fail_ratio, "1"),
    })
    return {name: {"value": v, "unit": unit} for name, (v, unit) in out.items()}


def environment() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    threads = ",".join(f"{v}={os.environ[v]}" for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return (f"env: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"cpu={cpu!r} python={platform.python_version()} numpy={np.__version__} "
            f"commit={git_commit()} {threads}")


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fresh_import():
    """Import conekit and the workloads from scratch; returns the workloads module.

    Set-up is timed from before ``import conekit``, several times per run,
    so the modules are dropped first.  The last import is the one in use.
    """
    for name in [m for m in sys.modules
                 if m in ("conekit", "workloads") or m.startswith("conekit.")]:
        del sys.modules[name]
    workloads = importlib.import_module("workloads")
    origin = Path(workloads.ck.__file__).resolve().parent
    if origin != SRC / "conekit":
        raise RuntimeError(f"conekit was imported from {origin}, not {SRC}")
    return workloads


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        size: float = 1.0) -> tuple[dict, list[str], dict]:
    """Set up, measure and check one workload.

    Returns the result object, the human-readable lines that precede it, and
    every round's answers by phase (for the self-test).  ``size`` scales the
    op list down for the self-test; runs from the command line use 1.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        workloads = fresh_import()
        wl = workloads.WORKLOADS[workload](seed, workdir, size)
        wl.build()
        setups.append(perf_counter() - t0)
    setup_s = statistics.median(setups)

    plain = run_rounds(wl, seconds / 2.0 if trace else seconds)
    traced, tracer = [], None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_rounds(wl, seconds / 2.0, tracer)
        finally:
            tracer.uninstall()

    attempted, failed, messages = judge(wl, plain + traced)
    lines = [f"workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)}",
             environment(),
             f"inputs={wl.digest()[:16]} ops/round={len(wl.ops)} "
             f"(point {sum(op.kind == 'point' for op in wl.ops)}) "
             f"rounds={len(plain)} untraced, {len(traced)} traced"]
    if trace:
        metrics = per_layer(wl, tracer, traced, plain, failed / attempted)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{workload}-{seed}.csv.gz"
        tracer.write(path)
        lines.append(f"spans: {len(tracer.names)} written to {path.relative_to(ROOT)}")
    else:
        metrics, note = end_to_end(wl, plain, setup_s)
        lines += [note, "op latency:"] + op_table(wl, plain)
    lines.append(f"fail_ratio={failed / attempted:.6g} ({failed} of {attempted} ops)")
    lines += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines += [f"FAILED {msg}" for msg in messages[:20]]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    answers = {"plain": [r.answers for r in plain], "traced": [r.answers for r in traced]}
    return result, lines, answers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one conekit benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "conekit" / "__init__.py").is_file():
        print(f"error: conekit sources not found under {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, lines, _ = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
