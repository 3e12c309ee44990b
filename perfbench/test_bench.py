"""Self-test of the benchmark at a tiny size.

    PYTHONPATH=src python -m pytest -q perfbench/test_bench.py

Each workload runs in-process with its op list scaled down and one round per
phase.  The tests check the result format against BENCHMARK.json, the
seeding of the op list, that tracing changes no answer, and that the traced
pivot and iteration counts repeat exactly.
"""
import dataclasses
import enum
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import run as bench

TINY = 0.05
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def canon(value):
    """A comparable, hashable form of an answer, exact to the last bit."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            canon(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return tuple(canon(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, canon(v)) for k, v in value.items()))
    if isinstance(value, float):
        return float(value).hex()
    return value


def tiny_run(tmp_path, workload, seed=7, trace=False):
    workdir = Path(tempfile.mkdtemp(dir=tmp_path))
    return bench.run(workload, seed, 0.0, trace, workdir, size=TINY)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(tmp_path, workload):
    untraced, _, _ = tiny_run(tmp_path, workload)
    first, _, answers = tiny_run(tmp_path, workload, trace=True)
    second, _, _ = tiny_run(tmp_path, workload, trace=True)

    for result, declared in ((untraced, SPEC["end_to_end"]), (first, SPEC["per_layer"])):
        assert result["correct"], result
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in declared} == {
            name: m["unit"] for name, m in result["metrics"].items()}
        assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    assert all(untraced["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])

    assert [canon(a) for a in answers["plain"]] == [canon(a) for a in answers["traced"]]

    counts = {name for name, m in first["metrics"].items()
              if m["unit"] != "s" and name != "trace.overhead_ratio"}
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_op_list_follows_the_seed(tmp_path, workload):
    sys.path.insert(0, str(bench.SRC))
    import workloads

    cls = workloads.WORKLOADS[workload]
    digests = []
    for k, seed in enumerate((3, 3, 4)):
        workdir = tmp_path / str(k)
        workdir.mkdir()
        digests.append(cls(seed, workdir, TINY).digest())
    assert digests[0] == digests[1] != digests[2]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / bench.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "poly_sweep", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
