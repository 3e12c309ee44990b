"""In-memory span tracing around conekit's public entry points.

The tracer wraps functions and methods from outside the package: every
module's binding of a wrapped name is replaced, so a function imported by
name into several modules (``refine_on_sphere`` in conemap, selection,
ordered and cli, say) is traced wherever it is called from.  Spans live in
flat lists, each with a parent id and the id of its root span, and are
written out once the run is over.

A few spans also read a count from the wrapped call's return value: simplex
pivots from ``LinearProgram.solve``, active-set iterations from
``active_set_qp`` and Dykstra sweeps from ``projops.dykstra``.  Curved
solves are counted through Dykstra because the projected-gradient driver
reports ``iterations=0`` in its ``Solution``.
"""
from __future__ import annotations

import functools
import gzip
import sys
from time import perf_counter

import numpy as np

# (span name, module, attribute path inside the module)
TARGETS = (
    ("instances.parse", "conekit.instances", "parse_instance"),
    ("sampling.directions", "conekit.sampling", "sphere_directions"),
    ("sampling.refine", "conekit.sampling", "refine_on_sphere"),
    ("sampling.covering", "conekit.sampling", "covering_radius"),
    ("projops.dykstra", "conekit.projops", "dykstra"),
    ("solver.lp", "conekit.solver", "LinearProgram.solve"),
    ("solver.qp", "conekit.solver", "active_set_qp"),
    ("solver.sweep_value", "conekit.solver", "MinNormSweep.value"),
    ("solver.sweep_feasible", "conekit.solver", "MinNormSweep.feasible"),
    ("solver.project", "conekit.solver", "project_onto_slice"),
    ("solver.min_norm", "conekit.solver", "solve_min_norm"),
    ("solver.min_gauge", "conekit.solver", "solve_min_gauge"),
    ("solver.min_linear", "conekit.solver", "solve_min_linear"),
    ("solver.max_block", "conekit.solver", "solve_max_block_norm"),
    ("solver.check_feasible", "conekit.solver", "check_feasible"),
    ("solver.farkas", "conekit.solver", "farkas_certificate"),
    ("conemap.gauge_norm", "conekit.conemap", "ConeMap.gauge_norm"),
    ("conemap.min_preimage", "conekit.conemap", "ConeMap.min_preimage"),
    ("conemap.openness", "conekit.conemap", "ConeMap.openness_constant"),
    ("conemap.interior_radius", "conekit.conemap", "ConeMap.interior_radius"),
    ("conemap.is_surjective", "conekit.conemap", "ConeMap.is_surjective"),
    ("selection.gamma", "conekit.selection", "RightInverse.__call__"),
    ("selection.achievable_alpha", "conekit.selection", "achievable_alpha"),
    ("selection.bound", "conekit.selection", "selection_bound"),
    ("selection.tabulate", "conekit.selection", "tabulate_sphere"),
    ("selection.hemicontinuity", "conekit.selection", "hemicontinuity_schedule"),
    ("ordered.conormality", "conekit.ordered", "conormality_constant"),
    ("ordered.decompose", "conekit.ordered", "ando_decompose"),
    ("funclift.lift", "conekit.funclift", "lift"),
    ("funclift.fs_conormality", "conekit.funclift", "function_space_conormality"),
    ("cli.main", "conekit.cli", "main"),
)

SPAN_NAMES = tuple(name for name, _, _ in TARGETS)


def _lp_result(out, flags) -> int:
    status, _, _, pivots = out
    if status.value == "infeasible":
        flags["solver.lp.infeasible"] += 1
    elif status.value == "iteration_limit":
        flags["solver.lp.iter_limit"] += 1
    return pivots


def _qp_result(out, flags) -> int:
    return out[1]


def _dykstra_result(out, flags) -> int:
    if not out.converged:
        flags["projops.dykstra.unconverged"] += 1
    return out.iterations


# span name -> reader that returns the call's pivot or iteration count and tallies flags
RESULT_READERS = {
    "solver.lp": _lp_result,
    "solver.qp": _qp_result,
    "projops.dykstra": _dykstra_result,
}

FLAG_NAMES = ("solver.lp.infeasible", "solver.lp.iter_limit", "projops.dykstra.unconverged")


class Tracer:
    """Spans and counts of one traced phase; single-threaded by design."""

    def __init__(self):
        self.names: list[str] = []
        self.parent: list[int] = []
        self.root: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.amount: list[int] = []  # pivots or iterations the call reported
        self.flags = dict.fromkeys(FLAG_NAMES, 0)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        self.names.append(name)
        self.parent.append(parent)
        self.root.append(self.root[parent] if parent >= 0 else sid)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.amount.append(0)
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        reader = RESULT_READERS.get(name)
        flags = self.flags

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if reader is not None:
                self.amount[sid] = reader(out, flags)
            return out

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of each target in the loaded conekit modules."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "conekit" or key.startswith("conekit."))]
        for name, module, path in TARGETS:
            owner_name, _, attr = path.rpartition(".")
            owner = sys.modules[module]
            if owner_name:
                owner = getattr(owner, owner_name)
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original)
            self._set(owner, attr, wrapped)
            if owner_name:
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its child spans cover."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur)) if len(dur) else np.zeros(0)
        return dur - child

    def write(self, path) -> None:
        """Write the spans as gzip-compressed CSV, times in ns from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,root,name,start_ns,end_ns,amount\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{self.parent[i]},{self.root[i]},{name},"
                         f"{round((self.start[i] - t0) * 1e9)},"
                         f"{round((self.end[i] - t0) * 1e9)},{self.amount[i]}\n")
