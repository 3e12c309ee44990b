"""The benchmark's span list names entry points that exist.

``perfbench/spans.py`` wraps each entry of its ``TARGETS`` list by looking
it up in the loaded conekit modules: the module, then the owning class, if
any, then the attribute in the owner's own ``__dict__``.  The benchmark's
self-test lives outside the default test paths, so a renamed or moved entry
point would otherwise only show when the benchmark runs.
"""
import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module, path):
    """(owner, attribute name) of one span target, found as the tracer finds it."""
    owner_name, _, attr = path.rpartition(".")
    owner = importlib.import_module(module)
    return (getattr(owner, owner_name) if owner_name else owner), attr


def test_every_span_target_resolves():
    for name, module, path in load_spans().TARGETS:
        owner, attr = resolve(module, path)
        assert callable(owner.__dict__.get(attr)), (name, module, path)


def test_tracer_installs_and_restores_every_binding():
    spans = load_spans()
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr in (resolve(m, p) for _, m, p in spans.TARGETS)]
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_lp_reader_takes_the_four_values_of_a_solve():
    # the tracer unpacks every ``LinearProgram.solve`` result as (status,
    # point, value, pivots); a fifth value would fail every traced op
    from conekit.simplex import LinearProgram, SolveStatus

    spans = load_spans()
    flags = dict.fromkeys(spans.FLAG_NAMES, 0)
    for rhs, status in ((1.0, SolveStatus.OPTIMAL), (-1.0, SolveStatus.INFEASIBLE)):
        lp = LinearProgram([1.0, 1.0], [[1.0, 1.0]], [True], [False, False])
        out = lp.solve([rhs])
        assert len(out) == 4 and out[0] is status
        assert spans._lp_result(out, flags) == out[3]
    assert flags["solver.lp.infeasible"] == 1 and flags["solver.lp.iter_limit"] == 0
