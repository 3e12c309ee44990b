import contextlib
import io
import json
import math
import pathlib

import numpy as np
import pytest

from conekit import solver
from conekit.cli import main


LATTICE = {
    "dimension": 2,
    "norm": "l2",
    "cones": [
        {"variant": "orthant", "dim": 2},
        {"variant": "negation", "inner": {"variant": "orthant", "dim": 2}},
    ],
    "sampler": {"directions": 512, "search_directions": 96, "seed": 0},
}

ORTHANT_ID = {
    "dimension": 2,
    "norm": "l2",
    "cones": [{"variant": "orthant", "dim": 2}],
    "sampler": {"directions": 256, "search_directions": 64, "seed": 0},
}

RAY = {
    "dimension": 2,
    "norm": "l2",
    "cones": [{"variant": "generators", "generators": [[1.0, 0.0]]}],
    "map": [[1.0, 0.0], [0.0, 1.0]],
    "sampler": {"directions": 128, "search_directions": 32, "seed": 0},
}


def write_instance(tmp_path, doc, name="inst.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def bracket(stdout, kind):
    for line in stdout.splitlines():
        if line.startswith(f"constant {kind}:"):
            lo, hi = line.split("[")[1].rstrip("]").split(",")
            return float(lo), float(hi)
    raise AssertionError(f"no bracket line in {stdout!r}")


def test_check_surjective_lattice(tmp_path, capsys):
    inst = write_instance(tmp_path, LATTICE)
    code, out, _ = run(capsys, ["check-surjective", inst])
    assert code == 0
    assert "mode: exact" in out
    assert "surjective: yes" in out


def test_check_surjective_orthant_identity_witness(tmp_path, capsys):
    inst = write_instance(tmp_path, ORTHANT_ID)
    code, out, _ = run(capsys, ["check-surjective", inst])
    assert code == 2
    assert "surjective: no" in out
    wline = [l for l in out.splitlines() if l.startswith("witness:")][0]
    w = [float(v) for v in wline.split(":", 1)[1].split(",")]
    assert all(v < 0 for v in w)  # open third quadrant


@pytest.mark.parametrize("norm,lo_expect,hi_expect", [
    ("l1", 1.0, 1.0),
    ("linf", 2.0, 2.0),
])
def test_constant_sum_exact_on_polyhedral_norms(tmp_path, capsys, norm, lo_expect, hi_expect):
    inst = write_instance(tmp_path, {**LATTICE, "norm": norm})
    code, out, _ = run(capsys, ["constant", inst, "--kind", "sum"])
    assert code == 0
    assert "mode: exact" in out
    lo, hi = bracket(out, "sum")
    assert lo == pytest.approx(lo_expect, abs=1e-9)
    assert hi == pytest.approx(hi_expect, abs=1e-9)


def test_constant_sum_l2_bracket(tmp_path, capsys):
    inst = write_instance(tmp_path, LATTICE)
    code, out, _ = run(capsys, ["constant", inst, "--kind", "sum"])
    assert code == 0
    assert "mode: sampled" in out
    lo, hi = bracket(out, "sum")
    root2 = math.sqrt(2.0)
    assert lo == pytest.approx(root2, abs=1e-3)
    assert lo <= hi < 1.5


def test_constant_plain_and_report_csv(tmp_path, capsys):
    inst = write_instance(tmp_path, LATTICE)
    report = str(tmp_path / "dirs.csv")
    code, out, _ = run(capsys, ["constant", inst, "--kind", "plain",
                                "--report", report])
    assert code == 0
    lo, hi = bracket(out, "plain")
    assert lo == pytest.approx(1.0, abs=1e-6)
    raw = open(report, "rb").read()
    assert b"\r" not in raw  # LF endings only
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "u1,u2,value"
    assert len(lines) == 96 + 1  # search grid rows, header included


@pytest.mark.parametrize("kind,driver", [("max", "conic"), ("plain", "active_set_qp")])
def test_constant_reports_an_undecided_solve(tmp_path, capsys, monkeypatch, undecided_conic,
                                             kind, driver):
    # a kind objective whose solve hits its iteration limit has no value:
    # the command fails with an error line instead of printing a number
    if driver == "conic":
        undecided_conic(False)
    else:
        monkeypatch.setattr(solver, driver,
                            lambda *args, **kw: (None, 0, solver.SolveStatus.ITERATION_LIMIT))
    inst = write_instance(tmp_path, LATTICE)
    code, out, err = run(capsys, ["constant", inst, "--kind", kind])
    assert code == 1
    assert err.startswith("error:")
    assert "constant" not in out


def test_constant_rejects_nonsurjective(tmp_path, capsys):
    inst = write_instance(tmp_path, ORTHANT_ID)
    code, out, _ = run(capsys, ["constant", inst, "--kind", "sum"])
    assert code == 2
    assert "surjective: no" in out


def test_decompose_parts_and_csv(tmp_path, capsys):
    inst = write_instance(tmp_path, LATTICE)
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2\n3,-4\n0,0\n", encoding="utf-8")
    report = str(tmp_path / "dec.csv")
    code, out, _ = run(capsys, ["decompose", inst, "--points", str(pts),
                                "--report", report])
    assert code == 0
    assert "point 0: ratio 1.4" in out
    assert "point 1: ratio 0" in out
    lines = open(report, encoding="utf-8").read().splitlines()
    assert lines[0] == "index,x1,x2,feasible,c1,c2,c3,c4,norm1,norm2,ratio"
    row = lines[1].split(",")
    assert row[:4] == ["0", "3", "-4", "1"]
    assert row[4:8] == ["3", "0", "0", "-4"]
    assert row[8:] == ["3", "4", "1.4"]
    zero = lines[2].split(",")
    assert zero[3] == "1" and set(zero[4:8]) == {"0"}


def test_decompose_flags_infeasible_rows(tmp_path, capsys):
    inst = write_instance(tmp_path, RAY)
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2\n2,0\n0,1\n", encoding="utf-8")
    report = str(tmp_path / "dec.csv")
    code, out, _ = run(capsys, ["decompose", inst, "--points", str(pts),
                                "--report", report])
    assert code == 3
    assert "point 0: ratio 1" in out
    assert "point 1: infeasible" in out
    lines = open(report, encoding="utf-8").read().splitlines()
    bad = lines[2].split(",")
    assert bad[3] == "0" and all(v == "" for v in bad[4:])


def test_decompose_rejects_bad_width(tmp_path, capsys):
    inst = write_instance(tmp_path, LATTICE)
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2,x3\n1,2,3\n", encoding="utf-8")
    code, _, err = run(capsys, ["decompose", inst, "--points", str(pts)])
    assert code == 1
    assert "points row 1" in err


def test_lift_runs_the_five_checks(tmp_path, capsys):
    inst = write_instance(tmp_path, LATTICE)
    fn = tmp_path / "fn.csv"
    fn.write_text("label,tail_flag,c1,c2\n"
                  "a,0,1,0\n"
                  "b,0,0,-1\n"
                  "c,0,2,2\n"
                  "d,1,0.5,0\n", encoding="utf-8")
    report = str(tmp_path / "lift.csv")
    code, out, _ = run(capsys, ["lift", inst, "--function", str(fn),
                                "--report", report])
    assert code == 0
    assert out.count("PASS") == 5
    assert "constant:" in out
    comp = open(str(tmp_path / "lift_component1.csv"), encoding="utf-8").read().splitlines()
    assert comp[0] == "label,tail_flag,c1,c2"
    assert comp[1] == "a,0,1,0"
    assert comp[4].startswith("d,1,")
    rep = open(report, encoding="utf-8").read().splitlines()
    assert rep[0] == "property,passed,worst,where"
    assert len(rep) == 6
    assert all(r.split(",")[1] == "1" for r in rep[1:])


def test_lift_requires_surjective_map(tmp_path, capsys):
    inst = write_instance(tmp_path, RAY)
    fn = tmp_path / "fn.csv"
    fn.write_text("label,tail_flag,c1,c2\na,0,0,1\n", encoding="utf-8")
    code, out, _ = run(capsys, ["lift", inst, "--function", str(fn),
                                "--report", str(tmp_path / "r.csv")])
    assert code == 2
    assert "surjective: no" in out


def test_parse_errors_exit_one_and_name_the_field(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({**LATTICE, "norm": "l7"}), encoding="utf-8")
    code, _, err = run(capsys, ["check-surjective", str(p)])
    assert code == 1
    assert err.startswith("error: norm:")


def test_missing_instance_file(tmp_path, capsys):
    code, _, err = run(capsys, ["check-surjective", str(tmp_path / "nope.json")])
    assert code == 1
    assert "error:" in err


def test_bad_flag_exits_one(tmp_path, capsys):
    inst = write_instance(tmp_path, LATTICE)
    code, _, _ = run(capsys, ["constant", inst, "--kind", "bogus"])
    assert code == 1


def test_samples_flag_shrinks_the_grid(tmp_path, capsys):
    inst = write_instance(tmp_path, LATTICE)
    report = str(tmp_path / "dirs.csv")
    code, _, _ = run(capsys, ["constant", inst, "--kind", "sum",
                              "--samples", "64", "--report", report])
    assert code == 0
    lines = open(report, encoding="utf-8").read().splitlines()
    assert len(lines) == 64 + 1


def test_repeat_runs_are_byte_identical(tmp_path, capsys):
    inst = write_instance(tmp_path, LATTICE)
    report = str(tmp_path / "dirs.csv")
    argv = ["constant", inst, "--kind", "sum", "--seed", "11",
            "--report", report]
    code1, out1, _ = run(capsys, argv)
    first = open(report, "rb").read()
    code2, out2, _ = run(capsys, argv)
    second = open(report, "rb").read()
    assert (code1, out1) == (code2, out2)
    assert first == second


def test_decompose_repeat_runs_are_byte_identical(tmp_path, capsys):
    inst = write_instance(tmp_path, LATTICE)
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2\n1,1\n-2,0.5\n", encoding="utf-8")
    report = str(tmp_path / "dec.csv")
    argv = ["decompose", inst, "--points", str(pts), "--report", report]
    run(capsys, argv)
    first = open(report, "rb").read()
    run(capsys, argv)
    assert first == open(report, "rb").read()


# -- golden outputs ------------------------------------------------------------

# stdout and every report file of `decompose` and `lift` on lattice summing
# maps, captured before the right inverses were compiled once per map or spec;
# the compiled selection has to reproduce them byte for byte.  The `constant`
# outputs were captured before every kind went through one sphere sweep; one
# row differs since: the planar plain report at theta = pi prints the exact
# |x+| = 1.22464679915e-16 of the compiled gauge sweep, where the per-target
# cold solve printed 0.  The max outputs were captured again when the conic
# driver replaced a level-set bisection that stopped about 1e-10 below the
# closed form, which the test after the golden one checks
GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")

GOLDEN_DIMS = (2, 3, 5)

CONSTANT_KINDS = ("openness", "plain", "max", "sum")


def golden_outputs(tmp_path, d):
    """Exit codes, stdout and report files of decompose, lift and every
    constant kind on the d-dim lattice."""
    doc = {"dimension": d, "norm": "l2",
           "cones": [{"variant": "orthant", "dim": d},
                     {"variant": "negation", "inner": {"variant": "orthant", "dim": d}}],
           "sampler": {"directions": 64, "search_directions": 24, "seed": 3,
                       "refine_steps": 8}}
    inst = write_instance(tmp_path, doc)
    rng = np.random.default_rng(d)
    points = np.vstack([np.zeros(d), np.eye(d)[0], -np.eye(d)[-1],
                        rng.standard_normal((9, d))])
    pts = tmp_path / "pts.csv"
    pts.write_text("".join([",".join(f"x{i + 1}" for i in range(d)) + "\n"]
                           + [",".join(repr(float(v)) for v in p) + "\n" for p in points]),
                   encoding="utf-8")
    fn = tmp_path / "fn.csv"
    fn.write_text("".join(["label,tail_flag," + ",".join(f"x{i + 1}" for i in range(d)) + "\n"]
                          + [f"s{k:02d},{int(k >= 10)}," + ",".join(repr(float(v)) for v in row)
                             + "\n" for k, row in enumerate(rng.standard_normal((12, d)))]),
                  encoding="utf-8")
    out = {}
    runs = [("decompose", "decompose", ["--points", str(pts)]),
            ("lift", "lift", ["--function", str(fn)])]
    runs += [(f"constant_{kind}", "constant", ["--kind", kind]) for kind in CONSTANT_KINDS]
    for name, command, extra in runs:
        report = str(tmp_path / f"{name}.csv")
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            out[f"{name}.code"] = main([command, inst, *extra, "--report", report])
        out[f"{name}.stdout"] = stdout.getvalue().replace(str(tmp_path), "<tmp>")
    for path in sorted(tmp_path.glob("*.csv")):
        if path.name not in ("pts.csv", "fn.csv"):
            out[path.name] = path.read_text(encoding="utf-8")
    return out


@pytest.mark.parametrize("d", GOLDEN_DIMS)
def test_decompose_and_lift_match_golden_outputs(tmp_path, d):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[f"lattice{d}"]
    got = golden_outputs(tmp_path, d)
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


@pytest.mark.parametrize("d", GOLDEN_DIMS)
def test_golden_max_constants_match_the_closed_form(d):
    # the max decomposition of u on an l2 lattice costs max(|u+|_2, |u-|_2)
    report = json.loads(GOLDEN.read_text(encoding="utf-8"))[f"lattice{d}"]["constant_max.csv"]
    for row in report.splitlines()[1:]:
        *u, value = (float(v) for v in row.split(","))
        want = max(np.linalg.norm(np.maximum(u, 0.0)), np.linalg.norm(np.minimum(u, 0.0)))
        assert abs(value - want) <= 1e-11 * want, row


def test_loose_l2_functional_gives_exact_parts(tmp_path, capsys):
    # the functional caps |x+|_2 at (1.5 + epsilon)|x|_2, which (x+, x-) never
    # reaches, so the constrained selection is the exact lattice decomposition
    doc = {**LATTICE, "functionals": [{"matrix": [[1, 0, 0, 0], [0, 1, 0, 0]],
                                       "norm": "l2", "bound": 1.5}],
           "sampler": {"directions": 64, "search_directions": 24, "seed": 3}}
    inst = write_instance(tmp_path, doc)
    xs = [[0.5, -1.25], [3.0, 2.0], [-2.0, -0.75], [1.5, 0.0], [-4.0, 1.0]]
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2\n" + "".join(f"{a!r},{b!r}\n" for a, b in xs), encoding="utf-8")
    report = str(tmp_path / "parts.csv")
    code, out, _ = run(capsys, ["decompose", inst, "--points", str(pts), "--report", report])
    assert code == 0
    rows = open(report, encoding="utf-8").read().splitlines()[1:]
    for x, row in zip(xs, rows):
        plus, minus = np.maximum(x, 0.0), np.minimum(x, 0.0)
        parts = np.array([float(v) for v in row.split(",")[4:8]])
        np.testing.assert_allclose(parts, np.concatenate([plus, minus]), rtol=0, atol=1e-13)
    fn = tmp_path / "fn.csv"
    fn.write_text("label,tail_flag,x1,x2\n" + "".join(
        f"s{k},{int(k >= 3)},{a!r},{b!r}\n" for k, (a, b) in enumerate(xs)), encoding="utf-8")
    code, out, _ = run(capsys, ["lift", inst, "--function", str(fn),
                                "--report", str(tmp_path / "lift.csv")])
    assert code == 0
    line = next(s for s in out.splitlines() if s.startswith("pointwise sum:"))
    assert line.startswith("pointwise sum: PASS")
    assert float(line.split("worst ")[1].split()[0].rstrip(")")) == 0.0
