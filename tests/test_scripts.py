import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

from conekit.conemap import ConeMap

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
SRC = SCRIPTS.parent / "src"


# the l2 sum constant needs its refinement at d = 3 and 5, where the grid
# maximum sits 2.4e-7 below sqrt 2
@pytest.mark.parametrize("script,args", [("run_lattice_constants.py", ["--dim", "2"]),
                                         ("run_open_mapping_suite.py", ["--count", "6"]),
                                         ("run_lattice_constants.py", ["--dim", "3"]),
                                         ("run_lattice_constants.py", ["--dim", "5"])])
def test_script_runs_clean(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_lattice_script_fails_on_a_missed_closed_form(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("run_lattice_constants",
                                                  SCRIPTS / "run_lattice_constants.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "conormality_constant", lambda space, kind: 1.0 + 2e-6)
    for dim in ("2", "3"):
        monkeypatch.setattr(sys, "argv", ["run_lattice_constants.py", "--dim", dim])
        assert script.main() == 1
        assert "9 constants miss their closed form" in capsys.readouterr().out


def test_open_mapping_script_fails_on_a_missed_identity(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("run_open_mapping_suite",
                                                  SCRIPTS / "run_open_mapping_suite.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    radius = ConeMap.interior_radius
    monkeypatch.setattr(ConeMap, "interior_radius",
                        lambda self, config=None: (1.0 + 2e-6) * radius(self, config))
    monkeypatch.setattr(sys, "argv", ["run_open_mapping_suite.py", "--count", "4"])
    assert script.main() == 1
    out = capsys.readouterr().out
    assert "0 inconsistent" in out
    assert "2 instances miss r * K = 1 by more than 1e-06" in out


def test_open_mapping_script_counts_a_refused_radius(monkeypatch, capsys):
    # a radius refused at seed 1 is reported with its message, and the rest
    # of the batch still runs
    spec = importlib.util.spec_from_file_location("run_open_mapping_suite",
                                                  SCRIPTS / "run_open_mapping_suite.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    radius, calls = ConeMap.interior_radius, []

    def refused_once(self, config=None):
        calls.append(None)
        if len(calls) == 2:
            raise ArithmeticError("1 of 16 grid gauges not certified: r in [0.5, inf]")
        return radius(self, config)

    monkeypatch.setattr(ConeMap, "interior_radius", refused_once)
    monkeypatch.setattr(sys, "argv", ["run_open_mapping_suite.py", "--count", "4"])
    assert script.main() == 1
    out = capsys.readouterr().out
    assert ("seed 1: interior radius refused: 1 of 16 grid gauges not certified: "
            "r in [0.5, inf]") in out
    assert "4 instances in" in out and "2 surjective, 1 not, 1 inconsistent" in out


def test_open_mapping_script_fails_on_a_reachable_witness(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("run_open_mapping_suite",
                                                  SCRIPTS / "run_open_mapping_suite.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    verdict = ConeMap.is_surjective

    def reachable_witness(self, *args, **kw):
        rep = verdict(self, *args, **kw)
        if not rep.surjective:  # the image of the cone's first generator
            rep.unreachable = self.matrix @ self.cone.columns[:, 0]
        return rep

    monkeypatch.setattr(ConeMap, "is_surjective", reachable_witness)
    monkeypatch.setattr(sys, "argv", ["run_open_mapping_suite.py", "--count", "4"])
    assert script.main() == 1
    out = capsys.readouterr().out
    assert "2 surjective, 0 not, 2 inconsistent" in out
    assert out.count("witness reachable") == 2
