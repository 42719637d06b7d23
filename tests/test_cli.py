import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import koenigsnets
from koenigsnets import koenigs, netio
from koenigsnets.cli import run

ROOT = Path(__file__).resolve().parent.parent


def cli(tmp_path, *argv, infile=None, outname="out.json"):
    """Run the CLI with file-based input/output; returns (exit_code, path)."""
    out = tmp_path / outname
    argv = list(argv) + ["--output", str(out)]
    if infile is not None:
        argv += ["--input", str(infile)]
    return run(argv), out


class TestGenerate:
    def test_grid(self, tmp_path):
        code, out = cli(tmp_path, "generate", "grid", "--extents", "4", "4")
        assert code == 0
        doc = netio.load(out)
        assert doc.extents == (4, 4)

    def test_deterministic(self, tmp_path):
        _, a = cli(tmp_path, "generate", "moutard", "--extents", "5", "5",
                   "--seed", "7", outname="a.json")
        _, b = cli(tmp_path, "generate", "moutard", "--extents", "5", "5",
                   "--seed", "7", outname="b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        _, a = cli(tmp_path, "generate", "moutard", "--extents", "5", "5",
                   "--seed", "7", outname="a.json")
        _, b = cli(tmp_path, "generate", "moutard", "--extents", "5", "5",
                   "--seed", "8", outname="b.json")
        assert a.read_bytes() != b.read_bytes()

    def test_bad_extents(self, tmp_path):
        code, _ = cli(tmp_path, "generate", "three-leg", "--extents", "3", "3", "3")
        assert code == 2


class TestCheck:
    def test_grid_koenigs_passes(self, tmp_path):
        _, net = cli(tmp_path, "generate", "grid", "--extents", "4", "4", outname="net.json")
        code, out = cli(tmp_path, "check", "koenigs", infile=net)
        assert code == 0
        assert out.read_text().startswith("PASS check_koenigs")

    def test_moutard_checks(self, tmp_path):
        _, net = cli(tmp_path, "generate", "moutard", "--extents", "6", "6",
                     "--seed", "3", outname="net.json")
        for kind in ("qnet", "koenigs", "geometric"):
            code, _ = cli(tmp_path, "check", kind, infile=net)
            assert code == 0

    def test_moutard_not_circular(self, tmp_path, capsys):
        # generic Koenigs net is not circular: degeneracy-free hard failure
        _, net = cli(tmp_path, "generate", "moutard", "--extents", "6", "6",
                     "--seed", "3", outname="net.json")
        code, _ = cli(tmp_path, "check", "isothermic", infile=net)
        assert code == 1
        assert "NotCircular" in capsys.readouterr().err

    def test_three_leg_isothermic(self, tmp_path):
        _, net = cli(tmp_path, "generate", "three-leg", "--extents", "6", "6",
                     "--seed", "3", outname="net.json")
        code, out = cli(tmp_path, "check", "isothermic", "--format", "json", infile=net)
        assert code == 0
        payload = json.loads(out.read_text())["check_isothermic"]
        assert payload["passed"] and payload["max_residual"] <= 1e-9

    def test_lightcone_3d(self, tmp_path):
        _, net = cli(tmp_path, "generate", "lightcone", "--extents", "4", "4", "4",
                     "--seed", "3", outname="net.json")
        code, _ = cli(tmp_path, "check", "isothermic", infile=net)
        assert code == 0

    def test_failing_check_exits_1(self, tmp_path, koenigs_net_2d):
        from koenigsnets import generate

        bad = generate.perturb_in_plane(koenigs_net_2d, rng=np.random.default_rng(13))
        net = tmp_path / "bad.json"
        netio.save(netio.NetDocument.from_net(bad), net)
        code, out = cli(tmp_path, "check", "koenigs", infile=net)
        assert code == 1
        assert out.read_text().startswith("FAIL")

    def test_parse_error_exits_2(self, tmp_path):
        net = tmp_path / "bad.json"
        net.write_text("{not json")
        code, _ = cli(tmp_path, "check", "koenigs", infile=net)
        assert code == 2

    def test_degeneracy_exits_3(self, tmp_path):
        # f = (0,0), f1 = (1,0), f12 = (0,1), f2 = (1,1): both diagonals
        # are vertical, so the intersection point is at infinity
        v = np.zeros((2, 2, 2))
        v[0, 0] = (0.0, 0.0)
        v[1, 0] = (1.0, 0.0)
        v[1, 1] = (0.0, 1.0)
        v[0, 1] = (1.0, 1.0)
        doc = netio.NetDocument(m=2, extents=(2, 2), ambient_dim=2,
                                vertices=v.reshape(-1))
        net = tmp_path / "degen.json"
        netio.save(doc, net)
        code, _ = cli(tmp_path, "check", "koenigs", infile=net)
        assert code == 3


class TestPipelines:
    def test_dualize(self, tmp_path):
        _, net = cli(tmp_path, "generate", "moutard", "--extents", "6", "6",
                     "--seed", "3", outname="net.json")
        code, dual = cli(tmp_path, "dualize", "--base-black", "1.0",
                         "--base-white", "-1.0", infile=net, outname="dual.json")
        assert code == 0
        code, _ = cli(tmp_path, "check", "koenigs", infile=dual)
        assert code == 0

    def test_christoffel(self, tmp_path):
        _, net = cli(tmp_path, "generate", "three-leg", "--extents", "5", "5",
                     "--seed", "3", outname="net.json")
        code, dual = cli(tmp_path, "christoffel", infile=net, outname="dual.json")
        assert code == 0
        code, _ = cli(tmp_path, "check", "isothermic", infile=dual)
        assert code == 0

    def test_lift_homogeneous(self, tmp_path):
        _, net = cli(tmp_path, "generate", "moutard", "--extents", "5", "5",
                     "--seed", "3", outname="net.json")
        code, lifted = cli(tmp_path, "lift", "homogeneous", infile=net, outname="lift.json")
        assert code == 0
        doc = netio.load(lifted)
        assert doc.moutard is not None
        assert doc.moutard["dim"] == doc.ambient_dim + 1

    def test_lift_lightcone(self, tmp_path):
        _, net = cli(tmp_path, "generate", "three-leg", "--extents", "5", "5",
                     "--seed", "3", outname="net.json")
        code, lifted = cli(tmp_path, "lift", "lightcone", infile=net, outname="lift.json")
        assert code == 0
        doc = netio.load(lifted)
        assert doc.moutard["dim"] == doc.ambient_dim + 2

    def test_report(self, tmp_path):
        _, net = cli(tmp_path, "generate", "three-leg", "--extents", "5", "5",
                     "--seed", "3", outname="net.json")
        code, out = cli(tmp_path, "report", infile=net, outname="report.json")
        assert code == 0
        report = json.loads(out.read_text())
        for key in ("qnet", "koenigs_closedness", "koenigs_geometric",
                    "circular", "isothermic", "moebius"):
            assert report[key]["passed"]

    def test_report_on_net_without_interior_vertices(self, tmp_path):
        _, net = cli(tmp_path, "generate", "grid", "--extents", "2", "5", outname="net.json")
        code, out = cli(tmp_path, "report", infile=net, outname="report.json")
        assert code == 0
        assert all(entry["passed"] for entry in json.loads(out.read_text()).values())
        assert cli(tmp_path, "check", "geometric", infile=net)[0] == 0

    def test_report_builds_the_diagonal_form_once(self, tmp_path, monkeypatch):
        _, net = cli(tmp_path, "generate", "three-leg", "--extents", "5", "5",
                     "--seed", "3", outname="net.json")
        # build_q_form calls include memo hits: count the computations of the
        # form, one _diag_data per axis pair of this 2d net
        calls = []
        diag_data = koenigs._diag_data
        monkeypatch.setattr(koenigs, "_diag_data", lambda *args: calls.append(args) or diag_data(*args))
        assert cli(tmp_path, "report", infile=net, outname="report.json")[0] == 0
        assert len(calls) == 1

    def test_report_records_failure_category(self, tmp_path):
        _, net = cli(tmp_path, "generate", "moutard", "--extents", "5", "5",
                     "--seed", "3", outname="net.json")
        code, out = cli(tmp_path, "report", infile=net, outname="report.json")
        assert code == 0
        report = json.loads(out.read_text())
        assert report["qnet"]["passed"]
        assert not report["circular"]["passed"]
        assert "isothermic" not in report


class TestPackaging:
    def test_version_matches_pyproject(self):
        declared = re.search(r'^version\s*=\s*"([^"]+)"', (ROOT / "pyproject.toml").read_text(), re.M)
        assert declared and koenigsnets.__version__ == declared.group(1)

    def test_python_m_runs_the_cli(self, tmp_path):
        src = str(Path(koenigsnets.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "koenigsnets", "--help"], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0
        assert "usage: koenigsnets" in proc.stdout and "report" in proc.stdout
        _, net = cli(tmp_path, "generate", "grid", "--extents", "3", "3", outname="net.json")
        proc = subprocess.run([sys.executable, "-m", "koenigsnets", "report", "--input", str(net)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0 and json.loads(proc.stdout)["circular"]["passed"]
