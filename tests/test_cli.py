import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import koenigsnets
from koenigsnets import generate, koenigs, netio, qnet
from koenigsnets.cli import _STAGES, _build_parser, run

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

    @pytest.mark.parametrize("argv", [("check", "isothermic"), ("christoffel",), ("lift", "lightcone")])
    def test_non_circular_net_exits_1(self, tmp_path, capsys, argv):
        # a vertex-only Koenigs net, circularity residual 8.1e-2: a property that does not hold, not a degeneracy
        net = tmp_path / "net.json"
        netio.save(netio.NetDocument.from_net(generate.random_koenigs_2d((8, 8), rng=3)), net)
        assert cli(tmp_path, *argv, infile=net)[0] == 1
        assert re.search(r"error (NotCircular|NotConcircular)", capsys.readouterr().err)

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
        bad = generate.perturb_in_plane(koenigs_net_2d, rng=np.random.default_rng(13))
        net = tmp_path / "bad.json"
        netio.save(netio.NetDocument.from_net(bad), net)
        code, out = cli(tmp_path, "check", "koenigs", infile=net)
        assert code == 1
        assert out.read_text().startswith("FAIL")

    def test_kinds_are_those_of_the_stage_table(self):
        sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        action = next(a for a in sub.choices["check"]._actions if a.dest == "kind")
        assert list(action.choices) == [kind for kind, *_ in _STAGES]

    def test_moebius(self, tmp_path):
        # the three-leg generator's net, and the same net with its last corner moved along its circle
        iso = generate.random_isothermic_2d((6, 6), rng=np.random.default_rng(103))
        flipped = generate.flip_corner_cross_ratio(iso)[0]
        for name, net, code in (("iso.json", iso.net, 0), ("flipped.json", flipped, 1)):
            netio.save(netio.NetDocument.from_net(net), tmp_path / name)
            assert cli(tmp_path, "check", "moebius", "--format", "json", infile=tmp_path / name)[0] == code
            assert json.loads((tmp_path / "out.json").read_text())["check_moebius"]["passed"] == (code == 0)

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


def _edited(tmp_path, kind, edit):
    """A generated 3 x 3 document of ``kind`` with ``edit`` applied to its JSON object."""
    _, path = cli(tmp_path, "generate", kind, "--extents", "3", "3", outname="net.json")
    raw = json.loads(path.read_text())
    edit(raw)
    path.write_text(json.dumps(raw))
    return path


# (argv, document kind and edit or None, exit code, error category)
BAD_INPUT = {
    "ambient-dim-below-m": (["generate", "grid", "--extents", "3", "3", "3", "--ambient-dim", "2"], None, 2,
                            "DimensionTooLow"),
    "grid-axis-of-one": (["generate", "grid", "--extents", "1", "4"], None, 2, "InvalidValue"),
    "three-leg-axis-of-one": (["generate", "three-leg", "--extents", "1", "5"], None, 2, "InvalidValue"),
    **{f"{kind}-axis-of-{n}": (["generate", kind, "--extents", "5", n], None, 2, "InvalidValue")
       for kind in ("three-leg", "moutard", "lightcone") for n in ("0", "-2")},
    "moutard-power-overflow": (["generate", "moutard", "--extents", "3", "1100"], None, 3, "VanishingLastComponent"),
    "zero-tolerance": (["check", "qnet", "--tol-incidence", "0"], ("grid", lambda raw: None), 2, "InvalidValue"),
    "nan-tolerance": (["check", "koenigs", "--tol-product", "nan"], ("moutard", lambda raw: None), 2, "InvalidValue"),
    "infinite-tolerance": (["check", "koenigs", "--tol-incidence", "inf"], ("grid", lambda raw: None), 2,
                           "InvalidValue"),
    **{f"incidence-tolerance-{tol}": (["check", "koenigs", "--tol-incidence", tol], ("grid", lambda raw: None), 2,
                                      "InvalidValue") for tol in ("1", "2", "1e300")},
    **{f"{kind}-noise-{noise}": (["generate", kind, "--extents", "4", "4", "--noise", noise], None, 2, "InvalidValue")
       for kind in ("three-leg", "moutard", "lightcone") for noise in ("nan", "inf")},
    "nan-vertex": (["check", "qnet"], ("grid", lambda raw: raw["vertices"].__setitem__(0, float("nan"))), 2,
                   "InvalidValue"),
    "m-not-a-number": (["check", "qnet"], ("grid", lambda raw: raw.__setitem__("m", "two")), 2, "ParseError"),
    "string-vertex": (["check", "qnet"], ("grid", lambda raw: raw["vertices"].__setitem__(0, "x")), 2,
                      "ParseError"),
    "axis-of-one": (["check", "qnet"], ("grid", lambda raw: raw.__setitem__("extents", [1, 9])), 2,
                    "InvalidValue"),
    "zero-nu": (["lift", "homogeneous"], ("moutard", lambda raw: raw["nu"].__setitem__(0, 0.0)), 2,
                "InvalidValue"),
    "zero-label": (["christoffel"], ("three-leg", lambda raw: raw["labels"][0].__setitem__(0, 0.0)), 2,
                   "InvalidValue"),
    "moutard-overflow": (["generate", "moutard", "--extents", "4", "4", "--noise", "1e200"], None, 3,
                         "VanishingLastComponent"),
    "lightcone-overflow": (["generate", "lightcone", "--extents", "4", "4", "--noise", "1e200"], None, 3,
                           "ZeroE0Component"),
    "three-leg-overflow": (["generate", "three-leg", "--extents", "4", "4", "--noise", "1e200"], None, 3,
                           "CollinearTriple"),
    "negative-extents": (["check", "qnet"], ("grid", lambda raw: raw.__setitem__("extents", [-3, -3])), 2,
                         "SchemaMismatch"),
    "coefficients-not-an-object": (["check", "qnet"], ("lightcone", lambda raw: raw["moutard"].__setitem__(
        "coeffs", [1])), 2, "ParseError"),
    "short-coefficient-block": (["check", "qnet"], ("lightcone", lambda raw: raw["moutard"]["coeffs"].__setitem__(
        "0,1", [0.5, 0.5])), 2, "SchemaMismatch"),
    **{f"moutard-m-{len(ext)}": (["generate", "moutard", "--extents", *ext], None, 2, "UnsupportedDimension")
       for ext in (["5"], ["3"] * 5)},
    **{f"dual-base-{base}": (["dualize", "--base-black", base], ("moutard", lambda raw: None), 2, "InvalidValue")
       for base in ("inf", "nan")},
    # nu nu_i overflows or underflows on every edge, or (at 1e-160) the dual edge form overflows
    **{f"dual-bases-{base}": (["dualize", "--base-black", base, "--base-white", base], ("moutard", lambda raw: None), 3,
                              "ZeroNu") for base in ("1e300", "1e-300", "1e-160")},
    "coefficient-axes-out-of-range": (["check", "qnet"], ("lightcone", lambda raw: raw["moutard"]["coeffs"].__setitem__(
        "0,2", [0.5] * 4)), 2, "SchemaMismatch"),
}


class TestBadInput:
    """Bad input exits 2 (input error) or 3 (degeneracy) with one error line,
    never 1 (check failed) or a traceback."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", BAD_INPUT)
    def test_exit_code_and_one_error_line(self, tmp_path, capsys, case):
        argv, doc, code, category = BAD_INPUT[case]
        infile = None if doc is None else _edited(tmp_path, *doc)
        capsys.readouterr()
        assert cli(tmp_path, *argv, infile=infile)[0] == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error {category}: ")


def test_degeneracy_line_names_its_vertex(tmp_path, capsys):
    # the light-cone fill meets an isotropic diagonal difference at this size and seed
    assert cli(tmp_path, "generate", "lightcone", "--extents", "60", "60", "--seed", "0")[0] == 3
    assert capsys.readouterr().err == "error NullDiagonalDifference: vertex (19, 36): diagonal difference is isotropic\n"


def test_moutard_generation_at_30_is_koenigs(tmp_path):
    # the point-at-infinity guard is per vertex: a lift that grows along the net is not at infinity
    assert cli(tmp_path, "generate", "moutard", "--extents", "30", "30", outname="m.json")[0] == 0
    assert cli(tmp_path, "check", "koenigs", infile=tmp_path / "m.json")[0] == 0


def test_limit_signs_on_a_metric_that_does_not_alternate(tmp_path, capsys):
    # s = 1 everywhere: s* does not alternate along axis 2, so no sign switch makes it positive
    from koenigsnets import generate

    iso = generate.random_isothermic_2d((6, 6), rng=1)
    net = tmp_path / "net.json"
    netio.save(netio.NetDocument.from_net(iso.net, s=np.ones(36), labels=iso.labels.per_axis), net)
    assert cli(tmp_path, "christoffel", infile=net)[0] == 0
    capsys.readouterr()
    assert cli(tmp_path, "christoffel", "--limit-signs", infile=net)[0] == 1
    assert capsys.readouterr().err == "error NotAlternating: vertex (0, 1): sign does not alternate along axis 1\n"


class TestPipelines:
    def test_dualize(self, tmp_path):
        _, net = cli(tmp_path, "generate", "moutard", "--extents", "6", "6",
                     "--seed", "3", outname="net.json")
        code, dual = cli(tmp_path, "dualize", "--base-black", "1.0",
                         "--base-white", "-1.0", infile=net, outname="dual.json")
        assert code == 0
        code, _ = cli(tmp_path, "check", "koenigs", infile=dual)
        assert code == 0

    @pytest.mark.parametrize("extents", [("30", "30"), ("3", "4", "3", "3")])
    def test_dual_lifts_with_its_own_nu(self, tmp_path, extents):
        # the dual document carries nu* = 1 / nu, so the homogeneous lift of the dual passes its Moutard gate
        _, net = cli(tmp_path, "generate", "moutard", "--extents", *extents, outname="net.json")
        code, dual = cli(tmp_path, "dualize", infile=net, outname="dual.json")
        assert code == 0
        assert np.array_equal(netio.load(dual).nu, 1.0 / koenigs.integrate_nu(netio.load(net).to_net()).nu.values)
        assert cli(tmp_path, "lift", "homogeneous", infile=dual, outname="lift.json")[0] == 0

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
        assert doc.moutard.points.shape[-1] == doc.ambient_dim + 1

    def test_lift_lightcone(self, tmp_path):
        _, net = cli(tmp_path, "generate", "three-leg", "--extents", "5", "5",
                     "--seed", "3", outname="net.json")
        code, lifted = cli(tmp_path, "lift", "lightcone", infile=net, outname="lift.json")
        assert code == 0
        doc = netio.load(lifted)
        assert doc.moutard.points.shape[-1] == doc.ambient_dim + 2

    @pytest.mark.parametrize("seed", ["0", "3"])
    def test_lightcone_4d(self, tmp_path, seed):
        # every stage takes m = 4; the vertex-only copy recovers its labels and metric from the vertices
        assert cli(tmp_path, "generate", "lightcone", "--extents", "4", "4", "4", "4", "--seed", seed,
                   outname="net.json")[0] == 0
        full, bare = tmp_path / "net.json", tmp_path / "bare.json"
        doc = netio.load(full)
        assert doc.m == 4
        netio.save(netio.NetDocument(m=doc.m, extents=doc.extents, ambient_dim=doc.ambient_dim,
                                     vertices=doc.vertices), bare)
        for net in (full, bare):
            code, out = cli(tmp_path, "report", infile=net, outname="report.json")
            assert code == 0 and all(entry["passed"] for entry in json.loads(out.read_text()).values())
            assert cli(tmp_path, "christoffel", infile=net)[0] == 0
            assert cli(tmp_path, "lift", "lightcone", infile=net)[0] == 0

    def test_moutard_4d(self, tmp_path):
        assert cli(tmp_path, "generate", "moutard", "--extents", "3", "4", "3", "3", outname="net.json")[0] == 0
        net = tmp_path / "net.json"
        assert netio.load(net).m == 4
        for argv in (["check", "koenigs"], ["dualize"], ["lift", "homogeneous"]):
            assert cli(tmp_path, *argv, infile=net)[0] == 0, argv

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

    @pytest.mark.parametrize("argv", [("three-leg", "5", "5"), ("moutard", "5", "5"), ("lightcone", "3", "3", "3")])
    def test_report_runs_the_stages_whose_needs_passed(self, tmp_path, argv):
        _, net = cli(tmp_path, "generate", argv[0], "--extents", *argv[1:], outname="net.json")
        code, out = cli(tmp_path, "report", infile=net, outname="report.json")
        report = json.loads(out.read_text())
        assert code == 0
        assert set(report) == {key for _, key, _, needs in _STAGES if needs is None or report[needs]["passed"]}

    @pytest.mark.parametrize("kind", ["three-leg", "grid", "lightcone"])
    def test_report_on_a_net_in_the_plane(self, tmp_path, kind):
        # the vertex characterization of a 2d net needs N >= 3: its entry does not apply, the others pass
        _, net = cli(tmp_path, "generate", kind, "--extents", "6", "6", "--ambient-dim", "2", outname="net.json")
        code, out = cli(tmp_path, "report", infile=net, outname="report.json")
        assert code == 0
        report = json.loads(out.read_text())
        assert report.pop("koenigs_geometric") == {"passed": None, "category": "DimensionTooLow",
                                                   "message": "vertex characterizations need N >= 3"}
        assert len(report) == 5 and all(entry["passed"] for entry in report.values())
        assert cli(tmp_path, "check", "geometric", infile=net)[0] == 2

    @pytest.mark.parametrize("argv", [("three-leg", "5", "5"), ("lightcone", "3", "3", "3")])
    def test_report_builds_one_diagonal_frame(self, tmp_path, monkeypatch, argv):
        # the circles read the frame before the diagonal form takes it; after, they would build it again
        _, net = cli(tmp_path, "generate", argv[0], "--extents", *argv[1:], outname="net.json")
        calls = []
        frame = qnet._diagonal_frame
        monkeypatch.setattr(qnet, "_diagonal_frame", lambda abcd: calls.append(abcd.shape) or frame(abcd))
        assert cli(tmp_path, "report", infile=net, outname="report.json")[0] == 0
        assert len(calls) == 1

    def test_report_builds_the_diagonal_form_once(self, tmp_path, monkeypatch):
        _, net = cli(tmp_path, "generate", "three-leg", "--extents", "5", "5",
                     "--seed", "3", outname="net.json")
        # build_q_form calls include memo hits: count the computations of the
        # form, one per net and tolerances
        calls = []
        build = koenigs._build_q_form
        monkeypatch.setattr(koenigs, "_build_q_form", lambda *args: calls.append(args) or build(*args))
        assert cli(tmp_path, "report", infile=net, outname="report.json")[0] == 0
        assert len(calls) == 1

    def test_every_entry_carries_the_same_keys(self, tmp_path):
        keys = {"passed", "max_residual", "n_checked", "n_failed", "worst_at"}
        _, net = cli(tmp_path, "generate", "three-leg", "--extents", "5", "5",
                     "--seed", "3", outname="net.json")
        _, out = cli(tmp_path, "report", infile=net, outname="report.json")
        report = json.loads(out.read_text())
        assert len(report) == 6 and all(set(entry) == keys for entry in report.values())
        assert report["moebius"]["n_checked"] == 9 and report["qnet"]["worst_at"][0] == [0, 1]
        for kind, *_ in _STAGES:
            _, out = cli(tmp_path, "check", kind, "--format", "json", infile=net, outname=f"{kind}.json")
            assert set(json.loads(out.read_text())[f"check_{kind}"]) == keys

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

    def test_runs_in_one_process_share_no_values(self, monkeypatch):
        # the parser is built once per process: each run must parse into its own namespace
        from koenigsnets import cli as cli_module

        seen = []
        monkeypatch.setattr(cli_module, "_COMMANDS", {name: lambda args: seen.append(vars(args)) or 0
                                                      for name in cli_module._COMMANDS})
        common = {"tol_incidence": 1e-9, "tol_product": 1e-8, "format": "text", "input": "-", "output": "-"}
        assert run(["generate", "three-leg", "--extents", "5", "6", "--seed", "7", "--noise", "0.1",
                    "--ambient-dim", "4", "--tol-incidence", "1e-6", "--format", "json", "--output", "a.json"]) == 0
        assert run(["check", "qnet"]) == 0
        assert run(["generate", "grid", "--extents", "3", "3"]) == 0
        assert seen[0]["seed"] == 7 and seen[0]["format"] == "json" and seen[0]["tol_incidence"] == 1e-6
        assert seen[1] == dict(common, command="check", kind="qnet")
        assert seen[2] == dict(common, command="generate", kind="grid", extents=[3, 3], ambient_dim=3, seed=0,
                               noise=0.05)
        assert cli_module._build_parser() is cli_module._build_parser()
