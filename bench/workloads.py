"""The benchmark's workloads.

A workload builds its inputs from a seed in ``setup`` (a generator that
yields after each long step, so the runner can time the steps one by one),
hands out a fresh input per op from ``make_input`` (outside the timed
region), runs the op's stages through the library's public API in ``op``,
each timed on its own, and checks every stage's output against what the
input's construction guarantees in ``check`` (again outside the timed
region).

An op is a list of stage chains.  A stage fails when it raises, or when its
verdict or output contradicts the construction; once a stage has raised, the
rest of its chain is skipped and counted as failed too.  Each workload names
the failures it expects from known defects (``Defect``), with the ROADMAP
item that records them and a ceiling on the share of ops each may fail; any
other failure, or a known one over its ceiling, makes the run incorrect.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from typing import NamedTuple

import numpy as np

import checks
from spans import n_quads
from koenigsnets import cli, generate, isothermic, koenigs, netio, qnet
from koenigsnets.geom import DEFAULT_TOL as TOL


class Defect(NamedTuple):
    """A known defect: the stage failures it causes, and the largest share of
    ops it may fail in.  The ceilings lie well above the shares seen in the
    baseline runs (noted at each workload); run.Tally flags a defect only when
    its count of failed ops would be improbable at the ceiling, so a change
    that makes a known defect fail far more often is caught, and chance alone
    is not."""

    note: str  # what goes wrong, and the ROADMAP item that records it
    ceiling: float
    patterns: tuple  # (stage prefix, substring of the failure reason) pairs

    def matches(self, stage: str, why: str) -> bool:
        return any(stage.startswith(pre) and sub in why for pre, sub in self.patterns)


class Skipped:
    def __init__(self, reason: str):
        self.reason = reason


def error_name(exc: Exception) -> str:
    """The library's error class, also when it reached us as a CLI exit code."""
    return getattr(exc, "category", type(exc).__name__)


class Stages:
    """Runs an op's stages, timed by ``timer`` (a timing.OpTimer) when one is
    given, and keeps their results for the checks."""

    def __init__(self, timer=None):
        self.timer = timer
        self.out = {}  # stage -> result, Exception or Skipped
        self._broken = {}  # chain -> reason its first failed stage raised

    def run(self, chain: str, stage: str, fn, *args, **kwargs):
        if chain in self._broken:
            self.out[stage] = Skipped(self._broken[chain])
            return None
        try:
            res = self.timer.time(fn, *args, **kwargs) if self.timer else fn(*args, **kwargs)
        except Exception as exc:  # any error fails the stage; the benchmark records it and goes on
            # without its traceback, whose frames would keep the failed call's
            # arrays alive in a reference cycle and inflate peak memory
            self.out[stage] = exc.with_traceback(None)
            self._broken[chain] = f"skipped after {stage} raised {error_name(exc)}"
            return None
        self.out[stage] = res
        return res


def stage_failures(stages: Stages, verify) -> dict:
    """{stage: reason or None}.  ``verify(stage, result)`` returns a reason
    for a result that contradicts the construction, else None."""
    reasons = {}
    for stage, res in stages.out.items():
        if isinstance(res, Skipped):
            reasons[stage] = res.reason
        elif isinstance(res, Exception):
            reasons[stage] = f"raised {error_name(res)}: {res}"
        else:
            reasons[stage] = verify(stage, res)
    return reasons


def _verdict(value, expected: bool):
    return None if bool(value) == expected else f"verdict {bool(value)}, construction guarantees {expected}"


def _within(name: str, value: float, tol: float):
    return None if value <= tol else f"{name} residual {value:.3e} exceeds {tol:.0e}"


def _first(*reasons):
    return next((r for r in reasons if r is not None), None)


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


def koenigs_pipeline(st: Stages, chain: str, net):
    """The Koenigs pipeline the way the README calls it."""
    st.run(chain, f"{chain}.check_qnet", qnet.check_qnet, net)
    st.run(chain, f"{chain}.check_closedness", koenigs.check_closedness, net)
    kd = st.run(chain, f"{chain}.integrate_nu", koenigs.integrate_nu, net)
    st.run(chain, f"{chain}.dualize_net", koenigs.dualize_net, net, kd)
    st.run(chain, f"{chain}.moutard_lift", koenigs.moutard_lift, net, kd)


def verify_koenigs_pipeline(st: Stages, chain: str, f: np.ndarray, stage: str, res):
    """Reason a Koenigs-pipeline stage on a Koenigs net contradicts it."""
    kd = st.out.get(f"{chain}.integrate_nu")
    step = stage[len(chain) + 1:]
    if step == "check_qnet":
        return _verdict(res.passed, True)
    if step == "check_closedness":
        return _verdict(res.is_koenigs, True)
    if step == "integrate_nu":
        nu = res.nu.values
        ok = nu.shape == f.shape[:-1] and np.all(np.isfinite(nu)) and np.all(nu != 0)
        return None if ok else "nu is not a finite nonzero vertex function"
    if step == "dualize_net":
        closure, real = checks.dual_residuals(f, kd.nu.values, res.vertices)
        return _first(_within("dual one-form closure", closure, TOL.product),
                      _within("dual net realization", real, TOL.product))
    if step == "moutard_lift":
        return _first(_within("Moutard", checks.moutard_residual(res.points, res.coeffs), TOL.product),
                      _within("homogeneous lift",
                              checks.homogeneous_lift_residual(f, kd.nu.values, res.points), TOL.product))
    return None


def _random_similarity(rng, dim: int):
    """Rotation, scale in [0.1, 10] and translation in [-100, 100]^dim."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    scale = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    return scale * q.T, rng.uniform(-100.0, 100.0, dim)


class Koenigs2DLarge:
    """Koenigs pipeline on 160 x 160 isothermic nets moved by a fresh
    similarity per op.  Isothermic nets are Koenigs; random_koenigs_2d
    cannot reach this size (ROADMAP 4b)."""

    name = "koenigs-2d-large"
    extents = (160, 160)
    pool_size = 2
    # baseline: 1-2 % of ops over 40 runs, but up to 23 % in one run, because
    # a borderline pool net flips under many of its similarities
    known = (
        Defect("ROADMAP 4: closedness residual grows with translation, so the verdict flips under a similarity",
               0.5, (("koenigs.check_closedness", "verdict False"), ("koenigs.", "NotKoenigs"))),
    )

    def setup(self, seq: np.random.SeedSequence):
        pool_seq, warm_seq = seq.spawn(2)
        rng = np.random.default_rng(pool_seq)
        self.pool = []
        self._next = 0
        for _ in range(self.pool_size):
            self.pool.append(generate.random_isothermic_2d(self.extents, rng=rng).net)
            yield
        warm = generate.random_isothermic_2d((12, 12), rng=np.random.default_rng(warm_seq)).net
        self.op(warm)
        yield

    def make_input(self, rng):
        base = self.pool[self._next % self.pool_size]
        self._next += 1
        lin, shift = _random_similarity(rng, base.ambient_dim)
        return qnet.QNet(base.vertices @ lin + shift)

    def quads(self, inp) -> int:
        return n_quads(self.extents)

    def op(self, net, timer=None) -> Stages:
        st = Stages(timer)
        koenigs_pipeline(st, "koenigs", net)
        return st

    def check(self, net, st: Stages) -> dict:
        f = net.vertices
        return stage_failures(st, lambda stage, res: verify_koenigs_pipeline(st, "koenigs", f, stage, res))

    def fingerprint(self, net, st: Stages) -> bytes:
        return _digest(net.vertices)

    def close(self) -> None:
        pass


class CliFailed(Exception):
    """A CLI subcommand exited non-zero; ``category`` is the error it reported."""

    def __init__(self, command: str, rc: int, stderr: str):
        try:
            err = json.loads(stderr)["error"]
        except (ValueError, KeyError, TypeError):
            err = {"category": f"exit {rc}", "message": stderr.strip()}
        self.category = err["category"]
        super().__init__(f"koenigsnets {command} exited {rc}: {err['message']}")


def _cli(*argv) -> None:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.run(list(argv) + ["--format", "json"])
    if rc != 0:
        raise CliFailed(argv[0], rc, err.getvalue())


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


class IsothermicCli:
    """The CLI path in-process: generate three-leg, report, then christoffel
    and lift lightcone on a vertex-only copy written with netio, so labels
    and metric are recovered from the vertices."""

    name = "isothermic-cli"
    extents = (48, 48)
    # baseline: Moebius in every op; the other two in at most 1 % of ops
    known = (
        Defect("ROADMAP 4a: Moebius false negatives on valid isothermic nets", 1.0,
               (("report.moebius", "verdict False"),)),
        Defect("ROADMAP 4b: random_isothermic_2d fails its own nu check at 48x48", 0.05,
               (("generate", "raised NotKoenigs"), ("", "after generate raised NotKoenigs"))),
        Defect("ROADMAP 4b: the light-cone label check rejects valid 48x48 nets", 0.05,
               (("lift", "raised InconsistentCrossRatios"),)),
    )
    _report_keys = ("qnet", "koenigs_closedness", "koenigs_geometric", "circular", "isothermic", "moebius")

    def __init__(self, workdir: str):
        os.makedirs(workdir, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=workdir)
        self.paths = {k: os.path.join(self.dir, f"{k}.json") for k in ("gen", "report", "vertices", "dual", "lift")}

    def setup(self, seq: np.random.SeedSequence):
        self.op(("8", "8", str(seq.generate_state(1)[0])))
        yield

    def make_input(self, rng):
        return tuple(str(e) for e in self.extents) + (str(int(rng.integers(2**31))),)

    def quads(self, inp) -> int:
        return n_quads(inp[:2])

    def op(self, inp, timer=None) -> Stages:
        n1, n2, seed = inp
        p = self.paths
        st = Stages(timer)
        st.run("cli", "generate", _cli, "generate", "three-leg", "--extents", n1, n2, "--seed", seed,
               "--output", p["gen"])
        st.run("cli", "report", _cli, "report", "--input", p["gen"], "--output", p["report"])
        st.run("cli", "vertex_copy", self._vertex_copy)
        st.run("cli", "christoffel", _cli, "christoffel", "--input", p["vertices"], "--output", p["dual"])
        st.run("cli", "lift", _cli, "lift", "lightcone", "--input", p["vertices"], "--output", p["lift"])
        return st

    def _vertex_copy(self) -> None:
        doc = netio.load(self.paths["gen"])
        bare = netio.NetDocument(m=doc.m, extents=doc.extents, ambient_dim=doc.ambient_dim, vertices=doc.vertices)
        netio.save(bare, self.paths["vertices"])

    def check(self, inp, st: Stages) -> dict:
        docs = {}
        for key, stage in (("gen", "generate"), ("vertices", "vertex_copy"), ("dual", "christoffel"),
                           ("lift", "lift")):
            if not isinstance(st.out[stage], (Exception, Skipped)):
                docs[key] = _read_json(self.paths[key])
        reasons = stage_failures(st, lambda stage, res: self._verify(stage, docs))
        # report verdicts, one stage per check it ran
        if reasons.pop("report") is None:
            report = _read_json(self.paths["report"])
            for key in self._report_keys:
                entry = report.get(key)
                if entry is None:
                    reasons[f"report.{key}"] = "missing from the report"
                elif "category" in entry:
                    reasons[f"report.{key}"] = f"raised {entry['category']}: {entry.get('message')}"
                else:
                    reasons[f"report.{key}"] = _verdict(entry["passed"], True)
        else:
            cause = st.out["report"]
            why = cause.reason if isinstance(cause, Skipped) else f"skipped after report raised {error_name(cause)}"
            for key in self._report_keys:
                reasons[f"report.{key}"] = why
        return reasons

    def _verify(self, stage: str, docs: dict):
        if stage not in ("generate", "vertex_copy", "christoffel", "lift"):
            return None
        gen = docs["gen"]
        extents = tuple(int(e) for e in gen["extents"])

        def grid(doc, key, dim=None):
            return np.asarray(doc[key], dtype=float).reshape(extents + ((dim,) if dim else ()))

        f = grid(gen, "vertices", gen["ambient_dim"])
        if stage == "generate":
            return _within("metric labelling", checks.metric_label_residual(f, grid(gen, "s")), TOL.product)
        if stage == "vertex_copy":
            bare = docs["vertices"]
            same = np.array_equal(grid(bare, "vertices", gen["ambient_dim"]), f)
            extra = any(k in bare for k in ("s", "labels", "nu", "moutard"))
            return None if same and not extra else "vertex-only copy differs from the generated vertices"
        if stage == "christoffel":
            dual = docs["dual"]
            closure, real = checks.christoffel_residuals(f, dual["labels"], grid(dual, "vertices", gen["ambient_dim"]))
            return _first(
                _within("Christoffel one-form closure", closure, TOL.product),
                _within("Christoffel net realization", real, TOL.product),
                _within("s s* - 1", checks.inverse_residual(grid(gen, "s"), grid(dual, "s")), TOL.product),
            )
        mout = docs["lift"]["moutard"]
        y = grid(mout, "points", mout["dim"])
        quads = tuple(e - 1 for e in extents)
        coeffs = {tuple(int(x) for x in k.split(",")): np.reshape(v, quads) for k, v in mout["coeffs"].items()}
        iso, proj = checks.lightcone_residuals(f, y)
        return _first(_within("light-cone isotropy", iso, TOL.incidence),
                      _within("light-cone projection", proj, TOL.product),
                      _within("Moutard", checks.moutard_residual(y, coeffs), TOL.product))

    def fingerprint(self, inp, st: Stages) -> bytes:
        if isinstance(st.out["generate"], (Exception, Skipped)):
            return _digest(np.frombuffer(" ".join(inp).encode(), dtype=np.uint8))
        return _digest(np.asarray(_read_json(self.paths["gen"])["vertices"]))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


class Small3D:
    """Many small m = 3 nets, generated and checked inside the op."""

    name = "small-3d"
    k3d_extents = (6, 6, 6)
    lc_extents = (4, 4, 4)
    # baseline: 5.7 % and 11.8 % of ops over 40 runs, at most 8.7 % and 17 % in one
    known = (
        Defect("ROADMAP 4b: random_koenigs_3d emits nets its checkers reject", 0.15,
               (("k3d.", "DegenerateQuad"), ("k3d.", "VanishingLastComponent"), ("k3d.", "NotKoenigs"),
                ("k3d.check_closedness", "verdict False"))),
        Defect("ROADMAP 4b: random_isothermic_lightcone emits nets closedness rejects", 0.3,
               (("lightcone.check_closedness", "DegenerateQuad"), ("lightcone.check_closedness", "verdict False"))),
    )

    def setup(self, seq: np.random.SeedSequence):
        self.op(np.random.default_rng(seq))
        yield

    def make_input(self, rng):
        return np.random.default_rng(rng.integers(2**63))

    def quads(self, inp) -> int:
        return 2 * n_quads(self.k3d_extents) + n_quads(self.lc_extents)

    def op(self, rng, timer=None) -> Stages:
        st = Stages(timer)
        k3 = st.run("k3d", "k3d.generate", generate.random_koenigs_3d, self.k3d_extents, rng=rng)
        net = k3[0] if k3 is not None else None
        koenigs_pipeline(st, "k3d", net)
        st.run("k3d", "k3d.check_koenigs_3d_geometric", koenigs.check_koenigs_3d_geometric, net)
        q = st.run("q3d", "q3d.generate", generate.random_qnet_3d, self.k3d_extents, rng=rng)
        st.run("q3d", "q3d.check_closedness", koenigs.check_closedness, q)
        lc = st.run("lightcone", "lightcone.generate", generate.random_isothermic_lightcone, self.lc_extents,
                    rng=rng)
        lnet = lc[1].net if lc is not None else None
        st.run("lightcone", "lightcone.check_isothermic", isothermic.check_isothermic, lnet)
        st.run("lightcone", "lightcone.check_moebius", isothermic.check_moebius_characterizations, lnet)
        st.run("lightcone", "lightcone.check_closedness", koenigs.check_closedness, lnet)
        return st

    def check(self, rng, st: Stages) -> dict:
        return stage_failures(st, lambda stage, res: self._verify(st, stage, res))

    def _verify(self, st: Stages, stage: str, res):
        if stage == "k3d.generate":
            net, nu, mn = res
            return _first(_within("Moutard", checks.moutard_residual(mn.points, mn.coeffs), TOL.product),
                          _within("homogeneous lift",
                                  checks.homogeneous_lift_residual(net.vertices, nu.values, mn.points), TOL.product))
        if stage == "k3d.check_koenigs_3d_geometric":
            return _verdict(res.passed, True)
        if stage.startswith("k3d."):
            return verify_koenigs_pipeline(st, "k3d", st.out["k3d.generate"][0].vertices, stage, res)
        if stage == "q3d.check_closedness":
            return _verdict(res.is_koenigs, False)
        if stage == "lightcone.generate":
            mn, iso = res
            iso_res, proj = checks.lightcone_residuals(iso.net.vertices, mn.points)
            return _first(_within("light-cone isotropy", iso_res, TOL.incidence),
                          _within("light-cone projection", proj, TOL.product))
        if stage in ("lightcone.check_isothermic", "lightcone.check_moebius"):
            return _verdict(res.passed, True)
        if stage == "lightcone.check_closedness":
            return _verdict(res.is_koenigs, True)
        return None

    def fingerprint(self, rng, st: Stages) -> bytes:
        k3, q3, lc = (st.out[f"{c}.generate"] for c in ("k3d", "q3d", "lightcone"))
        return _digest(
            k3[0].vertices if isinstance(k3, tuple) else np.zeros(0),
            q3.vertices if isinstance(q3, qnet.QNet) else np.zeros(0),
            lc[1].net.vertices if isinstance(lc, tuple) else np.zeros(0),
        )

    def close(self) -> None:
        pass


def make(name: str, workdir: str):
    if name == Koenigs2DLarge.name:
        return Koenigs2DLarge()
    if name == IsothermicCli.name:
        return IsothermicCli(workdir)
    if name == Small3D.name:
        return Small3D()
    raise ValueError(f"unknown workload {name!r}")
