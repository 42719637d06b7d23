"""Benchmark of the koenigsnets library, its pipelines and its CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seconds S]

Workloads (see workloads.py for how each op is built and checked):

  koenigs-2d-large  Koenigs pipeline (check_qnet, check_closedness,
                    integrate_nu, dualize_net, moutard_lift) on 160 x 160
                    isothermic nets, each op moved by a fresh similarity.
  isothermic-cli    cli.run in-process on 48 x 48 nets: generate three-leg,
                    report, then christoffel and lift lightcone on a
                    vertex-only copy written with netio.
  small-3d          per op: random_koenigs_3d 6^3 through the Koenigs
                    pipeline and check_koenigs_3d_geometric; random_qnet_3d
                    6^3, which closedness must reject; random_isothermic_lightcone
                    4^3 through check_isothermic, the Moebius check and
                    closedness.

Ops run one after another in one process (a closed loop with one caller)
until ``--seconds`` have passed, BLAS and OpenMP pinned to one thread.
Input making and output checks are outside each op's timer.

Times are normalized to a reference core speed (timing.py): each stage of
an op and each set-up step is timed on its own, and its wall time is
multiplied by PROBE_REF_S over the mean of a ~1 ms probe (small numpy calls,
no library code) run right before and after it.  On a shared machine other
tenants slow a core by up to 70 % for seconds to minutes, which moved
un-normalized medians between runs by more than any usable bound.  Wall
times are kept in the record file.

End-to-end metrics (``--trace 0``):
  op_p50_s     median normalized op time
  quads_per_s  elementary quads in the ops' input nets / summed normalized
               op time
  setup_s      import time, measured from the first line of this file, plus
               the set-up (building the input pool and one warm-up op on a
               small input) up to the first timed op, normalized; the median
               of three cold set-ups: this process's own and two more, each
               in a fresh process started with --setup-only
  peak_rss_mb  peak resident memory of the process

``--trace 1`` runs half the time untraced, then half with every public
function of geom, qnet, koenigs, isothermic, generate, netio and cli wrapped
(spans.py), and reports per op: ``<layer>.<function>.{calls,self_s,failed}``,
``.us_per_elem`` (self time per quad of the net the call works on, per byte
for netio.saves/loads, per call otherwise), ``<layer>.{calls,self_s}``
summed over a layer's functions, ``netio.bytes``,
``uncovered_s`` (op time no span covers), ``trace_overhead_s`` (traced
minus untraced op_p50_s) and ``setup.<function>.self_s`` for the set-up.
Self times are normalized with the probe factor of the op stage (or set-up)
they fall in, so they add up to the traced op time.

Every run prints its metrics, op_p90_s over all ops where at least 100 ran, the
failed stages by reason and the environment, then one JSON line.  It also
writes the full record (and, traced, every span) under .bench_out/.
``attempted`` counts stage calls.  ``failed`` counts the stage calls that
failed for a reason no known defect of the workload covers; ``failed_share``
counts every failed stage call, known defects included.  The known defects
fail a random share of inputs, so their count changes with the number of ops
a timed run gets through; they are gated by their ceilings instead.
``correct`` is false when a stage fails for a reason its workload does not
list as a known defect, or when a known defect fails more ops than its
ceiling allows: a count that a failure rate at the ceiling would reach with a
chance below 1e-4.
"""
from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import timing  # noqa: E402  (imports numpy, so after the thread pinning)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("koenigs-2d-large", "isothermic-cli", "small-3d")
SETUPS = 3
P90_MIN_OPS = 100
CHANCE = 1e-4  # a known defect's count of failed ops this unlikely at its ceiling makes the run incorrect

# the library's modules, one layer each; errors only holds types
LAYERS = ("geom", "qnet", "koenigs", "isothermic", "generate", "netio", "cli")

# end-to-end metrics and their units
E2E_UNITS = {"op_p50_s": "s", "quads_per_s": "quads/s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics reported with --trace 1; the names an optimization is
# most likely to move (the full table goes to the record file)
_ISO = ("check_circular", "quad_cross_ratios", "check_isothermic", "recover_labels", "recover_metric",
        "christoffel", "lightcone_lift", "check_moebius_characterizations", "three_leg_evolve")
LAYER_METRICS = (
    [f"{layer}.{k}" for layer in LAYERS for k in ("self_s", "calls")]
    + [f"geom.{f}.{k}" for f in ("cross_ratio", "circularity_residual", "affine_rank") for k in ("calls", "self_s")]
    + ["geom.cross_ratio.us_per_elem", "qnet.check_qnet.self_s", "qnet.check_qnet.us_per_elem"]
    + [f"koenigs.{f}.self_s" for f in ("integrate_nu", "dualize_net", "moutard_lift", "check_closedness",
                                       "check_koenigs_2d_geometric", "check_koenigs_3d_geometric")]
    + ["koenigs.build_q_form.self_s", "koenigs.integrate_nu.us_per_elem", "koenigs.dualize_net.us_per_elem",
       "koenigs.check_koenigs_2d_geometric.us_per_elem", "koenigs.build_q_form.calls",
       "koenigs.build_q_form.failed"]
    + [f"isothermic.{f}.{k}" for f in _ISO for k in ("self_s", "calls")]
    + ["isothermic.quad_cross_ratios.us_per_elem", "isothermic.check_circular.us_per_elem"]
    + [f"generate.{f}.self_s" for f in ("random_koenigs_3d", "random_koenigs_nd", "random_qnet_3d",
                                        "random_isothermic_lightcone", "random_isothermic_2d")]
    + ["setup.generate.random_isothermic_2d.self_s", "setup.isothermic.three_leg_evolve.self_s",
       "setup.isothermic.recover_metric.self_s", "setup.koenigs.integrate_nu.self_s"]
    + ["netio.saves.self_s", "netio.loads.self_s", "netio.bytes"]
    + [f"cli.{c}.self_s" for c in ("generate", "report", "christoffel", "lift")]
    + ["uncovered_s", "trace_overhead_s", "traced_ops", "failed_share", "input_repeat_share"]
)
_SUFFIX_UNITS = {"calls": "calls/op", "self_s": "s/op", "failed": "calls/op", "us_per_elem": "us/elem"}
_NAME_UNITS = {"netio.bytes": "B/op", "uncovered_s": "s/op", "trace_overhead_s": "s", "traced_ops": "count",
               "failed_share": "ratio", "input_repeat_share": "ratio"}


def unit(name: str) -> str:
    if name.startswith("setup."):
        return "s"
    return E2E_UNITS.get(name) or _NAME_UNITS.get(name) or _SUFFIX_UNITS[name.rsplit(".", 1)[1]]


def parse_args(argv):
    p = argparse.ArgumentParser(description="koenigsnets benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and set up once, print the set-up time as JSON and exit")
    return p.parse_args(argv)


def import_library():
    """Import koenigsnets from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "koenigsnets" / "__init__.py").is_file():
        raise SystemExit(f"bench: no koenigsnets sources under {src}")
    sys.path.insert(0, str(src))
    import koenigsnets

    if Path(koenigsnets.__file__).resolve().parent != src / "koenigsnets":
        raise SystemExit(f"bench: imported koenigsnets from {koenigsnets.__file__}, not from {src}")


def environment(args) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "probe_ref_s": timing.PROBE_REF_S,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def binom_tail(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p), 0 < p <= 1."""
    if p >= 1.0:
        return float(k <= n)
    lp, lq = math.log(p), math.log1p(-p)
    return sum(math.exp(math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) + i * lp + (n - i) * lq)
               for i in range(max(k, 0), n + 1))


class Tally:
    """Stage outcomes and input fingerprints over the timed ops."""

    def __init__(self, known):
        self.known = known  # workloads.Defect entries
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()  # "stage: reason" -> count
        self.unknown = Counter()  # "stage: reason" -> count, for reasons no known defect covers
        self.hits = Counter()  # known defect -> ops it failed
        self.prints = set()
        self.ops = 0
        self.repeats = 0

    def add(self, reasons: dict, fingerprint: bytes) -> None:
        self.ops += 1
        self.repeats += fingerprint in self.prints
        self.prints.add(fingerprint)
        hit = set()
        for stage, why in reasons.items():
            self.attempted += 1
            if why is None:
                continue
            self.failed += 1
            defect = next((d for d in self.known if d.matches(stage, why)), None)
            key = f"{stage}: {why.split(':')[0] if why.startswith('raised') else why}"
            if defect is None:
                self.reasons[key] += 1
                self.unknown[key] += 1
            else:
                self.reasons[f"{key} [{defect.note}]"] += 1
                hit.add(defect)
        self.hits.update(hit)

    def over_ceiling(self) -> list:
        """Known defects that failed more ops than their ceiling allows."""
        return [d for d in self.known if binom_tail(self.hits[d], self.ops, d.ceiling) < CHANCE]


def timed_setup(wl, seq) -> float:
    """Normalized set-up time, probing the core between the set-up's steps."""
    total = 0.0
    before = timing.probe()
    t0 = perf_counter()
    for _ in wl.setup(seq):
        dt = perf_counter() - t0
        after = timing.probe()
        total += timing.normalized(dt, before, after)
        before = after
        t0 = perf_counter()
    return total


def cold_setups(args, n: int) -> list:
    """Set-up times of ``n`` fresh processes, started one after another."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    out = []
    for _ in range(n):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def run_ops(wl, rng, seconds: float, tally: Tally, ops: list, tracer=None) -> None:
    """Run ops until ``seconds`` have passed (at least one op), appending
    (normalized op time, quads, op wall time) to ``ops``."""
    t_end = perf_counter() + seconds
    while True:
        inp = wl.make_input(rng)
        timer = timing.OpTimer(tracer, tally.ops)
        st = wl.op(inp, timer)
        ops.append((timer.norm, wl.quads(inp), timer.wall))
        tally.add(wl.check(inp, st), wl.fingerprint(inp, st))
        if perf_counter() >= t_end:
            return


def p50(ops: list) -> float:
    return statistics.median(t for t, _, _ in ops)


def p90(times):
    """(op_p90_s, samples beyond it), defined when at least 100 ops ran."""
    if len(times) < P90_MIN_OPS:
        return None, 0
    q = statistics.quantiles(times, n=10)[-1]
    return q, sum(t > q for t in times)


def layer_metrics(tracer, ops: int) -> dict:
    table = tracer.layer_table("op")
    out = {}
    for name, row in table.items():
        out[f"{name}.calls"] = row["calls"] / ops
        out[f"{name}.self_s"] = row["self_s"] / ops
        out[f"{name}.failed"] = row["failed"] / ops
        out[f"{name}.us_per_elem"] = 1e6 * row["self_s"] / row["elems"] if row["elems"] else 0.0
    for layer in LAYERS:
        rows = [row for name, row in table.items() if name.startswith(layer + ".")]
        out[f"{layer}.calls"] = sum(row["calls"] for row in rows) / ops
        out[f"{layer}.self_s"] = sum(row["self_s"] for row in rows) / ops
    out["netio.bytes"] = sum(table.get(n, {}).get("elems", 0) for n in ("netio.saves", "netio.loads")) / ops
    out["uncovered_s"] = table["op"]["self_s"] / ops
    for name, row in tracer.layer_table("setup").items():
        out[f"setup.{name}.self_s"] = row["self_s"]
    return out


def run_workload(args) -> int:
    import_library()
    import numpy as np

    import spans
    import workloads

    import_s = perf_counter() - T_START
    env = environment(args)
    OUT.mkdir(exist_ok=True)
    root_seq = np.random.SeedSequence(args.seed)
    setup_seq, ops_seq = root_seq.spawn(2)
    wl = workloads.make(args.workload, str(OUT / "tmp"))
    tally = Tally(wl.known)
    ops = []
    record = {"environment": env}
    try:
        rng = np.random.default_rng(ops_seq)
        if not args.trace:
            first = timing.probe()
            setups = [timing.normalized(import_s, first, first) + timed_setup(wl, setup_seq)]
            if args.setup_only:
                print(json.dumps({"setup_s": setups[0]}))
                return 0
            setups += cold_setups(args, SETUPS - 1)
            run_ops(wl, rng, args.seconds, tally, ops)
            metrics = {
                "op_p50_s": p50(ops),
                "quads_per_s": sum(q for _, q, _ in ops) / sum(t for t, _, _ in ops),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            record.update(import_s=import_s, setups_s=setups)
        else:
            tracer = spans.Tracer(LAYERS)
            tracer.install()
            before = timing.probe()
            root = tracer.begin("setup", -2)
            for _ in wl.setup(setup_seq):
                pass
            tracer.finish(root)
            tracer.scales[root] = timing.scale(before, timing.probe())
            tracer.uninstall()
            run_ops(wl, rng, args.seconds / 2, tally, ops)
            n_plain = len(ops)
            tracer.install()
            run_ops(wl, rng, args.seconds / 2, tally, ops, tracer)
            tracer.uninstall()
            traced = ops[n_plain:]
            full = layer_metrics(tracer, len(traced))
            full.update(
                trace_overhead_s=p50(traced) - p50(ops[:n_plain]),
                traced_ops=len(traced),
            )
            tracer.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
            record["layers"] = full
            metrics = {name: full.get(name, 0.0) for name in LAYER_METRICS}
    finally:
        wl.close()
    metrics["failed_share"] = tally.failed / tally.attempted
    metrics["input_repeat_share"] = tally.repeats / tally.ops
    times = [t for t, _, _ in ops]
    q90, beyond = p90(times)
    raw_p50 = statistics.median(dt for _, _, dt in ops)
    over = tally.over_ceiling()
    defects = [{"note": d.note, "ceiling": d.ceiling, "ops_failed": tally.hits[d], "over_ceiling": d in over}
               for d in wl.known]
    record.update(
        op_times_s=times,
        op_wall_times_s=[dt for _, _, dt in ops],
        op_p50_wall_s=raw_p50,
        op_p90_s=q90,
        op_p90_samples_beyond=beyond,
        attempted=tally.attempted,
        failed=tally.failed,
        failures=dict(tally.reasons),
        unknown_failures=dict(tally.unknown),
        known_defects=defects,
        metrics=metrics,
    )
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for key, val in env.items():
        print(f"env {key} = {val}")
    print(f"ops {len(times)}, op_p50_s before normalizing {raw_p50:.6g} s")
    for key, val in metrics.items():
        print(f"{key} {val:.6g} {unit(key)}")
    if q90 is not None:
        print(f"op_p90_s {q90:.6g} s ({beyond} of {len(times)} ops beyond it)")
    for reason, n in sorted(tally.reasons.items()):
        print(f"failed {n} x {reason}")
    for d in defects:
        verdict = "OVER ITS CEILING" if d["over_ceiling"] else "within its ceiling"
        print(f"known defect in {d['ops_failed']} of {tally.ops} ops, {verdict} of {d['ceiling']:.0%}: {d['note']}")
    result = {
        "correct": not tally.unknown and not over,
        "attempted": tally.attempted,
        "failed": sum(tally.unknown.values()),
        "metrics": {k: {"value": metrics[k], "unit": unit(k)} for k in (LAYER_METRICS if args.trace else E2E_UNITS)},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so set-up and memory stay apart."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, timeout=900)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
