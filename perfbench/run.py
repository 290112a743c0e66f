"""irsvlc benchmark: time to SER curves, end to end and per layer.

Usage, from the root of a checkout:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each invocation of the simulator runs in a fresh worker process (worker.py),
one at a time (a closed loop with one client). The run repeats invocations
for as close to --seconds as whole invocations allow, at least three with
--trace 0, and reports medians. Every time is scaled by the host speed probe
measured around its invocation (probe.py), so co-tenant load on a shared host
does not move it; the unscaled medians are printed and kept in report.json.
The first invocation of every run uses the reference seed and is compared
with reference.json; later ones use seeds drawn from --seed.

--trace 0 prints the end-to-end metrics from untraced invocations.
--trace 1 cycles through a traced invocation at one worker, an untraced one
at one worker (the overhead baseline) and, for pool workloads, one at the
workload's worker count with a wrapper at the run_trials boundary only; it
prints the per-layer metrics.

A table of every metric with its unit and sample count goes to standard
output, a full report (run context, every invocation, absent spans) goes to
.perfbench_out/<workload>/report.json, and the last line of standard output
is the JSON result. The benchmark measures only its own processes and their
children: no machine-wide tracing, no cache dropping, no frequency pinning.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import REFERENCE_PROBE_S
from workloads import REF_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
BLAS_THREADS = "1"  # x the largest worker count (2) stays within 2 cores
HARD_LIMIT_S = 120.0  # start no invocation after this; the run must end by 180 s
MIN_INVOCATIONS = 3

LIMITS = ("measures only the benchmark's own processes and their children; "
          "no machine-wide tracing, no cache dropping, no CPU frequency or "
          "affinity control")

END_TO_END = (
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("cli.self_s", "s"),
    ("config.load_config_ms", "ms"),
    ("config.build_scene_ms", "ms"),
    ("config.build_scene_calls", "count"),
    ("scene.sample_ue_us", "us"),
    ("scene.sample_ue_us_p99", "us"),
    ("scene.sample_blockers_us", "us"),
    ("scene.sample_blockers_us_p99", "us"),
    ("scene.blockers_per_trial", "count"),
    ("scene.blockers_kept_frac", "ratio"),
    ("simulator.trial_rng_us", "us"),
    ("simulator.compute_trial_us", "us"),
    ("simulator.compute_trial_us_p99", "us"),
    ("simulator.compute_trial_self_us", "us"),
    ("simulator.run_trials_calls", "count"),
    ("simulator.pose_evals_per_trial", "count"),
    ("simulator.ser_curve_ms", "ms"),
    ("simulator.required_snr_us", "us"),
    ("simulator.run_trials_s", "s"),
    ("simulator.worker_busy_frac", "ratio"),
    ("simulator.pool_idle_s", "s"),
    ("channel.diffuse_precompute_ms", "ms"),
    ("channel.patches", "count"),
    ("channel.los_gain_us", "us"),
    ("channel.los_gain_us_p99", "us"),
    ("channel.los_zero_frac", "ratio"),
    ("channel.diffuse_capture_us", "us"),
    ("geometry.segment_box_calls_per_trial", "count"),
    ("geometry.segment_box_us", "us"),
    ("geometry.segment_box_hit_frac", "ratio"),
    ("irs.array_gain_us", "us"),
    ("irs.array_gain_us_p99", "us"),
    ("irs.total_sum_us", "us"),
    ("irs.elements_per_trial", "count"),
    ("irs.active_element_frac", "ratio"),
    ("irs.cascade_bytes_per_trial", "B"),
    ("trace.overhead_frac", "ratio"),
)


def _parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    for key in ("IRSVLC_THREADS", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP"):
        env.pop(key, None)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    return env


def run_worker(spec: dict, root: Path, env: dict, timeout: float) -> dict:
    """Run one worker to completion; its process group is killed if it outlives us."""
    proc = subprocess.Popen([sys.executable, str(WORKER), json.dumps(spec)],
                            cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    out = err = None
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if out is None:
        return {"ok": False, "errors": [f"worker timed out after {timeout:.0f} s"]}
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"ok": False,
                "errors": [f"worker exited {proc.returncode}: {err.strip()[-2000:]}"]}


def source_context(root: Path) -> dict:
    src = sorted((root / "src" / "irsvlc").glob("*.py"))
    digest = hashlib.sha256()
    loc = 0
    for path in src:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        loc += data.count(b"\n")
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              capture_output=True, check=False)
        commit = done.stdout.strip() or None
    return {"src.loc": loc, "src.sha256": digest.hexdigest(), "git_commit": commit}


# -- aggregation ---------------------------------------------------------------


def percentile(values, q: int) -> float:
    """Inclusive-method percentile, q in 1..99."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Metrics:
    """Named values with units and sample counts; absent ones read 0."""

    def __init__(self, table):
        self.units = dict(table)
        self.values: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.absent: list[str] = []

    def set(self, name: str, value, n: int) -> None:
        if value is None or n == 0:
            self.absent.append(name)
            value, n = 0.0, 0
        self.values[name] = float(value)
        self.samples[name] = n

    def median(self, name: str, values) -> None:
        values = list(values)
        self.set(name, statistics.median(values) if values else None, len(values))

    def ratio(self, name: str, num: float, den: float, n: int) -> None:
        self.set(name, num / den if den else None, n)

    def result(self) -> dict:
        return {name: {"value": self.values[name], "unit": unit}
                for name, unit in self.units.items()}


def end_to_end(runs: list[dict]) -> Metrics:
    """Medians over the invocations; times are scaled to the reference host speed."""
    ok = [r for r in runs if r["ok"]]
    m = Metrics(END_TO_END)
    for name in ("run_s", "cpu_s", "setup_s"):
        m.median(name, (r[name] * REFERENCE_PROBE_S / r["probe_s"] for r in ok))
    m.median("peak_rss_mb", (r["peak_rss_mb"] for r in ok))
    return m


def per_layer(wl, runs: list[dict]) -> Metrics:
    ok = [r for r in runs if r["ok"]]
    traced = [r for r in ok if r["kind"] == "traced"]
    samples: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    for r in traced:
        for k, v in r["samples"].items():
            samples.setdefault(k, []).extend(v)
        for k, v in r["counts"].items():
            counts[k] = counts.get(k, 0) + v
    n = len(traced)
    evals = wl.trial_evals * n
    m = Metrics(PER_LAYER)

    def p50(name, source=None):
        m.median(name, samples.get(source or name, ()))

    def p99(name, source):
        values = samples.get(source, ())
        m.set(name, percentile(values, 99) if values else None, len(values))

    p50("cli.self_s")
    p50("config.load_config_ms")
    p50("config.build_scene_ms")
    m.ratio("config.build_scene_calls", counts.get("build_scene_calls", 0), n, n)
    p50("scene.sample_ue_us")
    p99("scene.sample_ue_us_p99", "scene.sample_ue_us")
    p50("scene.sample_blockers_us")
    p99("scene.sample_blockers_us_p99", "scene.sample_blockers_us")
    m.ratio("scene.blockers_per_trial", counts.get("blockers_sampled", 0),
            evals if counts.get("sample_blockers_calls") else 0,
            counts.get("sample_blockers_calls", 0))
    m.ratio("scene.blockers_kept_frac", counts.get("blockers_kept", 0),
            counts.get("blockers_sampled", 0), counts.get("los_calls", 0))
    p50("simulator.trial_rng_us")
    p50("simulator.compute_trial_us")
    p99("simulator.compute_trial_us_p99", "simulator.compute_trial_us")
    p50("simulator.compute_trial_self_us")
    m.ratio("simulator.run_trials_calls", counts.get("run_trials_calls", 0), n, n)
    m.ratio("simulator.pose_evals_per_trial", counts.get("sample_ue_calls", 0),
            counts.get("unique_trials", 0), counts.get("sample_ue_calls", 0))
    p50("simulator.ser_curve_ms")
    p50("simulator.required_snr_us")

    pool = [rec for r in ok if r["kind"] == "boundary" and r["threads"] == wl.threads
            for rec in r["boundary"]]
    m.median("simulator.run_trials_s", (rec["wall_s"] for rec in pool))
    m.median("simulator.worker_busy_frac",
             (rec["worker_cpu_s"] / (rec["wall_s"] * rec["threads"]) for rec in pool))
    m.median("simulator.pool_idle_s",
             (rec["wall_s"] * rec["threads"] - rec["worker_cpu_s"] for rec in pool))

    p50("channel.diffuse_precompute_ms")
    m.ratio("channel.patches", counts.get("patches", 0), n, n)
    p50("channel.los_gain_us")
    p99("channel.los_gain_us_p99", "channel.los_gain_us")
    m.ratio("channel.los_zero_frac", counts.get("los_zero", 0), counts.get("los_calls", 0),
            counts.get("los_calls", 0))
    p50("channel.diffuse_capture_us")
    m.ratio("geometry.segment_box_calls_per_trial", counts.get("segment_box_calls", 0),
            evals, n)
    p50("geometry.segment_box_us")
    m.ratio("geometry.segment_box_hit_frac", counts.get("segment_box_hits", 0),
            counts.get("segment_box_calls", 0), counts.get("segment_box_calls", 0))
    p50("irs.array_gain_us")
    p99("irs.array_gain_us_p99", "irs.array_gain_us")
    p50("irs.total_sum_us")
    m.ratio("irs.elements_per_trial", counts.get("irs_elements", 0), evals, n)
    m.ratio("irs.active_element_frac", counts.get("irs_active", 0),
            counts.get("irs_elements", 0), counts.get("irs_elements", 0))
    m.ratio("irs.cascade_bytes_per_trial", counts.get("irs_bytes", 0), evals, n)

    def scaled(r):
        return r["run_s"] * REFERENCE_PROBE_S / r["probe_s"]

    plain = [scaled(r) for r in ok if r["kind"] == "boundary" and r["threads"] == 1]
    traced_s = [scaled(r) for r in traced]
    overhead = (statistics.median(traced_s) / statistics.median(plain) - 1.0
                if plain and traced_s else None)
    m.set("trace.overhead_frac", overhead, min(len(plain), len(traced_s)))
    return m


# -- main ------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    t_process = time.monotonic()
    # on SIGTERM unwind through run_worker, which kills the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "irsvlc" / "__init__.py").is_file():
        print(f"perfbench: no irsvlc sources under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    out_root = root / ".perfbench_out" / wl.name
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    env = worker_env(root)

    # warm-up: imports the package once (writes bytecode caches) and reports
    # the interpreter and library versions
    context = run_worker({"mode": "context"}, root, env, timeout=120)
    if not context.get("ok"):
        print(f"perfbench: warm-up failed: {context.get('errors')}", file=sys.stderr)
        return 2
    context = context["context"]
    context.update(source_context(root))
    context["nproc"] = os.cpu_count()
    context["cpus_usable"] = len(os.sched_getaffinity(0))
    context["blas_threads"] = BLAS_THREADS

    if args.trace:
        kinds = [("traced", 1), ("boundary", 1)]
        if wl.threads > 1:
            kinds.append(("boundary", wl.threads))
        min_invocations = len(kinds)
    else:
        kinds = [("plain", wl.threads)]
        min_invocations = MIN_INVOCATIONS
    # one seed per cycle through the kinds, so traced and untraced invocations
    # of a cycle see the same inputs
    seed_rng = random.Random(args.seed)
    runs: list[dict] = []
    t_start = time.monotonic()
    seed = REF_SEED
    while True:
        kind, threads = kinds[len(runs) % len(kinds)]
        if runs and len(runs) % len(kinds) == 0:
            seed = seed_rng.randrange(2, 2**31)
        spec = {"workload": wl.name, "seed": seed, "threads": threads, "mode": kind,
                "out_dir": str(out_root / f"{len(runs):03d}")}
        r = run_worker(spec, root, env, timeout=170.0 - (time.monotonic() - t_process))
        r.update(kind=kind, threads=threads, seed=seed)
        runs.append(r)
        now = time.monotonic()
        cycle = (now - t_start) / len(runs)
        # stop when one more invocation would end further from --seconds than now
        if (len(runs) >= min_invocations and now + cycle / 2 - t_start > args.seconds) or \
                now - t_process > HARD_LIMIT_S:
            break

    metrics = per_layer(wl, runs) if args.trace else end_to_end(runs)
    failed = sum(1 for r in runs if not r["ok"])
    checks = [r.get("check") or {} for r in runs]
    ref_checks = [c for r, c in zip(runs, checks) if r["seed"] == REF_SEED and c]
    devs = [c["readout_dev_db"] for c in ref_checks if c.get("readout_dev_db") is not None]
    # printed and kept in report.json, but not gated: throughput is run_s in
    # another form, and the two checks read 0 when the code is correct
    extra = {
        "failed_frac": (failed / len(runs), "ratio", len(runs)),
        "readout_dev_db": (max(devs) if devs else None, "dB", len(devs)),
    }
    if not args.trace:
        ok = [r for r in runs if r["ok"]]
        if ok:
            extra["trial_evals_per_s"] = (wl.trial_evals / metrics.values["run_s"], "1/s",
                                          len(ok))
        # the unscaled figures, and how fast the host ran (1 = reference speed)
        for name in ("run_s", "cpu_s", "setup_s"):
            values = [r[name] for r in ok]
            extra[f"raw.{name}"] = (statistics.median(values) if values else None, "s",
                                    len(values))
        speeds = [REFERENCE_PROBE_S / r["probe_s"] for r in ok]
        extra["host_speed"] = (statistics.median(speeds) if speeds else None, "ratio",
                               len(speeds))
    context["curves_sha256"] = ref_checks[0]["sha256"] if ref_checks else None
    context["curves_sha_match"] = all(c.get("sha_match") for c in ref_checks) \
        if ref_checks else None

    for name, unit in metrics.units.items():
        tag = "  (absent)" if name in metrics.absent else ""
        print(f"{name:40s} {metrics.values[name]:>16.6g} {unit:6s} n={metrics.samples[name]}{tag}")
    for name, (value, unit, n) in extra.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name:40s} {shown:>16s} {unit:6s} n={n}")
    for r in runs:
        for err in r.get("errors", ()):
            print(f"FAILED {r['kind']} seed {r['seed']}: {err.strip().splitlines()[-1]}")

    report = {
        "workload": wl.name, "why": wl.why, "trials": wl.trials, "threads": wl.threads,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "limits": LIMITS, "context": context,
        "metrics": {name: {"value": metrics.values[name], "unit": unit,
                           "n": metrics.samples[name]}
                    for name, unit in metrics.units.items()},
        "checks": {name: {"value": v, "unit": u, "n": n} for name, (v, u, n) in extra.items()},
        "absent": sorted(set(metrics.absent).union(*(r.get("absent", ()) for r in runs))),
        "invocations": [{k: r.get(k) for k in ("kind", "threads", "seed", "ok", "errors",
                                               "setup_s", "run_s", "cpu_s", "peak_rss_mb",
                                               "probe_s", "check", "boundary", "absent")}
                        for r in runs],
    }
    (out_root / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics.result()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
