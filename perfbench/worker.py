"""One benchmark invocation in a fresh process.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the workload, the simulation seed, the worker count, the
output directory and the mode:
  plain     -- no wrappers; gives the end-to-end numbers
  boundary  -- one wrapper at `irsvlc.cli.run_trials` that records wall time
               and CPU of the process and of reaped children (pool metrics)
  traced    -- spans at every public name in spans.TRACE_POINTS

In every mode the worker first times the once-per-run set-up (import, config,
one scene per density, diffuse-field precompute), then times one invocation of
`irsvlc.cli.main` between two runs of the host speed probe (probe.py), then
checks the outputs. It prints one JSON object as the
last line of its standard output and always exits 0; failures are reported in
that object.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback

from spans import Tracer, reduce_spans
from workloads import REF_SEED, REFERENCE_FILE, WORKLOADS

READOUT_TOL_DB = 1e-6  # well above rounding noise, far below any model change
SER_REL_TOL = 1e-9
SCENARIO_COUNT = 3  # every workload runs the three stock scenarios


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _public(module, name: str, absent: list[str]):
    fn = getattr(module, name, None)
    if fn is None:
        absent.append(f"{module.__name__}:{name}")
    return fn


def timed_setup(wl, seed: int, absent: list[str]) -> float:
    """The work a run does once before its first trial, via public functions."""
    t0 = time.perf_counter()
    config = importlib.import_module("irsvlc.config")
    channel = importlib.import_module("irsvlc.channel")
    importlib.import_module("irsvlc.cli")
    load_config = _public(config, "load_config", absent)
    build_scene = _public(config, "build_scene", absent)
    wall_patches = _public(channel, "wall_patches", absent)
    incident = _public(channel, "patch_incident_power", absent)
    if load_config is not None and build_scene is not None:
        cfg = load_config(wl.config_path(), seed=seed, trials=wl.trials)
        scenes = [build_scene(cfg, d) for d in wl.densities]
        if wall_patches is not None and incident is not None:
            scene = scenes[0]
            patches = wall_patches(scene.room, cfg.patch_size, scene.wall_reflectivity)
            for ap in scene.aps:
                incident(ap, patches, (), order=cfg.nlos_order)
    return time.perf_counter() - t0


def install_boundary(cli, records: list[dict], absent: list[str]) -> None:
    """Wrap cli.run_trials: wall time, worker count and CPU of the call."""
    fn = _public(cli, "run_trials", absent)
    if fn is None:
        return

    def run_trials(*args, **kwargs):
        threads = int(kwargs.get("threads", 1))
        self0, kids0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        self_cpu = _cpu(resource.RUSAGE_SELF) - self0
        kids_cpu = _cpu(resource.RUSAGE_CHILDREN) - kids0
        # with a pool the workers are reaped children; with one worker the
        # trials run in this process
        records.append({"wall_s": wall, "threads": threads,
                        "worker_cpu_s": kids_cpu if threads > 1 else self_cpu})
        return result

    cli.run_trials = run_trials


def install_curve_recorder(cli, curves: list, absent: list[str]) -> None:
    """Keep every SER curve the CLI computes (the sweep writes none to disk)."""
    fn = _public(cli, "ser_curve", absent)
    if fn is None:
        return

    def ser_curve(*args, **kwargs):
        curve = fn(*args, **kwargs)
        curves.append((curve.scenario.value,
                       [float(v) for v in curve.snr_db], [float(v) for v in curve.ser]))
        return curve

    cli.ser_curve = ser_curve


# -- outputs -------------------------------------------------------------------


def read_outputs(wl, out_dir: str, recorded: list) -> dict:
    """Readouts, curves and the hash of the main CSV from the run's output files."""
    if wl.command == "simulate":
        csv_path = os.path.join(out_dir, "curves.csv")
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        readouts = {f"{r['blocker_density']:g}/{r['scenario']}": r["required_snr_db"]
                    for r in summary["results"]}
        curves: dict[str, list] = {}
        with open(csv_path, encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                snr, scenario, density, ser = line.strip().split(",")
                key = f"{float(density):g}/{scenario}"
                curves.setdefault(key, []).append((float(snr), float(ser)))
        curves = {k: [ser for _, ser in sorted(v)] for k, v in curves.items()}
    else:
        csv_path = os.path.join(out_dir, "sweep.csv")
        with open(os.path.join(out_dir, "sweep_summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        readouts = {f"{r['value']:g}/{r['blocker_density']:g}/{r['scenario']}":
                    r["required_snr_db"] for r in summary["rows"]}
        # the sweep keeps curves only in memory; they are checked for range and
        # monotonicity but have no stable key to compare against a reference
        curves = {f"{i}/{name}": [s for _, s in sorted(zip(snr, ser))]
                  for i, (name, snr, ser) in enumerate(recorded)}
    with open(csv_path, "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()
    return {"readouts": readouts, "curves": curves, "sha256": sha,
            "csv": os.path.basename(csv_path)}


def check_outputs(wl, seed: int, out: dict, reference: dict | None) -> dict:
    """Range, monotonicity and (at the reference seed) agreement with reference.json."""
    errors = []
    expected = len(wl.densities) * SCENARIO_COUNT
    if len(out["readouts"]) != expected:
        errors.append(f"{len(out['readouts'])} readouts, expected {expected}")
    if wl.command == "simulate" and len(out["curves"]) != expected:
        errors.append(f"{len(out['curves'])} curves, expected {expected}")
    for key, ser in out["curves"].items():
        if not all(0.0 <= s <= 0.5 for s in ser):
            errors.append(f"curve {key}: SER outside [0, 0.5]")
        if any(b > a for a, b in zip(ser, ser[1:])):
            errors.append(f"curve {key}: SER increases along the SNR grid")
    result = {"sha256": out["sha256"], "sha_match": None, "readout_dev_db": None,
              "ser_dev_rel": None}
    if seed == REF_SEED and reference is not None:
        result["sha_match"] = out["sha256"] == reference["sha256"]
        dev = 0.0
        for key, ref in reference["readouts"].items():
            got = out["readouts"].get(key)
            if got is None:
                errors.append(f"readout {key} missing")
            elif (ref == "unreachable") != (got == "unreachable"):
                errors.append(f"readout {key}: {got} where the reference has {ref}")
            elif ref != "unreachable":
                dev = max(dev, abs(float(got) - float(ref)))
        result["readout_dev_db"] = dev
        if dev > READOUT_TOL_DB:
            errors.append(f"readouts deviate from the reference by {dev:.3g} dB")
        if "curves" in reference:
            rel = 0.0
            for key, ref in reference["curves"].items():
                got = out["curves"].get(key)
                if got is None or len(got) != len(ref):
                    errors.append(f"curve {key} missing or of another length")
                    continue
                for a, b in zip(got, ref):
                    if a != b:
                        rel = max(rel, abs(a - b) / max(abs(a), abs(b)))
            result["ser_dev_rel"] = rel
            if rel > SER_REL_TOL:
                errors.append(f"SER deviates from the reference by {rel:.3g} (relative)")
    result["errors"] = errors
    return result


# -- one invocation --------------------------------------------------------------


def run(spec: dict, result: dict) -> None:
    wl = WORKLOADS[spec["workload"]]
    seed, threads, mode, out_dir = spec["seed"], spec["threads"], spec["mode"], spec["out_dir"]
    absent: list[str] = []
    result["absent"] = absent

    result["setup_s"] = timed_setup(wl, seed, absent)
    from probe import speed_probe  # imports numpy, which the timed set-up includes
    import irsvlc
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(irsvlc.__file__).startswith(src + os.sep):
        raise RuntimeError(f"irsvlc imported from {irsvlc.__file__}, not from {src}")
    cli = importlib.import_module("irsvlc.cli")

    boundary: list[dict] = []
    recorded: list = []
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install()
        absent.extend(tracer.absent)
    elif mode == "boundary":
        install_boundary(cli, boundary, absent)
    if wl.command == "sweep":
        install_curve_recorder(cli, recorded, absent)

    main = cli.main if tracer is None else tracer.wrap(cli.main, "cli.main")
    argv = wl.argv(seed, threads, out_dir)
    gc.collect()
    probe_s = speed_probe()
    self0, kids0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    result["run_s"] = time.perf_counter() - t0
    result["cpu_s"] = (_cpu(resource.RUSAGE_SELF) - self0
                       + _cpu(resource.RUSAGE_CHILDREN) - kids0)
    result["peak_rss_mb"] = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024
    gc.collect()
    result["probe_s"] = probe_s + speed_probe()
    result["exit_code"] = code
    if code != 0:
        raise RuntimeError(f"irsvlc exited with code {code}")

    reference = None
    if seed == REF_SEED and not spec.get("capture"):
        with open(REFERENCE_FILE, encoding="utf-8") as fh:
            reference = json.load(fh).get(wl.name)
        if reference is None:
            raise RuntimeError(f"reference.json has no entry for {wl.name}")
    outputs = read_outputs(wl, out_dir, recorded)
    if spec.get("capture"):
        result["outputs"] = outputs
    check = check_outputs(wl, seed, outputs, reference)
    result["check"] = check
    result["boundary"] = boundary

    if tracer is not None:
        with open(os.path.join(out_dir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
        result["samples"], result["counts"] = reduce_spans(tracer.spans)
    result["ok"] = not check["errors"]
    result["errors"].extend(check["errors"])


def context(result: dict) -> None:
    """Interpreter and library versions; importing irsvlc also warms its caches."""
    import irsvlc
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    result["context"] = {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "irsvlc": getattr(irsvlc, "__version__", None),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
    }
    result["ok"] = True


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = {"ok": False, "errors": []}
    try:
        if spec["mode"] == "context":
            context(result)
        else:
            run(spec, result)
    except Exception:  # reported to the runner, which counts the invocation failed
        result["ok"] = False
        result["errors"].append(traceback.format_exc(limit=8))
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
