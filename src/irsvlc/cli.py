"""Command-line front end.

Subcommands:
  simulate  -- run the configured experiment, write curves.csv / summary.json
  sweep     -- repeat the experiment while varying one parameter
  verify    -- cross-check fast code paths against the brute-force oracles

Exit codes: 0 success, 1 verification failure, 2 invalid configuration,
3 output location not writable.
"""

from __future__ import annotations

import argparse
import json
# imported with the package: argparse's gettext loads it on the first parser, which
# would move its import cost from a run's set-up into the run
import locale  # noqa: F401
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import oracles
from .config import (_FLOATS, ConfigError, RunConfig, _parse_value, build_layout,
                     build_scene, effective_sections, load_config, validate)
from .irs import ReflectorBank
from .scene import sample_ue
from .simulator import (SER_TARGET, RequiredSnr, Scenario, SerCurve, pool_size,
                        required_snr, run_trials, ser_curve)

# each SER curve with its required-SNR readout, by density (ascending), then scenario
Readouts = dict[float, dict[Scenario, tuple[SerCurve, RequiredSnr]]]


def _threads_default() -> int:
    env = os.environ.get("IRSVLC_THREADS")
    if env is None:  # the CPUs this process may run on, where the OS reports them
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        n = int(env)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError([f"IRSVLC_THREADS: {env!r} is not an integer >= 1"])
    return n


def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="irsvlc",
        description="Monte Carlo simulator for indoor optical links with "
                    "reconfigurable reflector arrays")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="FILE", help="INI configuration file")
        p.add_argument("--seed", type=int, help="override [sim] seed")
        p.add_argument("--trials", type=int, help="override [sim] trials")
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes (default: IRSVLC_THREADS or the CPUs this "
                            "process may use)")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument("--svg", action="store_true", help="also write curves.svg")

    p_sim = sub.add_parser("simulate", help="run the configured experiment")
    add_common(p_sim)

    p_sweep = sub.add_parser("sweep", help="re-run while varying one parameter")
    add_common(p_sweep)
    p_sweep.add_argument("--vary", required=True, choices=("n_per_side", "density"),
                         help="parameter to sweep")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values for the swept parameter")

    p_verify = sub.add_parser("verify", help="run the oracle cross-checks")
    p_verify.add_argument("--fast", action="store_true",
                          help="smaller corpora for a quick smoke check")
    return parser.parse_args(argv)


# -- simulate ----------------------------------------------------------------


def _experiment_curves(cfgs: list[RunConfig],
                       threads: int) -> tuple[list[Readouts], dict[str, float]]:
    """All requested SER curves and their readouts for each config and each distinct
    density of the first one, from one ensemble, and the wall-clock seconds of each stage
    that produced them. The configs differ only in their arrays: the first one's scene
    with every config's array layout (build_layout) is the run, so one pass over the
    poses serves them all. This is the one place a readout is made; every output only
    formats what it returns."""
    t0 = time.perf_counter()
    densities = sorted(set(cfgs[0].densities))
    # run_trials takes the densities from here and reads none of the scene's
    scene = build_scene(cfgs[0], densities[0])
    layouts = [build_layout(cfg) for cfg in cfgs]
    t1 = time.perf_counter()
    runs = run_trials(scene, cfgs[0].trials, cfgs[0].seed, threads=threads, densities=densities,
                      layouts=layouts)
    t2 = time.perf_counter()
    out: list[Readouts] = [{} for _ in cfgs]
    # a curve depends only on its gain vector and grid: an array-free layout's
    # los_nlos_irs vector is its los_nlos vector, bit for bit, and shares its curve
    made: dict[tuple, tuple[SerCurve, RequiredSnr]] = {}
    for cfg, by_density, readouts in zip(cfgs, runs, out):
        grid = cfg.grid()
        for density, gains in by_density.items():
            readouts[density] = by_scn = {}
            for scn in cfg.scenario_list():
                key = (scn.effective_gain(gains).tobytes(), grid)
                if key not in made:
                    curve = ser_curve(gains, scn, grid)
                    made[key] = curve, required_snr(curve)
                curve, r = made[key]
                by_scn[scn] = replace(curve, scenario=scn), r
    stages = {"build_scene": t1 - t0, "run_trials": t2 - t1,
              "ser_curves": time.perf_counter() - t2}
    return out, stages


def _csv_lines(readouts: Readouts) -> list[str]:
    """By density, then scenario in Scenario order, then ascending SNR."""
    lines = ["snr_db,scenario,blocker_density,ser"]
    for density, by_scn in readouts.items():
        for scn in [s for s in Scenario if s in by_scn]:
            curve = by_scn[scn][0]
            lines += [f"{float(snr):g},{scn.value},{density:g},{float(ser)!r}"
                      for snr, ser in zip(curve.snr_db, curve.ser)]
    return lines


def _readout_row(density: float, scn: Scenario, curve: SerCurve, r: RequiredSnr) -> dict:
    """The keys that every row of summary.json and sweep_summary.json starts with."""
    m = curve.mean_square_gain
    return {"blocker_density": density, "scenario": scn.value,
            "required_snr_db": r.snr_db if r.reachable else "unreachable",
            "mean_square_gain_db": 10.0 * math.log10(m) if m > 0.0 else None}


def _summary(cfg: RunConfig, readouts: Readouts, wallclock: float,
             stages: dict[str, float], workers: int) -> dict:
    results = [{**_readout_row(density, scn, curve, r), "non_monotone": r.non_monotone,
                "censored": r.censored}
               for density, by_scn in readouts.items() for scn, (curve, r) in by_scn.items()]
    gaps = []
    for density, by_scn in readouts.items():
        scns = [s for s in Scenario if s in by_scn]
        for i, a in enumerate(scns):
            for b in scns[i + 1:]:
                ra, rb = by_scn[a][1].snr_db, by_scn[b][1].snr_db
                gaps.append({
                    "blocker_density": density,
                    "from": a.value,
                    "to": b.value,
                    "gap_db": (ra - rb) if (ra is not None and rb is not None) else None,
                })
    return {
        "seed": cfg.seed,
        "trials": cfg.trials,
        "ser_target": SER_TARGET,
        "wallclock_seconds": round(wallclock, 3),
        "stage_seconds": {name: round(sec, 6) for name, sec in stages.items()},
        "trials_per_second": round(cfg.trials / stages["run_trials"], 3),
        "workers": workers,
        "config": effective_sections(cfg),
        "results": results,
        "gaps_db": gaps,
    }


_COLORS = {
    Scenario.LOS_ONLY: "#1f77b4",
    Scenario.LOS_NLOS: "#2ca02c",
    Scenario.LOS_NLOS_IRS: "#d62728",
}


def _svg_chart(readouts: Readouts) -> str:
    """Self-contained SVG line chart: SER (log scale) over SNR."""
    width, height = 860, 560
    ml, mr, mt, mb = 70, 230, 30, 55
    pw, ph = width - ml - mr, height - mt - mb
    floor = 1e-7
    xs = [float(v) for by_scn in readouts.values()
          for c, _ in by_scn.values() for v in c.snr_db]
    x_min, x_max = (min(xs), max(xs)) if xs else (0.0, 1.0)
    if x_max == x_min:
        x_max = x_min + 1.0

    def x_px(x: float) -> float:
        return ml + (x - x_min) / (x_max - x_min) * pw

    def y_px(ser: float) -> float:
        v = math.log10(max(ser, floor))
        return mt + (0.0 - v) / (0.0 - math.log10(floor)) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml + pw / 2:.0f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">average received SNR (dB)</text>',
        f'<text x="18" y="{mt + ph / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 18 {mt + ph / 2:.0f})">symbol error rate</text>',
    ]
    decades = int(round(-math.log10(floor)))
    for k in range(decades + 1):
        y = mt + k / decades * ph
        parts.append(f'<line x1="{ml}" y1="{y:.1f}" x2="{ml + pw}" y2="{y:.1f}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        label = "1" if k == 0 else f"1e-{k}"
        parts.append(f'<text x="{ml - 8}" y="{y + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="12">{label}</text>')
    x_tick = 5.0 if x_max - x_min >= 15 else 1.0
    t = math.ceil(x_min / x_tick) * x_tick
    while t <= x_max + 1e-9:
        parts.append(f'<line x1="{x_px(t):.1f}" y1="{mt + ph}" x2="{x_px(t):.1f}" '
                     f'y2="{mt + ph + 5}" stroke="#333333" stroke-width="1"/>')
        parts.append(f'<text x="{x_px(t):.1f}" y="{mt + ph + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12">{t:g}</text>')
        t += x_tick
    parts.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
                 f'stroke="#333333" stroke-width="1"/>')
    legend_y = mt + 10
    for density, by_scn in readouts.items():
        dash = ' stroke-dasharray="7 4"' if density == 0 else ""
        for scn, (curve, _) in by_scn.items():
            pts = " ".join(f"{x_px(float(s)):.1f},{y_px(float(e)):.1f}"
                           for s, e in zip(curve.snr_db, curve.ser))
            color = _COLORS.get(scn, "#555555")
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                         f'stroke-width="1.8"{dash}/>')
            lx = ml + pw + 12
            parts.append(f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 28}" '
                         f'y2="{legend_y}" stroke="{color}" stroke-width="1.8"{dash}/>')
            parts.append(f'<text x="{lx + 34}" y="{legend_y + 4}" '
                         f'font-family="sans-serif" font-size="12">'
                         f'{scn.value}, density {density:g}</text>')
            legend_y += 18
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _run_simulate(cfg: RunConfig, threads: int, svg: bool) -> dict:
    t0 = time.perf_counter()
    (readouts,), stages = _experiment_curves([cfg], threads)
    summary = _summary(cfg, readouts, time.perf_counter() - t0, stages,
                       pool_size(threads, cfg.trials))
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_text(os.path.join(cfg.out_dir, "curves.csv"),
                "\n".join(_csv_lines(readouts)) + "\n")
    _write_text(os.path.join(cfg.out_dir, "summary.json"),
                json.dumps(summary, indent=2) + "\n")
    if svg:
        _write_text(os.path.join(cfg.out_dir, "curves.svg"), _svg_chart(readouts))
    return summary


# -- sweep -------------------------------------------------------------------


def _run_sweep(cfg: RunConfig, vary: str, raw_values: str, threads: int) -> dict:
    try:
        values = ([int(v) for v in raw_values.split(",") if v.strip() != ""]
                  if vary == "n_per_side" else _parse_value(raw_values, _FLOATS))
    except ValueError as exc:
        raise ConfigError([f"--values: {exc}"]) from exc
    if not values:
        raise ConfigError(["--values: needs at least one value"])

    subs = ([replace(cfg, densities=values)] if vary == "density"
            else [replace(cfg, n_per_side=value) for value in values])
    for sub in subs:
        validate(sub)
    by_cfg = _experiment_curves(subs, threads)[0]
    runs = ([(value, {value: by_cfg[0][value]}) for value in values] if vary == "density"
            else list(zip(values, by_cfg)))

    rows = []
    # one series per scenario, across the swept densities or at each blocker density
    by_series: dict[tuple, list[float]] = {}
    for value, readouts in runs:
        for density, by_scn in readouts.items():
            for scn, (curve, r) in by_scn.items():
                rows.append({"value": value, **_readout_row(density, scn, curve, r),
                             "censored": r.censored})
                key = (scn.value,) if vary == "density" else (scn.value, density)
                by_series.setdefault(key, []).append(
                    math.inf if r.snr_db is None else r.snr_db)
    monotonicity = []
    for (scn_name, *density), series in by_series.items():
        entry = {
            "scenario": scn_name,
            "non_increasing": all(b <= a + 1e-12 for a, b in zip(series, series[1:])),
            "non_decreasing": all(b >= a - 1e-12 for a, b in zip(series, series[1:])),
        }
        if density:
            entry["blocker_density"] = density[0]
        monotonicity.append(entry)
    summary = {
        "vary": vary,
        "values": values,
        "rows": rows,
        "monotonicity": monotonicity,
        "config": effective_sections(cfg),
    }
    os.makedirs(cfg.out_dir, exist_ok=True)
    lines = [f"{vary},blocker_density,scenario,required_snr_db"]
    for r in rows:
        lines.append(f"{r['value']:g},{r['blocker_density']:g},{r['scenario']},"
                     f"{r['required_snr_db']}")
    _write_text(os.path.join(cfg.out_dir, "sweep.csv"), "\n".join(lines) + "\n")
    _write_text(os.path.join(cfg.out_dir, "sweep_summary.json"),
                json.dumps(summary, indent=2) + "\n")
    return summary


# -- verify ------------------------------------------------------------------


def _verify_mirror_normals(geometries: int) -> tuple[bool, str]:
    worst, checked = oracles.mirror_normal_deviation(geometries)
    if worst is None:
        return False, "closed-form orientation produced zero gain"
    return worst <= 1e-6, f"max relative gain deviation {worst:.3e} over {checked} geometries"


def _verify_q(points: int) -> tuple[bool, str]:
    worst = oracles.q_function_error(points)
    return worst <= 1e-10, f"max |Q - quadrature| = {worst:.3e} on [0, 8]"


def _verify_occlusion(cases: int) -> tuple[bool, str]:
    disagreements = oracles.occlusion_disagreements(cases)
    return disagreements == 0, f"{disagreements} disagreements on {cases} filtered cases"


def _verify_reflector_bank(poses: int) -> tuple[bool, str]:
    rng = np.random.default_rng(52_014)
    worst, mismatched, cells, edge = 0.0, 0, 0, []
    scene = build_scene(RunConfig(), 0.0)
    (ap,) = scene.aps
    for irs_type in ("mirror", "metasurface"):
        layout = build_layout(RunConfig(irs_type=irs_type))
        bank = ReflectorBank(ap, *layout)
        for k in range(poses):
            ue = sample_ue(rng, scene)
            got, want = bank.cascade(ue), oracles.reflector_cell_gains(ap, layout, ue)
            mismatched += int(np.sum((got == 0.0) != (want == 0.0)))
            lit = want != 0.0
            worst = max(worst, float(np.max(np.abs(got - want)[lit] / want[lit], initial=0.0)))
            v = ue.position - bank.centers
            cos_psi = -(v @ ue.normal) / np.linalg.norm(v, axis=1)
            edge += [f"{irs_type} pose {k} cell {i}"
                     for i in np.flatnonzero(np.abs(cos_psi - math.cos(ue.fov)) <= 1e-12)]
            cells += len(got)
    ok = worst <= 1e-12 and mismatched == 0
    return ok, (f"max relative deviation {worst:.1e} on nonzero cells, {mismatched} "
                f"zero-pattern mismatches over {cells} cells; cells within 1e-12 of the "
                f"FOV cut-off: {', '.join(edge) or 'none'}")


def _run_verify(fast: bool) -> int:
    checks = [
        ("mirror-normal grid search", _verify_mirror_normals, 20 if fast else 100),
        ("q-function quadrature", _verify_q, 17 if fast else 81),
        ("occlusion point sampling", _verify_occlusion, 500 if fast else 10_000),
        ("reflector bank vs single-cell reference", _verify_reflector_bank,
         2 if fast else 8),
    ]
    failures = 0
    for name, fn, size in checks:
        ok, detail = fn(size)
        print(f"verify: {name}: {'PASS' if ok else 'FAIL'} ({detail})")
        failures += not ok
    return 0 if failures == 0 else 1


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    if args.command == "verify":
        return _run_verify(args.fast)
    try:
        cfg = load_config(args.config, seed=args.seed, trials=args.trials,
                          out_dir=args.out)
        threads = args.threads if args.threads is not None else _threads_default()
        if threads < 1:
            raise ConfigError(["--threads: must be >= 1"])
        if args.command == "simulate":
            summary = _run_simulate(cfg, threads, args.svg)
            for row in summary["results"]:
                note = (" (censored: at or below target at the grid start)"
                        if row["censored"] else "")
                print(f"density {row['blocker_density']:g} {row['scenario']}: "
                      f"required SNR {row['required_snr_db']}{note}")
        else:
            summary = _run_sweep(cfg, args.vary, args.values, threads)
            print(f"sweep over {args.vary}: {len(summary['rows'])} rows")
        print(f"outputs written to {cfg.out_dir}")
        return 0
    except ConfigError as exc:
        for msg in exc.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
