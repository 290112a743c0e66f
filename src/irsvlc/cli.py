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
import math
import os
import sys
import time
from dataclasses import replace
from typing import Sequence

import numpy as np

from . import oracles
from .config import (ConfigError, RunConfig, build_scene, effective_sections, load_config,
                     validate)
from .irs import ReflectorBank
from .scene import sample_ue
from .simulator import (SER_TARGET, Scenario, SerCurve, required_snr,
                        run_trials, ser_curve)

_SCENARIO_ORDER = {s: i for i, s in enumerate(Scenario)}


def _threads_default() -> int:
    env = os.environ.get("IRSVLC_THREADS")
    if env is None:
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
                       help="worker processes (default: IRSVLC_THREADS or all cores)")
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


def _experiment_curves(cfg: RunConfig, densities: Sequence[float], threads: int
                       ) -> tuple[dict[float, dict[Scenario, SerCurve]], dict[str, float]]:
    """All requested SER curves for each blocker density, from one ensemble,
    and the wall-clock seconds of each stage that produced them."""
    t0 = time.perf_counter()
    # the scene's own density is replaced by each of `densities` in turn
    scene = build_scene(cfg, densities[0])
    t1 = time.perf_counter()
    by_density = run_trials(scene, cfg.trials, cfg.seed, threads=threads,
                            nlos_patch_size=cfg.patch_size, nlos_order=cfg.nlos_order,
                            densities=densities)
    t2 = time.perf_counter()
    out = {}
    for density, gains in by_density.items():
        norm = None
        if cfg.normalization == "baseline":
            h = np.array([Scenario.LOS_NLOS.effective_gain(g) for g in gains])
            norm = float(np.mean(h * h))
        out[density] = {scn: ser_curve(gains, scn, cfg.grid(), seed=cfg.seed,
                                       mean_square_gain=norm)
                        for scn in cfg.scenario_list()}
    stages = {"build_scene": t1 - t0, "run_trials": t2 - t1,
              "ser_curves": time.perf_counter() - t2}
    return out, stages


def _csv_lines(all_curves: dict[float, dict[Scenario, SerCurve]]) -> list[str]:
    rows = []
    for density, curves in all_curves.items():
        for scn, curve in curves.items():
            for snr, ser in zip(curve.snr_db, curve.ser):
                rows.append((density, _SCENARIO_ORDER[scn], float(snr), scn.value,
                             float(ser)))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    lines = ["snr_db,scenario,blocker_density,ser"]
    lines += [f"{snr:g},{name},{density:g},{ser!r}"
              for density, _, snr, name, ser in rows]
    return lines


def _summary(cfg: RunConfig, all_curves, wallclock: float, stages: dict[str, float],
             workers: int) -> dict:
    results = []
    req: dict[tuple[float, Scenario], float | None] = {}
    for density in sorted(all_curves):
        for scn, curve in all_curves[density].items():
            r = required_snr(curve)
            req[(density, scn)] = r.snr_db
            results.append({
                "blocker_density": density,
                "scenario": scn.value,
                "required_snr_db": r.snr_db if r.reachable else "unreachable",
                "non_monotone": r.non_monotone,
                "censored": r.censored,
            })
    gaps = []
    for density in sorted(all_curves):
        scns = [s for s in Scenario if s in all_curves[density]]
        for i, a in enumerate(scns):
            for b in scns[i + 1:]:
                ra, rb = req[(density, a)], req[(density, b)]
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


def _svg_chart(all_curves: dict[float, dict[Scenario, SerCurve]]) -> str:
    """Self-contained SVG line chart: SER (log scale) over SNR."""
    width, height = 860, 560
    ml, mr, mt, mb = 70, 230, 30, 55
    pw, ph = width - ml - mr, height - mt - mb
    floor = 1e-7
    xs = [float(v) for curves in all_curves.values()
          for c in curves.values() for v in c.snr_db]
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
    for density in sorted(all_curves):
        dash = ' stroke-dasharray="7 4"' if density == 0 else ""
        for scn, curve in all_curves[density].items():
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
    all_curves, stages = _experiment_curves(cfg, sorted(set(cfg.densities)), threads)
    # no more workers than trials can be busy, and a single trial runs in-process
    summary = _summary(cfg, all_curves, time.perf_counter() - t0, stages,
                       min(threads, cfg.trials))
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_text(os.path.join(cfg.out_dir, "curves.csv"),
                "\n".join(_csv_lines(all_curves)) + "\n")
    _write_text(os.path.join(cfg.out_dir, "summary.json"),
                json.dumps(summary, indent=2) + "\n")
    if svg:
        _write_text(os.path.join(cfg.out_dir, "curves.svg"), _svg_chart(all_curves))
    return summary


# -- sweep -------------------------------------------------------------------


def _run_sweep(cfg: RunConfig, vary: str, raw_values: str, threads: int) -> dict:
    try:
        if vary == "n_per_side":
            values = [int(v) for v in raw_values.split(",") if v.strip() != ""]
        else:
            values = [float(v) for v in raw_values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError([f"--values: {exc}"]) from exc
    if not values:
        raise ConfigError(["--values: needs at least one value"])

    if vary == "density":
        validate(replace(cfg, densities=tuple(values)))
        by_density, _ = _experiment_curves(cfg, sorted(set(values)), threads)
        runs = [(value, {value: by_density[value]}) for value in values]
    else:
        runs = []
        for value in values:
            sub = replace(cfg, n_per_side=int(value))
            validate(sub)
            runs.append((value, _experiment_curves(sub, sorted(set(sub.densities)),
                                                   threads)[0]))

    rows = []
    per_key: dict[tuple[float, str], list[float]] = {}
    for value, all_curves in runs:
        for density, curves in all_curves.items():
            for scn, curve in curves.items():
                r = required_snr(curve)
                rows.append({
                    "value": value,
                    "blocker_density": density,
                    "scenario": scn.value,
                    "required_snr_db": r.snr_db if r.reachable else "unreachable",
                    "censored": r.censored,
                })
                key = (density if vary == "n_per_side" else -1.0, scn.value)
                per_key.setdefault(key, []).append(
                    math.inf if r.snr_db is None else r.snr_db)
    monotonicity = []
    for (density, scn_name), series in per_key.items():
        entry = {
            "scenario": scn_name,
            "non_increasing": all(b <= a + 1e-12 for a, b in zip(series, series[1:])),
            "non_decreasing": all(b >= a - 1e-12 for a, b in zip(series, series[1:])),
        }
        if density >= 0:
            entry["blocker_density"] = density
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
    for irs_type in ("mirror", "metasurface"):
        scene = build_scene(RunConfig(irs_type=irs_type), 0.0)
        bank = ReflectorBank(scene.aps, scene.mirror_arrays, scene.metasurface_arrays)
        for k in range(poses):
            ue = sample_ue(rng, scene)
            got, want = bank.cascade(ue), oracles.reflector_cell_gains(scene, ue)
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
                print(f"density {row['blocker_density']:g} {row['scenario']}: "
                      f"required SNR {row['required_snr_db']}")
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
