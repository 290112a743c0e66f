"""End-to-end command-line runs against temp directories."""

import hashlib
import inspect
import json
import math
import os
import xml.etree.ElementTree as ET
from collections import Counter

import pytest

from irsvlc import RunConfig, cli, load_config, simulator
from irsvlc.cli import main

from conftest import linux_only, python_lines

SMALL = """
[irs]
n_per_side = 6
[blockers]
densities = 0, 0.4
[sim]
trials = 60
seed = 2
snr_step_db = 5
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(SMALL, encoding="utf-8")
    return str(path)


def run(args):
    return main(list(args))


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def load_summary(path):
    """A summary.json or sweep_summary.json, refusing the NaN and Infinity constants
    that strict JSON does not have."""
    return json.loads(path.read_text(), parse_constant=_no_constant)


def test_simulate_writes_curves_and_summary(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["simulate", "--config", small_config, "--out", str(out),
                "--threads", "1"]) == 0
    lines = (out / "curves.csv").read_text().splitlines()
    assert lines[0] == "snr_db,scenario,blocker_density,ser"
    assert len(lines) == 1 + 9 * 3 * 2  # grid points x scenarios x densities
    sers = [float(l.split(",")[3]) for l in lines[1:]]
    assert all(0.0 <= s <= 0.5 for s in sers)
    keys = [(float(l.split(",")[2]), l.split(",")[1], float(l.split(",")[0]))
            for l in lines[1:]]
    order = {"los_only": 0, "los_nlos": 1, "los_nlos_irs": 2}
    assert keys == sorted(keys, key=lambda k: (k[0], order[k[1]], k[2]))

    summary = load_summary(out / "summary.json")
    assert summary["trials"] == 60 and summary["seed"] == 2
    assert len(summary["results"]) == 6
    assert summary["config"]["sim"]["snr_step_db"] == "5.0"
    assert any(g["from"] == "los_nlos" and g["to"] == "los_nlos_irs"
               for g in summary["gaps_db"])
    printed = capsys.readouterr().out
    assert "required SNR" in printed and "outputs written" in printed


def test_curves_rows_ignore_the_configured_order(tmp_path):
    # densities and scenarios listed out of order still write ascending densities,
    # then Scenario order, then the grid
    cfg = tmp_path / "odd.ini"
    cfg.write_text(SMALL.replace("densities = 0, 0.4", "densities = 1, 0, 0.4")
                   + "scenarios = los_nlos_irs, los_only, los_nlos\n", encoding="utf-8")
    out = tmp_path / "o"
    assert run(["simulate", "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 0
    rows = [line.split(",")[:3] for line in (out / "curves.csv").read_text().splitlines()[1:]]
    assert rows == [[f"{snr:g}", scn.value, density] for density in ("0", "0.4", "1")
                    for scn in simulator.Scenario for snr in range(0, 41, 5)]
    assert hashlib.sha256((out / "curves.csv").read_bytes()).hexdigest() == \
        "db5c1bd9d0460dda2095f5c26a2f6a10bb50fc6bc494afafbc022bfb56d7173e"


def test_summary_reports_stage_timings(small_config, tmp_path):
    out = tmp_path / "out"
    assert run(["simulate", "--config", small_config, "--out", str(out),
                "--threads", "1"]) == 0
    summary = load_summary(out / "summary.json")
    assert set(summary["stage_seconds"]) == {"build_scene", "run_trials", "ser_curves"}
    assert all(v >= 0.0 for v in summary["stage_seconds"].values())
    assert summary["trials_per_second"] > 0.0
    assert summary["workers"] == 1


def test_censored_readout_is_flagged(tmp_path, capsys):
    # a grid that starts at 15 dB finds the array curve already under target:
    # the readout is the grid start, flagged, while los_nlos crosses above it
    cfg = tmp_path / "censored.ini"
    cfg.write_text("[blockers]\ndensities = 0\n[sim]\ntrials = 200\nsnr_start_db = 15\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 0
    rows = {r["scenario"]: r for r in load_summary(out / "summary.json")["results"]}
    assert rows["los_nlos_irs"]["censored"] is True
    assert rows["los_nlos_irs"]["required_snr_db"] == 15.0
    assert rows["los_nlos"]["censored"] is False
    assert rows["los_nlos"]["required_snr_db"] > 15.0
    printed = capsys.readouterr().out.splitlines()
    assert ("density 0 los_nlos_irs: required SNR 15.0 "
            "(censored: at or below target at the grid start)") in printed
    assert [line for line in printed if "los_nlos:" in line] == \
        [f"density 0 los_nlos: required SNR {rows['los_nlos']['required_snr_db']}"]
    sweep = tmp_path / "sweep"
    assert run(["sweep", "--config", str(cfg), "--out", str(sweep), "--threads", "1",
                "--vary", "density", "--values", "0"]) == 0
    rows = load_summary(sweep / "sweep_summary.json")["rows"]
    assert [r["censored"] for r in rows if r["scenario"] == "los_nlos_irs"] == [True]
    assert "0,0,los_nlos_irs,15.0" in (sweep / "sweep.csv").read_text().splitlines()


def test_rows_report_the_mean_square_gain_they_are_normalized_by(small_config, tmp_path):
    out = tmp_path / "out"
    assert run(["simulate", "--config", small_config, "--out", str(out), "--threads", "1"]) == 0
    (readouts,), _ = cli._experiment_curves([load_config(small_config)], 1)
    results = load_summary(out / "summary.json")["results"]
    assert len(results) == 6
    for row in results:
        curve = readouts[row["blocker_density"]][simulator.Scenario(row["scenario"])][0]
        assert list(row)[2:4] == ["required_snr_db", "mean_square_gain_db"]
        assert row["mean_square_gain_db"] == 10.0 * math.log10(curve.mean_square_gain)
    sweep = tmp_path / "sweep"
    assert run(["sweep", "--config", small_config, "--out", str(sweep), "--threads", "1",
                "--vary", "density", "--values", "0,0.4"]) == 0
    rows = load_summary(sweep / "sweep_summary.json")["rows"]
    assert [r["mean_square_gain_db"] for r in rows] == \
        [r["mean_square_gain_db"] for r in results]


def test_a_zero_mean_square_is_reported_as_null(tmp_path, capsys):
    # a 1 degree field of view misses the source at every sampled tilt, and black walls
    # and no arrays leave no other light: each readout is unreachable, and says why
    cfg = tmp_path / "dark.ini"
    cfg.write_text("[ue]\nfov_deg = 1\n[walls]\nreflectivity = 0\n[irs]\ntype = none\n"
                   "[sim]\ntrials = 20\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 0
    results = load_summary(out / "summary.json")["results"]
    assert len(results) == 6
    assert all(r["mean_square_gain_db"] is None and r["required_snr_db"] == "unreachable"
               for r in results)
    sweep = tmp_path / "sweep"
    assert run(["sweep", "--config", str(cfg), "--out", str(sweep), "--threads", "1",
                "--vary", "density", "--values", "0,1"]) == 0
    rows = load_summary(sweep / "sweep_summary.json")["rows"]
    assert len(rows) == 6 and all(r["mean_square_gain_db"] is None for r in rows)


def test_cli_import_leaves_scipy_integrate_unloaded():
    # no scipy module at all: the run path's Q function is numpy's own
    code = ("import sys, irsvlc.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert python_lines(code) == ["[]"]


def test_cli_import_loads_no_pool_machinery():
    # run_trials forks its workers itself, so neither an executor nor multiprocessing
    # is part of a run's set-up
    code = ("import sys, irsvlc.cli\n"
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('concurrent', 'multiprocessing'))))")
    assert python_lines(code) == ["[]"]


@pytest.mark.parametrize("threads", ["1", "2"], ids=["threads1", "threads2"])
@pytest.mark.parametrize("args", [
    ["simulate"],
    ["sweep", "--vary", "density", "--values", "0,0.4,1"],
], ids=["simulate", "sweep-density"])
def test_a_run_imports_nothing_after_the_cli(small_config, tmp_path, args, threads):
    # a module first loaded inside main would move its import cost from a run's set-up
    # into the run itself (numpy.random is loaded lazily, for one)
    code = ("import json, sys, irsvlc.cli; before = set(sys.modules)\n"
            "assert irsvlc.cli.main(sys.argv[1:]) == 0\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    printed = python_lines(code, *args, "--config", small_config, "--out", str(tmp_path / "o"),
                           "--threads", threads, "--trials", "6")
    assert json.loads(printed[-1]) == []


def test_config_echo_reproduces_byte_identical_outputs(small_config, tmp_path):
    first = tmp_path / "a"
    assert run(["simulate", "--config", small_config, "--out", str(first),
                "--threads", "1"]) == 0
    echo = load_summary(first / "summary.json")["config"]
    echo_path = tmp_path / "echo.ini"
    echo_path.write_text(
        "\n".join(f"[{sec}]\n" + "\n".join(f"{k} = {v}" for k, v in keys.items())
                  for sec, keys in echo.items()),
        encoding="utf-8")
    second = tmp_path / "b"
    assert run(["simulate", "--config", str(echo_path), "--out", str(second),
                "--threads", "1"]) == 0
    assert (first / "curves.csv").read_bytes() == (second / "curves.csv").read_bytes()


def test_thread_count_does_not_change_outputs(small_config, tmp_path):
    one = tmp_path / "t1"
    two = tmp_path / "t2"
    assert run(["simulate", "--config", small_config, "--out", str(one),
                "--threads", "1"]) == 0
    assert run(["simulate", "--config", small_config, "--out", str(two),
                "--threads", "2"]) == 0
    assert (one / "curves.csv").read_bytes() == (two / "curves.csv").read_bytes()


@pytest.mark.parametrize("body, needles", [
    ("[sim]\ntrials = 0\nsnr_step_db = -1\n", ("trials", "snr_step_db")),
    ("[ap]\nx = nan\n", ("[ap] x: must be finite",)),
    ("[blockers]\ndensities = 1e5\n[sim]\ntrials = 3\n",
     ("[blockers] densities: blocker density 100000",)),
    ("[blockers]\ndensities = 1e18\n[sim]\ntrials = 3\n",
     ("[blockers] densities: blocker density 1e+18",)),
    ("[blockers]\ndensities = 1e308\n[sim]\ntrials = 3\n",
     ("[blockers] densities: blocker density 1e+308",)),
    # 150 000 patches at one bounce: a regressed bound costs seconds, not the host's memory
    ("[walls]\npatch_size = 0.02\nreflection_order = 1\n[sim]\ntrials = 3\n",
     ("[walls] patch_size: patch size 0.02 tiles the walls with more than the 100000 patches",)),
    ("[walls]\npatch_size = 1e-9\n", ("[walls] patch_size: patch size 1e-09 tiles",)),
    ("[sim]\nsnr_step_db = 1e-12\ntrials = 3\n",
     ("[sim] snr_step_db: grid step 1e-12 dB gives more than the 1000 points",)),
    ("[sim]\nsnr_step_db = 0.001\ntrials = 3\n", ("[sim] snr_step_db: grid step 0.001 dB",)),
    ("[sim]\nsnr_start_db = 3000\nsnr_stop_db = 3200\nsnr_step_db = 100\ntrials = 3\n",
     ("[sim] snr_stop_db: must not lie above 1000 dB",)),
    ("[orientation]\ntheta_std_deg = 1e9\n[sim]\ntrials = 3\n",
     ("[orientation] theta_std_deg: tilt spread 1e+09 degrees outside (0, 1000]",)),
    # an area near 1e155 m^2 overflowed the squared gains and wrote nan SER rows
    ("[ue]\narea = 1e155\n[irs]\nn_per_side = 10\n[sim]\ntrials = 3\n",
     ("[ue] area: must not exceed 1 m^2",)),
    # positive values that the model rounds to 0: the field of view in radians,
    # a blocker dimension when halved to a box half extent
    ("[ue]\nfov_deg = 5e-324\n[sim]\ntrials = 3\n", ("[ue] fov_deg: must lie in (0, 90]",)),
    ("[blockers]\nlength = 5e-324\n[sim]\ntrials = 3\n",
     ("[blockers]: blocker dimensions must be positive",)),
    ("[blockers]\nwidth = 5e-324\n[sim]\ntrials = 3\n",
     ("[blockers]: blocker dimensions must be positive",)),
    ("[blockers]\nheight = 5e-324\n[sim]\ntrials = 3\n",
     ("[blockers]: blocker dimensions must be positive",)),
], ids=["out_of_range", "nan", "memory_bound", "poisson_bound", "mean_overflows",
        "patch_bound", "patch_side_overflows", "snr_grid_bound", "snr_grid_fine",
        "snr_top_bound", "tilt_spread_bound", "area_bound", "fov_rounds_to_0",
        "blocker_length_halves_to_0", "blocker_width_halves_to_0",
        "blocker_height_halves_to_0"])
def test_invalid_config_exits_2(tmp_path, capsys, body, needles):
    bad = tmp_path / "bad.ini"
    bad.write_text(body, encoding="utf-8")
    assert run(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and all(n in err for n in needles)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("body, message", [
    ("[room]\nheight = nan\n[ue]\nheight = 4\n", "[room] height: must be finite"),
    ("[room]\nlength = nan\n[ap]\nx = 7\n", "[room] length: must be finite"),
    ("[sim]\nsnr_start_db = nan\nsnr_stop_db = -5\n", "[sim] snr_start_db: must be finite"),
    ("[sim]\nsnr_stop_db = nan\nsnr_start_db = 50\n", "[sim] snr_stop_db: must be finite"),
    ("[room]\nwidth = inf\n[irs]\nn_per_side = 60\n", "[room] width: must be finite"),
    ("[room]\nlength = nan\n[blockers]\ndensities = 0, 1e5\n", "[room] length: must be finite"),
    ("[room]\nheight = inf\n[walls]\npatch_size = 0.002\n", "[room] height: must be finite"),
    ("[sim]\nsnr_start_db = -inf\nsnr_step_db = 0.01\nsnr_stop_db = 20\n",
     "[sim] snr_start_db: must be finite"),
    # the non-finite key is the second one a cross-key check reads
    ("[room]\nheight = 0.5\n[ue]\nheight = nan\n[irs]\ntype = none\n",
     "[ue] height: must be finite"),
    ("[sim]\nsnr_start_db = -5000\nsnr_step_db = nan\n", "[sim] snr_step_db: must be finite"),
    ("[room]\nlength = 1000\nwidth = 1000\n[walls]\npatch_size = nan\n[blockers]\n"
     "densities = 0\n", "[walls] patch_size: must be finite"),
    ("[room]\nlength = 1000\nwidth = 1000\n[walls]\npatch_size = 5\n[blockers]\n"
     "densities = nan\n", "[blockers] densities: must be finite"),
    # with every value finite the cross-key check reports
    ("[sim]\nsnr_start_db = 50\n", "[sim] snr_stop_db: must not lie below snr_start_db"),
    ("[ap]\nx = nan\n[sim]\ntrials = 0\n", "[ap] x: must be finite"),
], ids=["room_height-ue", "room_length-ap", "snr_start-stop", "snr_stop-start",
        "room_width-arrays", "room_length-densities", "room_height-patches",
        "snr_start-points", "ue_height-room", "snr_step-points", "patch_size-room",
        "densities-room", "stop_below_start", "ap_x-trials"])
def test_a_non_finite_value_is_reported_alone(tmp_path, capsys, body, message):
    # a non-finite value is reported alone: the range and cross-key checks run only
    # once every number is finite, whether or not they would read that value
    bad = tmp_path / "bad.ini"
    bad.write_text(body, encoding="utf-8")
    assert run(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("body, messages", [
    ("[room]\ndepth = 3\n[sim]\ntrials = 0\n", ["[room] depth: unknown setting"]),
    ("[room]\ndepth = 3\nlength = tall\n[sim]\ntrials = 0\n",
     ["[room] depth: unknown setting", "[room] length: cannot parse 'tall' as float"]),
], ids=["unknown_key", "unknown_key-unparseable"])
def test_unknown_keys_and_unparseable_values_are_reported_alone(tmp_path, capsys, body,
                                                                messages):
    # the parse stage reports together, and its errors hide the range checks
    bad = tmp_path / "bad.ini"
    bad.write_text(body, encoding="utf-8")
    assert run(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {m}" for m in messages]
    assert not (tmp_path / "o").exists()


def _source_on_a_wall(tmp_path, irs_type, ap):
    config = tmp_path / "wall.ini"
    config.write_text(f"[ap]\n{ap}\n[irs]\ntype = {irs_type}\nn_per_side = 6\n"
                      "[blockers]\ndensities = 0, 0.4\n[sim]\ntrials = 60\nseed = 2\n"
                      "snr_step_db = 5\n", encoding="utf-8")
    return run(["simulate", "--config", str(config), "--out", str(tmp_path / "o"),
                "--threads", "1"])


@pytest.mark.parametrize("ap", ["x = 0", "x = 1e-9", "y = 5"])
def test_a_source_that_does_not_clear_a_mirror_array_exits_2(tmp_path, capsys, ap):
    # on the x = 0 wall, 1e-9 m in front of it, and on the far y wall of the stock room
    assert _source_on_a_wall(tmp_path, "mirror", ap) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: [ap]: source must lie more than ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("irs_type, ap, sha", [
    ("metasurface", "x = 0", "5f140baf5b5038bd3e7decbed00118c8b0ba4048820e27a890d58313c1d4fc93"),
    ("metasurface", "x = 1e-9",
     "cb192e462c30e6559d85906ef9566f5d1b4fe5754abb81a2f4457c8d73a9e848"),
    ("metasurface", "y = 5", "80af36283cf5e46ba660d64a09ee99e76727fb5324c2c5dd359f23ce6ec266d7"),
    ("none", "x = 0", "6ebee65a427b05a28e82559d6bc8d2fe61f3695c38e2fa696c6f22a400f69e3d"),
    ("none", "x = 1e-9", "a8a69b94bb31ebb706c83e72182ade8b83aa21ad700fc995c0e20ef0f98607c0"),
    ("none", "y = 5", "0997f5bfb0fa61a7242eb3d66811627d3bd1a63a28e8149af2b3ad93e452106b"),
])
def test_a_source_on_a_wall_runs_without_mirror_arrays(tmp_path, irs_type, ap, sha):
    # the clearance rule is the mirror bank's: the other layouts keep their curves
    assert _source_on_a_wall(tmp_path, irs_type, ap) == 0
    assert hashlib.sha256((tmp_path / "o" / "curves.csv").read_bytes()).hexdigest() == sha


def test_wall_settings_change_the_curves(small_config, tmp_path):
    # each [walls] key reaches the run: the patch size and reflection order
    # change the curves beyond what the reflectivity alone does
    curves = []
    for walls in ("", "reflectivity = 0.5\n",
                  "reflectivity = 0.5\npatch_size = 0.5\nreflection_order = 1\n"):
        config = tmp_path / "walls.ini"
        config.write_text(SMALL + "[walls]\n" + walls, encoding="utf-8")
        out = tmp_path / f"out{len(curves)}"
        assert run(["simulate", "--config", str(config), "--out", str(out),
                    "--threads", "1"]) == 0
        curves.append((out / "curves.csv").read_bytes())
    assert len(set(curves)) == 3


def test_bad_threads_exit_2(small_config, tmp_path):
    assert run(["simulate", "--config", small_config, "--out", str(tmp_path / "o"),
                "--threads", "0"]) == 2


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_invalid_threads_env_exits_2(small_config, tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("IRSVLC_THREADS", value)
    assert run(["simulate", "--config", small_config, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "IRSVLC_THREADS" in err
    assert not (tmp_path / "o").exists()


@linux_only
@pytest.mark.parametrize("threads, trials, workers", [(2, 1000, 2), (64, 3, 3), (4, 1, 1)])
def test_summary_reports_the_pool_size(small_config, tmp_path, inline_pool, threads, trials,
                                       workers):
    # the workers the run started, or 1 when its chunks ran in-process
    out = tmp_path / "out"
    assert run(["simulate", "--config", small_config, "--out", str(out),
                "--threads", str(threads), "--trials", str(trials)]) == 0
    assert load_summary(out / "summary.json")["workers"] == workers
    assert inline_pool == ([workers] if workers > 1 else [])


def test_default_threads_count_the_usable_cpus(monkeypatch):
    monkeypatch.delenv("IRSVLC_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1}, raising=False)
    assert cli._threads_default() == 1
    monkeypatch.delattr(os, "sched_getaffinity")  # where the OS has no affinity mask
    assert cli._threads_default() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._threads_default() == 1
    monkeypatch.setenv("IRSVLC_THREADS", "3")
    assert cli._threads_default() == 3


def test_unwritable_output_exits_3(small_config, tmp_path, capsys):
    blocking_file = tmp_path / "not_a_dir"
    blocking_file.write_text("", encoding="utf-8")
    code = run(["simulate", "--config", small_config,
                "--out", str(blocking_file / "sub"), "--threads", "1"])
    assert code == 3
    assert "output error" in capsys.readouterr().err


def test_sweep_density(small_config, tmp_path):
    out = tmp_path / "sweep"
    assert run(["sweep", "--config", small_config, "--out", str(out),
                "--threads", "1", "--vary", "density", "--values", "0,0.8"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "density,blocker_density,scenario,required_snr_db"
    assert len(lines) == 1 + 2 * 3  # two density values, three scenarios
    summary = load_summary(out / "sweep_summary.json")
    assert summary["vary"] == "density" and summary["values"] == [0.0, 0.8]
    assert len(summary["monotonicity"]) == 3


def test_negative_zero_density_reads_as_zero(tmp_path, capsys):
    # a -0 density runs, and is labeled, as 0 in the config file and in --values
    curves = []
    for densities in ("0, 0.4", "-0, 0.4"):
        cfg = tmp_path / "zero.ini"
        cfg.write_text(SMALL.replace("densities = 0, 0.4", f"densities = {densities}"),
                       encoding="utf-8")
        out = tmp_path / f"sim{len(curves)}"
        assert run(["simulate", "--config", str(cfg), "--out", str(out),
                    "--threads", "1"]) == 0
        curves.append((out / "curves.csv").read_bytes())
        summary = load_summary(out / "summary.json")
        assert [r["blocker_density"] for r in summary["results"]][:3] == [0.0] * 3
        # the summary also echoes the out dir, whose temp path may hold "-0"
        assert "-0" not in json.dumps(summary["results"])
        assert summary["config"]["blockers"]["densities"] == "0.0,0.4"
    assert curves[0] == curves[1]
    assert "density 0 los_only" in capsys.readouterr().out
    out = tmp_path / "sweep"
    assert run(["sweep", "--config", str(cfg), "--out", str(out), "--threads", "1",
                "--vary", "density", "--values=-0,0,1"]) == 0
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [r[:2] for r in rows] == [["0", "0"]] * 6 + [["1", "1"]] * 3
    assert load_summary(out / "sweep_summary.json")["values"] == [0.0, 0.0, 1.0]


def test_experiment_takes_its_densities_from_the_config():
    assert list(inspect.signature(cli._experiment_curves).parameters) == ["cfgs", "threads"]
    cfg = RunConfig(irs_type="none", trials=2, densities=(0.4, 0.0, 0.4))
    (readouts,), _ = cli._experiment_curves([cfg], 1)
    assert list(readouts) == [0.0, 0.4]


def test_sweep_density_matches_simulate(small_config, tmp_path):
    out = tmp_path / "sweep"
    assert run(["sweep", "--config", small_config, "--out", str(out),
                "--threads", "1", "--vary", "density", "--values", "0,0.8"]) == 0
    rows = load_summary(out / "sweep_summary.json")["rows"]
    swept = {(r["blocker_density"], r["scenario"]): r["required_snr_db"] for r in rows}
    simulated = {}
    for density in ("0", "0.8"):
        cfg = tmp_path / f"d{density}.ini"
        cfg.write_text(SMALL.replace("densities = 0, 0.4", f"densities = {density}"),
                       encoding="utf-8")
        sim = tmp_path / f"sim{density}"
        assert run(["simulate", "--config", str(cfg), "--out", str(sim),
                    "--threads", "1"]) == 0
        results = load_summary(sim / "summary.json")["results"]
        simulated.update({(r["blocker_density"], r["scenario"]): r["required_snr_db"]
                          for r in results})
    assert swept == simulated


def test_sweep_n_per_side_matches_simulate(small_config, tmp_path):
    out = tmp_path / "sweep"
    assert run(["sweep", "--config", small_config, "--out", str(out),
                "--threads", "1", "--vary", "n_per_side", "--values", "2,4"]) == 0
    rows = load_summary(out / "sweep_summary.json")["rows"]
    swept = {(r["value"], r["blocker_density"], r["scenario"]):
             (r["required_snr_db"], r["censored"]) for r in rows}
    simulated = {}
    for n in (2, 4):
        cfg = tmp_path / f"n{n}.ini"
        cfg.write_text(SMALL.replace("n_per_side = 6", f"n_per_side = {n}"), encoding="utf-8")
        sim = tmp_path / f"sim{n}"
        assert run(["simulate", "--config", str(cfg), "--out", str(sim),
                    "--threads", "1"]) == 0
        results = load_summary(sim / "summary.json")["results"]
        simulated.update({(n, r["blocker_density"], r["scenario"]):
                          (r["required_snr_db"], r["censored"]) for r in results})
    assert swept == simulated


def test_sweep_csv_independent_of_threads(small_config, tmp_path):
    # the n_per_side sweep runs several reflector banks through the worker pool
    for vary, values in (("density", "0,0.5,2"), ("n_per_side", "2,4,4,3")):
        outs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"{vary}{threads}"
            assert run(["sweep", "--config", small_config, "--out", str(out), "--threads",
                        threads, "--vary", vary, "--values", values]) == 0
            outs[threads] = (out / "sweep.csv").read_bytes()
        assert outs["1"] == outs["2"]


@pytest.mark.parametrize("args", [
    ["simulate"],
    ["sweep", "--vary", "density", "--values", "0,0.4,1"],
    ["sweep", "--vary", "n_per_side", "--values", "2,3,4"],
], ids=["simulate", "sweep-density", "sweep-n_per_side"])
def test_one_pose_pass_per_invocation(small_config, tmp_path, monkeypatch, args):
    # one scene, one run_trials call, one diffuse field (one wall_patches call
    # and one patch_incident_power call for the one source) and one pose per
    # trial, however many densities or array sizes the invocation reads out
    calls = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*a, **kw):
            calls[name] += 1
            return real(*a, **kw)
        monkeypatch.setattr(module, name, counted)

    for name in ("build_scene", "run_trials"):
        count(cli, name)
    for name in ("wall_patches", "patch_incident_power", "sample_ue"):
        count(simulator, name)
    assert run([*args, "--config", small_config, "--out", str(tmp_path / "o"),
                "--threads", "1"]) == 0
    assert calls == {"build_scene": 1, "run_trials": 1, "wall_patches": 1,
                     "patch_incident_power": 1, "sample_ue": 60}


@pytest.mark.parametrize("irs_type, args, per_density, densities", [
    ("none", ["sweep", "--vary", "density", "--values", "0,0.4,1"], 2, 3),
    ("mirror", ["simulate"], 3, 2),
], ids=["array-free-sweep", "mirror-simulate"])
def test_identical_gain_vectors_share_one_curve(tmp_path, monkeypatch, irs_type, args,
                                                per_density, densities):
    # without arrays h_irs is 0.0 in every trial, so los_nlos_irs reads the los_nlos
    # gains bit for bit and takes that curve; with arrays all three curves differ
    config = tmp_path / "run.ini"
    config.write_text(SMALL.replace("[irs]\n", f"[irs]\ntype = {irs_type}\n"), encoding="utf-8")
    calls = []
    real = cli.ser_curve
    monkeypatch.setattr(cli, "ser_curve", lambda gains, scn, *a: calls.append(scn) or
                        real(gains, scn, *a))
    out = tmp_path / "o"
    assert run([*args, "--config", str(config), "--out", str(out), "--threads", "1"]) == 0
    assert len(calls) == per_density * densities
    if irs_type == "none":
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        got = {(row[0], row[2]): row[3] for row in rows}  # density, scenario: required SNR
        assert {scn for _, scn in got} == {"los_only", "los_nlos", "los_nlos_irs"}
        assert all(got[d, "los_nlos_irs"] == got[d, "los_nlos"] for d, _ in got)


# sha256 of the bytes the SMALL config writes. The floats come from numpy, so the
# pins hold for one toolchain (Python 3.11.7, numpy 2.4.6) and for the exp loop
# numpy dispatches to (AVX-512 on x86-64), which the Q function's erfc calls; a
# change that means to move a bit re-pins them and says why
PINNED = {
    "curves": "b3ba6166142bf59915d3fa126ad8381bd0f19cf86b5597b85f8df08be5d27222",
    "density": "3f4b9c0b26b023b276dc42946e4237e070ea4d6bf579d5ac289dc51c08a96404",
    "n_per_side": "859fa9de3382a9bd571de08b1290de6bf76ae3df4dd1d5fd1955d676763ba4e0",
}


@pytest.mark.parametrize("pin, threads, args", [
    ("curves", "1", ["simulate"]),
    ("curves", "2", ["simulate"]),
    ("density", "1", ["sweep", "--vary", "density", "--values", "0,0.4,1"]),
    ("n_per_side", "1", ["sweep", "--vary", "n_per_side", "--values", "2,4"]),
], ids=["simulate-t1", "simulate-t2", "sweep-density", "sweep-n_per_side"])
def test_outputs_keep_their_pinned_bytes(small_config, tmp_path, pin, threads, args):
    out = tmp_path / "o"
    assert run([*args, "--config", small_config, "--out", str(out), "--threads", threads]) == 0
    name = "curves.csv" if args[0] == "simulate" else "sweep.csv"
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == PINNED[pin]


# sha256 of the SMALL config's summary (echoed out dir as OUT, timing keys
# removed, re-serialised with indent=2) and of its stdout (out dir as OUT)
PINNED_SUMMARIES = {
    "simulate": ("6d4db895997bf445ab8ba18c73ebafe6fe811729df93d3171382c194f2876f27",
                 "04def35de80761617e497959d31ea3c118283068ee2921334e3929ff7c66d4d3"),
    "density": ("87fd1bccadc1281b1aa41128b5fa6798c24f5ab492ed0608fad543cedc67577e",
                "b28f18c6c8e203fc7d854f1fc92bb12c76bd3d48c600b1425118331f39c27c1b"),
    "n_per_side": ("8f2edbcecf88ca4da6356839c7fc607317b703d78f366eed14d126fcc7932b00",
                   "9f5e6d1fc8ee4378b6abb98a1275a8b80eed2ac37879988a51a110595ba10af6"),
}


@pytest.mark.parametrize("pin, args", [
    ("simulate", ["simulate"]),
    ("density", ["sweep", "--vary", "density", "--values", "0,0.4,1"]),
    ("n_per_side", ["sweep", "--vary", "n_per_side", "--values", "2,4"]),
], ids=["simulate", "sweep-density", "sweep-n_per_side"])
def test_summaries_and_stdout_keep_their_pinned_bytes(small_config, tmp_path, capsys, pin,
                                                      args):
    out = tmp_path / "o"
    assert run([*args, "--config", small_config, "--out", str(out), "--threads", "1"]) == 0
    name = "summary.json" if args[0] == "simulate" else "sweep_summary.json"
    summary = load_summary(out / name)
    summary["config"]["output"]["dir"] = "OUT"
    for key in ("wallclock_seconds", "stage_seconds", "trials_per_second"):
        summary.pop(key, None)
    stdout = capsys.readouterr().out.replace(str(out), "OUT")
    assert tuple(hashlib.sha256(text.encode()).hexdigest()
                 for text in (json.dumps(summary, indent=2), stdout)) == PINNED_SUMMARIES[pin]


def test_sweep_rejects_unparseable_values(small_config, tmp_path):
    assert run(["sweep", "--config", small_config, "--out", str(tmp_path / "o"),
                "--vary", "density", "--values", "0,abc"]) == 2
    assert run(["sweep", "--config", small_config, "--out", str(tmp_path / "o"),
                "--vary", "n_per_side", "--values", "6,80"]) == 2


def test_sweep_rejects_non_finite_density(small_config, tmp_path, capsys):
    assert run(["sweep", "--config", small_config, "--out", str(tmp_path / "o"),
                "--vary", "density", "--values", "0,inf"]) == 2
    assert "config error: [blockers] densities: must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_svg_chart_is_well_formed(small_config, tmp_path):
    out = tmp_path / "out"
    assert run(["simulate", "--config", small_config, "--out", str(out),
                "--threads", "1", "--svg"]) == 0
    root = ET.fromstring((out / "curves.svg").read_text())
    assert root.tag.endswith("svg")
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == 6  # one curve per scenario and density


def test_verify_fast_smoke(capsys):
    assert run(["verify", "--fast"]) == 0
    assert "verify: reflector bank vs single-cell reference: PASS" in capsys.readouterr().out


def test_verify_reports_a_zero_closed_form_gain(monkeypatch):
    monkeypatch.setattr(cli.oracles, "mirror_element_gain", lambda *args: 0.0)
    assert cli._verify_mirror_normals(3) == (False, "closed-form orientation produced zero gain")


def test_verify_failure_exits_1_and_runs_every_check(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_verify_q", lambda points: (False, "forced"))
    assert run(["verify", "--fast"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "verify: q-function quadrature: FAIL (forced)" in lines
    assert len(lines) == 4 and sum(": PASS (" in line for line in lines) == 3
