"""End-to-end command-line runs against temp directories."""

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from irsvlc import cli
from irsvlc.cli import main

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

    summary = json.loads((out / "summary.json").read_text())
    assert summary["trials"] == 60 and summary["seed"] == 2
    assert len(summary["results"]) == 6
    assert summary["config"]["sim"]["snr_step_db"] == "5.0"
    assert any(g["from"] == "los_nlos" and g["to"] == "los_nlos_irs"
               for g in summary["gaps_db"])
    printed = capsys.readouterr().out
    assert "required SNR" in printed and "outputs written" in printed


def test_summary_reports_stage_timings(small_config, tmp_path):
    out = tmp_path / "out"
    assert run(["simulate", "--config", small_config, "--out", str(out),
                "--threads", "1"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["stage_seconds"]) == {"build_scene", "run_trials", "ser_curves"}
    assert all(v >= 0.0 for v in summary["stage_seconds"].values())
    assert summary["trials_per_second"] > 0.0
    assert summary["workers"] == 1


def test_censored_readout_is_flagged(tmp_path, capsys):
    # baseline normalization puts the array curve under target at the first
    # grid point on the stock scene: the readout is the grid start, flagged
    cfg = tmp_path / "baseline.ini"
    cfg.write_text("[blockers]\ndensities = 0\n[sim]\ntrials = 200\n"
                   "normalization = baseline\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 0
    rows = {r["scenario"]: r for r in json.loads((out / "summary.json").read_text())["results"]}
    assert rows["los_nlos_irs"]["censored"] is True
    assert rows["los_nlos_irs"]["required_snr_db"] == 0.0
    assert rows["los_nlos"]["censored"] is False
    assert "los_nlos_irs: required SNR 0.0" in capsys.readouterr().out
    sweep = tmp_path / "sweep"
    assert run(["sweep", "--config", str(cfg), "--out", str(sweep), "--threads", "1",
                "--vary", "density", "--values", "0"]) == 0
    rows = json.loads((sweep / "sweep_summary.json").read_text())["rows"]
    assert [r["censored"] for r in rows if r["scenario"] == "los_nlos_irs"] == [True]
    assert "0,0,los_nlos_irs,0.0" in (sweep / "sweep.csv").read_text().splitlines()


def test_cli_import_leaves_scipy_integrate_unloaded():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = "import sys, irsvlc.cli; print('scipy.integrate' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "False"


def test_config_echo_reproduces_byte_identical_outputs(small_config, tmp_path):
    first = tmp_path / "a"
    assert run(["simulate", "--config", small_config, "--out", str(first),
                "--threads", "1"]) == 0
    echo = json.loads((first / "summary.json").read_text())["config"]
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
], ids=["out_of_range", "nan"])
def test_invalid_config_exits_2(tmp_path, capsys, body, needles):
    bad = tmp_path / "bad.ini"
    bad.write_text(body, encoding="utf-8")
    assert run(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and all(n in err for n in needles)
    assert not (tmp_path / "o").exists()


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
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["vary"] == "density" and summary["values"] == [0.0, 0.8]
    assert len(summary["monotonicity"]) == 3


def test_sweep_density_matches_simulate(small_config, tmp_path):
    out = tmp_path / "sweep"
    assert run(["sweep", "--config", small_config, "--out", str(out),
                "--threads", "1", "--vary", "density", "--values", "0,0.8"]) == 0
    rows = json.loads((out / "sweep_summary.json").read_text())["rows"]
    swept = {(r["blocker_density"], r["scenario"]): r["required_snr_db"] for r in rows}
    simulated = {}
    for density in ("0", "0.8"):
        cfg = tmp_path / f"d{density}.ini"
        cfg.write_text(SMALL.replace("densities = 0, 0.4", f"densities = {density}"),
                       encoding="utf-8")
        sim = tmp_path / f"sim{density}"
        assert run(["simulate", "--config", str(cfg), "--out", str(sim),
                    "--threads", "1"]) == 0
        results = json.loads((sim / "summary.json").read_text())["results"]
        simulated.update({(r["blocker_density"], r["scenario"]): r["required_snr_db"]
                          for r in results})
    assert swept == simulated


def test_sweep_n_per_side_matches_simulate(small_config, tmp_path):
    out = tmp_path / "sweep"
    assert run(["sweep", "--config", small_config, "--out", str(out),
                "--threads", "1", "--vary", "n_per_side", "--values", "2,4"]) == 0
    rows = json.loads((out / "sweep_summary.json").read_text())["rows"]
    swept = {(r["value"], r["blocker_density"], r["scenario"]):
             (r["required_snr_db"], r["censored"]) for r in rows}
    simulated = {}
    for n in (2, 4):
        cfg = tmp_path / f"n{n}.ini"
        cfg.write_text(SMALL.replace("n_per_side = 6", f"n_per_side = {n}"), encoding="utf-8")
        sim = tmp_path / f"sim{n}"
        assert run(["simulate", "--config", str(cfg), "--out", str(sim),
                    "--threads", "1"]) == 0
        results = json.loads((sim / "summary.json").read_text())["results"]
        simulated.update({(n, r["blocker_density"], r["scenario"]):
                          (r["required_snr_db"], r["censored"]) for r in results})
    assert swept == simulated


def test_sweep_csv_independent_of_threads(small_config, tmp_path):
    outs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        assert run(["sweep", "--config", small_config, "--out", str(out), "--threads",
                    threads, "--vary", "density", "--values", "0,0.5,2"]) == 0
        outs[threads] = (out / "sweep.csv").read_bytes()
    assert outs["1"] == outs["2"]


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
