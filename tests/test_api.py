"""The package's public surface: every exported name exists, once, and the
names that external tools look up in a module's own namespace stay there."""

import importlib
import inspect

import pytest

import irsvlc
from irsvlc import cli
from irsvlc.cli import main

# (module, names it looks up in its own namespace at call time); a tracer that
# wraps one of these attributes sees every call the run makes
LOOKED_UP = [
    ("irsvlc.cli", ("build_scene", "run_trials", "ser_curve", "required_snr", "load_config")),
    ("irsvlc.simulator", ("wall_patches", "patch_incident_power", "compute_trials", "trial_rng",
                          "sample_ue", "los_gain")),
]


def test_every_exported_name_resolves():
    missing = [name for name in irsvlc.__all__ if not hasattr(irsvlc, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(irsvlc.__all__) == len(set(irsvlc.__all__))


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from irsvlc import *", namespace)
    assert set(irsvlc.__all__) <= set(namespace)


@pytest.mark.parametrize("module, names", LOOKED_UP, ids=[m for m, _ in LOOKED_UP])
def test_looked_up_names_resolve_in_their_module(module, names):
    mod = importlib.import_module(module)
    assert [n for n in names if not callable(getattr(mod, n, None))] == []


def test_run_path_signatures():
    from irsvlc import channel, config, simulator
    for fn in (simulator.compute_trial, simulator.trial_rng):
        assert "trial_index" in inspect.signature(fn).parameters, fn.__name__
    # the call shapes perfbench's set-up uses (worker.timed_setup)
    inspect.signature(config.build_scene).bind(object(), 0.0)
    inspect.signature(channel.wall_patches).bind(object(), 0.25, 0.7)
    inspect.signature(channel.patch_incident_power).bind(object(), object(), (), order=2)
    # a run's input is one scene plus its array layouts; perfbench wraps cli.run_trials
    # and reads only its threads keyword
    for fn in (simulator.run_trials, simulator.Ensemble.build):
        assert next(iter(inspect.signature(fn).parameters)) == "scene", fn.__name__
    inspect.signature(simulator.run_trials).bind(object(), 10, 1)
    inspect.signature(simulator.run_trials).bind(object(), 10, 1, threads=2, densities=(0.0,),
                                                 layouts=[((), ())])
    inspect.signature(simulator.Ensemble.build).bind(object(), 1, (0.0,), layouts=[((), ())])


def test_run_records_hold_only_what_is_read():
    from dataclasses import fields
    shapes = {irsvlc.Ensemble: ["scene", "seed", "powered", "banks", "means"],
              irsvlc.TrialGains: ["h_los", "h_nlos", "h_irs"],
              irsvlc.SerCurve: ["scenario", "snr_db", "ser", "stderr", "mean_square_gain"],
              irsvlc.ReflectorArray: ["wall", "normal", "centers", "scale"]}
    for cls, names in shapes.items():
        assert [f.name for f in fields(cls)] == names, cls.__name__
    assert "seed" not in inspect.signature(irsvlc.ser_curve).parameters


def test_simulate_passes_threads_to_run_trials_by_keyword(tmp_path, monkeypatch):
    calls = []
    real = cli.run_trials

    def recording(*args, **kwargs):
        calls.append((len(args), set(kwargs)))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_trials", recording)
    assert main(["simulate", "--trials", "3", "--threads", "1",
                 "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1 and "threads" in calls[0][1]
