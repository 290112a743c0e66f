"""The package's public surface: every exported name exists, once, and the
names that external tools look up in a module's own namespace stay there."""

import ast
import importlib
import inspect
from pathlib import Path

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
    # perfbench's tracer reads trial_rng's trial_index; a run evaluates trials start..stop-1
    assert "trial_index" in inspect.signature(simulator.trial_rng).parameters
    assert list(inspect.signature(simulator.compute_trials).parameters) == ["ens", "start", "stop"]
    # the call shapes perfbench's set-up uses (worker.timed_setup)
    inspect.signature(config.build_scene).bind(object(), 0.0)
    inspect.signature(channel.wall_patches).bind(object(), 0.25, 0.7)
    inspect.signature(channel.patch_incident_power).bind(object(), object(), (), order=2)
    # a run's input is one scene plus its densities and array layouts, which it must be
    # given: the layouts are the one way it gets arrays, and the scene's own density is
    # no default; perfbench wraps cli.run_trials and reads only its threads keyword
    for fn in (simulator.run_trials, simulator.Ensemble.build):
        params = inspect.signature(fn).parameters
        assert next(iter(params)) == "scene", fn.__name__
        for name in ("densities", "layouts"):
            assert params[name].default is inspect.Parameter.empty, (fn.__name__, name)
    for kwargs in ({"densities": (0.0,)}, {"layouts": [((), ())]}):
        with pytest.raises(TypeError):
            inspect.signature(simulator.run_trials).bind(object(), 10, 1, **kwargs)
    inspect.signature(simulator.run_trials).bind(object(), 10, 1, densities=(0.0,),
                                                 layouts=[((), ())])
    inspect.signature(simulator.run_trials).bind(object(), 10, 1, threads=2, densities=(0.0,),
                                                 layouts=[((), ())])
    inspect.signature(simulator.Ensemble.build).bind(object(), 1, (0.0,), [((), ())])
    inspect.signature(config.build_layout).bind(object())
    # the scene attributes it reads: the one source in scene.aps, the room and the
    # wall reflectivity
    scene = config.build_scene(config.RunConfig(), 0.0)
    assert type(scene.aps) is tuple and len(scene.aps) == 1
    assert isinstance(scene.aps[0], irsvlc.Luminaire)
    assert isinstance(scene.room, irsvlc.Room) and isinstance(scene.wall_reflectivity, float)
    assert next(iter(inspect.signature(irsvlc.ReflectorBank).parameters)) == "ap"


def test_run_records_hold_only_what_is_read():
    from dataclasses import fields
    shapes = {irsvlc.Ensemble: ["scene", "seed", "powered", "banks", "means"],
              irsvlc.TrialGains: ["h_los", "h_nlos", "h_irs"],
              irsvlc.SerCurve: ["scenario", "snr_db", "ser", "stderr", "mean_square_gain"],
              irsvlc.ReflectorArray: ["normal", "centers", "scale"],
              # no arrays: a run's layouts are the one way it gets them
              irsvlc.Scene: ["room", "aps", "blocker_model", "orientation_model", "ue_height",
                             "wall_reflectivity", "patch_size", "nlos_order", "pd_area",
                             "pd_fov"]}
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


# defined in src/irsvlc but referenced by name only outside it, each with its reason
UNREFERENCED = {
    # the tests' reference for the zero-length slab test, which a run uses for containment
    "geometry.OrientedBoxes.contains_interior",
}


def test_every_definition_is_referenced_or_exported():
    # a function, class or module-level name that no module of the package reads
    # and __all__ does not export is dead code: the tests are its only readers
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(irsvlc.__file__).parent.glob("*.py"))}
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))
             and not isinstance(node.ctx, ast.Store)}
    unreferenced = []

    def check(name, where):
        dunder = name.startswith("__") and name.endswith("__")
        if not (dunder or name in named or name in irsvlc.__all__):
            unreferenced.append(where + name)

    def visit(node, prefix, top):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                check(child.name, prefix)
                visit(child, f"{prefix}{child.name}.", False)
            else:
                if top and isinstance(child, (ast.Assign, ast.AnnAssign)):
                    targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                    for target in targets:
                        for leaf in ast.walk(target):
                            if isinstance(leaf, ast.Name):
                                check(leaf.id, prefix)
                visit(child, prefix, top)

    for module, tree in trees.items():
        visit(tree, module + ".", True)
    assert sorted(unreferenced) == sorted(UNREFERENCED)
