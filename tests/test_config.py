"""INI configuration loading, validation and the effective-config echo."""

import os
import re

import pytest

from dataclasses import fields, replace

from irsvlc.config import (_SCHEMA, ConfigError, RunConfig, build_layout, build_scene,
                           effective_sections, load_config, validate)
from irsvlc.scene import Scene
from irsvlc.simulator import Scenario, SnrGrid


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_defaults_without_a_file():
    cfg = load_config(None)
    assert cfg == RunConfig()
    assert cfg.trials == 10_000 and cfg.seed == 1
    assert cfg.nlos_order == 2 and cfg.patch_size == 0.25
    assert cfg.densities == (0.0, 1.0)


def test_file_values_and_lists(tmp_path):
    cfg = load_config(write(tmp_path, """
[room]
length = 6
[irs]
type = metasurface
n_per_side = 10
[blockers]
densities = 0, 0.5, 2
[sim]
scenarios = los_only, los_nlos_irs
trials = 250  # inline comment
"""))
    assert cfg.room_length == 6.0
    assert cfg.irs_type == "metasurface" and cfg.n_per_side == 10
    assert cfg.densities == (0.0, 0.5, 2.0)
    assert [s.value for s in cfg.scenario_list()] == ["los_only", "los_nlos_irs"]
    assert cfg.trials == 250


def test_keyword_overrides_beat_the_file(tmp_path):
    path = write(tmp_path, "[sim]\nseed = 3\ntrials = 100\n")
    cfg = load_config(path, seed=9, trials=None, out_dir="elsewhere")
    assert cfg.seed == 9
    assert cfg.trials == 100  # None override means "not given"
    assert cfg.out_dir == "elsewhere"


def test_unknown_and_malformed_keys_reported_together(tmp_path):
    path = write(tmp_path, "[room]\ndepth = 4\nlength = tall\n")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    messages = "\n".join(exc.value.errors)
    assert "[room] depth" in messages and "unknown setting" in messages
    assert "length" in messages and "tall" in messages


@pytest.mark.parametrize("body, needle", [
    ("[ue]\narea = 0\n", "[ue] area"),
    ("[ue]\nfov_deg = 100\n", "fov_deg"),
    ("[walls]\nreflection_order = 3\n", "reflection_order"),
    ("[sim]\nnormalization = fancy\n", "normalization: unknown setting"),  # not a key
    ("[sim]\nscenarios = los_everything\n", "scenarios"),
    ("[irs]\nn_per_side = 60\n", "n_per_side"),  # 60 * 0.06 m exceeds the wall height
    ("[blockers]\ndensities =\n", "densities"),
    ("[ap]\nx = nan\n", "[ap] x: must be finite"),
    ("[room]\nlength = inf\n", "[room] length: must be finite"),
    ("[sim]\nsnr_stop_db = inf\n", "[sim] snr_stop_db: must be finite"),
    ("[blockers]\ndensities = 0, inf\n", "[blockers] densities: must be finite"),
    ("[walls]\npatch_size = inf\n", "[walls] patch_size: must be finite"),
    ("[ue]\narea = inf\n", "[ue] area: must be finite"),
    ("[ap]\nz = 4.0\n", "[ap]: source position (2.5, 2.5, 4) must lie inside the room"),
    ("[ap]\nx = 9\n", "[ap]: source position (9, 2.5, 3) must lie inside the room"),
    # mean blocker counts above the per-field bound, and one that overflows to inf
    ("[blockers]\ndensities = 0, 1e7\n", "[blockers] densities: blocker density 1e+07"),
    ("[blockers]\ndensities = 0, 1e18\n", "[blockers] densities: blocker density 1e+18"),
    ("[blockers]\ndensities = 1e308\n", "[blockers] densities: blocker density 1e+308"),
])
def test_validation_rejects_bad_settings(tmp_path, body, needle):
    with pytest.raises(ConfigError) as exc:
        load_config(write(tmp_path, body))
    assert needle in "\n".join(exc.value.errors)


def test_validate_lists_every_bad_setting():
    validate(RunConfig())
    with pytest.raises(ConfigError) as exc:
        validate(replace(RunConfig(), densities=(-1.0,), trials=0))
    assert len(exc.value.errors) == 2
    assert any("densities" in e for e in exc.value.errors)


def test_missing_file_raises():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/run.ini")


def test_effective_sections_materialize_ap_position():
    echo = effective_sections(load_config(None))
    assert echo["ap"]["x"] == "2.5"
    assert echo["ap"]["z"] == "3.0"
    assert echo["walls"]["reflection_order"] == "2"
    assert echo["blockers"]["densities"] == "0.0,1.0"


def test_schema_keys_every_run_config_field_once():
    # _SCHEMA is built from the fields, so two fields given one INI key would leave
    # one of them out of it, and out of the file and summary.json's config echo
    assert all("ini" in f.metadata for f in fields(RunConfig))
    assert len(_SCHEMA) == len(fields(RunConfig))


def test_readme_table_lists_every_key():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        rows = [line for line in fh if line.startswith("| `[")]
    keys = set()
    for row in rows:
        section, names = row.split("|")[1:3]
        keys |= {(section.strip().strip("`[]"), k)
                 for k in re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", names))}
    assert keys == set(_SCHEMA)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key", [
    sk for sk, (_, kind) in _SCHEMA.items() if kind in ("float", "float_list")])
def test_each_non_finite_value_is_reported_once(tmp_path, section, key, value):
    # the range checks do not run on a non-finite value, so they add no second message
    with pytest.raises(ConfigError) as exc:
        load_config(write(tmp_path, f"[{section}]\n{key} = {value}\n"))
    assert exc.value.errors == [f"[{section}] {key}: must be finite"]


def test_effective_sections_round_trip(tmp_path):
    base = load_config(None, seed=5, trials=123)
    lines = []
    for section, keys in effective_sections(base).items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in keys.items()]
    again = load_config(write(tmp_path, "\n".join(lines)))
    # the echo pins the source position, so ap_* switch from None to numbers
    assert effective_sections(again) == effective_sections(base)
    assert again.seed == 5 and again.trials == 123


def test_run_config_defaults_are_the_library_defaults():
    cfg = RunConfig()
    assert cfg.grid() == SnrGrid()
    assert cfg.scenario_list() == list(Scenario)
    scene = build_scene(cfg, 0.0)
    defaults = Scene.__dataclass_fields__
    for name in ("wall_reflectivity", "patch_size", "nlos_order"):
        assert getattr(scene, name) == defaults[name].default, name
    # the summary.json echo of these defaults keeps its bytes
    echo = effective_sections(cfg)
    assert echo["sim"]["snr_start_db"] == "0.0" and echo["sim"]["snr_stop_db"] == "40.0"
    assert echo["sim"]["snr_step_db"] == "1.0"
    assert echo["sim"]["scenarios"] == "los_only,los_nlos,los_nlos_irs"
    assert echo["walls"] == {"reflectivity": "0.7", "patch_size": "0.25",
                             "reflection_order": "2"}


def test_build_layout_respects_irs_type():
    cfg = load_config(None, trials=1)
    mirrors, metasurfaces = build_layout(cfg)
    assert len(mirrors) == 4 and not metasurfaces
    mirrors, metasurfaces = build_layout(replace(cfg, irs_type="metasurface"))
    assert len(metasurfaces) == 4 and not mirrors
    assert build_layout(replace(cfg, irs_type="none")) == ((), ())
    assert build_scene(cfg, 0.5).blocker_model.density == 0.5


_EDGE_VALUES = {"float": ("5e-324", "1e-300", "1e300", "1.7e308", "-0.0", "0"),
                "float_list": ("5e-324", "1e-300", "1e300", "1.7e308", "-0.0", "0"),
                "int": ("0", "1", "3", "100000")}


@pytest.mark.parametrize("section, key", [
    sk for sk, (_, kind) in _SCHEMA.items() if kind in _EDGE_VALUES])
def test_every_accepted_edge_value_builds_the_run(tmp_path, section, key):
    # a numeric key at a denormal, tiny, huge or zero value is either a config
    # error or a config whose scene, layout and SNR grid all build: a value that
    # validate accepts and a model rejects would end the run in a traceback
    kind = _SCHEMA[(section, key)][1]
    for value in _EDGE_VALUES[kind]:
        try:
            cfg = load_config(write(tmp_path, f"[{section}]\n{key} = {value}\n"))
        except ConfigError:
            continue
        for density in cfg.densities:
            build_scene(cfg, density)
        build_layout(cfg)
        cfg.grid()
