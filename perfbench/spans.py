"""In-memory span tracing around the public names of the `irsvlc` modules.

Spans are recorded by replacing a public name in the module that calls it
(for example `irsvlc.simulator.sample_ue`, which `compute_trial` looks up in
its own module) with a timing wrapper. No program file changes. A name that
no longer exists is listed as absent, so the tracer keeps working when a
later engine stops calling it.

Each span is a list `[name, start_ns, end_ns, parent, trial, attr]`: parent
is the index of the enclosing span (-1 at the root), trial the trial index
that acts as the request id (-1 outside trials), and attr an optional small
value computed from the call's result outside the timed interval.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

NAME, START, END, PARENT, TRIAL, ATTR = range(6)


def _result_len(args, kwargs, result):
    return len(result)


def _los_attr(args, kwargs, result):
    """(gain is zero, blockers passed after receiver thinning)."""
    blockers = args[2] if len(args) > 2 else kwargs.get("blockers", ())
    return (result == 0.0, len(blockers))


def _segment_hit(args, kwargs, result):
    return bool(result)


def _irs_vector_attr(args, kwargs, result):
    """(cells evaluated, cells with nonzero gain, computed bytes).

    Computed bytes: the (n, 3) float64 cell centers read plus the three
    float64 per-cell vectors the cascade writes, from array sizes alone.
    """
    vec = args[0]
    gains = vec.element_gains
    return (int(gains.size), int((gains != 0.0).sum()), 6 * int(gains.nbytes))


# (dotted path of the name as its caller looks it up, span name, trial-index
#  parameter or None, attribute function or None)
TRACE_POINTS = (
    ("irsvlc.cli:load_config", "config.load_config", None, None),
    ("irsvlc.cli:build_scene", "config.build_scene", None, None),
    ("irsvlc.cli:run_trials", "simulator.run_trials", None, None),
    ("irsvlc.cli:ser_curve", "simulator.ser_curve", None, None),
    ("irsvlc.cli:required_snr", "simulator.required_snr", None, None),
    ("irsvlc.simulator:wall_patches", "channel.wall_patches", None, _result_len),
    ("irsvlc.simulator:patch_incident_power", "channel.patch_incident_power", None, None),
    ("irsvlc.simulator:compute_trial", "simulator.compute_trial", "trial_index", None),
    ("irsvlc.simulator:trial_rng", "simulator.trial_rng", "trial_index", None),
    ("irsvlc.simulator:sample_ue", "scene.sample_ue", None, None),
    ("irsvlc.simulator:sample_blockers", "scene.sample_blockers", None, _result_len),
    ("irsvlc.simulator:los_gain", "channel.los_gain", None, _los_attr),
    ("irsvlc.simulator:diffuse_capture", "channel.diffuse_capture", None, None),
    ("irsvlc.simulator:ma_gain", "irs.array_gain", None, None),
    ("irsvlc.simulator:msa_gain", "irs.array_gain", None, None),
    ("irsvlc.irs:IrsChannelVector.total", "irs.total_sum", None, _irs_vector_attr),
    ("irsvlc.channel:segment_intersects_box", "geometry.segment_box", None, _segment_hit),
)


def resolve(path: str):
    """(owner object, attribute name, current value or None) for 'module:a.b'."""
    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr, None
    return owner, attr, getattr(owner, attr, None)


class Tracer:
    """Records spans in memory; one instance per traced invocation."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.absent: list[str] = []

    def _open(self, name: str, trial: int | None) -> list:
        parent = self._stack[-1] if self._stack else -1
        if trial is None:
            trial = self.spans[parent][TRIAL] if parent >= 0 else -1
        rec = [name, 0, 0, parent, trial, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str, trial_param: str | None = None, attr_fn=None):
        """fn with every call recorded as a span called name."""
        trial_pos = None
        if trial_param is not None:
            params = list(inspect.signature(fn).parameters)
            trial_pos = params.index(trial_param) if trial_param in params else None

        def traced(*args, **kwargs):
            trial = None
            if trial_param is not None:
                if trial_pos is not None and trial_pos < len(args):
                    trial = int(args[trial_pos])
                elif trial_param in kwargs:
                    trial = int(kwargs[trial_param])
            rec = self._open(name, trial)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if attr_fn is not None:
                rec[ATTR] = attr_fn(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every name in TRACE_POINTS that exists with its traced form."""
        for path, name, trial_param, attr_fn in TRACE_POINTS:
            owner, attr, fn = resolve(path)
            if fn is None:
                self.absent.append(path)
                continue
            setattr(owner, attr, self.wrap(fn, name, trial_param, attr_fn))


# -- reduction -----------------------------------------------------------------


def _dur(rec) -> float:
    return (rec[END] - rec[START]) * 1e-9


def _ancestor(spans, idx: int, name: str) -> int:
    """Index of the nearest enclosing span called name, else the parent."""
    parent = spans[idx][PARENT]
    p = parent
    while p >= 0:
        if spans[p][NAME] == name:
            return p
        p = spans[p][PARENT]
    return parent


def reduce_spans(spans) -> tuple[dict[str, list[float]], dict[str, float]]:
    """Turn one invocation's spans into metric samples and exact counts.

    Sample lists are in the unit the metric name states. Counts are summed
    over invocations by the caller and divided there.
    """
    by_name: dict[str, list[int]] = defaultdict(list)
    child_time = defaultdict(float)
    for i, rec in enumerate(spans):
        by_name[rec[NAME]].append(i)
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += _dur(rec)

    def durations(name, scale):
        return [_dur(spans[i]) * scale for i in by_name.get(name, ())]

    def self_times(name, scale):
        return [(_dur(spans[i]) - child_time[i]) * scale for i in by_name.get(name, ())]

    def grouped(names, group_by, scale):
        """Sum of span durations per enclosing span (e.g. per trial)."""
        sums = defaultdict(float)
        for name in names:
            for i in by_name.get(name, ()):
                sums[_ancestor(spans, i, group_by)] += _dur(spans[i])
        return [v * scale for v in sums.values()]

    samples = {
        "cli.self_s": self_times("cli.main", 1.0),
        "config.load_config_ms": durations("config.load_config", 1e3),
        "config.build_scene_ms": durations("config.build_scene", 1e3),
        "scene.sample_ue_us": durations("scene.sample_ue", 1e6),
        "scene.sample_blockers_us": durations("scene.sample_blockers", 1e6),
        "simulator.trial_rng_us": durations("simulator.trial_rng", 1e6),
        "simulator.compute_trial_us": durations("simulator.compute_trial", 1e6),
        "simulator.compute_trial_self_us": self_times("simulator.compute_trial", 1e6),
        "simulator.ser_curve_ms": durations("simulator.ser_curve", 1e3),
        "simulator.required_snr_us": durations("simulator.required_snr", 1e6),
        "channel.diffuse_precompute_ms": grouped(
            ("channel.wall_patches", "channel.patch_incident_power"),
            "simulator.run_trials", 1e3),
        "channel.los_gain_us": durations("channel.los_gain", 1e6),
        "channel.diffuse_capture_us": durations("channel.diffuse_capture", 1e6),
        "geometry.segment_box_us": durations("geometry.segment_box", 1e6),
        "irs.array_gain_us": grouped(("irs.array_gain",), "simulator.compute_trial", 1e6),
        "irs.total_sum_us": grouped(("irs.total_sum",), "simulator.compute_trial", 1e6),
    }

    def attrs(name):
        return [spans[i][ATTR] for i in by_name.get(name, ())]

    los = attrs("channel.los_gain")
    seg = attrs("geometry.segment_box")
    irs = attrs("irs.total_sum")
    patches = attrs("channel.wall_patches")
    trial_ids = {spans[i][TRIAL] for name in ("simulator.compute_trial", "simulator.trial_rng")
                 for i in by_name.get(name, ())}
    counts = {
        "build_scene_calls": len(by_name.get("config.build_scene", ())),
        "run_trials_calls": len(by_name.get("simulator.run_trials", ())),
        "sample_ue_calls": len(by_name.get("scene.sample_ue", ())),
        "unique_trials": len(trial_ids),
        "blockers_sampled": sum(attrs("scene.sample_blockers")),
        "sample_blockers_calls": len(by_name.get("scene.sample_blockers", ())),
        "blockers_kept": sum(k for _, k in los),
        "los_calls": len(los),
        "los_zero": sum(z for z, _ in los),
        "segment_box_calls": len(seg),
        "segment_box_hits": sum(seg),
        "irs_elements": sum(e for e, _, _ in irs),
        "irs_active": sum(a for _, a, _ in irs),
        "irs_bytes": sum(b for _, _, b in irs),
        "patches": max(patches, default=0),
    }
    return samples, counts

