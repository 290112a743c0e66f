"""Trial ensemble, SER estimation and required-SNR readout."""

import errno
import math
import os
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from irsvlc import (Luminaire, PatchSet, ReflectorBank, RequiredSnr, Scenario, SnrGrid,
                    TrialGains, los_gain, nlos_gain, patch_incident_power, q_function,
                    required_snr, run_trials, ser_curve, segments_intersect_box, trial_rng,
                    vec3, wall_patches)
from irsvlc import channel, config, geometry, irs, oracles, scene as scene_module, simulator
from irsvlc.channel import PoweredPatches
from irsvlc.geometry import OrientedBoxes
from irsvlc.irs import _dot
from irsvlc.scene import BLOCKER_DIMS, MAX_MEAN_BLOCKERS, sample_ue
from irsvlc.simulator import MAX_SNR_DB, MAX_SNR_POINTS, SER_TARGET, Ensemble, compute_trials

from conftest import blocker_field, linux_only, make_layout, make_scene, python_run


def gains_of(h_los):
    """TrialGains with the given direct gains and no diffuse or array gain."""
    h_los = np.asarray(h_los, dtype=float)
    return TrialGains(h_los, np.zeros(h_los.size), np.zeros(h_los.size))


def flat_gains(n, h):
    return gains_of(np.full(n, h))


NO_ARRAYS = ((), ())  # the layout of a run without arrays


def own_density(scene, layout, trials, seed, **kwargs):
    """The TrialGains of a run of one layout at the scene's own blocker density."""
    (gains,) = run_trials(scene, trials, seed, densities=(scene.blocker_model.density,),
                          layouts=[layout], **kwargs)[0].values()
    return gains


def _bits(gains):
    return tuple(a.tobytes() for a in (gains.h_los, gains.h_nlos, gains.h_irs))


# -- per-trial randomness ------------------------------------------------------


def test_trial_rng_reproducible_and_decorrelated():
    assert trial_rng(1, 0).random() == trial_rng(1, 0).random()
    assert trial_rng(1, 0).random() != trial_rng(1, 1).random()
    assert trial_rng(1, 0).random() != trial_rng(2, 0).random()


def test_run_trials_deterministic():
    scene, layout = make_scene(0.5), make_layout(n_per_side=4)
    a = own_density(scene, layout, 20, seed=3)
    assert _bits(a) == _bits(own_density(scene, layout, 20, seed=3))
    c = own_density(scene, layout, 20, seed=4)
    assert (a.h_los != c.h_los).any()


def test_run_trials_validation():
    scene, layouts = make_scene(), [make_layout(n_per_side=4)]
    with pytest.raises(ValueError):
        run_trials(scene, 0, seed=1, densities=(0.0,), layouts=layouts)
    with pytest.raises(ValueError):
        run_trials(scene, 10, seed=-1, densities=(0.0,), layouts=layouts)
    # the densities come from the caller only: the scene's own is no default
    with pytest.raises(TypeError, match="densities"):
        run_trials(scene, 10, 1, layouts=[NO_ARRAYS])


@pytest.mark.parametrize("field, value, message", [
    ("pd_area", 0.0, "detector area"), ("pd_area", 2.0, "must not exceed 1 m"),
    ("pd_fov", 0.0, "field of view")])
def test_bad_detector_fails_when_the_scene_is_built(field, value, message):
    with pytest.raises(ValueError, match=message):
        replace(make_scene(), **{field: value})


@linux_only
@pytest.mark.parametrize("threads, trials, workers", [(64, 3, [3]), (2, 1000, [2]), (4, 1, [])])
def test_the_pool_starts_no_more_workers_than_chunks(inline_pool, threads, trials, workers):
    # a worker beyond the chunk count would only sit idle; one chunk runs in-process
    scene = make_scene(1.0)
    got = own_density(scene, NO_ARRAYS, trials, seed=7, threads=threads)
    assert inline_pool == workers
    assert _bits(got) == _bits(own_density(scene, NO_ARRAYS, trials, seed=7))


# a run whose worker fails at trial 9's chunk; it prints what run_trials raised and
# whether the process has a child left
FAILING_WORKER = """
import os, signal
from irsvlc import RunConfig, build_scene, simulator
compute = simulator.compute_trials
def compute_trials(ens, start, stop):
    if start <= 9 < stop:
        {fail}
    return compute(ens, start, stop)
simulator.compute_trials = compute_trials
try:
    simulator.run_trials(build_scene(RunConfig(), 0.0), 40, 1, threads=2, densities=(0.0,),
                         layouts=[((), ())])
except RuntimeError:
    print("RuntimeError")
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""


def test_off_linux_the_chunks_run_in_process(inline_pool, monkeypatch):
    scene = make_scene(1.0)
    serial = own_density(scene, NO_ARRAYS, 40, seed=7)
    monkeypatch.setattr(sys, "platform", "darwin")
    assert simulator.pool_size(4, 1000) == 1
    assert _bits(own_density(scene, NO_ARRAYS, 40, seed=7, threads=4)) == _bits(serial)
    assert inline_pool == []


@linux_only
@pytest.mark.parametrize("fail, stderr", [
    ("os.kill(os.getpid(), signal.SIGKILL)", ""),
    ("raise ValueError('chunk 9 fails')", "ValueError: chunk 9 fails"),
], ids=["killed", "raises"])
def test_a_failed_worker_fails_the_run_and_leaves_no_child(fail, stderr):
    # the parent sees the worker's result pipe end, kills and reaps the other worker and
    # raises, long before the timeout; the worker's own traceback goes to stderr
    done = python_run(FAILING_WORKER.format(fail=fail), timeout=60)
    assert done.stdout.splitlines() == ["RuntimeError", "no child left"]
    assert stderr in done.stderr


# a run whose call number {call} to os.{name} fails, before the second worker is
# forked; it prints what run_trials raised, whether the process has a child left and
# whether it holds the descriptors it held before the run
FAILED_FORK = """
import errno, os
from irsvlc import RunConfig, build_scene, simulator
real, calls = os.{name}, []
def failing():
    calls.append(None)
    if len(calls) == {call}:
        raise OSError(errno.EAGAIN, "no more processes")
    return real()
os.{name} = failing
scene = build_scene(RunConfig(), 0.0)
held = sorted(os.listdir("/proc/self/fd"))
try:
    simulator.run_trials(scene, 40, 1, threads=2, densities=(0.0,), layouts=[((), ())])
except OSError as e:
    print(os.strerror(e.errno))
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
print(sorted(os.listdir("/proc/self/fd")) == held)
"""


@linux_only
@pytest.mark.parametrize("name, call", [("fork", 2), ("pipe", 2), ("pipe", 4)],
                         ids=["second_fork", "first_result_pipe", "second_result_pipe"])
def test_a_failed_fork_or_pipe_leaves_no_child_and_no_descriptor(name, call):
    done = python_run(FAILED_FORK.format(name=name, call=call), timeout=60)
    assert done.stdout.splitlines() == [os.strerror(errno.EAGAIN), "no child left", "True"]


def test_run_trials_threads_match_serial():
    scene, layout = make_scene(1.0), make_layout(n_per_side=4)
    serial = own_density(scene, layout, 24, seed=7)
    for threads in (0, 2):  # below 1 runs serially
        assert _bits(own_density(scene, layout, 24, seed=7, threads=threads)) == _bits(serial)


@pytest.mark.parametrize("irs", ["mirror", "metasurface", "none"])
@pytest.mark.parametrize("threads", [1, 2])
def test_shared_ensemble_matches_per_density_runs(irs, threads):
    # one pass over the poses must give every array size, at every density,
    # exactly the gains of a run of that size's layout at that density alone
    densities = (0.0, 0.5, 2.0)
    layouts = [make_layout(n_per_side=n, irs_type=irs) for n in (4, 2, 2, 3)]
    runs = run_trials(make_scene(0.5), 24, seed=17, threads=threads, densities=densities,
                      layouts=layouts)
    assert len(runs) == len(layouts)
    for layout, shared in zip(layouts, runs):
        assert list(shared) == list(densities)
        for d in densities:
            own = own_density(make_scene(d), layout, 24, seed=17)
            assert _bits(shared[d]) == _bits(own)
    assert (runs[0][2.0].h_irs != runs[1][2.0].h_irs).any() == (irs != "none")


def test_run_trials_returns_read_only_arrays_shared_across_densities():
    # and across layouts: every layout gets the same h_los rows and h_nlos, and
    # its own h_irs row, which all of its densities share
    scene, layouts = make_scene(0.5), [make_layout(n_per_side=n) for n in (4, 2)]
    runs = run_trials(scene, 12, seed=3, densities=(0.0, 1.0, 4.0, 1.0), layouts=layouts)
    for out in runs:
        assert list(out) == [0.0, 1.0, 4.0]
        for d, gains in out.items():
            for a in (gains.h_los, gains.h_nlos, gains.h_irs):
                assert a.dtype == np.float64 and a.shape == (12,)
                assert a.flags.c_contiguous and not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 1.0
            assert gains.h_los is runs[0][d].h_los and gains.h_nlos is runs[0][0.0].h_nlos
            assert gains.h_irs is out[0.0].h_irs
    assert runs[0][0.0].h_irs is not runs[1][0.0].h_irs


def test_shared_ensemble_sees_blockage(monkeypatch):
    scene = make_scene()
    (out,) = run_trials(scene, 60, seed=5, densities=(0.0, 4.0), layouts=[NO_ARRAYS])
    assert out[0.0].h_nlos is out[4.0].h_nlos
    assert (out[4.0].h_los == 0.0).sum() > (out[0.0].h_los == 0.0).sum()

    def no_work(*args, **kwargs):
        raise AssertionError("the run started")

    # no densities or no layouts fail before the diffuse precompute
    for name in ("compute_trials", "wall_patches", "patch_incident_power", "blocker_means"):
        monkeypatch.setattr(simulator, name, no_work)
    for kwargs in ({"densities": (), "layouts": [NO_ARRAYS]}, {"densities": (0.0,), "layouts": ()}):
        with pytest.raises(ValueError, match="at least one"):
            run_trials(scene, 10, seed=5, **kwargs)
    with pytest.raises(ValueError, match="at least one"):
        Ensemble.build(scene, 1, (0.0,), layouts=())


def test_compute_trial_one_row_per_density():
    scene, layout = make_scene(), make_layout(n_per_side=4)
    ens = Ensemble.build(scene, 3, (0.0, 1.0), [layout])
    h_los, h_nlos, h_irs = compute_trials(ens, 2, 3)
    assert (h_los.shape, h_nlos.shape, h_irs.shape) == ((2, 1), (1,), (1, 1))
    assert all(a.dtype == np.float64 for a in (h_los, h_nlos, h_irs))
    gains = own_density(scene, layout, 3, seed=3)
    assert (h_los[0, 0], h_nlos[0], h_irs[0, 0]) == \
        (gains.h_los[2], gains.h_nlos[2], gains.h_irs[2])


# mean counts 2.5e6, 2.5e19 and inf, each above the per-field bound
@pytest.mark.parametrize("density", [1e5, 1e18, 1e308])
def test_undrawable_density_fails_before_the_first_trial(monkeypatch, density):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(simulator, "compute_trials", no_trials)
    layouts = [make_layout(n_per_side=4)]
    with pytest.raises(ValueError, match="one field may hold"):
        run_trials(make_scene(), 5, seed=1, densities=(0.0, density), layouts=layouts)


def test_densities_are_checked_once_per_run_and_never_per_trial(monkeypatch):
    calls = Counter()
    real_means, real_init = scene_module.blocker_means, scene_module.BlockerModel.__post_init__

    def counting_means(*args):
        calls["blocker_means"] += 1
        return real_means(*args)

    def counting_init(self):
        calls["BlockerModel"] += 1
        real_init(self)

    scene = make_scene()
    for module in (scene_module, simulator):
        monkeypatch.setattr(module, "blocker_means", counting_means)
    monkeypatch.setattr(scene_module.BlockerModel, "__post_init__", counting_init)
    run_trials(scene, 20, seed=4, densities=(0, 0.5, 4), layouts=[NO_ARRAYS])
    assert calls == {"blocker_means": 1}
    ens = Ensemble.build(scene, 4, (0.0, 0.5, 4.0), [NO_ARRAYS])
    calls.clear()
    h_los, _, _ = compute_trials(ens, 0, 50)
    assert calls == {} and (h_los[2] != h_los[0]).any()


def test_wall_settings_reach_the_trial(tmp_path):
    path = tmp_path / "walls.ini"
    path.write_text("[irs]\ntype = none\n[walls]\nreflectivity = 0.5\npatch_size = 0.5\n"
                    "reflection_order = 1\n", encoding="utf-8")
    cfg = config.load_config(str(path))
    scene = config.build_scene(cfg, 0.0)
    ens = Ensemble.build(scene, 6, (0.0,), [config.build_layout(cfg)])
    patches = wall_patches(scene.room, 0.5, 0.5)
    for t, h_nlos in enumerate(compute_trials(ens, 0, 50)[1].tolist()):
        ue = sample_ue(trial_rng(6, t), scene)
        want = nlos_gain(scene.aps[0], ue, patches, (), order=1)
        assert h_nlos.hex() == want.hex(), t


def test_scene_without_arrays_does_no_cell_work(monkeypatch):
    ens = Ensemble.build(make_scene(0.5), 3, (0.0, 0.5), [NO_ARRAYS])
    assert len(ens.banks) == 1 and len(ens.banks[0]) == 0

    def no_cells(*args, **kwargs):
        raise AssertionError("an empty bank evaluated its cells")

    monkeypatch.setattr(ReflectorBank, "cascade", no_cells)
    for h_irs in compute_trials(ens, 0, 20)[2][0].tolist():
        assert h_irs == 0.0 and math.copysign(1.0, h_irs) == 1.0


def _narrow_scene():
    """The stock array-free scene with a 40 degree FOV, so that some trials are unlit."""
    return make_scene(fov_deg=40.0)


def _replayed_direct_gain(scene, seed, trial_index, density):
    """h_los at one density from the trial's own draws, by los_gain over the boxes.

    Also reports whether a drawn box enclosed the receiver and was dropped.
    """
    rng = trial_rng(seed, trial_index)
    ue = sample_ue(rng, scene)
    drawn = blocker_field(rng, scene.room, replace(scene.blocker_model, density=density))
    if drawn is None:
        return los_gain(scene.aps[0], ue), False
    boxes = drawn[~drawn.contains_interior(ue.position)]
    return los_gain(scene.aps[0], ue, boxes), len(boxes) < len(drawn)


def test_fused_occlusion_matches_per_density_replay():
    # every row of the one-pass trial equals an independent replay of its
    # density: own draws, receiver-enclosing boxes dropped, los_gain over the
    # rest; for a narrow FOV with unlit trials and for the stock scene
    for scene, densities in ((_narrow_scene(), (0.0, 0.01, 0.5, 4.0, 0.5)),
                             (make_scene(), (0.0, 0.5, 1.0, 2.0, 4.0))):
        ens = Ensemble.build(scene, 21, densities, [NO_ARRAYS])
        enclosed = blocked = unlit = 0
        for t, h_los in enumerate(compute_trials(ens, 0, 150)[0].T.tolist()):
            assert len(h_los) == len(densities)
            unblocked = _replayed_direct_gain(scene, 21, t, 0.0)[0]
            for d, got in zip(densities, h_los):
                want, dropped = _replayed_direct_gain(scene, 21, t, d)
                assert got.hex() == want.hex(), (t, d)
                enclosed += dropped
                blocked += want < unblocked
            unlit += unblocked == 0.0
        assert enclosed > 0 and blocked > 0 and unlit > 0


def _grazing_corpus(r, cases=320, per_source=8):
    """(source, receiver, boxes) sight lines whose boxes sit on the cull's edges.

    Per line: boxes at the half-diagonal from the floor trace of the part
    below the box top, with a corner pointing at the trace (a grazing
    corner), or turned a hair off; boxes on the cull disk's rim and one ulp
    either side of it, beyond each end of the trace and elsewhere; boxes of
    yaw 0 and of yaw just below pi; a box around the receiver. Sources stand
    on the ceiling, at the box top or below it, each for per_source lines in a
    row.
    """
    hx, hy, hz = (d / 2.0 for d in BLOCKER_DIMS)
    top, diag, corner = 2.0 * hz, math.hypot(hx, hy), math.atan2(hy, hx)
    below_pi = math.nextafter(math.pi, 0.0)
    for k in range(cases):
        if k % per_source == 0:
            p = np.array([*r.uniform(0.0, 5.0, 2), r.choice([3.0, top, r.uniform(0.2, top)])])
        q = np.array([*r.uniform(0.0, 5.0, 2), r.choice([1.0, r.uniform(0.1, top), top])])
        pz, qz = float(p[2]), float(q[2])
        # the part of p->q below the top, or all of it when none is (then no box can cut)
        t0 = (top - pz) / (qz - pz) if pz > top > qz else 0.0
        t1 = (top - pz) / (qz - pz) if qz > top > pz else 1.0
        a, b = p[:2] + t0 * (q - p)[:2], p[:2] + t1 * (q - p)[:2]
        centers, yaws = [], []
        for s in r.uniform(-0.3, 1.3, 12):
            foot = a + min(max(s, 0.0), 1.0) * (b - a)  # nearest trace point beyond the ends
            phi = r.uniform(0.0, 2.0 * math.pi)
            centers.append(foot + diag * np.array([math.cos(phi), math.sin(phi)]))
            # a corner points back at the foot, exactly or a hair off
            yaws.append((phi + math.pi - corner + r.choice([0.0, 1e-12, -1e-12])) % math.pi)
        # on the rim of the cull disk, beyond each end of the trace or anywhere,
        # with a corner pointing back at the trace's midpoint
        mid, rim = (a + b) / 2.0, float(np.hypot(*(b - a))) / 2.0 + diag
        ahead = math.atan2(*(b - a)[::-1])
        for phi in (ahead, ahead + math.pi, *r.uniform(0.0, 2.0 * math.pi, 2)):
            for radius in (rim, math.nextafter(rim, 0.0), math.nextafter(rim, math.inf)):
                centers.append(mid + radius * np.array([math.cos(phi), math.sin(phi)]))
                yaws.append((phi + math.pi - corner) % math.pi)
        for yaw in (0.0, below_pi):
            centers += [a + r.uniform(-0.5, 0.5, 2), b + r.uniform(-0.5, 0.5, 2)]
            yaws += [yaw, yaw]
        centers.append(q[:2] + r.uniform(-0.05, 0.05, 2))  # holds the receiver when q is low
        yaws.append(r.uniform(0.0, math.pi))
        xy = np.array(centers)
        boxes = OrientedBoxes(np.column_stack((xy, np.full(len(xy), hz))), (hx, hy, hz),
                              np.array(yaws))
        yield p, q, boxes


def _hex_gains(runs):
    """Every gain of a run_trials result as float.hex strings, layout by layout."""
    return [[x.hex() for g in out.values() for a in (g.h_los, g.h_nlos, g.h_irs)
             for x in a.tolist()] for out in runs]


def _hex_ranges(ens, trials, size):
    """Every gain of trials 0..trials-1 from compute_trials ranges of `size` trials,
    joined in trial order, as _hex_gains lists them."""
    parts = [compute_trials(ens, a, min(a + size, trials)) for a in range(0, trials, size)]
    h_los, h_nlos, h_irs = (np.concatenate(field, axis=-1) for field in zip(*parts))
    return [[x.hex() for los in h_los for a in (los, h_nlos, irs) for x in a.tolist()]
            for irs in h_irs]


@pytest.mark.parametrize("threads", [1, 2])
def test_trial_blocks_leave_every_bit(monkeypatch, threads):
    # ragged compute_trials ranges of 1, 3 and 16 trials, with the drawn boxes
    # culled at once, every few boxes or at the default bound, give every gain of
    # one range over all trials, bit for bit, and so does run_trials: lit and
    # unlit trials, a sparse and a crowded density with receivers inside boxes,
    # two layouts; serially and in the pool
    scene, trials, seed, densities = _narrow_scene(), 37, 8, (0.5, 4.0)
    layouts = [make_layout(irs_type="mirror", n_per_side=3),
               make_layout(irs_type="metasurface", n_per_side=2)]
    lit = [los_gain(scene.aps[0], sample_ue(trial_rng(seed, t), scene)) > 0.0
           for t in range(trials)]
    assert True in lit and False in lit
    assert any(on and _replayed_direct_gain(scene, seed, t, 4.0)[1] for t, on in enumerate(lit))
    ens = Ensemble.build(scene, seed, densities, layouts)
    want = _hex_ranges(ens, trials, trials)
    assert len(want) == 2 and want[0] != want[1]
    held = simulator._HELD_BOXES
    for size, bound in ((1, held), (3, 5), (16, held), (trials, 1)):
        monkeypatch.setattr(simulator, "_HELD_BOXES", bound)
        assert _hex_ranges(ens, trials, size) == want, (size, bound)
        got = run_trials(scene, trials, seed, threads=threads, densities=densities,
                         layouts=layouts)
        assert _hex_gains(got) == want, bound


def test_a_block_at_the_blocker_bound_peaks_like_one_trial():
    # a chunk of lit trials at MAX_MEAN_BLOCKERS peaks like one trial, at most 100
    # bytes per blocker of the mean (README, [blockers]): it culls and slab-tests
    # its drawn boxes once _HELD_BOXES are held, so it never holds more than one
    # trial's draws and fewer than _HELD_BOXES others
    scene = make_scene()
    ens = Ensemble.build(scene, 2, (MAX_MEAN_BLOCKERS / (scene.room.length * scene.room.width),),
                         [NO_ARRAYS])
    chunk = 16
    lit = sum(los_gain(scene.aps[0], sample_ue(trial_rng(2, t), scene)) > 0.0
              for t in range(chunk))
    assert lit >= chunk // 2
    tracemalloc.start()
    try:
        h_los, _, _ = compute_trials(ens, 0, chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h_los.shape == (1, chunk)
    assert peak <= 100 * MAX_MEAN_BLOCKERS


def _cull_blocks(r):
    """(source, [(lit, receiver, boxes), ...]) blocks of trials for the block cull.

    Each source's eight lines of the grazing corpus, lit, and the first of
    them again, unlit; and for every fourth source, its lines with both ends
    raised above the box top, over the same boxes, one of them right under
    each receiver.
    """
    top = BLOCKER_DIMS[2]
    lines = list(_grazing_corpus(r))
    for k in range(0, len(lines), 8):
        p, block = lines[k][0], [(True, q, boxes) for _, q, boxes in lines[k:k + 8]]
        yield p, block + [(False, *block[0][1:])]
        if k % 32 == 0:
            yield np.array([*p[:2], 3.0]), [(True, np.array([*q[:2], top + 1e-6]), boxes)
                                            for _, q, boxes in block]


def _kept_alone(p, lit, q, field, half):
    """Mask of the boxes of field that the cull of a block holding this trial
    alone keeps, lit or not."""
    kept = np.zeros(len(field), dtype=bool)
    kept[simulator._near_rows(field.center[:, 0], field.center[:, 1],
                              np.zeros(len(field), dtype=int), q[None], [0] if lit else [],
                              p, half)] = True
    return kept


def test_cull_keeps_every_verdict_of_the_slab_test():
    # the block cull, nine trials of one source to a block, keeps in each trial
    # exactly the boxes a block of that trial alone keeps, and none of an unlit
    # trial's; no slab hit and no receiver-holding box of a lit trial falls
    # outside them, and the block's slab test gives each kept box its own
    # line's verdict
    half = tuple(d / 2.0 for d in BLOCKER_DIMS)
    hits = culled = enclosed = unlit = above = 0
    for p, block in _cull_blocks(np.random.default_rng(1_111)):
        lit = [s for s, (on, _, _) in enumerate(block) if on]
        ends = np.array([q for _, q, _ in block])
        slots = np.repeat(np.arange(len(block)), [len(field) for _, _, field in block])
        xy = np.concatenate([field.center[:, :2] for _, _, field in block])
        rows = simulator._near_rows(xy[:, 0].copy(), xy[:, 1].copy(), slots, ends, lit, p,
                                    half)
        kept = np.zeros(len(slots), dtype=bool)
        kept[rows] = True
        yaws = np.concatenate([field.yaw for _, _, field in block])
        centers = np.column_stack((xy, np.full(len(xy), half[2])))
        cuts = simulator._cut_rows(OrientedBoxes(centers[rows], half, yaws[rows]),
                                   slots[rows], ends, p)
        for s, (on, q, field) in enumerate(block):
            mine = kept[slots == s]
            assert mine.tolist() == _kept_alone(p, on, q, field, half).tolist(), s
            if not on:
                assert not mine.any()
                unlit += _kept_alone(p, True, q, field, half).any()
                continue
            inside = field.contains_interior(q)
            slab = segments_intersect_box(p[None, :], q[None, :], field)
            assert not ((slab | inside) & ~mine).any()
            # each kept box's verdict on its own line; the block's other lines
            # start at the same source but are not that trial's
            got = cuts[(slots[rows] == s).nonzero()[0]]
            assert got.tolist() == (slab & ~inside)[mine].tolist(), s
            hits += int((slab & ~inside).sum())
            culled += len(field) - int(mine.sum())
            enclosed += int(inside.sum())
            above += q[2] > 2.0 * half[2] and not mine.any()
    assert hits > 0 and culled > 0 and enclosed > 0 and unlit > 0 and above > 0


def _patch_to_ue(ps, ue, power):
    """The diffuse capture before the powered-patch kernel: einsum rows over every patch."""
    u = ue.position - ps.centers
    d2_sq = np.einsum("ij,ij->i", u, u)
    d2 = np.sqrt(d2_sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_out = np.einsum("ij,ij->i", u, ps.normals) / d2
        cos_psi = -(u @ ue.normal) / d2
    live = np.flatnonzero((cos_out > 0.0) & (cos_psi >= math.cos(ue.fov)) & (power > 0.0))
    capture = np.minimum(ue.area * cos_out[live] * cos_psi[live] / (math.pi * d2_sq[live]), 1.0)
    contrib = ps.reflectivity[live] * power[live] * capture
    return math.fsum(contrib.tolist())


def _cascade_sum(layout, bank, ue):
    """h_irs as the bank computed it before its in-place kernel: a fresh array per step."""
    x, y, z = ue.position.tolist()
    nx, ny, nz = (-ue.normal).tolist()
    vx, vy, vz = x - bank.cx, y - bank.cy, z - bank.cz
    d2 = vx * vx
    d2 += vy * vy
    d2 += vz * vz
    np.sqrt(d2, out=d2)
    cos_psi = vx * nx
    cos_psi += vy * ny
    cos_psi += vz * nz
    cos_psi /= d2
    ok = cos_psi >= math.cos(ue.fov)
    k = bank.n_mirror
    if arrays := layout[1]:
        cn = np.concatenate([_dot(*arr.centers.T, arr.normal) for arr in arrays])
        ue_n = np.array([arr.normal for arr in arrays]) @ ue.position
        ok[k:] &= np.repeat(ue_n, [len(arr) for arr in arrays]) > cn
    total_d = bank.d1 + d2
    total_d *= total_d
    gains = bank.weight * cos_psi
    gains /= total_d
    gains *= ue.area / (2.0 * math.pi)
    return float(np.sum(np.where(ok, gains, 0.0)))


def _built_field(scene, seed):
    """A one-source scene's ensemble, with the patches and incident power it should hold."""
    ps = wall_patches(scene.room, scene.patch_size, scene.wall_reflectivity)
    power = patch_incident_power(scene.aps[0], ps, (), order=scene.nlos_order)
    return Ensemble.build(scene, seed, (0.0,), [NO_ARRAYS]), ps, power


def _tilted_source_field(seed):
    """An order-1 field from a source tilted toward +x: the upper x0 wall stays dark."""
    scene = replace(make_scene(nlos_order=1),
                    aps=(Luminaire(vec3(2.5, 2.5, 3.0), vec3(0.6, 0.0, -0.8)),))
    return _built_field(scene, seed)


def _dark_wall_field(seed):
    """The stock order-2 field with the y0 wall at reflectivity 0."""
    scene = make_scene()
    ps = wall_patches(scene.room, 0.25, scene.wall_reflectivity)
    dark = PatchSet(ps.centers, ps.normals, ps.areas,
                    np.where(ps.centers[:, 1] == 0.0, 0.0, ps.reflectivity))
    power = patch_incident_power(scene.aps[0], dark, (), order=2)
    ens = Ensemble(scene, seed, PoweredPatches(dark, power), (ReflectorBank(scene.aps[0]),), (0.0,))
    return ens, dark, power


@pytest.mark.parametrize("irs_type", ["mirror", "metasurface"])
@pytest.mark.parametrize("fov_deg", [30.0, 85.0, 90.0])
def test_trial_irs_bits_match_the_fresh_array_cascade(irs_type, fov_deg):
    scene, layout = make_scene(fov_deg=fov_deg), make_layout(irs_type=irs_type)
    ens = Ensemble.build(scene, 5, (0.0,), [layout])
    lit = 0
    for t, h_irs in enumerate(compute_trials(ens, 0, 300)[2][0].tolist()):
        ue = sample_ue(trial_rng(5, t), scene)
        want = _cascade_sum(layout, ens.banks[0], ue)
        assert h_irs.hex() == want.hex(), t
        assert ens.banks[0].gain(ue).hex() == want.hex()
        lit += want > 0.0
    assert lit > 0


def test_pose_checks_run_once_per_run_not_per_trial(monkeypatch):
    # vec3's finiteness check runs a fixed number of times per run and the
    # detector checks none: the poses skip them, and the scene ran the
    # detector checks once when it was built
    scene, layouts = make_scene(1.0), [make_layout(n_per_side=4)]
    counts = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for module in (geometry, scene_module, channel, irs, simulator, config, oracles):
        for name, key in (("_check_detector", "detector"), ("vec3", "vec3")):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(key, getattr(module, name)))
    per_run = []
    for trials in (5, 50):
        counts.clear()
        run_trials(scene, trials, seed=3, densities=(1.0,), layouts=layouts)
        per_run.append(dict(counts))
    assert per_run[0] == per_run[1]
    assert "detector" not in per_run[1] and per_run[1].get("vec3", 0) <= 4
    counts.clear()
    replace(scene)
    assert counts["detector"] == 1


@pytest.mark.parametrize("densities", [(1.0,), (0.0, 0.5, 1.0, 2.0, 4.0)])
def test_one_slab_test_per_lit_trial(monkeypatch, densities):
    # one occlusion pass serves every density: at most one slab test per lit
    # trial, and none when the source does not reach the receiver
    calls = []

    def counting(*args):
        calls.append(1)
        return real(*args)

    real = simulator.segments_intersect_box
    monkeypatch.setattr(simulator, "segments_intersect_box", counting)
    scene = _narrow_scene()
    ens = Ensemble.build(scene, 4, densities, [NO_ARRAYS])
    unlit = tested = 0
    for t in range(80):
        lit = los_gain(scene.aps[0], sample_ue(trial_rng(4, t), scene)) > 0.0
        calls.clear()
        compute_trials(ens, t, t + 1)
        assert len(calls) <= lit
        unlit += lit == 0
        tested += len(calls)
    assert unlit > 0 and tested > 0


@pytest.mark.parametrize("densities", [(0.0, 1.0), (0.0, 0.5, 1.0, 2.0, 4.0), (4.0, 0.1)])
def test_one_poisson_and_one_random_call_per_drawing_density(monkeypatch, densities):
    # the pose costs three random calls and its tilt normal draws; each density
    # that draws blockers one poisson and one random call, and nothing calls uniform
    calls = Counter()

    class Counting:
        """The trial generator, counting the calls of each method."""

        def __init__(self, r):
            self._rng = r

        def __getattr__(self, name):
            attr = getattr(self._rng, name)
            if not callable(attr):
                return attr

            def counted(*args, **kwargs):
                calls[name] += 1
                return attr(*args, **kwargs)
            return counted

    real = simulator.trial_rng
    monkeypatch.setattr(simulator, "trial_rng", lambda seed, t: Counting(real(seed, t)))
    scene = _narrow_scene()
    ens = Ensemble.build(scene, 4, densities, [NO_ARRAYS])
    drawing = sum(d > 0.0 for d in densities)
    unlit = 0
    for t in range(80):
        lit = los_gain(scene.aps[0], sample_ue(real(4, t), scene)) > 0.0
        calls.clear()
        compute_trials(ens, t, t + 1)
        assert set(calls) <= {"random", "normal", "poisson"}
        assert calls["poisson"] == (drawing if lit else 0)
        assert calls["random"] == 3 + calls["poisson"] and calls["normal"] >= 1
        unlit += not lit
    assert 0 < unlit < 80


def test_trial_components_nonnegative_and_indexed():
    # entry t of each array is trial t's gain
    scene, layout = make_scene(1.0), make_layout(n_per_side=4)
    out = own_density(scene, layout, 30, seed=11)
    ens = Ensemble.build(scene, 11, (1.0,), [layout])
    (h_los,), h_nlos, (h_irs,) = compute_trials(ens, 0, 30)
    assert _bits(TrialGains(h_los, h_nlos, h_irs)) == _bits(out)
    for a in (out.h_los, out.h_nlos, out.h_irs):
        assert (a >= 0.0).all()


def test_upright_receiver_with_wide_fov_always_sees_the_source():
    # tilt pinned near zero and a 90 degree FOV: the ceiling source is visible
    # from every floor position, so no trial loses the direct path
    scene = make_scene(fov_deg=90.0, theta_mean_deg=0.0, theta_std_deg=0.01)
    out = own_density(scene, NO_ARRAYS, 50, seed=2)
    assert (out.h_los > 0.0).all()
    assert (out.h_irs == 0.0).all()


def test_trial_nlos_matches_direct_evaluation():
    # the precomputed diffuse field must reproduce the reference gain exactly
    scene = make_scene()
    patches = wall_patches(scene.room, 0.25, scene.wall_reflectivity)
    out = own_density(scene, make_layout(n_per_side=4), 5, seed=9)
    for t, h_nlos in enumerate(out.h_nlos):
        ue = sample_ue(trial_rng(9, t), scene)
        assert h_nlos == nlos_gain(scene.aps[0], ue, patches, (), order=2)
    # and the powered-patch kernel gives every pose the bits of the einsum
    # capture over all patches: at narrow, stock and full fields of view, and
    # where unpowered patches are dropped or a wall reflects nothing
    fields = [_built_field(make_scene(fov_deg=fov), 9)
              for fov in (30.0, 85.0, 90.0)]
    fields += [_tilted_source_field(9), _dark_wall_field(9)]
    tilted, tilted_patches, _ = fields[3]
    assert 0 < len(tilted.powered) < len(tilted_patches)
    for ens, patches, power in fields:
        live = 0
        for t, h_nlos in enumerate(compute_trials(ens, 0, 300)[1].tolist()):
            ue = sample_ue(trial_rng(9, t), ens.scene)
            want = _patch_to_ue(patches, ue, power)
            assert h_nlos.hex() == want.hex(), t
            live += want > 0.0
        assert live > 0


def _state(obj):
    return {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in vars(obj).items()}


def test_a_built_field_and_bank_serve_two_threads_at_once():
    # both are read-only once built: no call writes an attribute, so two threads on
    # one object get the bits of one thread alone
    scene = make_scene()
    layouts = [make_layout(irs_type="mirror"), make_layout(irs_type="metasurface")]
    ens = Ensemble.build(scene, 3, (0.0,), layouts)
    objects = (ens.powered, *ens.banks)
    before = [_state(obj) for obj in objects]
    poses = [[sample_ue(trial_rng(seed, t), scene) for t in range(24)] for seed in (1, 2)]

    def evaluate(ues):
        out = [h.hex() for h in ens.powered.capture(ues)]
        for bank in ens.banks:
            out += [bank.gain(ue).hex() for ue in ues]
            out += [bank.cascade(ue).tobytes() for ue in ues]
        return out

    want = [evaluate(ues) for ues in poses]
    got = [None, None]
    start = threading.Barrier(2, timeout=60)

    def work(i):
        start.wait()
        got[i] = [evaluate(poses[i]) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == [[w] * 3 for w in want]
    assert [_state(obj) for obj in objects] == before


# -- scenarios -----------------------------------------------------------------


def test_scenario_gain_composition():
    t = TrialGains(np.array([1.0]), np.array([0.25]), np.array([4.0]))
    assert Scenario.LOS_ONLY.effective_gain(t).tolist() == [1.0]
    assert Scenario.LOS_NLOS.effective_gain(t).tolist() == [1.25]
    assert Scenario.LOS_NLOS_IRS.effective_gain(t).tolist() == [5.25]
    # the array sums round as the per-trial float sums do, bit for bit
    r = np.random.default_rng(8)
    los, nlos, irs = r.lognormal(-12.0, 3.0, (3, 500))
    t = TrialGains(los, nlos, irs)
    assert Scenario.LOS_NLOS.effective_gain(t).tolist() == \
        [a + b for a, b in zip(los.tolist(), nlos.tolist())]
    assert Scenario.LOS_NLOS_IRS.effective_gain(t).tolist() == \
        [a + b + c for a, b, c in zip(los.tolist(), nlos.tolist(), irs.tolist())]


def test_scenario_from_name_round_trip():
    for s in Scenario:
        assert Scenario(s.value) is s
    with pytest.raises(ValueError):
        Scenario("los")


# -- Q function ----------------------------------------------------------------


def test_q_function_values():
    assert q_function(0.0) == 0.5 and q_function(-0.0) == 0.5
    assert q_function(1.0) == pytest.approx(0.15865525393145707, rel=1e-12)
    assert q_function(math.inf) == 0.0 and q_function(-math.inf) == 1.0
    assert math.isnan(q_function(math.nan))
    # x*x overflows here, and a RuntimeWarning would be an error
    assert q_function(1e300) == 0.0 and q_function(-1e300) == 1.0
    assert type(q_function(1.0)) is float and type(q_function(np.float64(1.0))) is float
    q = q_function(np.array([[math.nan, 0.0], [-math.inf, 40.0]]))
    assert q.shape == (2, 2) and np.isnan(q[0, 0]) and q[0, 1] == 0.5 and q[1, 0] == 1.0
    assert q[1, 1] == 0.0


def test_q_function_reflection_and_monotonicity():
    xs = np.linspace(-6.0, 6.0, 121)
    q = q_function(xs)
    assert isinstance(q, np.ndarray)
    assert np.all(np.diff(q) < 0.0)
    assert np.allclose(q + q_function(-xs), 1.0, atol=1e-12)


def test_q_function_matches_scipy_erfc_on_a_dense_grid():
    # the port runs cephes' erfc operation for operation, as scipy.special does; only
    # numpy's exp may round one ulp away from libm's, and the product and quotient
    # after it carry that through: a few ulps, within 1e-15 relative
    from scipy.special import erfc
    xs = np.linspace(-27.0, 27.0, 540_001)
    want = 0.5 * erfc(xs / math.sqrt(2.0))
    assert np.all(want > 0.0)
    assert np.max(np.abs(q_function(xs) / want - 1.0)) <= 1e-15


def test_erfc_underflow_threshold_is_exact():
    # |x| <= _ERFC_ZERO_ABOVE is exactly cephes' x*x <= MAXLOG, so no square is taken
    # beyond it, where it could overflow
    top, maxlog = simulator._ERFC_ZERO_ABOVE, simulator._MAXLOG
    past = np.nextafter(top, math.inf)
    assert top * top <= maxlog < past * past
    y = simulator._erfc(np.array([top, past, -top, -past]))
    assert y[0] > 0.0 == y[1] and y[2] == y[3] == 2.0


# -- SNR grid ------------------------------------------------------------------


def test_snr_grid_default_covers_0_to_40():
    v = SnrGrid().values()
    assert len(v) == 41
    assert v[0] == 0.0 and v[-1] == 40.0
    assert np.all(np.diff(v) == 1.0)


def test_snr_grid_validation():
    with pytest.raises(ValueError):
        SnrGrid(0.0, 40.0, 0.0)
    with pytest.raises(ValueError):
        SnrGrid(10.0, 0.0, 1.0)
    assert len(SnrGrid(5.0, 5.0, 1.0).values()) == 1
    # the point count is bounded before any grid is sized
    assert len(SnrGrid(0.0, 999.0, 1.0).values()) == MAX_SNR_POINTS == 1000
    for step in (0.999, 1e-12, 5e-324, math.nan):
        with pytest.raises(ValueError, match="points one curve may hold"):
            SnrGrid(0.0, 999.0, step)
    # and so is its top, far below where 10^(dB/10) overflows
    for stop in (MAX_SNR_DB * (1 + 1e-12), 3200.0, math.nan):
        with pytest.raises(ValueError, match="lies above"):
            SnrGrid(900.0, stop, 100.0)


def test_ser_curve_at_the_top_of_the_grid_is_finite():
    curve = ser_curve(flat_gains(4, 1.0), Scenario.LOS_ONLY, SnrGrid(0.0, MAX_SNR_DB, 100.0))
    assert np.all(np.isfinite(curve.ser)) and curve.ser[-1] == 0.0


# -- SER curves ----------------------------------------------------------------


def test_ser_degenerate_ensemble_matches_closed_form():
    curve = ser_curve(flat_gains(8, 3.7e-5), Scenario.LOS_ONLY)
    want = q_function(np.sqrt(10.0 ** (curve.snr_db / 10.0)))
    assert np.max(np.abs(curve.ser - want)) <= 1e-12
    assert np.all(curve.stderr == 0.0)


def test_ser_all_zero_gains_flat_half():
    curve = ser_curve(flat_gains(10, 0.0), Scenario.LOS_NLOS_IRS)
    assert np.all(curve.ser == 0.5)


def test_ser_zero_gain_fraction_sets_error_floor():
    mix = gains_of([0.0] * 25 + [2.0] * 75)
    curve = ser_curve(mix, Scenario.LOS_ONLY, SnrGrid(60.0, 60.0, 1.0))
    # blocked quarter contributes Q(0) = 1/2 forever: floor = 0.25 / 2
    assert float(curve.ser[0]) == pytest.approx(0.125, abs=1e-9)
    assert float(curve.stderr[0]) == pytest.approx(0.02175970699446223, rel=1e-9)


def test_ser_monotone_for_mixed_ensemble():
    r = np.random.default_rng(5)
    gains = gains_of(r.lognormal(-9.0, 0.8, size=200))
    curve = ser_curve(gains, Scenario.LOS_ONLY)
    assert np.all(np.diff(curve.ser) <= 1e-15)
    assert np.all((0.0 <= curve.ser) & (curve.ser <= 0.5))


def test_ser_mean_square_override_shifts_curve():
    gains = flat_gains(4, 1.0)
    boosted = ser_curve(gains, Scenario.LOS_ONLY, mean_square_gain=0.25)
    plain = ser_curve(gains, Scenario.LOS_ONLY)
    # normalizing by a smaller mean square quadruples per-trial SNR
    live = plain.ser > 0.0  # both underflow to exactly zero at the high end
    assert live[:20].all()
    assert np.all(boosted.ser[live] < plain.ser[live])


def test_ser_curve_records_its_normalizer():
    gains = gains_of([1.0, 3.0])
    assert ser_curve(gains, Scenario.LOS_ONLY).mean_square_gain == 5.0
    assert ser_curve(gains, Scenario.LOS_ONLY, mean_square_gain=0.25).mean_square_gain == 0.25
    assert ser_curve(flat_gains(3, 0.0), Scenario.LOS_ONLY).mean_square_gain == 0.0


def test_a_common_normalizer_is_a_shift_along_the_own_curve():
    # SER against the los_nlos mean square m_b at grid point x equals the scenario's own
    # curve at x + 10 log10(m_s / m_b): the two mean squares a summary row reports carry
    # everything a common normalizer shows
    layouts = [make_layout(irs_type=t, n_per_side=6) for t in ("mirror", "metasurface", "none")]
    grid = SnrGrid(0.0, 40.0, 1.0)
    checked = 0
    for by_density in run_trials(make_scene(), 300, 4, densities=(0.0, 0.4, 2.0),
                                 layouts=layouts):
        for gains in by_density.values():
            m_b = ser_curve(gains, Scenario.LOS_NLOS).mean_square_gain
            for scn in Scenario:
                m_s = ser_curve(gains, scn).mean_square_gain
                shift = 10.0 * math.log10(m_s) - 10.0 * math.log10(m_b)
                common = ser_curve(gains, scn, grid, mean_square_gain=m_b)
                own = ser_curve(gains, scn, SnrGrid(grid.start_db + shift,
                                                    grid.stop_db + shift, grid.step_db))
                n = min(len(common.ser), len(own.ser))  # the shifted grid may lose its end
                assert n >= len(common.ser) - 1
                live = common.ser[:n] > 1e-200
                np.testing.assert_allclose(own.ser[:n][live], common.ser[:n][live],
                                           rtol=1e-9, atol=0.0)
                checked += int(live.sum())
    assert checked > 3 * 3 * 3 * 10


@pytest.mark.parametrize("m", [-1.0, -1e-300, math.inf, -math.inf, math.nan, 0.0])
def test_ser_curve_rejects_a_negative_or_non_finite_normalizer(m):
    gains = flat_gains(4, 1.0)
    if m == 0.0:  # a zero mean square keeps its curve of 1/2 throughout
        assert np.all(ser_curve(gains, Scenario.LOS_ONLY, mean_square_gain=m).ser == 0.5)
    else:
        with pytest.raises(ValueError, match="finite and non-negative"):
            ser_curve(gains, Scenario.LOS_ONLY, mean_square_gain=m)


def test_ser_curve_empty_raises():
    with pytest.raises(ValueError):
        ser_curve(flat_gains(0, 1.0), Scenario.LOS_ONLY)


# -- required SNR --------------------------------------------------------------


def test_required_snr_of_closed_form_curve():
    got = required_snr(ser_curve(flat_gains(4, 1.0), Scenario.LOS_ONLY))
    assert got.reachable and not got.non_monotone
    assert got.snr_db == pytest.approx(8.501913106660373, rel=1e-12)


def test_required_snr_unreachable_curve():
    got = required_snr(ser_curve(flat_gains(10, 0.0), Scenario.LOS_ONLY))
    assert got == RequiredSnr(None, False)
    assert not got.reachable


def test_required_snr_met_at_grid_start():
    curve = ser_curve(flat_gains(4, 1.0), Scenario.LOS_ONLY, SnrGrid(30.0, 40.0, 1.0))
    got = required_snr(curve)
    assert got.snr_db == 30.0


def test_required_snr_flags_wiggles():
    base = ser_curve(flat_gains(4, 1.0), Scenario.LOS_ONLY)
    bumpy = np.array(base.ser)
    bumpy[3] = bumpy[2] * 1.5  # non-monotone blip before the crossing
    curve = replace(base, ser=bumpy)
    assert required_snr(curve).non_monotone


def test_required_snr_target_validation():
    assert SER_TARGET == 3.8e-3


def test_per_trial_scenario_ordering_transfers_to_ser():
    out = own_density(make_scene(1.0), make_layout(n_per_side=4), 40, seed=13)
    ms = float(np.mean(Scenario.LOS_NLOS_IRS.effective_gain(out) ** 2))
    curves = {s: ser_curve(out, s, mean_square_gain=ms) for s in Scenario}
    # against a common normalizer, adding propagation paths cannot hurt
    assert np.all(curves[Scenario.LOS_NLOS].ser <= curves[Scenario.LOS_ONLY].ser + 1e-15)
    assert np.all(curves[Scenario.LOS_NLOS_IRS].ser <= curves[Scenario.LOS_NLOS].ser + 1e-15)
