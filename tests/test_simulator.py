"""Trial ensemble, SER estimation and required-SNR readout."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from irsvlc import (Luminaire, PatchSet, ReflectorBank, RequiredSnr, Scenario, SnrGrid,
                    TrialGains, los_gain, nlos_gain, patch_incident_power, q_function,
                    required_snr, run_trials, ser_curve, segments_intersect_box, trial_rng,
                    vec3, wall_patches)
from irsvlc import channel, config, geometry, irs, oracles, scene as scene_module, simulator
from irsvlc.geometry import OrientedBoxes
from irsvlc.irs import _ANTIPODAL_TOL, _dot
from irsvlc.scene import BLOCKER_DIMS, sample_blocker_field, sample_ue
from irsvlc.simulator import SER_TARGET, Ensemble, compute_trial

from conftest import make_scene


def flat_gains(n, h):
    return [TrialGains(i, h, 0.0, 0.0) for i in range(n)]


# -- per-trial randomness ------------------------------------------------------


def test_trial_rng_reproducible_and_decorrelated():
    assert trial_rng(1, 0).random() == trial_rng(1, 0).random()
    assert trial_rng(1, 0).random() != trial_rng(1, 1).random()
    assert trial_rng(1, 0).random() != trial_rng(2, 0).random()


def test_run_trials_deterministic():
    scene = make_scene(0.5, n_per_side=4)
    a = run_trials(scene, 20, seed=3)
    b = run_trials(scene, 20, seed=3)
    assert [(t.index, t.h_los, t.h_nlos, t.h_irs) for t in a] == \
           [(t.index, t.h_los, t.h_nlos, t.h_irs) for t in b]
    c = run_trials(scene, 20, seed=4)
    assert any(x.h_los != y.h_los for x, y in zip(a, c))


def test_run_trials_validation():
    scene = make_scene(n_per_side=4)
    with pytest.raises(ValueError):
        run_trials(scene, 0, seed=1)
    with pytest.raises(ValueError):
        run_trials(scene, 10, seed=-1)


@pytest.mark.parametrize("field, value, message", [
    ("pd_area", 0.0, "detector area"), ("pd_fov", 0.0, "field of view")])
def test_bad_detector_fails_when_the_scene_is_built(field, value, message):
    with pytest.raises(ValueError, match=message):
        replace(make_scene(irs_type="none"), **{field: value})


def test_run_trials_threads_match_serial():
    scene = make_scene(1.0, n_per_side=4)
    serial = run_trials(scene, 24, seed=7)
    parallel = run_trials(scene, 24, seed=7, threads=2)
    assert [(t.index, t.h_los, t.h_nlos, t.h_irs) for t in serial] == \
           [(t.index, t.h_los, t.h_nlos, t.h_irs) for t in parallel]


def _as_tuples(gains):
    return [(t.index, t.h_los, t.h_nlos, t.h_irs) for t in gains]


@pytest.mark.parametrize("irs", ["mirror", "metasurface", "none"])
@pytest.mark.parametrize("threads", [1, 2])
def test_shared_ensemble_matches_per_density_runs(irs, threads):
    # one pass over the poses must give every density exactly the gains of a
    # run on that density's own scene
    densities = (0.0, 0.5, 2.0)
    scene = make_scene(0.5, n_per_side=4, irs_type=irs)
    shared = run_trials(scene, 24, seed=17, threads=threads, densities=densities)
    assert list(shared) == list(densities)
    for d in densities:
        own = run_trials(make_scene(d, n_per_side=4, irs_type=irs), 24, seed=17)
        assert _as_tuples(shared[d]) == _as_tuples(own)


def test_shared_ensemble_sees_blockage():
    scene = make_scene(n_per_side=4, irs_type="none")
    out = run_trials(scene, 60, seed=5, densities=(0.0, 4.0))
    assert [t.h_nlos for t in out[0.0]] == [t.h_nlos for t in out[4.0]]
    assert sum(t.h_los == 0.0 for t in out[4.0]) > sum(t.h_los == 0.0 for t in out[0.0])
    with pytest.raises(ValueError):
        run_trials(scene, 10, seed=5, densities=())


def test_compute_trial_one_row_per_density():
    scene = make_scene(n_per_side=4)
    ens = Ensemble.build(scene, 3, (0.0, 1.0))
    row = compute_trial(ens, trial_index=2)
    assert [t.index for t in row] == [2, 2]
    assert row[0].h_irs == row[1].h_irs and row[0].h_nlos == row[1].h_nlos
    assert row[0] == run_trials(scene, 3, seed=3)[2]


def test_scene_without_arrays_does_no_cell_work(monkeypatch):
    scene = make_scene(0.5, irs_type="none")
    ens = Ensemble.build(scene, 3, (0.0, 0.5))
    assert len(ens.bank) == 0

    def no_cells(*args, **kwargs):
        raise AssertionError("an empty bank evaluated its cells")

    monkeypatch.setattr(ReflectorBank, "cascade", no_cells)
    for t in range(20):
        for row in compute_trial(ens, t):
            assert row.h_irs == 0.0 and math.copysign(1.0, row.h_irs) == 1.0


def _three_source_scene(**fields):
    down = vec3(0.0, 0.0, -1.0)
    scene = make_scene(irs_type="none", **fields)
    return replace(scene, aps=tuple(Luminaire(vec3(x, y, 3.0), down)
                                    for x, y in ((1.25, 1.25), (3.75, 1.25), (2.5, 3.75))))


def _replayed_direct_gain(scene, seed, trial_index, density):
    """h_los at one density from the trial's own draws, one source at a time.

    Also reports whether a drawn box enclosed the receiver and was dropped.
    """
    rng = trial_rng(seed, trial_index)
    ue = sample_ue(rng, scene)
    drawn = sample_blocker_field(rng, scene.room, replace(scene.blocker_model, density=density))
    if drawn is None:
        return math.fsum(los_gain(ap, ue) for ap in scene.aps), False
    boxes = drawn[~drawn.contains_interior(ue.position)]
    return math.fsum(los_gain(ap, ue, boxes) for ap in scene.aps), len(boxes) < len(drawn)


def test_fused_occlusion_matches_per_density_replay():
    # every row of the one-pass trial equals an independent replay of its
    # density: own draws, receiver-enclosing boxes dropped, per-source los_gain;
    # for three sources and for the stock one-source scene
    for scene, densities in ((_three_source_scene(), (0.0, 0.01, 0.5, 4.0, 0.5)),
                             (make_scene(irs_type="none"), (0.0, 0.5, 1.0, 2.0, 4.0))):
        ens = Ensemble.build(scene, 21, densities)
        enclosed = blocked = 0
        for t in range(150):
            row = compute_trial(ens, t)
            assert len(row) == len(densities)
            unblocked = _replayed_direct_gain(scene, 21, t, 0.0)[0]
            for d, gains in zip(densities, row):
                want, dropped = _replayed_direct_gain(scene, 21, t, d)
                assert gains.h_los == want, (t, d)
                enclosed += dropped
                blocked += want < unblocked
        assert enclosed > 0 and blocked > 0


def _grazing_corpus(r, cases=300):
    """(source, receiver, boxes) sight lines whose boxes sit on the cull's edges.

    Per line: boxes at the half-diagonal from the floor trace of the part
    below the box top, with a corner pointing at the trace (a grazing
    corner), or turned a hair off; boxes on the cull disk's rim and one ulp
    either side of it, beyond each end of the trace and elsewhere; boxes of
    yaw 0 and of yaw just below pi; a box around the receiver. Sources stand
    on the ceiling, at the box top or below it.
    """
    hx, hy, hz = (d / 2.0 for d in BLOCKER_DIMS)
    top, diag, corner = 2.0 * hz, math.hypot(hx, hy), math.atan2(hy, hx)
    below_pi = math.nextafter(math.pi, 0.0)
    for _ in range(cases):
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


def test_cull_keeps_every_verdict_of_the_slab_test():
    # on the grazing corpus the culled pass gives, box for box, the verdicts
    # of the slab test and the containment test over every drawn box
    r = np.random.default_rng(1_111)
    hits = culled = enclosed = 0
    for p, q, boxes in _grazing_corpus(r):
        slab = segments_intersect_box(p[None, :], q[None, :], boxes)
        inside = boxes.contains_interior(q)
        near = boxes.may_cut(p, q)
        assert not ((slab | inside) & ~near).any()
        want = np.flatnonzero(slab & ~inside)
        got = simulator._cut_sight_lines(boxes, q, [p])
        assert [g.tolist() for g in got] == ([want.tolist()] if want.size else [])
        hits += want.size
        culled += int((~near).sum())
        enclosed += int(inside.sum())
    assert hits > 0 and culled > 0 and enclosed > 0


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


def _cascade_sum(scene, bank, ue):
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
    if k and not bank._antipodes_impossible(ue.position, float(d2.max())):
        dot = bank.ux[:k] * vx[:k] + bank.uy[:k] * vy[:k] + bank.uz[:k] * vz[:k]
        ok[:k] &= dot / (bank.d1[:k] * d2[:k]) > -1.0 + _ANTIPODAL_TOL
    pairs = [(ap, arr) for ap in scene.aps for arr in scene.metasurface_arrays]
    if pairs:
        cn = np.concatenate([_dot(*arr.centers.T, arr.normal) for _, arr in pairs])
        ue_n = np.array([arr.normal for _, arr in pairs]) @ ue.position
        ok[k:] &= np.repeat(ue_n, [len(arr) for _, arr in pairs]) > cn
    total_d = bank.d1 + d2
    total_d *= total_d
    gains = bank.weight * cos_psi
    gains /= total_d
    gains *= ue.area / (2.0 * math.pi)
    return float(np.sum(np.where(ok, gains, 0.0)))


def _tilted_source_ensemble(seed):
    """An order-1 field from a source tilted toward +x: the upper x0 wall stays dark."""
    scene = replace(make_scene(irs_type="none"),
                    aps=(Luminaire(vec3(2.5, 2.5, 3.0), vec3(0.6, 0.0, -0.8)),))
    return Ensemble.build(scene, seed, (0.0,), nlos_order=1)


def _dark_wall_ensemble(seed):
    """The stock order-2 field with the y0 wall at reflectivity 0."""
    scene = make_scene(irs_type="none")
    ps = wall_patches(scene.room, 0.25, scene.wall_reflectivity)
    dark = PatchSet(ps.centers, ps.normals, ps.areas,
                    np.where(ps.centers[:, 1] == 0.0, 0.0, ps.reflectivity))
    power = patch_incident_power(scene.aps[0], dark, (), order=2)
    return Ensemble(scene, seed, dark, power, ReflectorBank(scene.aps), (scene.blocker_model,))


@pytest.mark.parametrize("irs_type", ["mirror", "metasurface"])
@pytest.mark.parametrize("fov_deg", [30.0, 85.0, 90.0])
def test_trial_irs_bits_match_the_fresh_array_cascade(irs_type, fov_deg):
    scene = make_scene(irs_type=irs_type, fov_deg=fov_deg)
    ens = Ensemble.build(scene, 5, (0.0,))
    lit = 0
    for t in range(300):
        ue = sample_ue(trial_rng(5, t), scene)
        want = _cascade_sum(scene, ens.bank, ue)
        assert compute_trial(ens, t)[0].h_irs.hex() == want.hex(), t
        assert ens.bank.gain(ue).hex() == want.hex()
        lit += want > 0.0
    assert lit > 0


def test_pose_checks_run_once_per_run_not_per_trial(monkeypatch):
    # vec3's finiteness check runs a fixed number of times per run and the
    # detector checks none: the poses skip them, and the scene ran the
    # detector checks once when it was built
    scene = make_scene(1.0, n_per_side=4)
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
        run_trials(scene, trials, seed=3)
        per_run.append(dict(counts))
    assert per_run[0] == per_run[1]
    assert "detector" not in per_run[1] and per_run[1].get("vec3", 0) <= 4
    counts.clear()
    replace(scene)
    assert counts["detector"] == 1


@pytest.mark.parametrize("densities", [(1.0,), (0.0, 0.5, 1.0, 2.0, 4.0)])
def test_one_slab_test_per_lit_source(monkeypatch, densities):
    # one occlusion pass serves every density: at most one slab test per lit
    # source and trial, and none when no source reaches the receiver
    calls = []

    def counting(*args):
        calls.append(1)
        return real(*args)

    real = simulator.segments_intersect_box
    monkeypatch.setattr(simulator, "segments_intersect_box", counting)
    scene = _three_source_scene(fov_deg=40.0)
    ens = Ensemble.build(scene, 4, densities)
    unlit = tested = 0
    for t in range(80):
        ue = sample_ue(trial_rng(4, t), scene)
        lit = sum(los_gain(ap, ue) > 0.0 for ap in scene.aps)
        calls.clear()
        compute_trial(ens, t)
        assert len(calls) <= lit
        unlit += lit == 0
        tested += len(calls)
    assert unlit > 0 and tested > 0


def test_trial_components_nonnegative_and_indexed():
    scene = make_scene(1.0, n_per_side=4)
    out = run_trials(scene, 30, seed=11)
    assert [t.index for t in out] == list(range(30))
    for t in out:
        assert t.h_los >= 0.0 and t.h_nlos >= 0.0 and t.h_irs >= 0.0


def test_upright_receiver_with_wide_fov_always_sees_the_source():
    # tilt pinned near zero and a 90 degree FOV: the ceiling source is visible
    # from every floor position, so no trial loses the direct path
    scene = make_scene(n_per_side=4, irs_type="none", fov_deg=90.0,
                       theta_mean_deg=0.0, theta_std_deg=0.01)
    out = run_trials(scene, 50, seed=2)
    assert all(t.h_los > 0.0 for t in out)
    assert all(t.h_irs == 0.0 for t in out)


def test_trial_nlos_matches_direct_evaluation():
    # the precomputed diffuse field must reproduce the reference gain exactly
    scene = make_scene(n_per_side=4)
    patches = wall_patches(scene.room, 0.25, scene.wall_reflectivity)
    out = run_trials(scene, 5, seed=9)
    for t in out:
        ue = sample_ue(trial_rng(9, t.index), scene)
        assert t.h_nlos == nlos_gain(scene.aps[0], ue, patches, (), order=2)
    # and the powered-patch kernel gives every pose the bits of the einsum
    # capture over all patches: at narrow, stock and full fields of view, and
    # where unpowered patches are dropped or a wall reflects nothing
    ensembles = [Ensemble.build(make_scene(irs_type="none", fov_deg=fov), 9, (0.0,))
                 for fov in (30.0, 85.0, 90.0)]
    ensembles += [_tilted_source_ensemble(9), _dark_wall_ensemble(9)]
    assert 0 < len(ensembles[3].powered) < len(ensembles[3].patches)
    for ens in ensembles:
        live = 0
        for t in range(300):
            ue = sample_ue(trial_rng(9, t), ens.scene)
            want = _patch_to_ue(ens.patches, ue, ens.diffuse_power)
            assert compute_trial(ens, t)[0].h_nlos.hex() == want.hex(), t
            live += want > 0.0
        assert live > 0


# -- scenarios -----------------------------------------------------------------


def test_scenario_gain_composition():
    t = TrialGains(0, 1.0, 0.25, 4.0)
    assert Scenario.LOS_ONLY.effective_gain(t) == 1.0
    assert Scenario.LOS_NLOS.effective_gain(t) == 1.25
    assert Scenario.LOS_NLOS_IRS.effective_gain(t) == 5.25


def test_scenario_from_name_round_trip():
    for s in Scenario:
        assert Scenario(s.value) is s
    with pytest.raises(ValueError):
        Scenario("los")


# -- Q function ----------------------------------------------------------------


def test_q_function_values():
    assert q_function(0.0) == 0.5
    assert q_function(1.0) == pytest.approx(0.15865525393145707, rel=1e-12)


def test_q_function_reflection_and_monotonicity():
    xs = np.linspace(-6.0, 6.0, 121)
    q = q_function(xs)
    assert isinstance(q, np.ndarray)
    assert np.all(np.diff(q) < 0.0)
    assert np.allclose(q + q_function(-xs), 1.0, atol=1e-12)


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
    mix = flat_gains(25, 0.0) + [TrialGains(i, 2.0, 0.0, 0.0) for i in range(25, 100)]
    curve = ser_curve(mix, Scenario.LOS_ONLY, SnrGrid(60.0, 60.0, 1.0))
    # blocked quarter contributes Q(0) = 1/2 forever: floor = 0.25 / 2
    assert float(curve.ser[0]) == pytest.approx(0.125, abs=1e-9)
    assert float(curve.stderr[0]) == pytest.approx(0.02175970699446223, rel=1e-9)


def test_ser_monotone_for_mixed_ensemble():
    r = np.random.default_rng(5)
    gains = [TrialGains(i, float(h), 0.0, 0.0)
             for i, h in enumerate(r.lognormal(-9.0, 0.8, size=200))]
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


def test_ser_curve_empty_raises():
    with pytest.raises(ValueError):
        ser_curve([], Scenario.LOS_ONLY)


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
    curve = type(base)(base.scenario, base.snr_db, bumpy, base.stderr, base.trials)
    assert required_snr(curve).non_monotone


def test_required_snr_target_validation():
    curve = ser_curve(flat_gains(4, 1.0), Scenario.LOS_ONLY)
    with pytest.raises(ValueError):
        required_snr(curve, target=0.0)
    assert SER_TARGET == 3.8e-3


def test_per_trial_scenario_ordering_transfers_to_ser():
    scene = make_scene(1.0, n_per_side=4)
    out = run_trials(scene, 40, seed=13)
    ms = float(np.mean([Scenario.LOS_NLOS_IRS.effective_gain(t) ** 2 for t in out]))
    curves = {s: ser_curve(out, s, mean_square_gain=ms) for s in Scenario}
    # against a common normalizer, adding propagation paths cannot hurt
    assert np.all(curves[Scenario.LOS_NLOS].ser <= curves[Scenario.LOS_ONLY].ser + 1e-15)
    assert np.all(curves[Scenario.LOS_NLOS_IRS].ser <= curves[Scenario.LOS_NLOS].ser + 1e-15)
