"""Acceptance suite for the reference experiment.

One test per criterion; each appends a PASS/FAIL line that the terminal
summary echoes after the run. The stock 10^4-trial run at both densities is
shared through a module fixture because several criteria read the same curves.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from irsvlc import (Luminaire, MirrorElement, PhotoDetector, ReflectorArray, ReflectorBank,
                    Scenario, TrialGains, los_gain, mirror_element_gain, nlos_gain,
                    optimal_mirror_normal, patch_incident_power, q_function, required_snr,
                    run_trials, ser_curve, vec3, wall_patches)
from irsvlc.channel import PoweredPatches
from irsvlc.cli import main
from irsvlc.geometry import normalize, unit_normal_from_polar
from irsvlc.irs import DEFAULT_MSA_EFFICIENCY
from irsvlc.oracles import mirror_normal_deviation, occlusion_disagreements, q_function_error
from irsvlc.scene import OrientationModel, Room, sample_tilt_deg
from irsvlc.simulator import SER_TARGET

from conftest import ACCEPTANCE_LINES, blocker_field, box_set, make_layout, make_scene, rng

STOCK_TRIALS = 10_000
STOCK_SEED = 1


def record(tag, ok, detail):
    line = f"criterion {tag}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


@dataclass(frozen=True)
class StockRun:
    curves: dict
    required: dict
    wallclock: float


@pytest.fixture(scope="module")
def stock():
    """The reference experiment at both blocker densities, full size, from the one
    pass over the trials that `simulate` makes; each run's wallclock is that pass's."""
    t0 = time.perf_counter()
    (by_density,) = run_trials(make_scene(), STOCK_TRIALS, STOCK_SEED, densities=(0.0, 1.0),
                               layouts=[make_layout()])
    curves = {d: {s: ser_curve(gains, s) for s in Scenario} for d, gains in by_density.items()}
    wall = time.perf_counter() - t0
    return {d: StockRun(c, {s: required_snr(c[s]) for s in Scenario}, wall)
            for d, c in curves.items()}


def _gap(run):
    a = run.required[Scenario.LOS_NLOS].snr_db
    b = run.required[Scenario.LOS_NLOS_IRS].snr_db
    return a, b, (None if a is None or b is None else a - b)


def test_criterion_1_gap_without_blockers(stock):
    run = stock[0.0]
    a, b, gap = _gap(run)
    ok = gap is not None and 4.0 <= gap <= 10.0 and run.wallclock <= 600.0
    record(1, ok,
           f"density 0: required {a:.3f} dB without arrays vs {b:.3f} dB with, "
           f"gap {gap:.3f} dB (target [4, 10]), runtime {run.wallclock:.1f} s")


def test_criterion_2_gap_with_blockers(stock):
    run = stock[1.0]
    a, b, gap = _gap(run)
    ok = gap is not None and 4.0 <= gap <= 10.0
    record(2, ok,
           f"density 1: required {a:.3f} dB without arrays vs {b:.3f} dB with, "
           f"gap {gap:.3f} dB (target [4, 10])")


def test_criterion_3_los_saturation_under_blockage(stock):
    curve = stock[1.0].curves[Scenario.LOS_ONLY]
    req = stock[1.0].required[Scenario.LOS_ONLY]
    floor = float(curve.ser[-1])
    ok = (not req.reachable) and floor > SER_TARGET
    record(3, ok,
           f"density 1 direct-path-only: target {'unreached' if not req.reachable else 'reached'} "
           f"on the grid, SER at 40 dB = {floor:.4f} > {SER_TARGET}")


def test_criterion_4_curve_ordering(stock):
    worst = -math.inf
    for density, run in stock.items():
        pairs = [(Scenario.LOS_ONLY, Scenario.LOS_NLOS),
                 (Scenario.LOS_NLOS, Scenario.LOS_NLOS_IRS)]
        for upper, lower in pairs:
            cu, cl = run.curves[upper], run.curves[lower]
            eps = 3.0 * np.maximum(cu.stderr, cl.stderr)
            margin = float(np.max(cl.ser - cu.ser - 2.0 * eps))
            worst = max(worst, margin)
    record(4, worst <= 0.0,
           f"adding paths never worsens SER beyond 2x(3 stderr) at any grid point; "
           f"worst margin {worst:.2e}")


def test_criterion_5a_mirror_normal_oracle():
    worst, checked = mirror_normal_deviation(100)
    assert worst is not None, "a closed-form orientation gave zero gain"
    record("5a", worst <= 1e-6,
           f"steered-element gain, closed form vs angular search: "
           f"max rel deviation {worst:.2e} over {checked} geometries")


def test_criterion_5b_q_function_oracle():
    worst = q_function_error(81)
    record("5b", worst <= 1e-10,
           f"Gaussian tail, erfc form vs quadrature: max abs error {worst:.2e} on [0, 8]")


def test_criterion_5c_occlusion_oracle():
    cases = 10_000
    bad = occlusion_disagreements(cases)
    record("5c", bad == 0,
           f"slab intersection vs point sampling: {bad} disagreements on "
           f"{cases} filtered cases")


def test_criterion_6_closed_form_ser():
    gains = TrialGains(np.full(32, 2.0e-4), np.zeros(32), np.zeros(32))
    curve = ser_curve(gains, Scenario.LOS_ONLY)
    want = q_function(np.sqrt(10.0 ** (curve.snr_db / 10.0)))
    worst = float(np.max(np.abs(curve.ser - want)))
    req = required_snr(curve).snr_db
    ok = worst <= 1e-12 and abs(req - 8.51) <= 0.05
    record(6, ok,
           f"equal-gain ensemble: max deviation from Q(sqrt(snr)) {worst:.1e}, "
           f"required SNR {req:.4f} dB (target 8.51 +/- 0.05)")


def test_criterion_7_thread_count_invariance(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[irs]\nn_per_side = 6\n"
                   "[blockers]\ndensities = 0, 0.5\n"
                   "[sim]\ntrials = 200\nseed = 2\nsnr_step_db = 5\n",
                   encoding="utf-8")
    outs = {}
    for threads in (1, 8):
        out = tmp_path / f"t{threads}"
        code = main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--threads", str(threads)])
        assert code == 0
        outs[threads] = (out / "curves.csv").read_bytes()
    same = outs[1] == outs[8]
    record(7, same,
           f"CSV from --threads 1 and --threads 8 byte-identical: {same} "
           f"({len(outs[1])} bytes)")


def test_criterion_8_sampler_statistics():
    scene = make_scene(1.0)
    lam = scene.blocker_model.density * scene.room.length * scene.room.width
    r = rng(8_080)
    fields = [blocker_field(r, scene.room, scene.blocker_model) for _ in range(10_000)]
    counts = np.array([0 if f is None else len(f) for f in fields])
    count_band = 3.0 * math.sqrt(lam / len(counts))
    count_err = abs(float(counts.mean()) - lam)

    model = OrientationModel()
    r2 = rng(8_081)
    tilts = np.array([sample_tilt_deg(r2, model) for _ in range(100_000)])
    tilt_err = abs(float(tilts.mean()) - model.theta_mean_deg)

    ok = count_err <= count_band and tilt_err <= 0.5
    record(8, ok,
           f"blocker count mean off by {count_err:.3f} (3 sigma = {count_band:.3f}); "
           f"tilt mean off by {tilt_err:.3f} deg (limit 0.5)")


# -- criterion 9: property suites, 10^4 randomized cases each -------------------


ROOM = Room(5.0, 5.0, 3.0)


def _random_ap(r):
    m = float(r.choice([0.5, 1.0, 2.0, 6.0]))
    pos = r.uniform((0.2, 0.2, 1.5), (4.8, 4.8, 3.0))
    n = normalize(r.normal(size=3))
    return Luminaire(vec3(*pos), n, m)


def _random_ue(r):
    pos = r.uniform((0.2, 0.2, 0.2), (4.8, 4.8, 2.0))
    n = normalize(r.normal(size=3))
    fov = math.radians(r.uniform(20.0, 90.0))
    return PhotoDetector(vec3(*pos), n, 1e-4, fov)


def _random_boxes(r, count):
    return box_set((0.375, 0.1, 0.875),
                   ((vec3(*r.uniform((0.3, 0.3), (4.7, 4.7)), 0.875),
                     float(r.uniform(0.0, math.pi))) for _ in range(count)))


def test_criterion_9a_gain_nonnegativity():
    r = rng(9_001)
    patches = wall_patches(ROOM, 1.0)
    worst = math.inf
    for _ in range(10_000):
        ap, ue = _random_ap(r), _random_ue(r)
        boxes = _random_boxes(r, int(r.integers(0, 3)))
        elem = MirrorElement(vec3(*r.uniform(0.3, 4.7, 3)),
                             normalize(r.normal(size=3)))
        values = (los_gain(ap, ue, boxes),
                  nlos_gain(ap, ue, patches, boxes),
                  mirror_element_gain(ap, elem, ue, boxes))
        assert all(math.isfinite(v) for v in values)
        worst = min(worst, *values)
    record("9a", worst >= 0.0,
           f"direct, diffuse and steered gains finite and non-negative over "
           f"10^4 cases; minimum seen {worst:.1e}")


def test_criterion_9b_blockage_monotonicity():
    r = rng(9_002)
    patches = wall_patches(ROOM, 1.0)
    violations = 0
    for _ in range(10_000):
        ap, ue = _random_ap(r), _random_ue(r)
        boxes = _random_boxes(r, 3)
        elem_c = vec3(*r.uniform(0.5, 4.5, 3))
        elem = MirrorElement(elem_c, optimal_mirror_normal(ap.position, elem_c, ue.position))
        for fn in (lambda b: los_gain(ap, ue, b),
                   lambda b: nlos_gain(ap, ue, patches, b),
                   lambda b: mirror_element_gain(ap, elem, ue, b)):
            g0, g1, g3 = fn(()), fn(boxes[:1]), fn(boxes)
            violations += not (g0 >= g1 >= g3)
    record("9b", violations == 0,
           f"adding blockers never raised a direct, diffuse or steered gain "
           f"(3 x 10^4 nested comparisons, {violations} violations)")


def test_criterion_9c_fov_cutoff():
    r = rng(9_003)
    violations = 0
    for _ in range(10_000):
        p = r.uniform(1.0, 4.0, 3)
        n = normalize(r.normal(size=3))
        t = normalize(np.cross(n, r.normal(size=3)))
        alpha = math.radians(r.uniform(3.0, 87.0))
        u = math.cos(alpha) * n + math.sin(alpha) * t
        d = r.uniform(0.5, 2.5)
        ap = Luminaire(vec3(*(p + d * u)), -u, 1.0)
        inside = PhotoDetector(vec3(*p), n, 1e-4, min(math.pi / 2, alpha + math.radians(1.0)))
        outside = PhotoDetector(vec3(*p), n, 1e-4, alpha - math.radians(1.0))
        ok = los_gain(ap, inside) > 0.0 and los_gain(ap, outside) == 0.0
        violations += not ok
    record("9c", violations == 0,
           f"incidence beyond the field of view yields exactly zero, within it "
           f"a positive gain (10^4 cases, {violations} violations)")


def test_criterion_9d_inverse_square_scaling():
    r = rng(9_004)
    worst = 0.0
    for _ in range(10_000):
        p = r.uniform(0.0, 5.0, 3)
        w = normalize(r.normal(size=3))
        n_ue = normalize(w + 0.4 * normalize(np.cross(w, r.normal(size=3))))
        ue = PhotoDetector(vec3(*p), n_ue)
        d = r.uniform(0.4, 2.0)
        m = float(r.choice([0.5, 1.0, 2.0, 6.0]))
        near = Luminaire(vec3(*(p + d * w)), -w, m)
        far = Luminaire(vec3(*(p + 2.0 * d * w)), -w, m)
        g_near, g_far = los_gain(near, ue), los_gain(far, ue)
        assert g_far > 0.0
        worst = max(worst, abs(g_near / g_far - 4.0))
    record("9d", worst <= 1e-9,
           f"halving distance along the boresight quadruples the gain; "
           f"max |ratio - 4| = {worst:.1e} over 10^4 cases")


def test_criterion_9e_cascade_energy_bound():
    # a two-leg cascade cannot beat a detector sitting on the element itself:
    # gain <= scale * (m+1) * A / (2 pi d1^2), since d1 + d2 >= d1 and cosines <= 1
    r = rng(9_005)
    worst = 0.0
    for _ in range(10_000):
        ap, ue = _random_ap(r), _random_ue(r)
        c = vec3(*r.uniform(0.3, 4.7, 3))
        d1_sq = float(np.sum((ap.position - c) ** 2))
        m = ap.lambertian_order
        try:
            elem = MirrorElement(c, optimal_mirror_normal(ap.position, c, ue.position))
        except ValueError:
            continue
        g_mirror = mirror_element_gain(ap, elem, ue)
        bound = elem.reflectivity * (m + 1.0) * ue.area / (2.0 * math.pi * d1_sq)
        worst = max(worst, g_mirror / bound)
        arr = ReflectorArray(normalize(r.normal(size=3)), c[None, :], DEFAULT_MSA_EFFICIENCY)
        g_msa = ReflectorBank(ap, (), (arr,)).gain(ue)
        bound = arr.scale * (m + 1.0) * ue.area / (2.0 * math.pi * d1_sq)
        worst = max(worst, g_msa / bound)
    record("9e", worst <= 1.0 + 1e-12,
           f"cascaded element gains stay below the single-leg ceiling; "
           f"max gain/bound ratio {worst:.4f} over 10^4 geometries")


def test_criterion_9f_nlos_grid_convergence():
    ap = Luminaire(vec3(2.5, 2.5, 3.0), vec3(0, 0, -1), 1.0)
    coarse, fine = (PoweredPatches(ps, patch_incident_power(ap, ps, order=1))
                    for ps in (wall_patches(ROOM, 0.25), wall_patches(ROOM, 0.125)))
    model = OrientationModel()
    r = rng(20_260_814)
    ues = []
    for _ in range(10_000):
        # receiver-plane poses at least 1 m from the walls: nearer poses need
        # finer grids, since midpoint-rule error grows as (patch / distance)^2
        pos = vec3(r.uniform(1.0, 4.0), r.uniform(1.0, 4.0), 1.0)
        normal = unit_normal_from_polar(math.radians(sample_tilt_deg(r, model)),
                                        r.uniform(0.0, 2.0 * math.pi))
        ues.append(PhotoDetector(pos, normal))
    worst = 0.0
    for gc, gf in zip(coarse.capture(ues), fine.capture(ues)):
        if gc == 0.0 and gf == 0.0:
            continue
        worst = max(worst, abs(gc - gf) / max(gc, gf))
    record("9f", worst <= 0.02,
           f"quartering the patch area moves the diffuse gain by at most "
           f"{worst:.4f} relative (limit 0.02) over 10^4 receiver poses")
