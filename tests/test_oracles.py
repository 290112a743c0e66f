"""Brute-force reference computations agree with the closed-form fast paths."""

import math

import numpy as np
import pytest

from irsvlc import (Ensemble, PhotoDetector, los_gain, optimal_mirror_normal, q_function,
                    sample_ue, shadowed, trial_rng, vec3)
from irsvlc import oracles
from irsvlc.oracles import (grid_search_mirror_normal, mirror_normal_deviation, occlusion_corpus,
                            point_sample_occlusion, q_numeric)
from irsvlc.scene import blocker_boxes, blocker_draws, blocker_means, floor_draws
from irsvlc.simulator import _cut_rows, _near_rows

from conftest import make_layout, make_scene, one_box, rng


def test_grid_search_recovers_closed_form_normal():
    r = rng(6021)
    checked = 0
    while checked < 10:
        c, src, dst = r.uniform(-2.0, 7.0, size=(3, 3))
        if min(np.linalg.norm(src - c), np.linalg.norm(dst - c)) < 0.5:
            continue
        closed = optimal_mirror_normal(src, c, dst)
        searched = grid_search_mirror_normal(src, c, dst)
        assert float(searched @ closed) >= 1.0 - 1e-6
        checked += 1


def test_grid_search_symmetric_geometry():
    # the finest refinement step is 0.02 degrees, so components can sit a few
    # 1e-4 off the exact bisector even though the steering alignment is tight
    n = grid_search_mirror_normal(vec3(2, 3, 1), vec3(0, 0, 0), vec3(2, -3, -1))
    assert n == pytest.approx(np.array([1.0, 0.0, 0.0]), abs=5e-4)


def test_grid_search_retroreflection():
    n = grid_search_mirror_normal(vec3(1, 2, 2), vec3(0, 0, 0), vec3(1, 2, 2))
    assert n == pytest.approx(np.array([1, 2, 2]) / 3.0, abs=5e-4)


def test_grid_search_validation():
    with pytest.raises(ValueError):
        grid_search_mirror_normal(vec3(1, 0, 0), vec3(0, 0, 0), vec3(-4, 0, 0))


def test_q_numeric_known_values():
    assert q_numeric(0.0) == pytest.approx(0.5, abs=1e-12)
    assert q_numeric(3.0) == pytest.approx(1.3498980316300946e-03, rel=1e-10)


def test_q_numeric_reflection():
    for x in (0.3, 1.7, 4.2):
        assert q_numeric(-x) + q_numeric(x) == pytest.approx(1.0, abs=1e-11)


def test_q_numeric_matches_erfc_form():
    for x in np.linspace(0.0, 8.0, 17):
        assert q_numeric(float(x)) == pytest.approx(q_function(float(x)),
                                                    rel=1e-10, abs=1e-14)


def test_q_numeric_range_guard():
    with pytest.raises(ValueError):
        q_numeric(40.5)
    with pytest.raises(ValueError):
        q_numeric(-41.0)


def test_point_sampling_clear_cases():
    box = one_box(vec3(2.0, 2.0, 1.0), (0.5, 0.5, 0.5), 0.0)
    assert point_sample_occlusion(vec3(0, 2, 1), vec3(4, 2, 1), box) is True
    assert point_sample_occlusion(vec3(0, 0, 0), vec3(0, 4, 0), box) is False


def test_corpus_verdicts_match_slab_test():
    cases = occlusion_corpus(rng(88), 300)
    assert len(cases) == 300
    hits = 0
    for p, q, box in cases:
        want = shadowed(p, q, box)
        assert point_sample_occlusion(p, q, box) == want
        hits += want
    # the rejection rules must not degenerate the corpus to one verdict
    assert 0 < hits < 300


def test_mirror_check_counts_checked_geometries(monkeypatch):
    worst, checked = mirror_normal_deviation(3)
    assert checked == 3 and 0.0 <= worst <= 1e-6
    # a zero closed-form gain stops the check before it counts that geometry
    monkeypatch.setattr(oracles, "mirror_element_gain", lambda *args: 0.0)
    assert mirror_normal_deviation(3) == (None, 0)


# -- symmetry oracle: the stock scene under the square floor's symmetries ------

SYMMETRY_BOUND = 1e-12  # largest relative deviation of a gain from its image's
SYMMETRY_POSES = 300


def _symmetries(side):
    """(name, A, b) of p -> A p + b for x -> L - x, x <-> y and a quarter turn about
    the vertical center line of a square floor of this side; A maps directions."""
    swap = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    turn = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    return (("mirror", np.diag([-1.0, 1.0, 1.0]), np.array([side, 0.0, 0.0])),
            ("swap", swap, np.zeros(3)),
            ("turn", turn, np.array([side, 0.0, 0.0])))


def _image_yaws(a, yaws):
    """Yaws in [0, pi) of the images of boxes with these yaws under A."""
    axes = a[:2, :2] @ np.array([np.cos(yaws), np.sin(yaws)])
    image = np.mod(np.arctan2(axes[1], axes[0]), math.pi)
    return np.where(image < math.pi, image, 0.0)  # a tiny negative angle rounds up to pi


def _stock_trials(scene, seed):
    """The poses of the scene's first SYMMETRY_POSES trials and their blocker unit
    draws at the scene's density, each from its trial's own substream."""
    means = blocker_means(scene.room, (scene.blocker_model.density,))
    poses, draws = [], []
    for t in range(SYMMETRY_POSES):
        r = trial_rng(seed, t)
        poses.append(sample_ue(r, scene))
        draws += blocker_draws(r, means)
    return poses, draws


def _checked_scene(scene):
    side = scene.room.length
    assert scene.room.width == side and len(scene.aps) == 1
    for _, a, b in _symmetries(side):
        ap = scene.aps[0]
        assert (a @ ap.position + b).tolist() == ap.position.tolist()
        assert (a @ ap.normal).tolist() == ap.normal.tolist()
    return side


def _relative_deviation(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = np.maximum(np.abs(got), np.abs(want))
    return float((np.abs(got - want) / np.where(scale > 0.0, scale, 1.0)).max())


@pytest.mark.parametrize("order", [1, 2])
def test_gains_are_invariant_under_the_floor_symmetries(order):
    # the stock room, source, wall patches and the arrays centered on each wall
    # map onto themselves, so every pose's direct gain, diffuse capture and
    # array gain, for mirror and metasurface arrays, equals its image's; a
    # transposed grid axis or a misplaced array breaks this
    scene = make_scene(nlos_order=order)
    ens = Ensemble.build(scene, 1, (0.0,),
                         layouts=[make_layout(), make_layout(irs_type="metasurface")])
    side = _checked_scene(scene)
    poses, _ = _stock_trials(scene, 1)

    def gains(ues):
        return np.array([[los_gain(scene.aps[0], ue) for ue in ues], ens.powered.capture(ues),
                         *([bank.gain(ue) for ue in ues] for bank in ens.banks)])

    want = gains(poses)
    assert (want > 0.0).any(axis=1).all()
    for name, a, b in _symmetries(side):
        images = [PhotoDetector(a @ ue.position + b, a @ ue.normal, ue.area, ue.fov)
                  for ue in poses]
        assert _relative_deviation(gains(images), want) <= SYMMETRY_BOUND, name


def test_block_cull_verdicts_are_invariant_under_the_floor_symmetries():
    # the block cull and slab test give every drawn box of the stock poses'
    # trials and its image, with its center mapped and its yaw mapped into
    # [0, pi), the same verdict on its own trial's sight line and its image
    scene = make_scene(1.0)
    side = _checked_scene(scene)
    poses, draws = _stock_trials(scene, 1)
    source = scene.aps[0].position
    lit = [s for s, ue in enumerate(poses) if los_gain(scene.aps[0], ue)]
    slots = np.repeat(np.arange(len(poses)), [unit.shape[1] for unit in draws])
    xs, ys, yaws = floor_draws(draws, scene.room)
    dims = scene.blocker_model.dims
    half = tuple(d / 2.0 for d in dims)

    def verdicts(xs, ys, yaws, ends):
        rows = _near_rows(xs, ys, slots, ends, lit, source, half)
        cut = np.zeros(len(xs), dtype=bool)
        cut[rows] = _cut_rows(blocker_boxes(xs[rows], ys[rows], yaws[rows], dims), slots[rows],
                              ends, source)
        return cut

    ends = np.array([ue.position for ue in poses])
    want = verdicts(xs, ys, yaws, ends)
    assert 0 < len(set(slots[want].tolist())) < len(lit)
    for name, a, b in _symmetries(side):
        centers = np.column_stack((xs, ys, np.full(len(xs), half[2]))) @ a.T + b
        # the images light the same trials (the test above)
        got = verdicts(centers[:, 0].copy(), centers[:, 1].copy(), _image_yaws(a, yaws),
                       ends @ a.T + b)
        assert got.tolist() == want.tolist(), name
