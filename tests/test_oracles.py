"""Brute-force reference computations agree with the closed-form fast paths."""

import math

import numpy as np
import pytest

from irsvlc import optimal_mirror_normal, q_function, shadowed, vec3
from irsvlc import oracles
from irsvlc.oracles import (grid_search_mirror_normal, mirror_normal_deviation, occlusion_corpus,
                            point_sample_occlusion, q_numeric)

from conftest import one_box, rng


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
