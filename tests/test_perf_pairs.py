"""The summary step of tools/perf_pairs.py, on canned perfbench result lines."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "perf_pairs.py")
_spec = importlib.util.spec_from_file_location("perf_pairs", _PATH)
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)


# perfbench/run.py's last line, cut to two metrics
LINE = ('{{"correct": true, "attempted": 4, "failed": 0, "metrics": {{'
        '"setup_s": {{"value": {}, "unit": "s"}}, "peak_rss_mb": {{"value": {}, "unit": "MB"}}}}}}')


def result_line(setup_s: float, rss: float) -> dict:
    return json.loads(LINE.format(setup_s, rss))


METRICS = [("setup_s", "lower"), ("peak_rss_mb", "lower")]


def test_a_clear_gain_passes_both_rules():
    # ten pairs: the change is 10 ms faster in nine, ties in one, and 1 MB smaller in all
    parent = [0.100 + 0.002 * i for i in range(10)]
    change = [p - 0.010 for p in parent[:9]] + [parent[9]]
    pairs = [(result_line(p, 40.0), result_line(c, 39.0)) for p, c in zip(parent, change)]
    setup, rss = perf_pairs.summarize(pairs, METRICS)
    assert setup["parent_median"] == pytest.approx(0.109)
    assert setup["parent_iqr"] == pytest.approx(0.009)  # quartiles 0.1045 and 0.1135
    assert setup["change_median"] == pytest.approx(0.099)
    assert setup["move"] == pytest.approx(-0.010 / 0.109)
    assert (setup["wins"], setup["pairs"], setup["nine_tenths"], setup["beyond_iqr"]) == \
        (9, 10, True, True)
    assert (rss["wins"], rss["parent_iqr"], rss["nine_tenths"], rss["beyond_iqr"]) == \
        (10, 0.0, True, True)


def test_noise_fails_the_rules():
    # the change wins 6 of 10 pairs, by less than the parent's own spread
    parent = [0.10, 0.12, 0.10, 0.12, 0.10, 0.12, 0.10, 0.12, 0.10, 0.12]
    change = [0.099, 0.119, 0.099, 0.119, 0.099, 0.119, 0.11, 0.13, 0.11, 0.13]
    pairs = [(result_line(p, 40.0), result_line(c, 40.1)) for p, c in zip(parent, change)]
    setup, rss = perf_pairs.summarize(pairs, METRICS)
    assert (setup["wins"], setup["nine_tenths"], setup["beyond_iqr"]) == (6, False, False)
    assert (rss["wins"], rss["nine_tenths"], rss["beyond_iqr"]) == (0, False, False)
    lines = perf_pairs.format_rows([setup, rss])
    assert lines[1].startswith("setup_s | 0.11 (0.02) | ") and lines[1].endswith(
        " | 6/10 | fails | fails")
    assert lines[2] == "peak_rss_mb | 40 (0) | 40.1 (0) | +0.3% | 0/10 | fails | fails"


def test_higher_is_better_counts_the_other_way():
    pairs = [(result_line(0.1, 40.0), result_line(0.1, 41.0)) for _ in range(10)]
    (rss,) = perf_pairs.summarize(pairs, [("peak_rss_mb", "higher")])
    assert (rss["wins"], rss["nine_tenths"], rss["beyond_iqr"]) == (10, True, True)
