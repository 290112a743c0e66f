"""Shared helpers for the test suite."""

import os
import subprocess
import sys

import numpy as np
import pytest

from irsvlc import (Luminaire, OrientedBoxes, PhotoDetector, RunConfig, Scene, build_layout,
                    build_scene, simulator, vec3)
from irsvlc.scene import blocker_boxes, blocker_draws, blocker_means, floor_draws

# run_trials forks its workers on Linux only; elsewhere every run is in-process
linux_only = pytest.mark.skipif(sys.platform != "linux",
                                reason="run_trials forks its workers on Linux only")

# per-criterion PASS/FAIL lines from the acceptance tests, echoed after the run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def ceiling_ap():
    """The stock source: room-center ceiling mount, facing straight down."""
    return Luminaire(vec3(2.5, 2.5, 3.0), vec3(0.0, 0.0, -1.0), 1.0)


@pytest.fixture
def upward_ue():
    """Detector on the receiver plane, facing straight up."""
    return PhotoDetector(vec3(2.5, 2.5, 1.0), vec3(0.0, 0.0, 1.0))


@pytest.fixture
def inline_pool(monkeypatch):
    """run_trials' forked workers replaced by the chunks run in this process; the list
    of the worker counts a run forks."""
    started = []

    def inline_chunks(ens, bounds, workers):  # records the count, then runs the chunks here
        started.append(workers)
        return [simulator.compute_trials(ens, *b) for b in bounds]

    monkeypatch.setattr(simulator, "_forked_chunks", inline_chunks)
    return started


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def make_scene(density: float = 0.0, **fields) -> Scene:
    """The stock experiment's scene at one blocker density, with RunConfig fields overridden."""
    return build_scene(RunConfig(**fields), density)


def make_layout(**fields):
    """The stock experiment's array layout, with RunConfig fields overridden."""
    return build_layout(RunConfig(**fields))


def blocker_field(r, room, model):
    """One field of a blocker model drawn from r's current state as a run draws it
    (blocker_draws, floor_draws, blocker_boxes); None when it holds no box."""
    (unit,) = blocker_draws(r, blocker_means(room, (model.density,)))
    return blocker_boxes(*floor_draws([unit], room), model.dims) if unit.size else None


def box_set(half, rows) -> OrientedBoxes:
    """OrientedBoxes of (center, yaw) rows, drawn in order, sharing one set of half extents."""
    rows = list(rows)
    return OrientedBoxes(np.array([c for c, _ in rows], dtype=float).reshape(-1, 3), tuple(half),
                         np.array([y for _, y in rows], dtype=float))


def one_box(center, half, yaw) -> OrientedBoxes:
    """A one-row box set."""
    return box_set(half, [(center, yaw)])


def python_run(code: str, *args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """A fresh interpreter that has run code with src on its path: its stdout and stderr
    as text. It must exit with 0."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=timeout, check=True)


def python_lines(code: str, *args: str) -> list[str]:
    """Stdout lines of a fresh interpreter that runs code with src on its path."""
    return python_run(code, *args).stdout.splitlines()
