"""Shared helpers for the test suite."""

import numpy as np
import pytest

from irsvlc import (Luminaire, OrientedBoxes, PhotoDetector, RunConfig, Scene, build_scene,
                    vec3)

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


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def make_scene(density: float = 0.0, **fields) -> Scene:
    """The stock experiment's scene at one blocker density, with RunConfig fields overridden."""
    return build_scene(RunConfig(**fields), density)


def box_set(half, rows) -> OrientedBoxes:
    """OrientedBoxes of (center, yaw) rows, drawn in order, sharing one set of half extents."""
    rows = list(rows)
    return OrientedBoxes(np.array([c for c, _ in rows], dtype=float).reshape(-1, 3), tuple(half),
                         np.array([y for _, y in rows], dtype=float))


def one_box(center, half, yaw) -> OrientedBoxes:
    """A one-row box set."""
    return box_set(half, [(center, yaw)])
