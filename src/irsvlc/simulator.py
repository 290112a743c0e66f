"""Monte Carlo engine: per-trial channel gains and symbol-error-rate curves.

Each trial draws an independent receiver pose and blocker population from a
substream keyed by (seed, trial index), so results do not depend on worker
count or execution order. Blockers occlude the direct source-detector link;
the diffuse wall field and the steered mirror cascade are treated as
blockage-insensitive at trial level (per-path occlusion stays available in
the channel and irs APIs). So one pass over the trials serves every blocker
density: a trial's pose-only gains are computed once, and its blocker draws
are replayed for each density. On-off keying over the sampled gain ensemble gives
SER(snr) = mean_t Q(sqrt(snr * h_t^2 / mean(h^2))), where the mean-square
gain normalization makes `snr` the average received electrical SNR.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

import numpy as np
from scipy.special import erfc

from .channel import (DEFAULT_PATCH_SIZE, PatchSet, PoweredPatches, los_gain,
                      patch_incident_power, wall_patches)
from .geometry import OrientedBoxes, segments_intersect_box
from .irs import ReflectorBank
from .scene import BlockerModel, Scene, sample_blocker_fields, sample_ue

SER_TARGET = 3.8e-3  # pre-FEC threshold used for required-SNR readouts
DEFAULT_SNR_GRID_DB = (0.0, 40.0, 1.0)


class Scenario(Enum):
    """Which propagation mechanisms contribute to the received signal."""

    LOS_ONLY = "los_only"
    LOS_NLOS = "los_nlos"
    LOS_NLOS_IRS = "los_nlos_irs"

    def effective_gain(self, trial: "TrialGains") -> float:
        if self is Scenario.LOS_ONLY:
            return trial.h_los
        if self is Scenario.LOS_NLOS:
            return trial.h_los + trial.h_nlos
        return trial.h_los + trial.h_nlos + trial.h_irs


@dataclass(frozen=True)
class TrialGains:
    """Channel gain components of one Monte Carlo trial."""

    index: int
    h_los: float
    h_nlos: float
    h_irs: float


@dataclass(frozen=True)
class SnrGrid:
    """Inclusive dB grid from start to stop in fixed steps."""

    start_db: float = DEFAULT_SNR_GRID_DB[0]
    stop_db: float = DEFAULT_SNR_GRID_DB[1]
    step_db: float = DEFAULT_SNR_GRID_DB[2]

    def __post_init__(self) -> None:
        if self.step_db <= 0:
            raise ValueError(f"grid step must be positive, got {self.step_db}")
        if self.stop_db < self.start_db:
            raise ValueError("grid stop lies below its start")

    def values(self) -> np.ndarray:
        n = int(math.floor((self.stop_db - self.start_db) / self.step_db + 1e-9)) + 1
        return self.start_db + self.step_db * np.arange(n)


@dataclass(frozen=True)
class SerCurve:
    """SER over an SNR grid for one scenario, with per-point standard errors."""

    scenario: Scenario
    snr_db: np.ndarray
    ser: np.ndarray
    stderr: np.ndarray
    trials: int
    seed: int | None = None


@dataclass(frozen=True)
class RequiredSnr:
    """Lowest SNR meeting a target SER; None when the curve never gets there.

    censored: the curve already meets the target at the first grid point, so
    snr_db is the grid start, an upper bound on the true requirement.
    """

    snr_db: float | None
    non_monotone: bool = False
    censored: bool = False

    @property
    def reachable(self) -> bool:
        return self.snr_db is not None


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Independent, reproducible substream for one trial."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(trial_index,)))


@dataclass(frozen=True)
class Ensemble:
    """Everything a trial reads besides its own substream; built once per run.

    Construction also keeps the powered wall patches ready for the per-pose
    diffuse capture.
    """

    scene: Scene
    seed: int
    patches: PatchSet
    diffuse_power: np.ndarray
    bank: ReflectorBank
    blocker_models: tuple[BlockerModel, ...]  # one per density, in output order
    powered: PoweredPatches = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "powered", PoweredPatches(self.patches, self.diffuse_power))

    @classmethod
    def build(cls, scene: Scene, seed: int, densities: Sequence[float], *,
              nlos_patch_size: float = DEFAULT_PATCH_SIZE, nlos_order: int = 2) -> "Ensemble":
        """Precompute the diffuse field and the reflector bank of a scene."""
        patches = wall_patches(scene.room, nlos_patch_size, scene.wall_reflectivity)
        return cls(
            scene, seed, patches, _diffuse_field(scene, patches, nlos_order),
            ReflectorBank(scene.aps, scene.mirror_arrays, scene.metasurface_arrays),
            tuple(replace(scene.blocker_model, density=d) for d in densities))


def compute_trial(ens: Ensemble, trial_index: int) -> tuple[TrialGains, ...]:
    """One receiver pose and its gains at every blocker density of the ensemble.

    The pose comes first in the trial's substream and the blockers follow;
    nothing else reads it. Replaying the stream from the state after the pose
    therefore gives each density exactly the blockers a run at that density
    alone would draw. Every density's boxes go into one box set, so one
    floor-plan cull and one slab call, for every lit source's sight line and
    the containment test at once, serve all densities. When no source
    reaches the detector unblocked, no blocker can change the direct gain and
    the draws are skipped. When no box cuts a sight line, every density
    shares one TrialGains.
    """
    scene = ens.scene
    rng = trial_rng(ens.seed, trial_index)
    ue = sample_ue(rng, scene)
    h_nlos = ens.powered.capture(ue)
    # blockers model pedestrians crossing the direct link; the diffuse wall
    # field and the steered cascade are treated as blockage-insensitive at
    # trial level (per-path occlusion stays available in channel/irs)
    h_irs = ens.bank.gain(ue)
    lit = [(ap, g) for ap in scene.aps if (g := los_gain(ap, ue)) != 0.0]
    if not lit:
        return (TrialGains(trial_index, 0.0, h_nlos, h_irs),) * len(ens.blocker_models)
    boxes, offsets = sample_blocker_fields(rng, scene.room, ens.blocker_models)
    cut_rows = [] if boxes is None else _cut_sight_lines(boxes, ue.position,
                                                          [ap.position for ap, _ in lit])
    if not cut_rows:  # no box cuts a sight line, so one row serves every density
        h_los = math.fsum(g for _, g in lit)
        return (TrialGains(trial_index, h_los, h_nlos, h_irs),) * len(ens.blocker_models)
    # blocked[j]: the densities whose boxes cut lit source j's sight line
    blocked = [{bisect_right(offsets, i) - 1 for i in rows.tolist()} for rows in cut_rows]
    return tuple(TrialGains(trial_index,
                            math.fsum(g for (_, g), b in zip(lit, blocked) if k not in b),
                            h_nlos, h_irs) for k in range(len(ens.blocker_models)))


def _cut_sight_lines(boxes: OrientedBoxes, end: np.ndarray,
                     starts: list[np.ndarray]) -> list[np.ndarray]:
    """Per start point, the rows of the boxes that cut its open sight line to end.

    Boxes whose interior holds end are left out: hard-core thinning, as an
    object cannot occupy the receiver's location, and a box enclosing the
    receiver would zero every path regardless of steering. Only the boxes
    that OrientedBoxes.may_cut keeps for some start get the slab test: one
    call for every sight line plus the zero-length segment at end, which
    gives the containment test from the same box-local frame of end. The
    list is empty when no box cuts any sight line.
    """
    near = boxes.may_cut(starts[0], end)
    for p in starts[1:]:
        near |= boxes.may_cut(p, end)
    near = near.nonzero()[0]
    if not near.size:
        return []
    ends = np.array([end] * (len(starts) + 1))[:, None, :]
    cuts = segments_intersect_box(np.array(starts + [end])[:, None, :], ends, boxes[near])
    hits = cuts[:-1] & ~cuts[-1]
    return [near[h] for h in hits] if hits.any() else []


def _diffuse_field(scene: Scene, patches: PatchSet, order: int) -> np.ndarray:
    """Per-patch incident power from every source, blockage-free by design."""
    total = np.zeros(len(patches))
    for ap in scene.aps:
        total = total + patch_incident_power(ap, patches, (), order=order)
    return total


# -- worker-pool plumbing ----------------------------------------------------

_WORKER_STATE: dict = {}


def _init_worker(ens: Ensemble) -> None:
    _WORKER_STATE["ensemble"] = ens


def _run_chunk(bounds: tuple[int, int]) -> list[tuple[TrialGains, ...]]:
    ens = _WORKER_STATE["ensemble"]
    return [compute_trial(ens, t) for t in range(*bounds)]


def run_trials(scene: Scene, trials: int, seed: int, *, threads: int = 1,
               nlos_patch_size: float = DEFAULT_PATCH_SIZE, nlos_order: int = 2,
               densities: Sequence[float] | None = None
               ) -> list[TrialGains] | dict[float, list[TrialGains]]:
    """Run the Monte Carlo ensemble; identical output for any thread count.

    Returns the list of TrialGains for the scene's blocker density. Given
    `densities`, one pass over the trials serves all of them instead, and the
    result maps each density to the list a scene of that density would give.

    Trials are keyed by index, computed in contiguous chunks and reassembled
    in index order, so parallel scheduling cannot change the result. The
    diffuse wall field and the reflector bank are precomputed once and
    shipped to workers, which both removes per-trial cost and keeps them
    bit-identical everywhere.
    """
    if trials < 1:
        raise ValueError(f"trial count must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    wanted = (scene.blocker_model.density,) if densities is None else tuple(densities)
    if not wanted:
        raise ValueError("densities needs at least one value")
    unique = tuple(dict.fromkeys(wanted))
    ens = Ensemble.build(scene, seed, unique, nlos_patch_size=nlos_patch_size,
                         nlos_order=nlos_order)
    if threads <= 1 or trials == 1:
        rows = [compute_trial(ens, t) for t in range(trials)]
    else:
        chunk = max(1, math.ceil(trials / (threads * 8)))
        bounds = [(a, min(a + chunk, trials)) for a in range(0, trials, chunk)]
        with ProcessPoolExecutor(max_workers=threads, initializer=_init_worker,
                                 initargs=(ens,)) as pool:
            rows = [row for part in pool.map(_run_chunk, bounds) for row in part]
    by_density = {d: [row[k] for row in rows] for k, d in enumerate(unique)}
    return by_density[wanted[0]] if densities is None else by_density


# -- SER estimation ----------------------------------------------------------


def q_function(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x); scalar in, scalar out."""
    q = 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))
    return float(q) if np.ndim(x) == 0 else q


def ser_curve(gains: Sequence[TrialGains], scenario: Scenario,
              grid: SnrGrid = SnrGrid(), *, seed: int | None = None,
              mean_square_gain: float | None = None) -> SerCurve:
    """OOK symbol error rate across the SNR grid for one scenario.

    Per-trial received SNR is the grid SNR scaled by h^2 / mean(h^2);
    mean_square_gain overrides the normalizer (for cross-scenario baselines).
    Trials with zero gain contribute Q(0) = 1/2, so blockage and orientation
    outage produce an error floor.
    """
    if not gains:
        raise ValueError("cannot estimate an SER curve from zero trials")
    h = np.array([scenario.effective_gain(g) for g in gains])
    h_sq = h * h
    norm = float(np.mean(h_sq)) if mean_square_gain is None else float(mean_square_gain)
    snr_db = grid.values()
    n = len(h)
    if norm == 0.0:
        ser = np.full(len(snr_db), 0.5)
        return SerCurve(scenario, snr_db, ser, np.zeros(len(snr_db)), n, seed)
    snr_lin = 10.0 ** (snr_db / 10.0)
    arg = np.sqrt(np.outer(snr_lin, h_sq / norm))
    q = 0.5 * erfc(arg / math.sqrt(2.0))
    ser = q.mean(axis=1)
    if n > 1:
        stderr = q.std(axis=1, ddof=1) / math.sqrt(n)
    else:
        stderr = np.zeros(len(snr_db))
    return SerCurve(scenario, snr_db, ser, stderr, n, seed)


def required_snr(curve: SerCurve, target: float = SER_TARGET) -> RequiredSnr:
    """Lowest SNR on (or interpolated between) grid points with SER <= target.

    Log-linear interpolation refines the crossing between the bracketing grid
    points. If the curve wiggles around the crossing the first crossing wins
    and the result is flagged; a curve already at or below target at the
    first grid point is flagged as censored.
    """
    if target <= 0:
        raise ValueError(f"target SER must be positive, got {target}")
    ser = curve.ser
    below = np.flatnonzero(ser <= target)
    if below.size == 0:
        return RequiredSnr(None, False)
    i = int(below[0])
    wiggle = bool(np.any(np.diff(ser[: min(len(ser), i + 2)]) > 0))
    if i == 0:
        return RequiredSnr(float(curve.snr_db[0]), wiggle, censored=True)
    y0, y1 = float(ser[i - 1]), float(ser[i])
    s0, s1 = float(curve.snr_db[i - 1]), float(curve.snr_db[i])
    y1 = max(y1, 1e-15)  # SER can underflow to exactly zero at high SNR
    frac = (math.log(y0) - math.log(target)) / (math.log(y0) - math.log(y1))
    return RequiredSnr(s0 + frac * (s1 - s0), wiggle)
