"""Monte Carlo engine: per-trial channel gains and symbol-error-rate curves.

Each trial draws an independent receiver pose and blocker population from a
substream keyed by (seed, trial index), so results do not depend on worker
count, chunk size or execution order. Blockers occlude the direct
source-detector link; the diffuse wall field and the steered mirror cascade
are treated as blockage-insensitive at trial level (per-path occlusion stays
available in the channel and irs APIs). So one pass over the trials serves
every blocker density and every array layout: a trial's pose-only gains are
computed once, its blocker draws are replayed for each density, and each
layout's reflector bank reads the same pose. On-off keying over the sampled
gain ensemble gives
SER(snr) = mean_t Q(sqrt(snr * h_t^2 / mean(h^2))), where the mean-square
gain normalization makes `snr` the average received electrical SNR.
"""

from __future__ import annotations

import math
import mmap
import os
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np
# imported with the package: numpy loads numpy.random lazily, which would move its
# import cost from a run's set-up into its first trial
from numpy.random import Generator, SeedSequence, default_rng

from .channel import PoweredPatches, los_gain, patch_incident_power, wall_patches
from .geometry import OrientedBoxes, cull_disk, segments_intersect_box
from .irs import ReflectorArray, ReflectorBank
from .scene import Scene, blocker_boxes, blocker_draws, blocker_means, floor_draws, sample_ue

SER_TARGET = 3.8e-3  # pre-FEC threshold used for required-SNR readouts
DEFAULT_SNR_GRID_DB = (0.0, 40.0, 1.0)
MAX_SNR_POINTS = 1000  # ser_curve's (points, trials) Q block is 80 MB at 10^4 trials
MAX_SNR_DB = 1000.0  # ser_curve's 10^(dB/10) is 1e100 here; it overflows above about 3082 dB
# ser_curve evaluates Q over blocks of grid rows of at most this many elements (one row
# at least), so _erfc's temporaries stay small and their memory is reused
_Q_BLOCK = 1 << 15


class Scenario(Enum):
    """Which propagation mechanisms contribute to the received signal."""

    LOS_ONLY = "los_only"
    LOS_NLOS = "los_nlos"
    LOS_NLOS_IRS = "los_nlos_irs"

    def effective_gain(self, gains: "TrialGains") -> np.ndarray:
        """Per-trial gain of the mechanisms the scenario adds up, in trial order."""
        if self is Scenario.LOS_ONLY:
            return gains.h_los
        if self is Scenario.LOS_NLOS:
            return gains.h_los + gains.h_nlos
        return gains.h_los + gains.h_nlos + gains.h_irs


@dataclass(frozen=True)
class TrialGains:
    """Channel gain components of every trial of a run at one blocker density and
    array layout.

    Each field is a read-only float64 (trials,) array in trial order. Every
    density and layout of a run shares the same h_nlos, every layout the same
    h_los row of a density, and every density the same h_irs row of a layout.
    """

    h_los: np.ndarray
    h_nlos: np.ndarray
    h_irs: np.ndarray


@dataclass(frozen=True)
class SnrGrid:
    """Inclusive dB grid from start to stop in fixed steps."""

    start_db: float = DEFAULT_SNR_GRID_DB[0]
    stop_db: float = DEFAULT_SNR_GRID_DB[1]
    step_db: float = DEFAULT_SNR_GRID_DB[2]

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.start_db, self.stop_db, self.step_db))):
            raise ValueError(f"grid start, stop and step must be finite, got {self.start_db:g}, "
                             f"{self.stop_db:g} and {self.step_db:g} dB")
        if self.step_db <= 0:
            raise ValueError(f"grid step must be positive, got {self.step_db}")
        if self.stop_db < self.start_db:
            raise ValueError("grid stop lies below its start")
        if not self.stop_db <= MAX_SNR_DB:
            raise ValueError(f"grid stop {self.stop_db:g} dB lies above {MAX_SNR_DB:g} dB")
        if not (self.stop_db - self.start_db) / self.step_db + 1e-9 < MAX_SNR_POINTS:
            raise ValueError(f"grid step {self.step_db:g} dB gives more than the "
                             f"{MAX_SNR_POINTS} points one curve may hold")

    def values(self) -> np.ndarray:
        n = int(math.floor((self.stop_db - self.start_db) / self.step_db + 1e-9)) + 1
        return self.start_db + self.step_db * np.arange(n)


@dataclass(frozen=True)
class SerCurve:
    """SER over an SNR grid for one scenario, with per-point standard errors.

    mean_square_gain: the mean of h^2 that the SNR axis is normalized by.
    """

    scenario: Scenario
    snr_db: np.ndarray
    ser: np.ndarray
    stderr: np.ndarray
    mean_square_gain: float


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


def trial_rng(seed: int, trial_index: int) -> Generator:
    """Independent, reproducible substream for one trial."""
    return default_rng(SeedSequence(entropy=seed, spawn_key=(trial_index,)))


# one array layout of a run, as ReflectorBank takes it: (mirror arrays, metasurface arrays)
Layout = tuple[tuple[ReflectorArray, ...], tuple[ReflectorArray, ...]]


@dataclass(frozen=True)
class Ensemble:
    """Exactly what a trial reads besides its own substream; built once per run."""

    scene: Scene  # read for every field but its blocker density: means holds the run's
    seed: int
    powered: PoweredPatches  # the scene's diffuse wall field, blockage-free by design
    banks: tuple[ReflectorBank, ...]  # one per layout, in the order given
    means: tuple[float, ...]  # expected blocker counts, in output order; one size for all

    @classmethod
    def build(cls, scene: Scene, seed: int, densities: Sequence[float],
              layouts: Sequence[Layout]) -> "Ensemble":
        """Check that there is at least one density and one layout, turn the densities
        into mean blocker counts (blocker_means), then precompute the one diffuse
        field and each layout's reflector bank."""
        if not (len(densities) and len(layouts)):
            raise ValueError("a run needs at least one blocker density and one array layout")
        means = blocker_means(scene.room, densities)
        (ap,) = scene.aps
        patches = wall_patches(scene.room, scene.patch_size, scene.wall_reflectivity)
        power = patch_incident_power(ap, patches, (), order=scene.nlos_order)
        return cls(scene, seed, PoweredPatches(patches, power),
                   tuple(ReflectorBank(ap, *layout) for layout in layouts), means)


_HELD_BOXES = 4096  # drawn boxes a chunk holds before it culls them; see README, [blockers]


def compute_trials(ens: Ensemble, start: int, stop: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gains of trials start..stop-1 as float64 arrays in trial order: h_los
    (densities, n) at every blocker density of the ensemble, h_nlos (n,) and
    h_irs (banks, n) of every bank of the ensemble.

    Each trial draws its pose, then each bank reads it, then its direct gain
    is computed; if the source reaches the detector, its blockers follow in
    the same substream (blocker_draws). Nothing else reads that stream, so
    replaying it from the state after the pose gives each density exactly the
    blockers a run at that density alone would draw. When the source is not
    lit, no blocker can change the direct gain and the draws are skipped. A
    trial only draws; the chunk holds the unit draws and culls and
    slab-tests them together (_mark_cuts) at its end, or as soon as
    _HELD_BOXES are held. It also takes one diffuse capture over its poses,
    so a trial gets the same bits in any chunk.
    """
    scene = ens.scene
    (ap,) = scene.aps
    n = stop - start
    poses, held, count = [], [], 0
    ends, gains, h_irs = np.empty((n, 3)), np.empty(n), np.empty((len(ens.banks), n))
    # blocked[k, s]: a box of density k cuts trial s's sight line
    blocked = np.zeros((len(ens.means), n), dtype=bool)
    for slot, t in enumerate(range(start, stop)):
        ue = sample_ue(rng := trial_rng(ens.seed, t), scene)
        poses.append(ue)
        ends[slot] = ue.position
        # blockers model pedestrians crossing the direct link; the diffuse wall
        # field and the steered cascade are treated as blockage-insensitive at
        # trial level (per-path occlusion stays available in channel/irs)
        h_irs[:, slot] = [bank.gain(ue) for bank in ens.banks]
        gains[slot] = g = los_gain(ap, ue)
        if g != 0.0:
            for k, unit in enumerate(blocker_draws(rng, ens.means)):
                if unit.size:
                    held.append((slot, k, unit))
                    count += unit.shape[1]
        if count >= _HELD_BOXES:
            _mark_cuts(blocked, held, ends, scene)
            count = 0
    if held:
        _mark_cuts(blocked, held, ends, scene)
    return np.where(blocked, 0.0, gains), np.array(ens.powered.capture(poses)), h_irs


def _mark_cuts(blocked: np.ndarray, held: list, ends: np.ndarray, scene: Scene) -> None:
    """Set blocked[k, s] where a box of density k cuts the sight line from the
    source to trial s's receiver ends[s], for the unit draws held as (trial
    slot, density, draws) entries, and empty held. Only lit trials draw, so
    every trial held is lit.

    One multiply scales every draw (floor_draws); the floor-plan cull
    (_near_rows) keeps the boxes that may cut the sight line of their own
    trial, and only those become boxes and get the slab test (_cut_rows).
    """
    slot, density, draws = zip(*held)
    held.clear()
    counts = [unit.shape[1] for unit in draws]
    xs, ys, yaws = floor_draws(draws, scene.room)
    del draws  # frees the trials' arrays once joined, so a flush holds each draw once
    slots = np.repeat(slot, counts)
    dims = scene.blocker_model.dims
    source = scene.aps[0].position
    rows = _near_rows(xs, ys, slots, ends, set(slot), source, tuple(d / 2.0 for d in dims))
    if rows.size:
        slots = slots[rows]
        i = _cut_rows(blocker_boxes(xs[rows], ys[rows], yaws[rows], dims), slots, ends,
                      source).nonzero()[0]
        blocked[np.repeat(density, counts)[rows[i]], slots[i]] = True


def _near_rows(xs: np.ndarray, ys: np.ndarray, slots: np.ndarray, ends: np.ndarray,
               lit: Iterable[int], source: np.ndarray,
               half: tuple[float, float, float]) -> np.ndarray:
    """Rows i of the boxes standing at (xs[i], ys[i]) with these half extents whose
    center lies in the cull_disk of the sight line from source to their own
    trial's receiver ends[slots[i]]; lit holds the slots of the trials whose
    source is lit, and a box of any other trial is never kept.

    One cull_disk per lit trial, then one distance test over at most
    _HELD_BOXES boxes at a time, so the work arrays do not grow with the
    boxes; each box meets the same elementwise operations against its own
    trial's disk in any block, so it is kept exactly when a block of its
    trial alone keeps it.
    """
    # disks[:, s]: x, y and reach of the disk of trial s's sight line; a reach of
    # -inf keeps nothing (an unlit trial, or a line above every box)
    disks = np.zeros((3, len(ends)))
    disks[2] = -math.inf
    for s in lit:
        if (disk := cull_disk(source, ends[s], half)) is not None:
            disks[:, s] = disk
    rows = []
    for a in range(0, len(xs), _HELD_BOXES):
        x, y, s = (v[a:a + _HELD_BOXES] for v in (xs, ys, slots))
        mx, my, reach = disks[:, s]
        rows.append((np.hypot(x - mx, y - my) <= reach).nonzero()[0] + a)
    return np.concatenate(rows)


def _cut_rows(boxes: OrientedBoxes, slots: np.ndarray, ends: np.ndarray,
              source: np.ndarray) -> np.ndarray:
    """Mask of the boxes that cut the open sight line from source to their own
    trial's receiver ends[slots[i]], and do not hold that receiver.

    Boxes whose interior holds their receiver are left out: hard-core
    thinning, as an object cannot occupy the receiver's location, and a box
    enclosing the receiver would zero every path regardless of steering. One
    slab call tests every box against the sight line plus the zero-length
    segment at its receiver, which gives the containment test from the same
    box-local frame. Each box meets the elementwise operations of a per-trial
    call, so its verdict does not depend on the block.
    """
    end = ends[slots]
    starts = np.stack((np.broadcast_to(source, end.shape), end))
    line, inside = segments_intersect_box(starts, np.broadcast_to(end, starts.shape), boxes)
    return line & ~inside


# -- forked workers ----------------------------------------------------------


def pool_size(threads: int, trials: int) -> int:
    """Workers of a run: run_trials forks this many when it is above 1 and runs
    in-process otherwise. No more than the trials, since a worker beyond the chunks
    would sit idle, and 1 off Linux, the one platform run_trials forks on."""
    return min(threads, trials) if sys.platform == "linux" else 1


def _forked_chunks(fill: Callable[[int], None], chunks: int, workers: int) -> None:
    """fill(i) for each i in range(chunks) by `workers` forked children, which inherit
    fill and must leave its results in memory they share with the parent.

    After the fork the parent writes every chunk index to one task pipe, 4 bytes at a
    time, and closes it. A write of at most PIPE_BUF bytes is atomic, so the pipe
    holds whole indices only, and a child that reads 4 bytes takes exactly one: it
    takes its next chunk whenever it is free (_serve). A child exits 0 only once the
    pipe has ended, so a child that raises (its traceback goes to stderr) or dies
    makes this raise RuntimeError, once the other children have drained the pipe.
    Every child is reaped before this returns or raises, so its CPU time counts as
    the caller's children's.
    """
    tasks, hand = os.pipe()
    pids: list[int] = []
    done = False
    try:
        try:
            for _ in range(workers):
                if not (pid := os.fork()):
                    _serve(fill, tasks, hand)
                pids.append(pid)
        finally:
            os.close(tasks)  # with no child left to read, a write raises BrokenPipeError
        for i in range(chunks):
            os.write(hand, i.to_bytes(4, "little"))
        done = True
    except BrokenPipeError:  # no child is left to read the tasks: the run fails below
        pass
    finally:
        if not done:
            import signal  # only a failed run needs it; a run's set-up would pay for it
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        os.close(hand)  # an idle child reads the end of the tasks and exits 0
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if not done or any(codes):  # a code of -n: killed by signal n
        raise RuntimeError(f"a worker process ended before its chunks were done "
                           f"(exit codes {codes})")


def _serve(fill: Callable[[int], None], tasks: int, hand: int) -> None:
    """A forked worker: close the write end of the tasks that it inherited, so that
    the pipe ends once the parent closes it, then fill(i) for each chunk index i it
    reads, until the pipe ends. It never returns: it leaves through os._exit, since
    unwinding would run the parent's code. A worker that raises drains the pipe
    first, so that its siblings stop at their current chunks and the run fails
    without computing the rest."""
    code = 1
    try:
        os.close(hand)
        while task := os.read(tasks, 4):
            fill(int.from_bytes(task, "little"))
        code = 0
    except BaseException:  # the worker's boundary: report, then exit below
        import traceback  # only a failing worker needs it
        traceback.print_exc()
        sys.stderr.flush()
        while os.read(tasks, 1 << 16):
            pass
    finally:
        os._exit(code)


def run_trials(scene: Scene, trials: int, seed: int, *, threads: int = 1,
               densities: Sequence[float],
               layouts: Sequence[Layout]) -> list[dict[float, TrialGains]]:
    """Run the Monte Carlo ensemble; identical output for any thread count.

    Per layout of `layouts`, in the order given, maps each of `densities` to
    the TrialGains a run of the scene with that layout's arrays at that
    density alone would give (the scene's own blocker density is not read);
    ValueError before any work if either is empty. One pass over the trials
    serves every layout and density: every TrialGains shares one h_nlos
    array, each density one h_los row and each layout one h_irs row, which is
    why every array is read-only.

    Trials are keyed by index, computed in contiguous chunks (compute_trials),
    max(threads, 1) * 8 of them, each written into its own columns of one
    block whose rows become the arrays, so neither the chunks nor parallel
    scheduling can change the result. The run forks pool_size(threads,
    trials) workers, never more than the chunks, which take the chunks one at
    a time and write them into a shared block (_forked_chunks); with one, the
    same chunks run serially in-process.
    The diffuse wall field and the reflector banks are precomputed once, before
    the fork, so every worker inherits them: that both removes per-trial cost
    and keeps them bit-identical everywhere.
    """
    if trials < 1:
        raise ValueError(f"trial count must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    unique = tuple(dict.fromkeys(densities))
    ens = Ensemble.build(scene, seed, unique, layouts)
    chunk = max(1, math.ceil(trials / (max(threads, 1) * 8)))
    bounds = [(a, min(a + chunk, trials)) for a in range(0, trials, chunk)]
    workers = pool_size(threads, trials)
    # rows: h_los per density, h_nlos, h_irs per bank; a chunk fills its own columns
    shape = (len(unique) + 1 + len(ens.banks), trials)

    def fill(i: int) -> None:
        a, b = bounds[i]
        block[:, a:b] = np.vstack(compute_trials(ens, a, b))

    if workers <= 1:
        block = np.empty(shape)
        for i in range(len(bounds)):
            fill(i)
    else:  # in memory that the forked workers share with this process
        block = np.ndarray(shape, buffer=mmap.mmap(-1, 8 * math.prod(shape)))
        _forked_chunks(fill, len(bounds), workers)
    block.setflags(write=False)  # before the rows are taken: a view taken earlier stays writeable
    # one contiguous (trials,) row per density and per bank, each row one shared object
    *los, h_nlos = block[:len(unique) + 1]
    return [{d: TrialGains(h, h_nlos, g) for d, h in zip(unique, los)}
            for g in block[len(unique) + 1:]]


# -- SER estimation ----------------------------------------------------------


# Cephes' erfc (ndtr.c, S. L. Moshier), the one scipy.special runs: highest power first;
# U, Q and S spell out the leading 1 that cephes' p1evl leaves implicit
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # ln(DBL_MAX)
# |x| <= this exactly when x*x <= _MAXLOG; beyond it cephes gives 0 (2 for x < 0)
_ERFC_ZERO_ABOVE = math.sqrt(_MAXLOG)


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """coef[0]*x^n + ... + coef[n] by Horner's rule, in cephes polevl's order. With
    coef[0] = 1 it gives cephes p1evl's bits, as x * 1.0 == x exactly."""
    y = x * coef[0]
    y += coef[1]
    for c in coef[2:]:
        y *= x
        y += c
    return y


def _erfc(x: np.ndarray) -> np.ndarray:
    """Cephes' erfc, elementwise: 1 - x*T(x^2)/U(x^2) for |x| < 1, else
    exp(-x^2)*P(|x|)/Q(|x|) below |x| = 8 and exp(-x^2)*R(|x|)/S(|x|) above it,
    subtracted from 2 for x < 0. Each range is evaluated on its own elements only.
    numpy's exp may differ from libm's by one ulp, and so may the result from
    scipy.special.erfc."""
    flat = x.ravel()
    a = np.abs(flat)
    # 1 - sign(x) is erfc at x = 0 and nan, and where exp(-x^2) underflows (inf included)
    y = np.sign(flat)
    np.subtract(1.0, y, out=y)
    i = np.flatnonzero((a > 0.0) & (a < 1.0))
    if i.size:
        s = flat[i]
        z = s * s
        t = s * _polevl(z, _ERF_T)
        t /= _polevl(z, _ERF_U)
        y[i] = np.subtract(1.0, t, out=t)
    for i, num, den in ((np.flatnonzero((a >= 1.0) & (a < 8.0)), _ERFC_P, _ERFC_Q),
                        (np.flatnonzero((a >= 8.0) & (a <= _ERFC_ZERO_ABOVE)),
                         _ERFC_R, _ERFC_S)):
        if not i.size:
            continue
        s = a[i]
        e = s * s
        np.exp(np.negative(e, out=e), out=e)
        p = _polevl(s, num)
        p *= e
        p /= _polevl(s, den)
        y[i] = np.subtract(2.0, p, out=p, where=flat[i] < 0.0)
    return y.reshape(x.shape)


def q_function(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x); scalar in, scalar out."""
    q = 0.5 * _erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))
    return float(q) if np.ndim(x) == 0 else q


def ser_curve(gains: TrialGains, scenario: Scenario, grid: SnrGrid = SnrGrid(), *,
              mean_square_gain: float | None = None) -> SerCurve:
    """OOK symbol error rate across the SNR grid for one scenario.

    Per-trial received SNR is the grid SNR scaled by h^2 / mean(h^2);
    mean_square_gain overrides the normalizer, which the curve records; it must
    be finite and non-negative (ValueError), and 0 gives an SER of 1/2 throughout.
    Trials with zero gain contribute Q(0) = 1/2, so blockage and orientation
    outage produce an error floor.
    """
    h = scenario.effective_gain(gains)
    n = len(h)
    if not n:
        raise ValueError("cannot estimate an SER curve from zero trials")
    h_sq = h * h
    norm = float(np.mean(h_sq)) if mean_square_gain is None else float(mean_square_gain)
    if not 0.0 <= norm < math.inf:
        raise ValueError(f"mean-square gain must be finite and non-negative, got {norm!r}")
    snr_db = grid.values()
    if norm == 0.0:
        ser = np.full(len(snr_db), 0.5)
        return SerCurve(scenario, snr_db, ser, np.zeros(len(snr_db)), norm)
    snr_lin = 10.0 ** (snr_db / 10.0)
    x = h_sq / norm
    q = np.empty((len(snr_db), n))
    rows = max(1, _Q_BLOCK // n)
    for a in range(0, len(snr_db), rows):  # Q is elementwise, so the blocks keep its bits
        q[a:a + rows] = q_function(np.sqrt(np.outer(snr_lin[a:a + rows], x)))
    ser = q.mean(axis=1)
    if n > 1:
        stderr = q.std(axis=1, ddof=1) / math.sqrt(n)
    else:
        stderr = np.zeros(len(snr_db))
    return SerCurve(scenario, snr_db, ser, stderr, norm)


def required_snr(curve: SerCurve) -> RequiredSnr:
    """Lowest SNR on (or interpolated between) grid points with SER <= SER_TARGET.

    Log-linear interpolation refines the crossing between the bracketing grid
    points. If the curve wiggles around the crossing the first crossing wins
    and the result is flagged; a curve already at or below target at the
    first grid point is flagged as censored.
    """
    ser = curve.ser
    below = np.flatnonzero(ser <= SER_TARGET)
    if below.size == 0:
        return RequiredSnr(None, False)
    i = int(below[0])
    wiggle = bool(np.any(np.diff(ser[: min(len(ser), i + 2)]) > 0))
    if i == 0:
        return RequiredSnr(float(curve.snr_db[0]), wiggle, censored=True)
    y0, y1 = float(ser[i - 1]), float(ser[i])
    s0, s1 = float(curve.snr_db[i - 1]), float(curve.snr_db[i])
    y1 = max(y1, 1e-15)  # SER can underflow to exactly zero at high SNR
    frac = (math.log(y0) - math.log(SER_TARGET)) / (math.log(y0) - math.log(y1))
    return RequiredSnr(s0 + frac * (s1 - s0), wiggle)
