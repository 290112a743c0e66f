"""Workload definitions shared by the runner, the worker and the reference capture.

A workload is one `irsvlc` command line plus the settings the benchmark fixes
for it: trial count, worker count and the blocker densities the command
evaluates. The trial counts are sized so that one invocation takes about two
seconds on a 2-core x86 box, which lets a 40 s run collect 10-15 invocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIG_DIR = HERE / "configs"
REFERENCE_FILE = HERE / "reference.json"

# seed of the first invocation of every run; reference.json holds its outputs
REF_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "simulate" or "sweep"
    config: str | None  # file under configs/, or None for the stock experiment
    trials: int
    threads: int
    densities: tuple[float, ...]  # blocker densities one invocation evaluates
    why: str

    def config_path(self) -> str | None:
        return None if self.config is None else str(CONFIG_DIR / self.config)

    def argv(self, seed: int, threads: int, out_dir: str) -> list[str]:
        argv = [self.command]
        if self.config is not None:
            argv += ["--config", self.config_path()]
        argv += ["--seed", str(seed), "--trials", str(self.trials),
                 "--threads", str(threads), "--out", out_dir]
        if self.command == "sweep":
            argv += ["--vary", "density",
                     "--values", ",".join(f"{d:g}" for d in self.densities)]
        return argv

    @property
    def trial_evals(self) -> int:
        """Trial evaluations per invocation: every trial at every density."""
        return self.trials * len(self.densities)


WORKLOADS = {w.name: w for w in (
    Workload(
        "paper_default", "simulate", None, trials=300, threads=1,
        densities=(0.0, 1.0),
        why="the paper's experiment: stock config, 4 x 2500-mirror cascade, "
            "densities 0 and 1, one worker; every pose is evaluated twice"),
    Workload(
        "crowd_sweep", "sweep", "crowd_sweep.ini", trials=250, threads=1,
        densities=(0.0, 0.5, 1.0, 2.0, 4.0),
        why="no arrays, density sweep 0..4 via the sweep path: blocker sampling "
            "and direct-path slab tests dominate, each pose is evaluated 5 times"),
    Workload(
        "metasurface_pool", "simulate", "metasurface_pool.ini", trials=1000,
        threads=2, densities=(1.0,),
        why="metasurface arrays at density 1 with 2 worker processes: the only "
            "process-pool path, single density so pose dedupe cannot help"),
)}
