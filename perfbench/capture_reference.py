"""Write perfbench/reference.json from the code in the current checkout.

Usage, from the root of a checkout:  python3 perfbench/capture_reference.py

Runs every workload once at the reference seed with one worker and stores
its required-SNR readouts, its SER curves (simulate only) and the sha256 of
its main CSV. Benchmark runs compare their first invocation with these, at
the workload's own worker count, so a pool workload also checks that results
do not depend on the worker count. Recapture only in a change that is allowed
to alter the science, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import run_worker, worker_env
from workloads import REF_SEED, REFERENCE_FILE, WORKLOADS


def main() -> int:
    root = Path.cwd()
    env = worker_env(root)
    reference = {}
    for wl in WORKLOADS.values():
        out_dir = root / ".perfbench_out" / "reference" / wl.name
        spec = {"workload": wl.name, "seed": REF_SEED, "threads": 1, "mode": "plain",
                "out_dir": str(out_dir), "capture": True}
        r = run_worker(spec, root, env, timeout=600)
        if not r.get("ok"):
            print(f"{wl.name}: {r.get('errors')}", file=sys.stderr)
            return 1
        out = r["outputs"]
        entry = {"seed": REF_SEED, "trials": wl.trials, "threads": 1, "csv": out["csv"],
                 "sha256": out["sha256"], "readouts": out["readouts"]}
        if wl.command == "simulate":
            entry["curves"] = out["curves"]
        reference[wl.name] = entry
        print(f"{wl.name}: {out['csv']} sha256 {out['sha256']}")
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
