"""Compare two checkouts on one perfbench workload in interleaved pairs.

Usage: python tools/perf_pairs.py PARENT CHANGE --workload NAME [--pairs N]

PARENT and CHANGE are checkout directories, each with its own perfbench/run.py
and src/irsvlc. Pair i runs `perfbench/run.py --workload NAME --seed 2+i
--seconds S --trace 0` once in each checkout, S being the change's
BENCHMARK.json `run_seconds`, the parent first in even pairs and the change
first in odd ones, so a slow spell of the host falls on both sides alike. It
prints every run's result line, then, per end-to-end metric of the change's
BENCHMARK.json: each side's median and interquartile range (IQR)
over the pairs, the change's relative move of the median, the change's wins
(ties count for neither side), and whether a gain could be claimed: the change
wins at least nine tenths of the pairs, and the medians differ, in the better
direction, by more than the parent's IQR. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one perfbench run in checkout, parsed."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[tuple[str, str]]) -> list[dict]:
    """One row per (name, better) metric over (parent, change) result lines: each
    side's median and IQR, the change's wins, and the two rules of a claimed gain."""
    rows = []
    for name, better in metrics:
        sign = 1.0 if better == "lower" else -1.0
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
        rows.append({"metric": name, "better": better,
                     "parent_median": pm, "parent_iqr": p3 - p1,
                     "change_median": cm, "change_iqr": c3 - c1,
                     "move": (cm - pm) / pm if pm else None,
                     "wins": wins, "pairs": len(pairs),
                     "nine_tenths": wins >= 0.9 * len(pairs),
                     "beyond_iqr": sign * (pm - cm) > p3 - p1})
    return rows


def format_rows(rows: list[dict]) -> list[str]:
    lines = ["metric | parent median (IQR) | change median (IQR) | move | wins | "
             "9/10 rule | IQR rule"]
    for r in rows:
        move = "n/a" if r["move"] is None else f"{r['move']:+.1%}"
        lines.append(f"{r['metric']} | {r['parent_median']:.4g} ({r['parent_iqr']:.2g}) | "
                     f"{r['change_median']:.4g} ({r['change_iqr']:.2g}) | {move} | "
                     f"{r['wins']}/{r['pairs']} | {'holds' if r['nine_tenths'] else 'fails'} | "
                     f"{'holds' if r['beyond_iqr'] else 'fails'}")
    return lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="tools/perf_pairs.py")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
    pairs = []
    for i in range(args.pairs):
        sides = {}
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            sides[side] = run_once(getattr(args, side), args.workload, 2 + i,
                                   bench["run_seconds"])
            print(f"pair {i} {side}: {json.dumps(sides[side])}", flush=True)
        pairs.append((sides["parent"], sides["change"]))
    bad = [f"pair {i} {side}" for i, pair in enumerate(pairs)
           for side, r in zip(("parent", "change"), pair) if not r["correct"] or r["failed"]]
    print(f"workload {args.workload}, {args.pairs} pairs of {bench['run_seconds']:g} s runs; "
          f"runs not correct or with failures: {', '.join(bad) or 'none'}")
    print("\n".join(format_rows(summarize(pairs, metrics))))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
