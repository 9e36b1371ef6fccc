"""Compare benchmark results of a parent commit and a change.

Run ten alternated pairs on two checkouts (same seed per pair, which side
runs first alternates, each run ``BENCHMARK.json``'s ``run_seconds`` long),
then report:

    python3 bench/compare.py pairs PARENT_DIR CHANGE_DIR --workload verify-deep --out DIR
    python3 bench/compare.py report DIR/parent.jsonl DIR/change.jsonl

``report`` reads the records ``bench/run.py`` appends (untraced runs only)
and prints, per workload and end-to-end metric, each side's median and
quartiles, the change's wins over the pairs and a verdict:

- ``gain``: the change wins at least 9 of 10 pairs (ties count for
  neither), the medians differ by more than the parent's interquartile
  range, and in no pair does the change fail more ops than the parent;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
- ``unresolved``: the parent's own spread is wider than the bound, and not
  every change run beats every parent run;
- ``within bound``: none of the above.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
FIRST_SEED = 1000


def load(path: Path) -> dict[tuple[str, int], tuple[dict[str, float], int]]:
    """(workload, seed) -> ({metric: value}, failed ops) for the untraced runs in a file."""
    runs = {}
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if not record["trace"]:
            metrics = {name: m["value"] for name, m in record["metrics"].items()}
            runs[(record["workload"], record["seed"])] = (metrics, record["failed"])
    return runs


def verdict(parent: list[float], change: list[float], wins: int, pairs: int,
            better: str, bound: float, more_failures: bool = False) -> str:
    """``more_failures``: the change failed more ops than the parent in some pair."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = statistics.quantiles(parent, n=4) if len(parent) > 1 else [p_med] * 3
    p_iqr = p_q[2] - p_q[0]
    worse_by = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    every_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if not more_failures and pairs and wins >= 0.9 * pairs and sign * (c_med - p_med) > p_iqr:
        return "gain"
    if worse_by > bound:
        return "regression"
    if p_med and p_iqr / abs(p_med) > bound and not every_better:
        return "unresolved"
    return "within bound"


def report(parent_path: Path, change_path: Path) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = load(parent_path), load(change_path)
    for workload in sorted({w for w, _ in parent} & {w for w, _ in change}):
        seeds = sorted({s for w, s in parent if w == workload} & {s for w, s in change if w == workload})
        more_failures = any(change[(workload, s)][1] > parent[(workload, s)][1] for s in seeds)
        print(f"{workload}: {len(seeds)} pairs"
              + (", the change fails more ops in some pair" if more_failures else ""))
        for metric in spec:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            p = [parent[(workload, s)][0].get(name) for s in seeds]
            c = [change[(workload, s)][0].get(name) for s in seeds]
            if not p or None in p or None in c:
                continue
            sign = 1.0 if better == "higher" else -1.0
            wins = sum(sign * (cv - pv) > 0 for pv, cv in zip(p, c))
            p_med, c_med = statistics.median(p), statistics.median(c)
            delta = (c_med - p_med) / abs(p_med) if p_med else 0.0
            quart = [statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3 for v in (p, c)]
            print(
                f"  {name:12s} parent {p_med:11.5g} [{quart[0][0]:.5g}, {quart[0][2]:.5g}]"
                f"  change {c_med:11.5g} [{quart[1][0]:.5g}, {quart[1][2]:.5g}]"
                f"  {delta:+7.2%}  wins {wins}/{len(seeds)}"
                f"  {verdict(p, c, wins, len(seeds), better, bound, more_failures)}"
            )


def pairs(parent_dir: Path, change_dir: Path, workload: str, out_dir: Path) -> None:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out_dir.mkdir(parents=True, exist_ok=True)
    sides = [("parent", parent_dir), ("change", change_dir)]
    for k in range(PAIRS):
        seed = FIRST_SEED + k
        for side, checkout in (sides if k % 2 == 0 else sides[::-1]):
            subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0",
                 "--out", str((out_dir / f"{side}.jsonl").resolve())],
                cwd=checkout, check=True, stdout=subprocess.DEVNULL,
            )
    report(out_dir / "parent.jsonl", out_dir / "change.jsonl")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rep = sub.add_parser("report", help="compare two result files")
    rep.add_argument("parent", type=Path)
    rep.add_argument("change", type=Path)
    run = sub.add_parser("pairs", help="run alternated pairs on two checkouts, then report")
    run.add_argument("parent_dir", type=Path)
    run.add_argument("change_dir", type=Path)
    run.add_argument("--workload", required=True)
    run.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.command == "report":
        report(args.parent, args.change)
    else:
        pairs(args.parent_dir, args.change_dir, args.workload, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
