"""Compare two result sets of the benchmark, one row per workload.

    python3 perfbench/run.py --compare RESULTS_A RESULTS_B

A result set is a directory of run records written by run.py. For every
workload and end-to-end metric it prints each side's median and quartiles
over its untraced runs, the ratio B/A and a verdict against the bound in
BENCHMARK.json:

- unresolved: either side's quartile spread, as a share of its median, is
  wider than the bound, and not every run of B beats every run of A;
- worse: B's median is worse than A's by more than the bound;
- better: B's median is better than A's by more than A's own spread, and B
  beats A in at least nine tenths of all (A run, B run) pairs;
- no change: otherwise.

It also flags, without failing, report.json hashes that differ for the same
(config, seed) between the two sets.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from workloads import END_TO_END, WORKLOADS

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> list[dict]:
    paths = sorted(Path(directory).glob("*.json"))
    if not paths:
        raise SystemExit(f"no run records in {directory}")
    return [json.loads(p.read_text()) for p in paths]


def spread(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[float, str]:
    qa, qb = spread(a), spread(b)
    ratio = qb[1] / qa[1]
    worse_by = ratio - 1 if better == "lower" else 1 - ratio
    spread_a = (qa[2] - qa[0]) / qa[1]
    width = max(spread_a, (qb[2] - qb[0]) / qb[1])
    b_wins = [(y < x) if better == "lower" else (y > x) for x in a for y in b]
    win_share = sum(b_wins) / len(b_wins)
    if width > bound:
        return ratio, "better" if win_share == 1 else "unresolved"
    if worse_by > bound:
        return ratio, "worse"
    if -worse_by > spread_a and win_share >= 0.9:
        return ratio, "better"
    return ratio, "no change"


def main(dir_a: str, dir_b: str) -> int:
    bounds = {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    runs_a, runs_b = load(dir_a), load(dir_b)
    print(f"A = {dir_a}\nB = {dir_b}")
    print("cell: A median [q1, q3] -> B median [q1, q3], ratio B/A, verdict (bound)")
    for name in WORKLOADS:
        a = [r for r in runs_a if r["workload"] == name and not r["trace"]]
        b = [r for r in runs_b if r["workload"] == name and not r["trace"]]
        if not a or not b:
            continue
        cells = []
        for metric, (unit, better) in END_TO_END.items():
            va = [r["metrics"][metric]["value"] for r in a]
            vb = [r["metrics"][metric]["value"] for r in b]
            qa, qb = spread(va), spread(vb)
            ratio, word = verdict(va, vb, better, bounds[metric])
            cells.append(
                f"{metric} {qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}] -> {qb[1]:.4g} "
                f"[{qb[0]:.4g}, {qb[2]:.4g}] {unit}, x{ratio:.3f}, {word} ({bounds[metric]})"
            )
        print(f"{name} (runs A={len(a)} B={len(b)}): " + " | ".join(cells))
        sha_a = {k: v for r in a for k, v in r["worker"]["report_sha256"].items()}
        sha_b = {k: v for r in b for k, v in r["worker"]["report_sha256"].items()}
        shared = sorted(set(sha_a) & set(sha_b))
        differ = [k for k in shared if sha_a[k] != sha_b[k]]
        note = f"{len(differ)} of {len(shared)} shared (trials, seed) report.json hashes differ"
        print(f"  {note}" + (": " + "; ".join(differ[:5]) if differ else ""))
    return 0
