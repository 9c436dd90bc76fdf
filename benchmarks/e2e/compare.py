"""Compare two sets of end-to-end benchmark runs.

    python3 benchmarks/e2e/compare.py A.json B.json [--claim METRIC@WORKLOAD]

``A.json`` (the parent) and ``B.json`` (the change) are files written by
``run.py --out``, each holding any number of runs.  For every workload x
metric it prints each side's median and quartiles, the change of the
median, and a verdict against the metric's bound in ``BENCHMARK.json``:

* ``ok`` — B's median is not worse than A's by more than the bound;
* ``regressed`` — it is worse by more than the bound;
* ``unresolved`` — a side's spread (quartile distance over median) is
  wider than the bound, and not every run of B reads better than every
  run of A.

Metrics without a bound (per-layer and detail numbers) print ``-``.
Traced runs are compared only with traced runs.

``--claim METRIC@WORKLOAD`` adds the paired win rate: runs pair by seed
(in order when no seeds match), and a pair is a win when B reads better.
The claim is supported when B wins at least nine tenths of the pairs and
the medians differ, in B's favour, by more than A's quartile distance.

Exits 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]

Key = tuple[str, bool]  # (workload, traced)


def load_runs(path: str) -> dict[Key, list[dict[str, Any]]]:
    runs: dict[Key, list[dict[str, Any]]] = {}
    for run in json.loads(Path(path).read_text(encoding="utf-8"))["runs"]:
        runs.setdefault((run["workload"], bool(run["trace"])),
                        []).append(run)
    return runs


def values(runs: list[dict[str, Any]], metric: str
           ) -> list[tuple[int, float]]:
    """``(seed, value)`` of every run that reports ``metric``."""
    found = []
    for run in runs:
        entry = run["metrics"].get(metric) or run["detail"].get(metric)
        if entry is not None:
            found.append((run["seed"], entry["value"]))
    return found


def quartiles(sample: list[float]) -> tuple[float, float, float]:
    if len(sample) < 2:
        return sample[0], sample[0], sample[0]
    low, median, high = statistics.quantiles(sample, n=4)
    return low, median, high


def spread(sample: list[float]) -> float:
    low, median, high = quartiles(sample)
    return (high - low) / abs(median) if median else 0.0


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> str:
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse = (median_b - median_a if better == "lower"
             else median_a - median_b) / abs(median_a) if median_a else 0.0
    b_beats_all = (max(b) < min(a) if better == "lower"
                   else min(b) > max(a))
    if max(spread(a), spread(b)) > bound and not b_beats_all:
        return "unresolved"
    return "regressed" if worse > bound else "ok"


def paired_wins(a: list[tuple[int, float]], b: list[tuple[int, float]],
                better: str) -> tuple[int, int]:
    """(wins for B, pairs)."""
    by_seed_a, by_seed_b = dict(a), dict(b)
    common = sorted(set(by_seed_a) & set(by_seed_b))
    pairs = ([(by_seed_a[seed], by_seed_b[seed]) for seed in common]
             if common else [(x, y) for (_, x), (_, y) in zip(a, b)])
    wins = sum(1 for x, y in pairs
               if (y < x if better == "lower" else y > x))
    return wins, len(pairs)


def _direction(metric: str, unit: str, specs: dict[str, dict]) -> str:
    if metric in specs:
        return specs[metric]["better"]
    higher = unit in ("1/s", "B/s") or metric.endswith("_ratio")
    return "higher" if higher else "lower"


def compare(path_a: str, path_b: str, claim: str | None = None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    specs = {spec["name"]: spec
             for spec in contract["end_to_end"] + contract["per_layer"]}
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    regressed = 0
    header = (f"{'workload':<24} {'metric':<32} {'A median [q1, q3]':>32} "
              f"{'B median [q1, q3]':>32} {'change':>8}  verdict")
    print(header)
    print("-" * len(header))
    for key in sorted(set(runs_a) & set(runs_b)):
        workload, traced = key
        label = workload + (" (traced)" if traced else "")
        names = list(runs_a[key][0]["metrics"]) + list(
            runs_a[key][0]["detail"])
        for metric in names:
            a = [value for _, value in values(runs_a[key], metric)]
            b = [value for _, value in values(runs_b[key], metric)]
            if not a or not b:
                continue
            unit = (runs_a[key][0]["metrics"].get(metric)
                    or runs_a[key][0]["detail"][metric])["unit"]
            spec = specs.get(metric)
            result = "-"
            if spec is not None and "bound" in spec:
                result = verdict(a, b, spec["better"], spec["bound"])
                regressed += result == "regressed"
            qa, qb = quartiles(a), quartiles(b)
            change = (f"{qb[1] / qa[1] - 1:+.1%}" if qa[1] else "n/a")
            print(f"{label:<24} {metric:<32} "
                  f"{_cell(qa, unit):>32} {_cell(qb, unit):>32} "
                  f"{change:>8}  {result}")
    if claim:
        _print_claim(claim, runs_a, runs_b, specs)
    return 1 if regressed else 0


def _cell(q: tuple[float, float, float], unit: str) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {unit}"


def _print_claim(claim: str, runs_a: dict[Key, list], runs_b: dict[Key, list],
                 specs: dict[str, dict]) -> None:
    metric, _, workload = claim.partition("@")
    key = (workload, False)
    if key not in runs_a or key not in runs_b:
        raise SystemExit(f"compare.py: no untraced runs of {workload!r} "
                         "on both sides")
    a = values(runs_a[key], metric)
    b = values(runs_b[key], metric)
    if not a or not b:
        raise SystemExit(f"compare.py: no {metric!r} on {workload!r}")
    entry = (runs_a[key][0]["metrics"].get(metric)
             or runs_a[key][0]["detail"][metric])
    better = _direction(metric, entry["unit"], specs)
    wins, pairs = paired_wins(a, b, better)
    low, median_a, high = quartiles([value for _, value in a])
    median_b = statistics.median(value for _, value in b)
    gain = (median_a - median_b if better == "lower"
            else median_b - median_a)
    supported = wins >= 0.9 * pairs and gain > high - low
    print(f"\nclaim {metric}@{workload}: B wins {wins} of {pairs} pairs "
          f"({wins / pairs:.0%}); medians {median_a:.4g} -> "
          f"{median_b:.4g} {entry['unit']}, A's quartile distance "
          f"{high - low:.4g}: {'supported' if supported else 'not shown'}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two sets of benchmarks/e2e runs")
    parser.add_argument("a", help="runs of the parent (run.py --out)")
    parser.add_argument("b", help="runs of the change")
    parser.add_argument("--claim", metavar="METRIC@WORKLOAD",
                        help="report the paired win rate for one metric")
    args = parser.parse_args(argv)
    return compare(args.a, args.b, args.claim)


if __name__ == "__main__":
    sys.exit(main())
