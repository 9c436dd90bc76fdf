"""The one harness behind the infrastructure micro-benchmarks.

Every ``benchmarks/test_infra_*.py`` times its scenarios with
:func:`timed`, records them on a :class:`Bench` and checks its floors
with :meth:`Bench.floor`.  A bench writes ``BENCH_<name>.json`` at the
repository root, in one schema for all of them::

    {"params":    {knob: value},
     "scenarios": {scenario: {metric: number}},
     "floors":    {"<scenario>.<metric>": {"value", "minimum", "mode"}}}

A floor is a minimum on one recorded number.  Mode ``always`` asserts on
every run: it guards a relation that noise cannot flip (a memory ratio,
a speedup far above its floor).  Mode ``strict`` asserts only under
``REPRO_BENCH_STRICT=1`` and otherwise prints one advisory line, because
wall-clock ratios on shared runners are noisy.  Baselines, comparisons
and environment fingerprints belong to the end-to-end benchmark in
``benchmarks/e2e``, not here.

Run as a script, the module reports on results files: one line per
floor, a GitHub ``::warning`` for each missed ``strict`` floor, and exit
status 1 when an ``always`` floor is missed::

    python benchmarks/harness.py BENCH_*.json
"""

from __future__ import annotations

import gc
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterable

ROOT = Path(__file__).resolve().parent.parent

#: strict floors assert only when this is set (local benchmarking)
STRICT = os.environ.get("REPRO_BENCH_STRICT") == "1"


def timed(run: Callable[..., Any], repeats: int = 3,
          setup: Callable[[], tuple] = tuple) -> float:
    """Best-of-``repeats`` wall time of ``run(*setup())``.

    ``setup`` runs untimed before every repeat, for work each repeat
    needs fresh (a new store, a new batch).  Garbage left by earlier
    work is collected untimed too, so one repeat never pays for freeing
    another's objects.  Taking the best repeat filters scheduler noise
    out of the comparison.
    """
    best = math.inf
    for __ in range(repeats):
        args = setup()
        gc.collect()
        start = time.perf_counter()
        run(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _describe(source: str, key: str, floor: dict[str, Any]) -> str:
    met = floor["value"] >= floor["minimum"]
    return (f"{source} {key} = {floor['value']} "
            f"{'>=' if met else '<'} {floor['minimum']} "
            f"[{floor['mode']}] {'ok' if met else 'MISSED'}")


class Bench:
    """The results of one benchmark module.

    The file is rewritten after every change, so a failing assertion
    still leaves the numbers measured so far on disk.
    """

    def __init__(self, name: str, **params: Any) -> None:
        self.path = ROOT / f"BENCH_{name}.json"
        self.params = params
        self.scenarios: dict[str, dict[str, Any]] = {}
        self.floors: dict[str, dict[str, Any]] = {}

    def record(self, scenario: str, **numbers: Any) -> None:
        self.scenarios[scenario] = numbers
        self._write()

    def floor(self, scenario: str, metric: str, minimum: float, *,
              strict: bool = False) -> None:
        """Require ``scenarios[scenario][metric] >= minimum``."""
        key = f"{scenario}.{metric}"
        floor = {"value": self.scenarios[scenario][metric],
                 "minimum": minimum,
                 "mode": "strict" if strict else "always"}
        self.floors[key] = floor
        self._write()
        line = _describe(self.path.stem, key, floor)
        if not strict or STRICT:
            assert floor["value"] >= minimum, line
        elif floor["value"] < minimum:
            print(f"advisory: {line} (strict gate: REPRO_BENCH_STRICT=1)")

    def _write(self) -> None:
        document = {"params": self.params, "scenarios": self.scenarios,
                    "floors": self.floors}
        self.path.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")


def report(paths: Iterable[str]) -> int:
    """Print every floor of every results file; 1 if an ``always``
    floor is missed."""
    missed = 0
    for path in paths:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
        for key, floor in sorted(document["floors"].items()):
            line = _describe(Path(path).stem, key, floor)
            print(line)
            if floor["value"] >= floor["minimum"]:
                continue
            if floor["mode"] == "always":
                print(f"::error title=benchmark floor missed::{line}")
                missed += 1
            else:
                print(f"::warning title=benchmark floor missed::{line} "
                      "(advisory on this runner; strict gate: "
                      "REPRO_BENCH_STRICT=1)")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(report(sys.argv[1:]))
