"""Infrastructure benchmark: the source-code analyzer.

``repro lint --code src/repro`` runs in CI on every push, so its cost
has to stay in the "pre-commit hook" bracket, not the "coffee break"
bracket.  This benchmark times the full DET/LK/HY pass over the repo's
own source tree and records ``BENCH_analysis.json``:

a. **cold pass** — parse every module (fresh AST cache), build the
   codebase model, run all code rules.  Floor: 10 files/sec (advisory
   on shared runners; ``REPRO_BENCH_STRICT=1`` enforces).
b. **warm pass** — identical analysis through a pre-populated AST
   cache, the shape an editor integration or repeated CI step sees.
   Floor: 1.2x over cold (advisory), since parsing is a real but not
   dominant share of the pass.
c. **determinism** — the cold and warm reports agree byte-for-byte.
   Always enforced: a benchmark that tolerated diverging output would
   be timing two different analyses.
"""

from __future__ import annotations

import time

import pytest

from harness import ROOT, Bench
from repro.analysis import Analyzer
from repro.analysis.code import CodebaseState, ModuleLoader

pytestmark = pytest.mark.smoke

SRC = ROOT / "src" / "repro"

MIN_FILES_PER_SECOND = 10.0
MIN_WARM_SPEEDUP = 1.2

bench = Bench("analysis")


def _timed_pass(loader: ModuleLoader) -> tuple[float, CodebaseState, dict]:
    start = time.perf_counter()
    state = CodebaseState.from_paths([SRC], loader=loader,
                                     display_root=str(ROOT))
    report = Analyzer().analyze_code(state)
    return time.perf_counter() - start, state, report.to_dict()


def test_full_tree_analysis_throughput():
    loader = ModuleLoader()
    cold_seconds, state, cold_report = _timed_pass(loader)
    warm_seconds, _, warm_report = _timed_pass(loader)

    # determinism: same tree, same findings — always enforced
    assert warm_report == cold_report

    files = len(state.files)
    functions = len(state.functions)
    files_per_second = round(files / max(cold_seconds, 1e-9), 1)
    warm_speedup = round(cold_seconds / max(warm_seconds, 1e-9), 2)
    bench.record(
        "full_tree",
        files=files,
        functions=functions,
        rules_run=12,
        findings=cold_report["summary"]["total"],
        cold_seconds=round(cold_seconds, 4),
        warm_seconds=round(warm_seconds, 4),
        files_per_second=files_per_second,
        warm_speedup=warm_speedup,
    )
    print(f"\ncode analysis over {files} files / {functions} "
          f"functions: cold {cold_seconds * 1e3:.0f} ms "
          f"({files_per_second} files/s), warm "
          f"{warm_seconds * 1e3:.0f} ms ({warm_speedup}x)")
    bench.floor("full_tree", "files_per_second", MIN_FILES_PER_SECOND,
                strict=True)
    bench.floor("full_tree", "warm_speedup", MIN_WARM_SPEEDUP, strict=True)
