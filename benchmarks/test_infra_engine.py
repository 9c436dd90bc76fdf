"""Infrastructure benchmark: the wave-parallel engine + result cache.

Two before/after comparisons against the sequential seed behaviour,
each recording its numbers in ``BENCH_engine.json`` at the repository
root:

a. **Wide fan-out, parallel waves** — a source feeding 16 mutually
   independent workers (each modelling ~20 ms of blocking service I/O)
   joined into one sink.  The seed engine ran the wave one worker at a
   time; ``max_workers=8`` dispatches the whole wave to a thread pool
   and joins.  Must be >=2x faster wall-clock.
b. **Warm-cache re-run** — the same workflow re-executed with a shared
   :class:`~repro.workflow.cache.ResultCache`.  Every invocation digest
   is already known, so the engine splices the memoized outputs into
   the trace (with ``wasCachedFrom``) instead of re-invoking.  Must be
   >=5x faster than the cold run.

Both comparisons also assert *equivalence*: identical workflow outputs
and identical trace processor sequences, whatever the worker count or
cache state — the speedup must never buy a different answer.
"""

from __future__ import annotations

import time

import pytest

from harness import Bench, timed
from repro.workflow.builtins import register_function
from repro.workflow.cache import ResultCache
from repro.workflow.engine import WorkflowEngine
from repro.workflow.model import Processor, Workflow

pytestmark = pytest.mark.smoke

FAN_OUT = 16
WORK_SECONDS = 0.02
PARALLEL_WORKERS = 8
MIN_PARALLEL_SPEEDUP = 2.0
MIN_CACHE_SPEEDUP = 5.0

bench = Bench("engine", fan_out=FAN_OUT, work_seconds=WORK_SECONDS,
              parallel_workers=PARALLEL_WORKERS)


def _work(payload):
    """One simulated service call: blocking I/O, then a pure result."""
    time.sleep(WORK_SECONDS)
    return {"y": payload * 2, "__duration__": 1.0}


register_function("bench_engine_work", _work)


def fan_out_workflow() -> Workflow:
    """source input -> 16 independent workers -> merge_dicts join."""
    wf = Workflow("engine_bench_fanout")
    join_inputs = []
    for i in range(FAN_OUT):
        name = f"worker{i:02d}"
        wf.add_processor(Processor(
            name, "python", inputs=["payload"], outputs=["y"],
            config={"function": "bench_engine_work", "output": "y"},
        ))
        wf.map_input("payload", name, "payload")
        join_inputs.append(name)
    wf.add_processor(Processor("join", "merge_dicts",
                               inputs=[f"in{i:02d}" for i in range(FAN_OUT)],
                               outputs=["merged"]))
    for i, name in enumerate(join_inputs):
        wf.link(name, "y", "join", f"in{i:02d}")
    wf.map_output("out", "join", "merged")
    return wf


def _record(name: str, baseline_s: float, improved_s: float,
            minimum: float, **extra: float) -> None:
    speedup = round(baseline_s / max(improved_s, 1e-9), 2)
    bench.record(name, baseline_seconds=round(baseline_s, 6),
                 improved_seconds=round(improved_s, 6), speedup=speedup,
                 **extra)
    print(f"\n{name}: baseline {baseline_s * 1000:.1f} ms vs "
          f"improved {improved_s * 1000:.1f} ms ({speedup:.1f}x)")
    bench.floor(name, "speedup", minimum)


@pytest.mark.benchmark(group="infra-engine")
def test_parallel_waves_beat_sequential():
    workflow = fan_out_workflow()

    sequential = WorkflowEngine(max_workers=1)
    parallel = WorkflowEngine(max_workers=PARALLEL_WORKERS)

    slow = sequential.run(workflow, {"payload": 21})
    fast = parallel.run(workflow, {"payload": 21})
    assert slow.outputs == fast.outputs
    assert ([r.processor for r in slow.trace.processor_runs]
            == [r.processor for r in fast.trace.processor_runs])

    _record(
        "a_wide_fanout_parallel_waves",
        timed(lambda: sequential.run(workflow, {"payload": 21})),
        timed(lambda: parallel.run(workflow, {"payload": 21})),
        MIN_PARALLEL_SPEEDUP,
        processors=FAN_OUT + 1,
    )


@pytest.mark.benchmark(group="infra-engine")
def test_warm_cache_rerun_beats_cold():
    workflow = fan_out_workflow()

    def cold():
        engine = WorkflowEngine(max_workers=1, cache=ResultCache())
        engine.run(workflow, {"payload": 21})

    warm_engine = WorkflowEngine(max_workers=1, cache=ResultCache())
    cold_result = warm_engine.run(workflow, {"payload": 21})  # prime

    warm_result = warm_engine.run(workflow, {"payload": 21})
    assert warm_result.outputs == cold_result.outputs
    assert len(warm_result.cached_processors) == FAN_OUT + 1
    assert all(run.cached_from for run in warm_result.trace.processor_runs)

    _record(
        "b_warm_cache_rerun",
        timed(cold, repeats=2),
        timed(lambda: warm_engine.run(workflow, {"payload": 21}),
              repeats=2),
        MIN_CACHE_SPEEDUP,
        cached_processors=float(FAN_OUT + 1),
    )
