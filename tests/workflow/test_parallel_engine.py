"""The wave scheduler, its thread-safety contracts, and the result
cache: everything ``max_workers > 1`` must NOT change, plus the things
it adds (parallel dispatch telemetry, memoized replays)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import WorkflowExecutionError, WorkflowValidationError
from repro.telemetry import Telemetry
from repro.workflow.builtins import register_function
from repro.workflow.cache import CachedResult, ResultCache, invocation_key
from repro.workflow.engine import SimulatedClock, WorkflowEngine
from repro.workflow.model import Processor, Workflow


def _double(values):
    return [v * 2 for v in values]


def _sleepy(values):
    time.sleep(0.01)
    return [v + 1 for v in values]


def _boom(values):
    raise ValueError("kaboom")


register_function("par_double", _double)
register_function("par_sleepy", _sleepy)
register_function("par_boom", _boom)

_CALLS: list[str] = []
_CALL_LOCK = threading.Lock()


def _tracked(values):
    with _CALL_LOCK:
        _CALLS.append("tracked")
    return [v * 10 for v in values]


register_function("par_tracked", _tracked)


def _python(name, function, **config):
    return Processor(name, "python", inputs=["values"],
                     outputs=["result"],
                     config={"function": function, **config})


def fan_out(width: int = 4, kind_function: str = "par_double") -> Workflow:
    wf = Workflow("fan")
    for i in range(width):
        name = f"p{i}"
        wf.add_processor(_python(name, kind_function))
        wf.map_input("values", name, "values")
        wf.map_output(f"out{i}", name, "result")
    return wf


def chain() -> Workflow:
    wf = Workflow("chain")
    wf.add_processor(_python("first", "par_double"))
    wf.add_processor(_python("second", "par_double"))
    wf.map_input("values", "first", "values")
    wf.link("first", "result", "second", "values")
    wf.map_output("out", "second", "result")
    return wf


class TestWaves:
    def test_linear_chain_is_one_wave_each(self):
        assert chain().waves() == [["first"], ["second"]]

    def test_wave_members_sorted_alphabetically(self):
        wf = Workflow("w")
        for name in ("zeta", "alpha", "mid"):
            wf.add_processor(_python(name, "par_double"))
            wf.map_input("values", name, "values")
            wf.map_output(f"out_{name}", name, "result")
        assert wf.waves() == [["alpha", "mid", "zeta"]]

    def test_diamond_levels(self):
        wf = Workflow("d")
        wf.add_processor(_python("src", "par_double"))
        wf.add_processor(_python("b", "par_double"))
        wf.add_processor(_python("a", "par_double"))
        wf.add_processor(Processor("join", "merge_dicts",
                                   inputs=["x", "y"], outputs=["merged"]))
        wf.map_input("values", "src", "values")
        wf.link("src", "result", "a", "values")
        wf.link("src", "result", "b", "values")
        wf.link("a", "result", "join", "x")
        wf.link("b", "result", "join", "y")
        wf.map_output("out", "join", "merged")
        assert wf.waves() == [["src"], ["a", "b"], ["join"]]

    def test_concatenated_waves_cover_every_processor(self):
        wf = fan_out(5)
        flat = [name for wave in wf.waves() for name in wave]
        assert sorted(flat) == sorted(wf.processors)

    def test_cycle_rejected(self):
        wf = Workflow("loop")
        wf.add_processor(_python("a", "par_double"))
        wf.add_processor(_python("b", "par_double"))
        wf.link("a", "result", "b", "values")
        wf.link("b", "result", "a", "values")
        with pytest.raises(WorkflowValidationError):
            wf.waves()


class TestParallelEquivalence:
    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError):
            WorkflowEngine(max_workers=0)

    def test_parallel_run_matches_sequential(self):
        inputs = {"values": [1, 2]}
        seq = WorkflowEngine(max_workers=1).run(fan_out(6), inputs)
        par = WorkflowEngine(max_workers=4).run(fan_out(6), inputs)
        assert seq.outputs == par.outputs
        assert seq.trace.to_dict() == par.trace.to_dict()

    def test_parallel_dispatch_counted(self):
        telemetry = Telemetry()
        engine = WorkflowEngine(max_workers=4, telemetry=telemetry)
        engine.run(fan_out(6), {"values": [1]})
        assert telemetry.metrics.value(
            "engine_parallel_dispatch_total", workflow="fan") == 6
        assert telemetry.metrics.value(
            "engine_waves_total", workflow="fan") == 1

    def test_wave_actually_overlaps_workers(self):
        """8 workers x 10 ms must finish well under 80 ms sequential."""
        engine = WorkflowEngine(max_workers=8)
        result = engine.run(fan_out(8, "par_sleepy"), {"values": [1]})
        assert result.wall_seconds < 8 * 0.01 * 0.8

    def test_fatal_failure_trace_identical_across_worker_counts(self):
        # both abort at boom's commit: alpha committed, omega discarded
        # (even though with 8 workers omega already *executed*); the
        # engine keeps no trace handle after the raise, so capture the
        # final trace through a run_finished listener
        captured = {}
        for label, workers in (("seq", 1), ("par", 8)):
            wf = Workflow("fails")
            wf.add_processor(_python("alpha", "par_double"))
            wf.add_processor(_python("boom", "par_boom"))
            wf.add_processor(_python("omega", "par_double"))
            for name in ("alpha", "boom", "omega"):
                wf.map_input("values", name, "values")
                wf.map_output(f"out_{name}", name, "result")
            engine = WorkflowEngine(max_workers=workers)
            engine.add_listener(
                lambda event, payload, label=label:
                captured.__setitem__(label, payload["trace"])
                if event == "run_finished" else None)
            with pytest.raises(WorkflowExecutionError):
                engine.run(wf, {"values": [1]})
        assert captured["seq"].to_dict() == captured["par"].to_dict()
        assert captured["par"].status == "failed"
        committed = [r.processor for r in captured["par"].processor_runs]
        assert committed == ["alpha", "boom"]

    def test_degraded_wave_keeps_running(self):
        wf = Workflow("soft")
        wf.add_processor(_python("flaky", "par_boom", allow_failure=True))
        wf.add_processor(_python("steady", "par_double"))
        for name in ("flaky", "steady"):
            wf.map_input("values", name, "values")
            wf.map_output(f"out_{name}", name, "result")
        result = WorkflowEngine(max_workers=4).run(wf, {"values": [2]})
        assert result.degraded
        assert result.outputs["out_steady"] == [4]
        assert result.outputs["out_flaky"] is None


class TestListenerSemantics:
    def _run(self, workers, listener_factory=None, telemetry=None):
        engine = WorkflowEngine(max_workers=workers, telemetry=telemetry)
        events = []
        engine.add_listener(lambda event, payload:
                            events.append((event,
                                           payload.get("processor").name
                                           if "processor" in payload
                                           else None)))
        if listener_factory is not None:
            engine.add_listener(listener_factory())
        engine.run(fan_out(5), {"values": [1]})
        return events

    def test_events_exactly_once_and_deterministic(self):
        seq = self._run(1)
        par = self._run(8)
        assert seq == par
        names = [name for event, name in seq
                 if event == "processor_finished"]
        assert names == ["p0", "p1", "p2", "p3", "p4"]
        assert [event for event, _ in seq] == (
            ["run_started"] + ["processor_finished"] * 5 + ["run_finished"])

    def test_raising_listener_neither_deadlocks_nor_orphans(self):
        telemetry = Telemetry()

        def factory():
            def bad(event, payload):
                raise RuntimeError("listener bug")
            return bad

        events = self._run(8, factory, telemetry=telemetry)
        # the run completed, every event was still delivered to the
        # healthy listener, and the faults were counted
        assert len(events) == 7
        assert telemetry.metrics.value(
            "engine_listener_errors_total",
            event="processor_finished") == 5
        assert telemetry.metrics.value(
            "engine_listener_errors_total", event="run_started") == 1


class TestSimulatedClockConcurrency:
    def test_concurrent_advances_all_land(self):
        clock = SimulatedClock()
        start = clock.now()
        threads = [threading.Thread(
            target=lambda: [clock.advance(0.5) for _ in range(200)])
            for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert (clock.now() - start).total_seconds() == \
            pytest.approx(8 * 200 * 0.5)

    def test_wall_seconds_is_monotonic_and_per_run(self):
        clock = SimulatedClock()
        a = WorkflowEngine(max_workers=1, clock=clock)
        b = WorkflowEngine(max_workers=1, clock=clock)
        first = a.run(fan_out(2, "par_sleepy"), {"values": [1]})
        second = b.run(fan_out(2, "par_sleepy"), {"values": [1]})
        # real elapsed time, not simulated: both paid their own sleeps
        # even though they interleave on one shared simulated clock
        assert first.wall_seconds > 0
        assert second.wall_seconds > 0
        assert first.wall_seconds == pytest.approx(
            second.wall_seconds, rel=5.0)


class TestResultCache:
    def test_hit_splices_outputs_and_cached_from(self):
        engine = WorkflowEngine(cache=ResultCache())
        first = engine.run(chain(), {"values": [1, 2]})
        second = engine.run(chain(), {"values": [1, 2]})
        assert second.outputs == first.outputs == {"out": [4, 8]}
        assert first.cached_processors == []
        assert second.cached_processors == ["first", "second"]
        runs = {r.processor: r for r in second.trace.processor_runs}
        assert runs["first"].cached_from == f"{first.run_id}/first"
        assert runs["first"].duration.total_seconds() == 0.0

    def test_invocations_skipped_on_hit(self):
        _CALLS.clear()
        engine = WorkflowEngine(cache=ResultCache())
        wf = fan_out(1, "par_tracked")
        engine.run(wf, {"values": [3]})
        engine.run(wf, {"values": [3]})
        assert _CALLS == ["tracked"]
        engine.run(wf, {"values": [4]})  # different inputs: miss
        assert _CALLS == ["tracked", "tracked"]

    def test_cacheable_false_opts_out(self):
        engine = WorkflowEngine(cache=ResultCache())
        wf = fan_out(1, "par_double")
        wf.processor("p0").config["cacheable"] = False
        engine.run(wf, {"values": [1]})
        result = engine.run(wf, {"values": [1]})
        assert result.cached_processors == []

    def test_non_json_plain_inputs_are_not_keyed(self):
        processor = _python("p", "par_double")
        assert invocation_key(processor, None,
                              {"values": [object()]}) is None
        assert invocation_key(processor, None, {"values": [1, 2]})

    def test_version_bump_invalidates(self):
        processor = _python("p", "par_double")
        old = invocation_key(processor, None, {"values": [1]})
        processor.config["implementation_version"] = "2"
        assert invocation_key(processor, None, {"values": [1]}) != old

    def test_failures_never_cached(self):
        cache = ResultCache()
        engine = WorkflowEngine(cache=cache)
        wf = fan_out(1, "par_boom")
        wf.processor("p0").config["allow_failure"] = True
        engine.run(wf, {"values": [1]})
        result = engine.run(wf, {"values": [1]})
        assert result.cached_processors == []
        assert len(cache) == 0

    def test_lru_bound_evicts_oldest(self):
        cache = ResultCache(max_entries=2)
        cache.put("k1", CachedResult({"a": 1}, "run/p"))
        cache.put("k2", CachedResult({"a": 2}, "run/p"))
        cache.put("k3", CachedResult({"a": 3}, "run/p"))
        assert cache.get("k1") is None
        assert cache.get("k3").outputs == {"a": 3}
        assert len(cache) == 2

    def test_replayed_outputs_are_isolated_copies(self):
        cache = ResultCache()
        cache.put("k", CachedResult({"rows": [1, 2]}, "run/p"))
        cache.get("k").outputs["rows"].append(99)
        assert cache.get("k").outputs == {"rows": [1, 2]}

    def test_hit_and_miss_telemetry(self):
        telemetry = Telemetry()
        engine = WorkflowEngine(cache=ResultCache(), telemetry=telemetry)
        wf = fan_out(1, "par_double")
        engine.run(wf, {"values": [1]})
        engine.run(wf, {"values": [1]})
        assert telemetry.metrics.value(
            "engine_cache_misses_total", processor="p0") == 1
        assert telemetry.metrics.value(
            "engine_cache_hits_total", processor="p0") == 1

    def test_parallel_warm_run_uses_cache(self):
        cache = ResultCache()
        cold = WorkflowEngine(max_workers=8, cache=cache)
        warm = WorkflowEngine(max_workers=8, cache=cache)
        cold_result = cold.run(fan_out(6), {"values": [2]})
        warm_result = warm.run(fan_out(6), {"values": [2]})
        assert warm_result.outputs == cold_result.outputs
        assert len(warm_result.cached_processors) == 6
        assert cache.hit_rate == pytest.approx(0.5)
