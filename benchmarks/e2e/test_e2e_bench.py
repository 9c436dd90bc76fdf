"""Tests of the end-to-end benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.  Every
workload runs in-process at a tiny size (600 records, one pass, five
churn rounds, forty service requests), so the suite checks the metric
plumbing, the oracles and the tracing without measuring anything.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import compare
import tracing
import workloads
from repro.streaming import IncrementalCurator

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(
    encoding="utf-8"))


def _names(section: str) -> dict[str, str]:
    return {spec["name"]: spec["unit"] for spec in CONTRACT[section]}


def test_contract_lists_the_workloads_and_metrics_the_code_reports():
    assert [spec["name"] for spec in CONTRACT["workloads"]] \
        == list(workloads.WORKLOADS)
    assert _names("end_to_end") == dict(workloads.END_TO_END)
    assert _names("per_layer") == dict(tracing.LAYER_METRICS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_reports_every_end_to_end_metric(name):
    document = workloads.run(name, 7, 30.0, scale=workloads.TINY)
    assert document["correct"], document["error"]
    assert document["failed"] == 0 and document["attempted"] >= 1
    assert {metric: entry["unit"]
            for metric, entry in document["metrics"].items()} \
        == _names("end_to_end")
    assert all(entry["value"] > 0 for entry in document["metrics"].values())


#: layers each workload is chosen to stress, and layers it must bypass
ACTIVE = {
    "fnjv_e2e": ("archive.put.calls", "curation.species_check.self_s",
                 "linkeddata.crate.self_s", "provenance.lineage.calls"),
    "recuration_churn": ("streaming.assess.calls",
                         "storage.update_where.calls",
                         "workflow.cache_invalidations"),
    "service_mix": ("service.submit.calls", "storage.snapshot_query.calls",
                    "storage.commit.self_s"),
}
IDLE = {
    "fnjv_e2e": ("service.submit.calls", "streaming.assess.calls"),
    "recuration_churn": ("archive.put.calls", "service.submit.calls"),
    "service_mix": ("workflow.run.calls", "streaming.assess.calls",
                    "taxonomy.resolve.calls"),
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_workload_reports_every_layer_metric(name, tmp_path):
    spans_path = tmp_path / "spans.json"
    document = workloads.run(name, 7, 30.0, trace=True,
                             scale=workloads.TINY, spans_path=str(spans_path))
    assert document["correct"], document["error"]
    metrics = document["metrics"]
    assert {metric: entry["unit"] for metric, entry in metrics.items()} \
        == _names("per_layer")
    # set-up is traced too
    assert metrics["sounds.generate.self_s"]["value"] > 0
    assert metrics["storage.bulk_load.calls"]["value"] > 0
    assert all(metrics[metric]["value"] > 0 for metric in ACTIVE[name])
    assert all(metrics[metric]["value"] == 0 for metric in IDLE[name])
    for ratio in ("workflow.cache_hit_ratio", "taxonomy.memo_hit_ratio",
                  "streaming.shard_reuse_ratio"):
        assert 0 <= metrics[ratio]["value"] <= 1
    otlp = json.loads(spans_path.read_text(encoding="utf-8"))
    spans = otlp["resourceSpans"][0]["scopeSpans"][0]["spans"]
    assert spans and all(span["endTimeUnixNano"] >= span["startTimeUnixNano"]
                         for span in spans)
    ids = {span["spanId"] for span in spans}
    assert all(span["parentSpanId"] in ids for span in spans
               if span["parentSpanId"])


def _span(span_id, parent, start, end, name, trace=1, thread=1):
    return tracing.Span(span_id, parent, trace, name, start, end, thread)


def test_self_time_of_nested_spans():
    spans = [
        _span(1, None, 0.0, 10.0, "root"),
        _span(2, 1, 1.0, 4.0, "child"),
        _span(3, 2, 2.0, 3.0, "leaf"),
        _span(4, 1, 6.0, 9.0, "child"),
    ]
    times = tracing.self_times(spans)
    assert times["root"]["self_s"] == pytest.approx(4.0)
    assert times["child"] == pytest.approx(
        {"calls": 2, "self_s": 5.0, "total_s": 6.0})
    assert times["leaf"]["self_s"] == pytest.approx(1.0)


def test_self_time_subtracts_the_union_of_overlapping_children():
    # children on two threads under one parent overlap in time; the
    # parent's self time subtracts the union of their intervals once
    spans = [
        _span(1, None, 0.0, 10.0, "parent"),
        _span(2, 1, 1.0, 5.0, "worker", thread=1),
        _span(3, 1, 3.0, 7.0, "worker", thread=2),
        _span(4, 1, 9.0, 12.0, "worker", thread=2),  # clipped at 10
    ]
    times = tracing.self_times(spans)
    assert times["parent"]["self_s"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert times["worker"]["self_s"] == pytest.approx(11.0)


def test_recorder_keeps_one_parent_stack_per_thread():
    recorder = tracing.Recorder()
    barrier = threading.Barrier(2)

    def work():
        with recorder.span("outer"):
            barrier.wait(timeout=10)
            with recorder.span("inner"):
                time.sleep(0.01)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    by_id = {span.span_id: span for span in recorder.spans}
    outers = [span for span in recorder.spans if span.name == "outer"]
    inners = [span for span in recorder.spans if span.name == "inner"]
    assert len(outers) == len(inners) == 2
    assert len({span.trace_id for span in outers}) == 2
    for inner in inners:
        parent = by_id[inner.parent_id]
        assert parent.name == "outer" and parent.thread == inner.thread
        assert parent.trace_id == inner.trace_id
    times = tracing.self_times(recorder.spans)
    assert times["outer"]["self_s"] + times["inner"]["self_s"] \
        == pytest.approx(times["outer"]["total_s"])


def test_churn_oracle_trips_on_a_wrong_digest(monkeypatch):
    # dropping the dirty marks leaves stale shard results behind, so
    # the incremental digest no longer matches a cold sweep
    monkeypatch.setattr(IncrementalCurator, "mark_dirty",
                        lambda self, record_ids: [])
    document = workloads.run("recuration_churn", 7, 30.0,
                             scale=workloads.TINY)
    assert not document["correct"]
    assert document["failed"] >= 1
    assert "digest" in document["error"]


def test_service_rate_is_the_median_over_whole_seconds():
    # windows [0, 1) and [1, 2) hold 2 and 3 requests; the partial third
    # second is left out
    assert workloads._rate([0.1, 0.5, 1.2, 1.3, 1.4, 2.5]) == 2.5
    assert workloads._rate([0.5, 1.0, 1.5]) == 2.0


def _name_check(updated, unanswered):
    binding = SimpleNamespace(port="resolutions", value=[
        {"queried": name, "status": "unresolved"} for name in unanswered])
    return SimpleNamespace(updated_names=updated, trace=SimpleNamespace(
        bindings_for=lambda processor, direction: [binding]))


def test_name_check_oracle_excuses_only_unanswered_lookups():
    planted = {"Old one": "New one", "Old two": "New two"}
    check = workloads._finds_planted_names
    assert check(_name_check(dict(planted), []), planted)
    assert check(_name_check({"Old one": "New one"}, ["Old two"]), planted)
    assert not check(_name_check({"Old one": "New one"}, []), planted)
    assert not check(_name_check({**planted, "Old one": "Wrong"}, []),
                     planted)
    assert not check(_name_check({**planted, "Fine name": "Other"}, []),
                     planted)


def _originals():
    found = []
    for module, path, _, _ in tracing.LAYER_WRAPS:
        owner, attribute = tracing._owner(module, path)
        found.append(owner.__dict__[attribute])
    return found


def test_traced_run_restores_the_original_methods():
    before = _originals()
    workloads.run("service_mix", 7, 30.0, trace=True, scale=workloads.TINY)
    assert _originals() == before


def test_install_rolls_back_when_an_entry_point_is_missing():
    before = _originals()
    broken = tracing.LAYER_WRAPS + (("repro.storage.query", "Query.nope",
                                     "storage.query", None),)
    with pytest.raises(KeyError):
        tracing.install(tracing.Recorder(), broken)
    assert _originals() == before


def _document(path, runs):
    path.write_text(json.dumps({"runs": [
        {"workload": "service_mix", "seed": seed, "trace": False,
         "metrics": {"op_p50_ms": {"value": value, "unit": "ms"}},
         "detail": {}}
        for seed, value in runs]}), encoding="utf-8")
    return str(path)


def test_compare_verdicts_and_paired_claim(tmp_path, capsys):
    parent = _document(tmp_path / "a.json",
                       [(seed, 100.0 + seed % 3) for seed in range(10)])
    same = _document(tmp_path / "b.json",
                     [(seed, 101.0 + seed % 2) for seed in range(10)])
    slower = _document(tmp_path / "c.json",
                       [(seed, 150.0 + seed % 3) for seed in range(10)])
    faster = _document(tmp_path / "d.json",
                       [(seed, 60.0 + seed % 3) for seed in range(10)])
    assert compare.compare(parent, same) == 0
    assert compare.compare(parent, slower) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.compare(parent, faster,
                           claim="op_p50_ms@service_mix") == 0
    out = capsys.readouterr().out
    assert "B wins 10 of 10 pairs" in out and "supported" in out
    noisy = _document(tmp_path / "e.json",
                      [(seed, 50.0 + 100 * (seed % 2)) for seed in range(10)])
    compare.compare(parent, noisy)
    assert "unresolved" in capsys.readouterr().out


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    child = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fnjv_e2e",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
