"""The micro-benchmark harness: floors on record, and the report step.

Each test records a results document through :class:`harness.Bench`,
then runs ``python benchmarks/harness.py`` on it the way CI does.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

import harness
from harness import Bench

pytestmark = pytest.mark.smoke


def _bench(tmp_path, name: str) -> Bench:
    bench = Bench(name, runs=10)
    bench.path = tmp_path / f"BENCH_{name}.json"
    return bench


def _report(bench: Bench) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, harness.__file__,
                           str(bench.path)],
                          capture_output=True, text=True, timeout=60,
                          check=False)


def test_missed_strict_floor_warns_once_and_exits_zero(tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.setattr(harness, "STRICT", False)
    bench = _bench(tmp_path, "advisory")
    bench.record("sync", speedup=1.2, rate=80.0)
    bench.floor("sync", "speedup", 1.5, strict=True)
    bench.floor("sync", "rate", 50.0)
    assert capsys.readouterr().out.startswith("advisory: ")

    done = _report(bench)
    lines = done.stdout.splitlines()
    assert done.returncode == 0, done.stderr
    assert [line.split()[1] for line in lines
            if line.startswith("BENCH_advisory ")] \
        == ["sync.rate", "sync.speedup"]
    assert len([line for line in lines
                if line.startswith("::warning")]) == 1


def test_missed_enforced_floor_exits_one(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "STRICT", False)
    bench = _bench(tmp_path, "enforced")
    bench.record("memory", ratio=2.5)
    with pytest.raises(AssertionError):
        bench.floor("memory", "ratio", 3.0)

    done = _report(bench)
    assert done.returncode == 1
    assert "::warning" not in done.stdout
    assert "memory.ratio = 2.5 < 3.0 [always] MISSED" in done.stdout
