"""Targeted unit tests for the DET/LK/HY rule families.

Each test writes a minimal module, runs the code analyzer over it and
asserts which rules fire (or pointedly do not).  The seeded-defect
fixture + golden file covers the full-output contract; these pin the
individual decision boundaries.
"""

from pathlib import Path

from repro.analysis import Analyzer

SRC = Path(__file__).parent.parent.parent / "src" / "repro"


def _rules_for(tmp_path, text, name="mod.py"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    report = Analyzer().analyze_code([path])
    return report, sorted(report.rule_ids())


REGISTERED = "register_function('work', worker)\n"


class TestDeterminism:
    def test_clock_via_alias_resolves(self, tmp_path):
        report, rules = _rules_for(tmp_path, (
            "from datetime import datetime as dt\n"
            "def worker(payload):\n"
            "    return dt.now()\n" + REGISTERED
        ))
        assert "DET001" in rules

    def test_time_sleep_is_not_a_clock_read(self, tmp_path):
        report, rules = _rules_for(tmp_path, (
            "import time\n"
            "def worker(payload):\n"
            "    time.sleep(0.1)\n"
            "    return payload\n" + REGISTERED
        ))
        assert "DET001" not in rules

    def test_opted_out_kind_not_det_flagged(self, tmp_path):
        report, rules = _rules_for(tmp_path, (
            "import time\n"
            "def worker(payload):\n"
            "    return time.time()\n" + REGISTERED +
            "Processor('p', 'work', config={'cacheable': False})\n"
        ))
        assert "DET001" not in rules

    def test_seeded_random_instance_allowed(self, tmp_path):
        report, rules = _rules_for(tmp_path, (
            "import random\n"
            "def worker(payload):\n"
            "    rng = random.Random(42)\n"
            "    return rng.random()\n" + REGISTERED
        ))
        # random.Random(...) is the suggested fix; rng.random() is a
        # method on an unknown object, deliberately unresolved
        assert "DET002" not in rules

    def test_unreachable_nondeterminism_not_flagged(self, tmp_path):
        report, rules = _rules_for(tmp_path, (
            "import time\n"
            "def helper():\n"
            "    return time.time()\n"
            "def worker(payload):\n"
            "    return payload\n" + REGISTERED
        ))
        assert "DET001" not in rules

    def test_det004_skips_locals_and_init(self, tmp_path):
        report, rules = _rules_for(tmp_path, (
            "class Carrier:\n"
            "    def __init__(self):\n"
            "        self.items = []\n"
            "def worker(payload):\n"
            "    box = []\n"
            "    box.append(payload)\n"
            "    c = Carrier()\n"
            "    return box\n" + REGISTERED
        ))
        assert "DET004" not in rules

    def test_det004_flags_self_mutation(self, tmp_path):
        report, rules = _rules_for(tmp_path, (
            "class Runner:\n"
            "    def _register_kinds(self):\n"
            "        def work(payload):\n"
            "            self.seen.append(payload)\n"
            "            return payload\n"
            "        register_function('work', work)\n"
        ), name="mod2.py")
        assert "DET004" in rules

    def test_det005_sorted_return_is_fine(self, tmp_path):
        report, rules = _rules_for(tmp_path, (
            "def worker(payload):\n"
            "    return sorted({x for x in payload})\n" + REGISTERED
        ))
        assert "DET005" not in rules

    def test_det005_flags_raw_set_return(self, tmp_path):
        report, rules = _rules_for(tmp_path, (
            "def worker(payload):\n"
            "    return {x for x in payload}\n" + REGISTERED
        ))
        assert "DET005" in rules


_STREAM_CLASS = (
    "import threading\n"
    "class Buffer:\n"
    "    def __init__(self, items):\n"
    "        self._lock = threading.Lock()\n"
    "        self._pending = []\n"
    "        for item in items:\n"
    "            self.push(item)\n"
    "{push}\n"
    "def worker(payload):\n"
    "    return Buffer(payload)\n"
    + REGISTERED
)


class TestDet006UnlockedSharedWrites:
    def test_flags_unguarded_cacheable_write(self, tmp_path):
        report, rules = _rules_for(tmp_path, _STREAM_CLASS.format(push=(
            "    def push(self, item):\n"
            "        self._pending.append(item)\n"
        )))
        assert "DET006" in rules

    def test_silent_when_write_holds_the_lock(self, tmp_path):
        report, rules = _rules_for(tmp_path, _STREAM_CLASS.format(push=(
            "    def push(self, item):\n"
            "        with self._lock:\n"
            "            self._pending.append(item)\n"
        )))
        assert "DET006" not in rules

    def test_silent_for_locked_suffix_methods(self, tmp_path):
        report, rules = _rules_for(tmp_path, _STREAM_CLASS.format(push=(
            "    def push(self, item):\n"
            "        self._push_locked(item)\n"
            "    def _push_locked(self, item):\n"
            "        self._pending.append(item)\n"
        )))
        assert "DET006" not in rules

    def test_silent_off_the_cacheable_path(self, tmp_path):
        report, rules = _rules_for(tmp_path, (
            "import threading\n"
            "class Buffer:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._pending = []\n"
            "    def push(self, item):\n"
            "        self._pending.append(item)\n"
        ))
        assert "DET006" not in rules

    def test_flags_plain_attribute_assignment(self, tmp_path):
        report, rules = _rules_for(tmp_path, _STREAM_CLASS.format(push=(
            "    def push(self, item):\n"
            "        self.latest = item\n"
        )))
        assert "DET006" in rules


LOCKED_CLASS_HEADER = (
    "import threading\n"
    "class Box:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self.value = 0\n"
)


class TestLockDiscipline:
    def test_self_deadlock_through_call(self, tmp_path):
        report, rules = _rules_for(tmp_path, LOCKED_CLASS_HEADER + (
            "    def get(self):\n"
            "        with self._lock:\n"
            "            return self.value\n"
            "    def get_twice(self):\n"
            "        with self._lock:\n"
            "            return self.get()\n"
        ))
        assert "LK001" in rules
        [diag] = [d for d in report.diagnostics if d.rule_id == "LK001"]
        assert "self-deadlock" in diag.message

    def test_reentrant_lock_not_self_deadlock(self, tmp_path):
        report, rules = _rules_for(tmp_path, (
            "import threading\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.RLock()\n"
            "        self.value = 0\n"
            "    def get(self):\n"
            "        with self._lock:\n"
            "            return self.value\n"
            "    def get_twice(self):\n"
            "        with self._lock:\n"
            "            return self.get()\n"
        ))
        assert "LK001" not in rules

    def test_consistent_order_no_cycle(self, tmp_path):
        report, rules = _rules_for(tmp_path, (
            "import threading\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._a = threading.Lock()\n"
            "        self._b = threading.Lock()\n"
            "    def one(self):\n"
            "        with self._a:\n"
            "            with self._b:\n"
            "                return 1\n"
            "    def two(self):\n"
            "        with self._a:\n"
            "            with self._b:\n"
            "                return 2\n"
        ))
        assert "LK001" not in rules

    def test_lk002_locked_suffix_convention(self, tmp_path):
        report, rules = _rules_for(tmp_path, LOCKED_CLASS_HEADER + (
            "    def set(self, value):\n"
            "        with self._lock:\n"
            "            self.value = value\n"
            "    def _bump_locked(self):\n"
            "        self.value += 1\n"
        ))
        assert "LK002" not in rules

    def test_lk002_flags_public_unguarded_write(self, tmp_path):
        report, rules = _rules_for(tmp_path, LOCKED_CLASS_HEADER + (
            "    def set(self, value):\n"
            "        with self._lock:\n"
            "            self.value = value\n"
            "    def reset(self):\n"
            "        self.value = 0\n"
        ))
        assert "LK002" in rules

    def test_lk003_try_finally_is_clean(self, tmp_path):
        report, rules = _rules_for(tmp_path, LOCKED_CLASS_HEADER + (
            "    def bump(self):\n"
            "        self._lock.acquire()\n"
            "        try:\n"
            "            self.value += 1\n"
            "        finally:\n"
            "            self._lock.release()\n"
        ))
        assert "LK003" not in rules

    def test_lk003_partial_release_warns(self, tmp_path):
        report, rules = _rules_for(tmp_path, LOCKED_CLASS_HEADER + (
            "    def bump(self):\n"
            "        self._lock.acquire()\n"
            "        self.value += 1\n"
            "        self._lock.release()\n"
        ))
        [diag] = [d for d in report.diagnostics if d.rule_id == "LK003"]
        assert diag.severity == "warning"
        assert "some paths" in diag.message

    def test_lk003_cross_method_protocol_quiet(self, tmp_path):
        report, rules = _rules_for(tmp_path, LOCKED_CLASS_HEADER + (
            "    def grab(self):\n"
            "        self._lock.acquire()\n"
            "    def drop(self):\n"
            "        self._lock.release()\n"
        ))
        assert "LK003" not in rules

    def test_lk004_io_under_lock(self, tmp_path):
        report, rules = _rules_for(tmp_path, LOCKED_CLASS_HEADER + (
            "    def save(self, path):\n"
            "        with self._lock:\n"
            "            path.write_text(str(self.value))\n"
        ))
        assert "LK004" in rules


class TestHygiene:
    def test_justified_blanket_except_quiet(self, tmp_path):
        report, rules = _rules_for(tmp_path, (
            "def guard(fn):\n"
            "    try:\n"
            "        return fn()\n"
            "    except Exception:  # noqa: BLE001 - faults must not kill the loop\n"
            "        return None\n"
        ))
        assert "HY001" not in rules

    def test_mitigated_but_unjustified_is_info(self, tmp_path):
        report, rules = _rules_for(tmp_path, (
            "def guard(fn, metrics):\n"
            "    try:\n"
            "        return fn()\n"
            "    except Exception as exc:\n"
            "        metrics.counter('faults_total').inc()\n"
            "        raise RuntimeError(str(exc))\n"
        ))
        [diag] = [d for d in report.diagnostics if d.rule_id == "HY001"]
        assert diag.severity == "info"

    def test_silent_blanket_except_is_warning(self, tmp_path):
        report, rules = _rules_for(tmp_path, (
            "def guard(fn):\n"
            "    try:\n"
            "        return fn()\n"
            "    except Exception:\n"
            "        return None\n"
        ))
        [diag] = [d for d in report.diagnostics if d.rule_id == "HY001"]
        assert diag.severity == "warning"

    def test_narrow_except_never_flagged(self, tmp_path):
        report, rules = _rules_for(tmp_path, (
            "def guard(fn):\n"
            "    try:\n"
            "        return fn()\n"
            "    except (ValueError, KeyError):\n"
            "        return None\n"
        ))
        assert "HY001" not in rules

    def test_hy002_requires_report_module(self, tmp_path):
        # without a telemetry.report module in the analyzed tree the
        # rule stays silent (single-file runs, fixtures)
        report, rules = _rules_for(tmp_path, (
            "def run(metrics):\n"
            "    metrics.counter('orphan_total').inc()\n"
        ))
        assert "HY002" not in rules

    def test_hy002_flags_undocumented_counter(self, tmp_path):
        pkg = tmp_path / "telemetry"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "report.py").write_text(
            "PANEL = ['documented_total']\n", encoding="utf-8")
        (tmp_path / "work.py").write_text(
            "def run(metrics):\n"
            "    metrics.counter('documented_total').inc()\n"
            "    metrics.counter('orphan_total').inc()\n",
            encoding="utf-8")
        report = Analyzer().analyze_code([tmp_path])
        names = [d.message for d in report.diagnostics
                 if d.rule_id == "HY002"]
        assert len(names) == 1
        assert "orphan_total" in names[0]

    def test_hy002_checks_every_instrument_kind_by_exact_name(
            self, tmp_path):
        pkg = tmp_path / "telemetry"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "report.py").write_text(
            "CATALOG = ['queue_depth_now', 'latency_seconds']\n",
            encoding="utf-8")
        (tmp_path / "work.py").write_text(
            "def run(metrics):\n"
            "    metrics.gauge('queue_depth').set(1)\n"
            "    metrics.histogram('latency_seconds').observe(1)\n"
            "    metrics.window('accuracy').observe(1)\n",
            encoding="utf-8")
        report = Analyzer().analyze_code([tmp_path])
        flagged = sorted(d.message.split("'")[1] for d in report.diagnostics
                         if d.rule_id == "HY002")
        assert flagged == ["accuracy", "queue_depth"]

    def test_hy003_hash_in_string_not_flagged(self, tmp_path):
        report, rules = _rules_for(tmp_path, (
            "MESSAGE = 'not a comment: # noqa'\n"
        ))
        assert "HY003" not in rules

    def test_hy003_justified_type_ignore_quiet(self, tmp_path):
        report, rules = _rules_for(tmp_path, (
            "def f(x):\n"
            "    return x  # type: ignore[return-value] - narrowed by caller\n"
        ))
        assert "HY003" not in rules


class TestSelfAnalysis:
    """The repo's own acceptance bar: src/repro stays clean against the
    committed baseline (the CI gate runs the same check)."""

    def test_src_clean_against_committed_baseline(self):
        from repro.analysis import Baseline
        baseline = Baseline.load(
            Path(__file__).parent.parent.parent
            / "lint_code_baseline.json")
        report = Analyzer(baseline=baseline).analyze_code([SRC])
        assert report.diagnostics == []
        assert report.exit_code == 0

    def test_rule_catalog_contains_code_families(self):
        from repro.analysis import default_registry
        ids = {r.id for r in default_registry()}
        assert {"DET001", "DET002", "DET003", "DET004", "DET005",
                "LK001", "LK002", "LK003", "LK004",
                "HY001", "HY002", "HY003"} <= ids
