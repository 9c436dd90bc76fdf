"""The source loader and the codebase model behind the DET/LK/HY rules.

Covers module-name derivation (baseline stability depends on it), the
AST cache, processor-implementation discovery (explicit registration,
the factory-closure idiom, dict-literal factories, cacheable opt-out),
call-graph reachability and lock inventories.
"""

from pathlib import Path

import pytest

from repro.analysis.code import CodebaseState, ModuleLoader
from repro.errors import AnalysisError

SRC = Path(__file__).parent.parent.parent / "src" / "repro"


def _write(tmp_path, relative, text):
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


class TestLoader:
    def test_module_name_from_package_structure(self, tmp_path):
        _write(tmp_path, "pkg/__init__.py", "")
        _write(tmp_path, "pkg/sub/__init__.py", "")
        path = _write(tmp_path, "pkg/sub/mod.py", "x = 1\n")
        source = ModuleLoader().load_file(path)
        assert source.module == "pkg.sub.mod"

    def test_bare_file_uses_stem(self, tmp_path):
        path = _write(tmp_path, "loose.py", "x = 1\n")
        assert ModuleLoader().load_file(path).module == "loose"

    def test_init_module_is_the_package(self, tmp_path):
        path = _write(tmp_path, "pkg/__init__.py", "x = 1\n")
        assert ModuleLoader().load_file(path).module == "pkg"

    def test_cache_returns_same_object(self, tmp_path):
        path = _write(tmp_path, "mod.py", "x = 1\n")
        loader = ModuleLoader()
        first = loader.load_file(path)
        assert loader.load_file(path) is first

    def test_cache_invalidates_on_edit(self, tmp_path):
        import os
        path = _write(tmp_path, "mod.py", "x = 1\n")
        loader = ModuleLoader()
        first = loader.load_file(path)
        path.write_text("x = 2\n", encoding="utf-8")
        # force a different mtime even on coarse-grained filesystems
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
        second = loader.load_file(path)
        assert second is not first
        assert second.text == "x = 2\n"

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(AnalysisError, match="no such file"):
            ModuleLoader().load_paths([tmp_path / "ghost.py"])

    def test_non_python_file_raises(self, tmp_path):
        path = _write(tmp_path, "data.json", "{}")
        with pytest.raises(AnalysisError, match="not a Python source"):
            ModuleLoader().load_file(path)

    def test_syntax_error_raises(self, tmp_path):
        path = _write(tmp_path, "broken.py", "def f(:\n")
        with pytest.raises(AnalysisError, match="line 1"):
            ModuleLoader().load_file(path)

    def test_directory_without_sources_raises(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(AnalysisError, match="no"):
            ModuleLoader().load_paths([tmp_path / "empty"])

    def test_directory_walk_skips_pycache(self, tmp_path):
        _write(tmp_path, "tree/a.py", "x = 1\n")
        _write(tmp_path, "tree/__pycache__/b.py", "x = 2\n")
        sources = ModuleLoader().load_paths([tmp_path / "tree"])
        assert [s.path.name for s in sources] == ["a.py"]

    def test_duplicate_paths_deduplicate(self, tmp_path):
        path = _write(tmp_path, "mod.py", "x = 1\n")
        sources = ModuleLoader().load_paths([path, path])
        assert len(sources) == 1


class TestImplementationDiscovery:
    def test_register_function_marks_implementation(self, tmp_path):
        _write(tmp_path, "mod.py", (
            "def worker(payload):\n"
            "    return payload\n"
            "register_function('work', worker)\n"
        ))
        state = CodebaseState.from_paths([tmp_path / "mod.py"])
        assert state.implementations == {"mod/worker": "work"}
        assert "mod/worker" in state.cacheable_reachable

    def test_factory_closure_payload_is_the_implementation(self,
                                                           tmp_path):
        _write(tmp_path, "mod.py", (
            "def make(config):\n"
            "    def run(payload):\n"
            "        return payload\n"
            "    return run\n"
            "_BUILTINS = {'thing': make}\n"
        ))
        state = CodebaseState.from_paths([tmp_path / "mod.py"])
        assert state.implementations == {"mod/make.run": "thing"}

    def test_cacheable_opt_out_excludes_kind(self, tmp_path):
        _write(tmp_path, "mod.py", (
            "def volatile(payload):\n"
            "    return payload\n"
            "def stable(payload):\n"
            "    return payload\n"
            "register_function('volatile', volatile)\n"
            "register_function('stable', stable)\n"
            "Processor('p1', 'volatile', config={'cacheable': False})\n"
        ))
        state = CodebaseState.from_paths([tmp_path / "mod.py"])
        assert state.opted_out_kinds == {"volatile"}
        assert "mod/volatile" not in state.cacheable_reachable
        assert "mod/stable" in state.cacheable_reachable
        # opted-out code still runs on worker threads
        assert "mod/volatile" in state.worker_reachable

    def test_reachability_follows_calls_and_nesting(self, tmp_path):
        _write(tmp_path, "mod.py", (
            "def helper():\n"
            "    return deep()\n"
            "def deep():\n"
            "    return 1\n"
            "def worker(payload):\n"
            "    def inner():\n"
            "        return helper()\n"
            "    return inner()\n"
            "def unrelated():\n"
            "    return 2\n"
            "register_function('work', worker)\n"
        ))
        state = CodebaseState.from_paths([tmp_path / "mod.py"])
        assert {"mod/worker", "mod/worker.inner", "mod/helper",
                "mod/deep"} <= state.cacheable_reachable
        assert "mod/unrelated" not in state.cacheable_reachable

    def test_imported_call_resolves_across_modules(self, tmp_path):
        _write(tmp_path, "pkg/__init__.py", "")
        _write(tmp_path, "pkg/util.py", (
            "def shared():\n"
            "    return 0\n"
        ))
        _write(tmp_path, "pkg/work.py", (
            "from pkg.util import shared\n"
            "def worker(payload):\n"
            "    return shared()\n"
            "register_function('work', worker)\n"
        ))
        state = CodebaseState.from_paths([tmp_path / "pkg"])
        assert "pkg.util/shared" in state.cacheable_reachable


class TestLockInventory:
    def test_lock_kinds(self, tmp_path):
        _write(tmp_path, "mod.py", (
            "import threading\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._state_lock = threading.RLock()\n"
            "        self._cond = threading.Condition()\n"
            "        self.data = []\n"
        ))
        state = CodebaseState.from_paths([tmp_path / "mod.py"])
        assert state.classes["mod/Box"].locks == {
            "_lock": "plain",
            "_state_lock": "reentrant",
            "_cond": "reentrant",
        }

    def test_enclosing_function_lookup(self, tmp_path):
        path = _write(tmp_path, "mod.py", (
            "def outer():\n"
            "    def inner():\n"
            "        return 1\n"
            "    return inner\n"
            "x = 2\n"
        ))
        state = CodebaseState.from_paths([path])
        file = state.files[0]
        assert state.enclosing_function(file, 3).qualname \
            == "mod/outer.inner"
        assert state.enclosing_function(file, 4).qualname == "mod/outer"
        assert state.enclosing_function(file, 5) is None


class TestRealTree:
    """The analyzer's view of src/repro itself (loose assertions: these
    pin the *discovery mechanisms* against the real tree, not exact
    counts)."""

    @pytest.fixture(scope="class")
    def state(self):
        return CodebaseState.from_paths([SRC])

    def test_finds_builtin_processor_kinds(self, state):
        kinds = set(state.implementations.values())
        assert {"constant", "identity", "distinct"} <= kinds

    def test_catalogue_lookup_opted_out(self, state):
        assert "catalogue_lookup" in state.opted_out_kinds
        cacheable_kinds = {
            state.implementations[q] for q in state.cacheable_reachable
            if q in state.implementations
        }
        assert "catalogue_lookup" not in cacheable_kinds

    def test_threaded_classes_have_locks(self, state):
        locked = {
            qualname.rsplit("/", 1)[-1]
            for qualname, klass in state.classes.items()
            if klass.locks
        }
        assert {"Database", "Memo", "Tracer"} <= locked

    def test_counter_literals_collected(self, state):
        assert "workflow_runs_total" in state.metrics_used
        assert state.has_report_module
