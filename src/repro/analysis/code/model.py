"""The analyzed-codebase view the source-level rules run over.

:class:`CodebaseState` snapshots a set of parsed source files into
plain indices:

* every function/method with its lexical path and resolved call sites
  (a *static approximation*: plain names, ``self.method(...)``,
  imported names and ``Class(...)`` constructions resolve; attribute
  calls on arbitrary objects deliberately do not — under-approximating
  reachability keeps the determinism pass focused instead of flagging
  the whole tree);
* the processor-implementation roots the determinism pass starts from:
  functions passed to ``register_function(...)``, factory closures that
  ``return`` a nested ``run`` definition (the idiom of
  ``repro.workflow.builtins``), and the engine's worker entrypoint —
  split into *cacheable* roots (kinds never constructed with
  ``config={"cacheable": False}``, cf. ``workflow/engine.py``) and the
  wider *worker-executed* set;
* per-class lock inventories (``self._lock = threading.Lock()``-style
  assignments) for the lock-discipline pass;
* every literal telemetry metric family name for the hygiene pass.

Like every other analyzer subject, the state is a read-only snapshot:
rules observe it and never mutate the ASTs behind it (pinned by the
property tests).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.code.loader import ModuleLoader, SourceFile, default_loader

__all__ = ["CallSite", "FunctionInfo", "ClassInfo", "CodebaseState",
           "dotted_name", "iter_own_nodes"]


def iter_own_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """Every descendant of ``node`` except nested function/class
    bodies — those own their findings (they are separate
    :class:`FunctionInfo` entries)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            continue
        yield child
        yield from iter_own_nodes(child)

#: ``threading`` factories whose result counts as a lock attribute.
_LOCK_FACTORIES = {
    "threading.Lock": "plain",
    "threading.RLock": "reentrant",
    "threading.Condition": "reentrant",
    "threading.Semaphore": "plain",
    "threading.BoundedSemaphore": "plain",
}

#: Worker entrypoints: methods that run processor implementations on
#: pool threads (kept as suffix patterns so the engine can move files
#: without breaking the analyzer).
_WORKER_ENTRYPOINT_SUFFIXES = (
    "/WorkflowEngine._execute",
    "/WorkflowEngine._invoke",
)


def dotted_name(node: ast.AST, aliases: dict[str, str]) -> str:
    """Canonical dotted name of a ``Name``/``Attribute`` chain.

    The chain's head is substituted through the module's import
    aliases, so ``dt.now`` under ``from datetime import datetime as
    dt`` canonicalises to ``datetime.datetime.now``.  Chains rooted in
    anything but a plain name (a call result, a subscript) return
    ``""``.
    """
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.insert(0, current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return ""
    parts.insert(0, current.id)
    head = parts[0]
    if head in aliases:
        parts[0:1] = aliases[head].split(".")
    return ".".join(parts)


class CallSite:
    """One call expression inside a function."""

    __slots__ = ("node", "lineno", "kind", "name", "dotted", "targets")

    def __init__(self, node: ast.Call, kind: str, name: str,
                 dotted: str) -> None:
        self.node = node
        self.lineno = node.lineno
        self.kind = kind          # "name" | "self" | "attr" | "opaque"
        self.name = name          # basename of the callee
        self.dotted = dotted      # canonical dotted chain ("" if none)
        self.targets: tuple[str, ...] = ()  # resolved function qualnames

    def __repr__(self) -> str:
        return f"CallSite({self.dotted or self.name} @{self.lineno})"


class FunctionInfo:
    """One function or method definition."""

    __slots__ = ("qualname", "name", "file", "node", "defpath",
                 "class_qualname", "nested", "calls", "lineno")

    def __init__(self, file: SourceFile, node: ast.AST,
                 defpath: tuple[str, ...], class_qualname: str) -> None:
        self.file = file
        self.node = node
        self.defpath = defpath
        self.name = defpath[-1]
        self.qualname = f"{file.module}/{'.'.join(defpath)}"
        self.class_qualname = class_qualname
        self.nested: list[str] = []
        self.calls: list[CallSite] = []
        self.lineno = node.lineno

    def __repr__(self) -> str:
        return f"FunctionInfo({self.qualname})"


class ClassInfo:
    """One class definition, with its lock inventory."""

    __slots__ = ("qualname", "name", "file", "node", "methods",
                 "locks", "bases", "lineno")

    def __init__(self, file: SourceFile, node: ast.ClassDef,
                 defpath: tuple[str, ...]) -> None:
        self.file = file
        self.node = node
        self.name = node.name
        self.qualname = f"{file.module}/{'.'.join(defpath)}"
        self.methods: dict[str, str] = {}   # method name -> func qualname
        self.locks: dict[str, str] = {}     # attr -> "plain" | "reentrant"
        self.bases: list[str] = []          # dotted base names
        self.lineno = node.lineno

    def __repr__(self) -> str:
        return f"ClassInfo({self.qualname}, locks={sorted(self.locks)})"


class _Registration:
    """A processor registration observed somewhere in the tree."""

    __slots__ = ("kind", "target", "scope", "file")

    def __init__(self, kind: str | None, target: str,
                 scope: tuple[str, ...], file: SourceFile) -> None:
        self.kind = kind      # literal kind string, if any
        self.target = target  # bare name of the registered function
        self.scope = scope    # defpath of the registering call site
        self.file = file


class _FileIndex:
    """Everything one walk of one file contributes to the state."""

    def __init__(self, file: SourceFile) -> None:
        self.file = file
        self.aliases: dict[str, str] = {}
        self.functions: list[FunctionInfo] = []
        self.classes: list[ClassInfo] = []
        self.module_globals: set[str] = set()
        self.registrations: list[_Registration] = []
        self.factory_kinds: dict[str, str] = {}  # factory name -> kind
        self.opted_out_kinds: set[str] = set()
        self.metrics: list[tuple[str, int]] = []  # (family, lineno)


def _index_file(file: SourceFile) -> _FileIndex:
    index = _FileIndex(file)
    _walk(file.tree.body, (), None, None, index)
    return index


def _walk(statements: Iterable[ast.stmt], defpath: tuple[str, ...],
          function: FunctionInfo | None, klass: ClassInfo | None,
          index: _FileIndex) -> None:
    """Recursive indexing walk; ``function`` is the innermost enclosing
    function, ``klass`` the class whose ``self`` is in scope (passed
    through method bodies so lock assignments attribute correctly)."""
    for statement in statements:
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            _record_import(statement, index)
            continue
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            child_path = defpath + (statement.name,)
            immediate_class = (klass.qualname
                               if klass is not None
                               and defpath == tuple(
                                   klass.qualname.split("/", 1)[1].split("."))
                               else "")
            info = FunctionInfo(index.file, statement, child_path,
                                immediate_class)
            index.functions.append(info)
            if function is not None:
                function.nested.append(info.qualname)
            if immediate_class and klass is not None:
                klass.methods.setdefault(statement.name, info.qualname)
            for decorator in statement.decorator_list:
                _scan_node(decorator, function, index, defpath)
            _walk(statement.body, child_path, info, klass, index)
            continue
        if isinstance(statement, ast.ClassDef):
            child_path = defpath + (statement.name,)
            info = ClassInfo(index.file, statement, child_path)
            info.bases = [dotted_name(base, index.aliases)
                          for base in statement.bases]
            index.classes.append(info)
            _walk(statement.body, child_path, function, info, index)
            continue
        if not defpath and isinstance(statement, (ast.Assign, ast.AnnAssign)):
            _record_module_assignment(statement, index)
        if klass is not None and function is not None:
            _record_lock_assignment(statement, klass, index)
        _scan_node(statement, function, index, defpath)


def _record_import(statement: ast.stmt, index: _FileIndex) -> None:
    if isinstance(statement, ast.Import):
        for alias in statement.names:
            bound = alias.asname or alias.name.split(".", 1)[0]
            target = alias.name if alias.asname else bound
            index.aliases[bound] = target
    elif isinstance(statement, ast.ImportFrom):
        if statement.module is None or statement.level:
            return  # relative imports stay unresolved
        for alias in statement.names:
            bound = alias.asname or alias.name
            index.aliases[bound] = f"{statement.module}.{alias.name}"


def _record_module_assignment(statement: ast.stmt,
                              index: _FileIndex) -> None:
    targets = (statement.targets if isinstance(statement, ast.Assign)
               else [statement.target])
    for target in targets:
        if isinstance(target, ast.Name):
            index.module_globals.add(target.id)
    # dict-literal registration: {"kind": _factory, ...} at module level
    value = getattr(statement, "value", None)
    if isinstance(value, ast.Dict):
        for key, entry in zip(value.keys, value.values):
            if isinstance(key, ast.Constant) and isinstance(key.value, str) \
                    and isinstance(entry, ast.Name):
                index.factory_kinds.setdefault(entry.id, key.value)


def _record_lock_assignment(statement: ast.stmt, klass: ClassInfo,
                            index: _FileIndex) -> None:
    if not isinstance(statement, ast.Assign):
        return
    if not isinstance(statement.value, ast.Call):
        return
    factory = dotted_name(statement.value.func, index.aliases)
    lock_kind = _LOCK_FACTORIES.get(factory)
    if lock_kind is None:
        return
    for target in statement.targets:
        if isinstance(target, ast.Attribute) \
                and isinstance(target.value, ast.Name) \
                and target.value.id == "self":
            klass.locks[target.attr] = lock_kind


def _scan_node(node: ast.AST, function: FunctionInfo | None,
               index: _FileIndex, scope: tuple[str, ...]) -> None:
    """Record call sites/registrations below ``node``, stopping at
    nested def/class boundaries (those are walked separately and own
    their calls).  Handles every container shape — ``withitem``,
    ``ExceptHandler``, comprehensions, lambdas — via generic child
    iteration."""
    if isinstance(node, ast.Call):
        site = _call_site(node, index.aliases)
        if function is not None:
            function.calls.append(site)
        _record_registration(node, site, index, scope)
        _record_metric(node, site, index)
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            continue
        _scan_node(child, function, index, scope)


def _call_site(node: ast.Call, aliases: dict[str, str]) -> CallSite:
    func = node.func
    if isinstance(func, ast.Name):
        dotted = dotted_name(func, aliases)
        return CallSite(node, "name", func.id, dotted)
    if isinstance(func, ast.Attribute):
        dotted = dotted_name(func, aliases)
        if dotted.startswith("self.") and dotted.count(".") == 1:
            return CallSite(node, "self", func.attr, dotted)
        return CallSite(node, "attr", func.attr, dotted)
    return CallSite(node, "opaque", "", "")


def _record_registration(node: ast.Call, site: CallSite,
                         index: _FileIndex,
                         scope: tuple[str, ...]) -> None:
    if site.name == "register_function" and len(node.args) >= 2 \
            and isinstance(node.args[1], ast.Name):
        kind = None
        if isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str):
            kind = node.args[0].value
        index.registrations.append(_Registration(
            kind, node.args[1].id, scope, index.file))
    elif site.kind == "attr" and site.name == "register" \
            and len(node.args) >= 2 \
            and isinstance(node.args[0], ast.Constant) \
            and isinstance(node.args[0].value, str) \
            and isinstance(node.args[1], ast.Name):
        index.registrations.append(_Registration(
            node.args[0].value, node.args[1].id, scope, index.file))
    if site.name == "Processor":
        _record_processor_construction(node, index)


def _record_processor_construction(node: ast.Call,
                                   index: _FileIndex) -> None:
    kind: str | None = None
    if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant) \
            and isinstance(node.args[1].value, str):
        kind = node.args[1].value
    config: ast.expr | None = None
    for keyword in node.keywords:
        if keyword.arg == "kind" and isinstance(keyword.value, ast.Constant) \
                and isinstance(keyword.value.value, str):
            kind = keyword.value.value
        elif keyword.arg == "config":
            config = keyword.value
    if kind is None or not isinstance(config, ast.Dict):
        return
    for key, value in zip(config.keys, config.values):
        if isinstance(key, ast.Constant) and key.value == "cacheable" \
                and isinstance(value, ast.Constant) \
                and value.value is False:
            index.opted_out_kinds.add(kind)


#: ``MetricsRegistry`` accessors whose first argument names a family.
_METRIC_ACCESSORS = {"counter", "gauge", "histogram", "window"}


def _record_metric(node: ast.Call, site: CallSite,
                   index: _FileIndex) -> None:
    if site.kind != "attr" or site.name not in _METRIC_ACCESSORS:
        return
    if node.args and isinstance(node.args[0], ast.Constant) \
            and isinstance(node.args[0].value, str):
        index.metrics.append((node.args[0].value, node.lineno))


class CodebaseState:
    """Read-only snapshot of an analyzed source tree."""

    def __init__(self, files: list[SourceFile]) -> None:
        self.files = files
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.aliases: dict[str, dict[str, str]] = {}
        self.module_globals: dict[str, set[str]] = {}
        #: implementation qualname -> processor kind (or None if unknown)
        self.implementations: dict[str, str | None] = {}
        self.opted_out_kinds: set[str] = set()
        #: metric family -> list of (module, display, lineno) use sites
        self.metrics_used: dict[str, list[tuple[str, str, int]]] = {}
        #: string literals of ``telemetry.report``-style modules
        self.documented_strings: set[str] = set()
        self.has_report_module = False
        self.cacheable_reachable: set[str] = set()
        self.worker_reachable: set[str] = set()
        self.call_edges = 0
        self._build()

    # -- construction ---------------------------------------------------

    @classmethod
    def from_paths(cls, paths: Iterable[str],
                   loader: ModuleLoader | None = None,
                   display_root: str | None = None) -> "CodebaseState":
        loader = loader if loader is not None else default_loader()
        return cls(loader.load_paths(paths, display_root=display_root))

    def _build(self) -> None:
        indices = [_index_file(file) for file in self.files]
        registrations: list[_Registration] = []
        factory_kinds: dict[str, str] = {}
        for index in indices:
            module = index.file.module
            self.aliases[module] = index.aliases
            self.module_globals[module] = index.module_globals
            self.opted_out_kinds.update(index.opted_out_kinds)
            registrations.extend(index.registrations)
            for name, kind in index.factory_kinds.items():
                factory_kinds.setdefault(f"{module}/{name}", kind)
            for info in index.functions:
                self.functions[info.qualname] = info
            for info in index.classes:
                self.classes[info.qualname] = info
            for name, lineno in index.metrics:
                self.metrics_used.setdefault(name, []).append(
                    (module, index.file.display, lineno))
            if module.endswith("telemetry.report"):
                self.has_report_module = True
                for node in ast.walk(index.file.tree):
                    if isinstance(node, ast.Constant) \
                            and isinstance(node.value, str):
                        self.documented_strings.add(node.value)
        self._resolve_calls()
        self._collect_implementations(registrations, factory_kinds)
        self._compute_reachability()

    # -- call resolution ------------------------------------------------

    def _lookup_scoped(self, module: str, scope: tuple[str, ...],
                       name: str) -> str | None:
        """Resolve a bare name lexically: innermost enclosing scope
        first, then module level."""
        for depth in range(len(scope), -1, -1):
            prefix = ".".join(scope[:depth] + (name,))
            qualname = f"{module}/{prefix}"
            if qualname in self.functions or qualname in self.classes:
                return qualname
        return None

    def _resolve_symbol(self, module: str, scope: tuple[str, ...],
                        name: str) -> str | None:
        """A bare name to a function/class qualname (imports included)."""
        local = self._lookup_scoped(module, scope, name)
        if local is not None:
            return local
        target = self.aliases.get(module, {}).get(name)
        if target is None or "." not in target:
            return None
        target_module, symbol = target.rsplit(".", 1)
        qualname = f"{target_module}/{symbol}"
        if qualname in self.functions or qualname in self.classes:
            return qualname
        return None

    def _as_function_targets(self, qualname: str | None) -> tuple[str, ...]:
        if qualname is None:
            return ()
        if qualname in self.functions:
            return (qualname,)
        klass = self.classes.get(qualname)
        if klass is not None:
            init = klass.methods.get("__init__")
            if init is not None:
                return (init,)
        return ()

    def _method_in_hierarchy(self, klass: ClassInfo,
                             method: str) -> str | None:
        seen: set[str] = set()
        frontier = [klass]
        while frontier:
            current = frontier.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if method in current.methods:
                return current.methods[method]
            module = current.file.module
            for base in current.bases:
                if not base:
                    continue
                resolved = self._resolve_symbol(module, (), base.split(".")[0])
                if resolved is None and "." in base:
                    head, rest = base.split(".", 1)
                    target = self.aliases.get(module, {}).get(head, head)
                    resolved = f"{target}/{rest}" \
                        if f"{target}/{rest}" in self.classes else None
                base_class = self.classes.get(resolved) \
                    if resolved is not None else None
                if base_class is not None:
                    frontier.append(base_class)
        return None

    def _resolve_calls(self) -> None:
        for info in self.functions.values():
            module = info.file.module
            for site in info.calls:
                targets: tuple[str, ...] = ()
                if site.kind == "name":
                    targets = self._as_function_targets(
                        self._resolve_symbol(module, info.defpath, site.name))
                elif site.kind == "self" and info.class_qualname:
                    klass = self.classes.get(info.class_qualname)
                    if klass is not None:
                        found = self._method_in_hierarchy(klass, site.name)
                        if found is not None:
                            targets = (found,)
                elif site.kind == "attr" and site.dotted \
                        and not site.dotted.startswith("self."):
                    head, _, rest = site.dotted.partition(".")
                    resolved_head = self.aliases.get(module, {}).get(head)
                    if resolved_head and rest:
                        qualname = f"{resolved_head}/{rest}"
                        if qualname in self.functions:
                            targets = (qualname,)
                        elif qualname in self.classes:
                            targets = self._as_function_targets(qualname)
                        else:
                            parent, _, method = rest.rpartition(".")
                            class_qual = f"{resolved_head}/{parent}"
                            klass = self.classes.get(class_qual)
                            if klass is not None \
                                    and method in klass.methods:
                                targets = (klass.methods[method],)
                site.targets = targets
                self.call_edges += len(targets)

    # -- determinism roots ---------------------------------------------

    def _collect_implementations(self, registrations: list[_Registration],
                                 factory_kinds: dict[str, str]) -> None:
        # 1. explicit register_function / .register(kind, fn) calls
        for registration in registrations:
            module = registration.file.module
            qualname = self._lookup_scoped(module, registration.scope,
                                           registration.target)
            if qualname is None or qualname not in self.functions:
                continue
            kind = registration.kind
            implementation = self._factory_payload(qualname)
            if implementation is not None:
                # a factory was registered: the nested closure is the
                # worker-executed code
                self.implementations.setdefault(implementation, kind)
            else:
                self.implementations.setdefault(qualname, kind)
        # 2. the builtin idiom: module-level dict {"kind": _factory}
        for factory_qualname, kind in factory_kinds.items():
            implementation = self._factory_payload(factory_qualname)
            if implementation is not None:
                self.implementations.setdefault(implementation, kind)

    def _factory_payload(self, qualname: str) -> str | None:
        """The nested function a factory returns (``def run...; return
        run``), if this function follows the factory idiom."""
        info = self.functions.get(qualname)
        if info is None:
            return None
        nested_by_name = {
            self.functions[q].name: q for q in info.nested
            if q in self.functions
        }
        if not nested_by_name:
            return None
        for node in ast.walk(info.node):
            if isinstance(node, ast.Return) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in nested_by_name:
                return nested_by_name[node.value.id]
        return None

    def _compute_reachability(self) -> None:
        cacheable_roots = [
            qualname for qualname, kind in self.implementations.items()
            if kind is None or kind not in self.opted_out_kinds
        ]
        worker_roots = list(self.implementations)
        for qualname in self.functions:
            if qualname.endswith(_WORKER_ENTRYPOINT_SUFFIXES):
                worker_roots.append(qualname)
        self.cacheable_reachable = self._closure(cacheable_roots)
        self.worker_reachable = self._closure(worker_roots)

    def _closure(self, roots: Iterable[str]) -> set[str]:
        seen: set[str] = set()
        frontier = list(roots)
        while frontier:
            qualname = frontier.pop()
            if qualname in seen:
                continue
            seen.add(qualname)
            info = self.functions.get(qualname)
            if info is None:
                continue
            frontier.extend(info.nested)
            for site in info.calls:
                frontier.extend(site.targets)
        return seen

    # -- iteration helpers ---------------------------------------------

    def functions_in(self, qualnames: set[str]) -> Iterator[FunctionInfo]:
        """The named functions, in deterministic qualname order."""
        for qualname in sorted(qualnames):
            info = self.functions.get(qualname)
            if info is not None:
                yield info

    def sorted_functions(self) -> Iterator[FunctionInfo]:
        for qualname in sorted(self.functions):
            yield self.functions[qualname]

    def kind_of(self, qualname: str) -> str | None:
        return self.implementations.get(qualname)

    def enclosing_function(self, file: SourceFile,
                           lineno: int) -> FunctionInfo | None:
        """The innermost function containing ``lineno`` of ``file``
        (None for module-level code)."""
        best: FunctionInfo | None = None
        for info in self.functions.values():
            if info.file is not file:
                continue
            end = getattr(info.node, "end_lineno", None) or info.lineno
            if info.lineno <= lineno <= end:
                if best is None or info.lineno >= best.lineno:
                    best = info
        return best

    def location(self, info: FunctionInfo | ClassInfo) -> str:
        return f"code:{info.qualname}"

    def __repr__(self) -> str:
        return (f"CodebaseState({len(self.files)} files, "
                f"{len(self.functions)} functions, "
                f"{self.call_edges} call edges)")
