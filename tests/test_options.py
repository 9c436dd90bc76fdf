"""Every option in ``src/repro`` is set by some caller.

A defaulted parameter that no call passes is a constant in disguise: its
default is the only value the code ever sees, and the branches it guards
never run. This scan collects every defaulted parameter of every
function, method and constructor in ``src/repro`` (and every defaulted
dataclass or NamedTuple field), then every call in ``src/``, ``tests/``,
``examples/`` and ``benchmarks/``, matched by name. A call sets a
parameter when it passes it by keyword or by position; ``cls(...)`` in a
classmethod and ``super().__init__(...)`` reach a constructor too, a call
to a subclass reaches the constructor it inherits, and a call with
``*args`` or ``**kwargs`` counts as setting everything. Names defined
more than once in ``src/repro`` are skipped: a call cannot tell them
apart.

Only ``ALLOWED_UNSET`` may stay unset: deployment settings, which say
where durable state lives, and the generator's calibration fields, which
describe the generated data rather than select a code path.
"""

import ast
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CALLER_TREES = ("src", "tests", "examples", "benchmarks")

ALLOWED_UNSET = {
    "ContentAddressedStore(database)",
    "QualityLedger(database)",
    "ObservationStore(database)",
    "WorkflowRepository(database)",
    "generate_museum_collection(database)",
    "PreservationVault(catalog_database)",
    *(f"CollectionConfig({name})" for name in (
        "first_year", "last_year", "gps_year", "as_of_year",
        "zipf_exponent", "missing_rates")),
    *(f"BackboneConfig({name})" for name in (
        "class_shares", "orders_per_class", "families_per_order",
        "genera_per_family")),
    *(f"Gazetteer({name})" for name in (
        "cities_per_country", "cities_per_state", "ambiguous_fraction")),
    "ClimateArchive(noise_amplitude_c)",
}


def _modules(tree: str):
    for path in sorted((REPO / tree).rglob("*.py")):
        yield ast.parse(path.read_text(encoding="utf-8"), str(path))


def _base_names(node: ast.ClassDef) -> list[str]:
    return [b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
            for b in node.bases]


def _decorators(node) -> set[str]:
    return {ast.unparse(d).split("(")[0].rsplit(".", 1)[-1]
            for d in node.decorator_list}


def _function_slots(fn, owner: str, bound: bool):
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args][bound:]
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
    slots = [(owner, name) for name in positional]
    keywords = {name: owner for name in positional}
    keywords.update({a.arg: owner for a in args.kwonlyargs})
    return slots, keywords, {(owner, name) for name in defaulted}


def _field_slots(node: ast.ClassDef, owner: str):
    slots, defaulted = [], set()
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and "ClassVar" not in ast.unparse(stmt.annotation)):
            continue
        value = stmt.value
        keywords = {k.arg: k.value for k in getattr(value, "keywords", ())}
        if (isinstance(value, ast.Call)
                and ast.unparse(value.func).endswith("field")):
            if ast.unparse(keywords.get("init", ast.Constant(True))) == "False":
                continue
            if not {"default", "default_factory"} & set(keywords):
                value = None
        slots.append((owner, stmt.target.id))
        if value is not None:
            defaulted.add((owner, stmt.target.id))
    return slots, {name: owner for owner, name in slots}, defaulted


def _definitions():
    """Simple name -> (positional slots, keyword owners), the defaulted
    ``(owner, parameter)`` pairs, and the names defined more than once."""
    classes, signatures, defaulted, counts = {}, {}, set(), Counter()

    def add(name, sig):
        signatures[name] = sig[:2]
        defaulted.update(sig[2])

    for module in _modules("src/repro"):
        for node in module.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                counts[node.name] += 1
                add(node.name, _function_slots(node, f"{node.name}()", False))
            elif isinstance(node, ast.ClassDef):
                counts[node.name] += 1
                classes[node.name] = node
    for name, node in classes.items():
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__":
                add(name, _function_slots(item, f"{name}()", True))
            elif not item.name.startswith("__"):
                counts[item.name] += 1
                add(item.name, _function_slots(
                    item, f"{name}.{item.name}()",
                    "staticmethod" not in _decorators(item)))

    def constructor(name):
        """Own ``__init__``; else the first known base's constructor
        followed by the class's own dataclass/NamedTuple fields."""
        if name in signatures or name not in classes:
            return signatures.get(name, ([], {}))
        node = classes[name]
        bases = [constructor(b) for b in _base_names(node) if b in classes]
        slots, keywords = (list(bases[0][0]), dict(bases[0][1])) \
            if bases else ([], {})
        if {"dataclass", "NamedTuple"} & (_decorators(node)
                                          | set(_base_names(node))):
            own_slots, own_keywords, own_defaulted = _field_slots(
                node, f"{name}()")
            slots += own_slots
            keywords.update(own_keywords)
            defaulted.update(own_defaulted)
        signatures[name] = (slots, keywords)
        return signatures[name]

    for name in classes:
        constructor(name)
    return signatures, defaulted, {n for n, c in counts.items() if c > 1}


def _callee(call: ast.Call, scope: list[ast.ClassDef],
            classmethod: bool) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "cls" and classmethod and scope:
            return scope[-1].name
        return func.id
    if not isinstance(func, ast.Attribute):
        return None
    if (func.attr == "__init__" and isinstance(func.value, ast.Call)
            and ast.unparse(func.value.func) == "super" and scope):
        return next(iter(_base_names(scope[-1])), None)
    return func.attr


def unset_options() -> set[str]:
    signatures, defaulted, ambiguous = _definitions()
    passed = set()

    def visit(node, scope, classmethod):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + [child], False)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope, "classmethod" in _decorators(child))
                continue
            if isinstance(child, ast.Call):
                name = _callee(child, scope, classmethod)
                if name in signatures and name not in ambiguous:
                    slots, keywords = signatures[name]
                    if (any(isinstance(a, ast.Starred) for a in child.args)
                            or any(k.arg is None for k in child.keywords)):
                        passed.update(slots)
                        passed.update((o, n) for n, o in keywords.items())
                    passed.update(slots[:len(child.args)])
                    passed.update((keywords[k.arg], k.arg)
                                  for k in child.keywords if k.arg in keywords)
            visit(child, scope, classmethod)

    for tree in CALLER_TREES:
        for module in _modules(tree):
            visit(module, [], False)
    return {f"{owner[:-1]}{name})" for owner, name in defaulted - passed
            if owner[:-2].rsplit(".", 1)[-1] not in ambiguous}


def test_every_option_is_set_by_some_caller():
    unset = unset_options()
    assert unset <= ALLOWED_UNSET, (
        "options no caller sets (make each a constant, or pass it): "
        + ", ".join(sorted(unset - ALLOWED_UNSET)))
