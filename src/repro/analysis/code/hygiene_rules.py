"""Hygiene rules (HY001-HY003): error handling and telemetry debt.

These rules read raw source lines as well as the AST, because the
evidence they weigh — justification comments next to an ``except`` or
a ``# noqa`` — lives outside the tree.  A suppression or a blanket
catch is acceptable *when it says why*; silent ones erode exactly the
auditability the provenance store exists to provide.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from typing import Iterator

from repro.analysis.code.model import CodebaseState
from repro.analysis.registry import rule

__all__: list[str] = []

#: Calls inside an except body that count as surfacing the failure.
_TELEMETRY_BASENAMES = {"inc", "record", "observe", "exception",
                        "warning", "error", "critical", "log", "event"}
_TELEMETRY_ROOT_HINTS = ("metrics", "telemetry", "events", "logger",
                         "logging", "stats")

_DIRECTIVE_RE = re.compile(
    r"(?P<directive>noqa|type:\s*ignore|pragma:\s*no\s*cover)"
    r"(?P<codes>:\s*[A-Za-z]{1,6}\d{1,4}(?:\s*,\s*[A-Za-z]{1,6}\d{1,4})*"
    r"|\[[^\]]*\])?",
)


def _strip_directives(comment: str) -> str:
    """Comment text with suppression directives (and their code lists)
    removed — what remains is the human justification, if any."""
    text = comment.lstrip("#").strip()
    return _DIRECTIVE_RE.sub("", text)


def _has_justification(comment: str) -> bool:
    remainder = _strip_directives(comment)
    return len(re.findall(r"\w", remainder)) >= 4


def _is_blanket(handler: ast.ExceptHandler) -> str | None:
    """The caught name when the handler is a blanket catch."""
    if handler.type is None:
        return "everything"
    names = []
    exprs = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    for expr in exprs:
        if isinstance(expr, ast.Name):
            names.append(expr.id)
    for name in names:
        if name in {"Exception", "BaseException"}:
            return name
    return None


def _mitigated(handler: ast.ExceptHandler) -> bool:
    """Does the handler re-raise or surface the failure to telemetry?"""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute):
            if node.func.attr in _TELEMETRY_BASENAMES:
                return True
            chain: list[str] = []
            current: ast.expr = node.func
            while isinstance(current, ast.Attribute):
                chain.insert(0, current.attr)
                current = current.value
            if isinstance(current, ast.Name):
                chain.insert(0, current.id)
            if any(part.startswith(_TELEMETRY_ROOT_HINTS)
                   for part in chain[:-1]):
                return True
    return False


@rule("HY001", "code", "warning",
      "blanket except without re-raise, telemetry, or justification")
def _hy001_blanket_except(rule_obj, state: CodebaseState,
                          context) -> Iterator:
    for file in state.files:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                caught = _is_blanket(handler)
                if caught is None:
                    continue
                comment = file.line(handler.lineno).partition("#")[2]
                if comment and _has_justification("#" + comment):
                    continue
                info = state.enclosing_function(file, handler.lineno)
                location = (state.location(info) if info is not None
                            else f"code:{file.module}")
                where = (f"{info.name!r}" if info is not None
                         else "module level")
                if _mitigated(handler):
                    yield rule_obj.emit(
                        location,
                        f"blanket 'except {caught}' in {where} surfaces "
                        "the failure but carries no justification "
                        "comment explaining why the catch must be this "
                        "broad",
                        suggestion="narrow to the concrete exception "
                                   "types, or add `# noqa: BLE001 - "
                                   "<reason>` on the except line",
                        severity="info",
                        source=file.display,
                        line=handler.lineno,
                    )
                else:
                    yield rule_obj.emit(
                        location,
                        f"blanket 'except {caught}' in {where} "
                        "swallows failures without re-raise or "
                        "telemetry — errors vanish with no trace in "
                        "the provenance record",
                        suggestion="re-raise a domain error, or record "
                                   "a telemetry counter before "
                                   "continuing",
                        source=file.display,
                        line=handler.lineno,
                    )


@rule("HY002", "code", "info",
      "telemetry metric family missing from the report catalog")
def _hy002_uncatalogued_metrics(rule_obj, state: CodebaseState,
                                context) -> Iterator:
    if not state.has_report_module:
        # analyzing a tree without the report module (a fixture, a
        # single file): there is no catalog to check against
        return
    for name in sorted(state.metrics_used):
        if name in state.documented_strings:
            continue
        sites = sorted(state.metrics_used[name])
        module, display, lineno = sites[0]
        yield rule_obj.emit(
            f"code:{module}",
            f"metric family {name!r} is recorded but not declared in "
            "the telemetry catalog, so the report has no row for it",
            suggestion="declare it in CATALOG in telemetry/report.py "
                       "(or drop it)",
            source=display,
            line=lineno,
        )


@rule("HY003", "code", "info",
      "suppression directive without a justification comment")
def _hy003_bare_suppressions(rule_obj, state: CodebaseState,
                             context) -> Iterator:
    for file in state.files:
        try:
            tokens = tokenize.generate_tokens(
                io.StringIO(file.text).readline)
            comments = [(token.start[0], token.string)
                        for token in tokens
                        if token.type == tokenize.COMMENT]
        except tokenize.TokenError:
            continue
        for lineno, comment in comments:
            stripped = comment.lstrip("#").strip()
            match = _DIRECTIVE_RE.match(stripped)
            if match is None:
                continue
            if _has_justification(comment):
                continue
            info = state.enclosing_function(file, lineno)
            location = (state.location(info) if info is not None
                        else f"code:{file.module}")
            directive = re.sub(r"\s+", " ", match.group("directive"))
            yield rule_obj.emit(
                location,
                f"'{directive}' suppression carries no justification "
                "— the next reader cannot tell whether the suppressed "
                "issue is impossible or merely ignored",
                suggestion="append `- <reason>` to the directive "
                           "comment, or fix the underlying issue",
                source=file.display,
                line=lineno,
            )
