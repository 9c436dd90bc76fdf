"""Workflow rules (WF0xx): static defects in workflow definitions.

These run on a plain :class:`~repro.workflow.model.Workflow` — no
engine, no registry resolution, no execution.  They deliberately
overlap ``Workflow.validate()`` (cycles, fan-in, dangling links): the
linter must be able to describe *every* defect of a statically loaded
document, while ``validate`` stops at the first and only covers what
would break execution.

Context keys
------------
``registry``
    A :class:`~repro.workflow.model.ProcessorRegistry` (or ``None`` to
    skip kind checking).  Defaults to the builtin registry.
``dimensions``
    The set of declared quality-dimension names (defaults to the
    standard registry's).
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import Rule, rule
from repro.workflow.model import Workflow

__all__ = ["workflow_context"]


def workflow_context(processor_registry=None) -> dict:
    """Build the context dict the workflow rules read: the processor
    registry (the builtins by default) and the standard dimensions."""
    from repro.core.dimensions import standard_registry

    if processor_registry is None:
        from repro.workflow.builtins import builtin_registry
        processor_registry = builtin_registry()
    return {"registry": processor_registry,
            "dimensions": set(standard_registry().names())}


def _loc(workflow: Workflow, *parts: str) -> str:
    return "/".join((f"workflow:{workflow.name}",) + parts)


def _known_endpoints(workflow: Workflow, link) -> bool:
    """True when both link endpoints name known processors (or IO)."""
    return (
        (link.source == Workflow.IO or link.source in workflow.processors)
        and (link.sink == Workflow.IO or link.sink in workflow.processors)
    )


def _successors(workflow: Workflow) -> dict[str, set[str]]:
    """processor -> downstream processors (IO and dangling links skipped)."""
    result: dict[str, set[str]] = {name: set() for name in workflow.processors}
    for link in workflow.links:
        if link.source == Workflow.IO or link.sink == Workflow.IO:
            continue
        if not _known_endpoints(workflow, link):
            continue
        result[link.source].add(link.sink)
    return result


def _reach(start: set[str], edges: dict[str, set[str]]) -> set[str]:
    seen = set(start)
    frontier = list(start)
    while frontier:
        current = frontier.pop()
        for neighbour in edges.get(current, ()):
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return seen


@rule("WF001", "workflow", "warning",
      "processor unreachable from any workflow input or source")
def _unreachable_processor(self: Rule, workflow: Workflow,
                           context: dict) -> Iterator[Diagnostic]:
    fed_from_io = {
        link.sink for link in workflow.links
        if link.source == Workflow.IO and link.sink in workflow.processors
    }
    has_incoming = {
        link.sink for link in workflow.links
        if link.sink in workflow.processors
        and (link.source == Workflow.IO or link.source in workflow.processors)
    }
    sources = set(workflow.processors) - has_incoming
    reachable = _reach(fed_from_io | sources, _successors(workflow))
    for name in sorted(set(workflow.processors) - reachable):
        yield self.emit(
            _loc(workflow, f"processor:{name}"),
            f"processor {name!r} is unreachable from every workflow "
            "input and source",
            suggestion="wire an input into it or remove it",
        )


@rule("WF002", "workflow", "warning",
      "output port feeds neither a processor nor a workflow output")
def _dead_end_output(self: Rule, workflow: Workflow,
                     context: dict) -> Iterator[Diagnostic]:
    consumed = {(link.source, link.source_port) for link in workflow.links}
    for processor in workflow.processors.values():
        for port in processor.output_ports.values():
            if (processor.name, port.name) not in consumed:
                yield self.emit(
                    _loc(workflow,
                         f"processor:{processor.name}",
                         f"output:{port.name}"),
                    f"output port {processor.name}.{port.name} feeds "
                    "nothing",
                    suggestion="link it onward, map it to a workflow "
                    "output, or drop the port",
                )


@rule("WF003", "workflow", "warning",
      "workflow input never influences any workflow output")
def _unused_workflow_input(self: Rule, workflow: Workflow,
                           context: dict) -> Iterator[Diagnostic]:
    output_sources = {
        link.source for link in workflow.links
        if link.sink == Workflow.IO and link.source in workflow.processors
    }
    if not output_sources:
        return  # no outputs at all: nothing can be "unused relative to them"
    predecessors: dict[str, set[str]] = {}
    for source, sinks in _successors(workflow).items():
        for sink in sinks:
            predecessors.setdefault(sink, set()).add(source)
    contributing = _reach(output_sources, predecessors)
    for port in workflow.input_names():
        sinks = {
            link.sink for link in workflow.links
            if link.source == Workflow.IO and link.source_port == port
            and link.sink in workflow.processors
        }
        if sinks and not (sinks & contributing):
            yield self.emit(
                _loc(workflow, f"input:{port}"),
                f"workflow input {port!r} feeds only processors that "
                "never reach a workflow output",
                suggestion="connect its consumers to an output or "
                "remove the input",
            )


@rule("WF004", "workflow", "warning",
      "input port fed by more than one link")
def _duplicate_fan_in(self: Rule, workflow: Workflow,
                      context: dict) -> Iterator[Diagnostic]:
    fan_in: dict[tuple[str, str], list] = {}
    for link in workflow.links:
        if link.sink == Workflow.IO:
            continue
        fan_in.setdefault((link.sink, link.sink_port), []).append(link)
    for (sink, port), links in sorted(fan_in.items()):
        if len(links) < 2:
            continue
        distinct = {(link.source, link.source_port) for link in links}
        location = _loc(workflow, f"processor:{sink}", f"input:{port}")
        if len(distinct) == 1:
            yield self.emit(
                location,
                f"input port {sink}.{port} is fed by {len(links)} "
                "identical links",
                suggestion="drop the duplicate links",
            )
        else:
            feeders = ", ".join(
                f"{source}.{source_port}"
                for source, source_port in sorted(distinct)
            )
            yield self.emit(
                location,
                f"input port {sink}.{port} is fed by conflicting links "
                f"({feeders})",
                suggestion="keep exactly one feeder per input port",
                severity="error",
            )


@rule("WF005", "workflow", "info",
      "processor carries no quality annotation on any declared dimension")
def _missing_quality(self: Rule, workflow: Workflow,
                     context: dict) -> Iterator[Diagnostic]:
    dimensions = context.get("dimensions") or set()
    for processor in workflow.processors.values():
        covered = set(processor.quality) & dimensions
        if not covered:
            yield self.emit(
                _loc(workflow, f"processor:{processor.name}"),
                f"processor {processor.name!r} has no Q(...) coverage "
                "on any declared quality dimension",
                suggestion="let the Workflow Adapter attach e.g. "
                "Q(reliability)/Q(availability) annotations",
            )


@rule("WF006", "workflow", "error",
      "processor kind unknown to the processor registry")
def _unknown_kind(self: Rule, workflow: Workflow,
                  context: dict) -> Iterator[Diagnostic]:
    registry = context.get("registry")
    if registry is None:
        return
    known = set(registry.kinds())
    for processor in workflow.processors.values():
        if processor.kind not in known:
            yield self.emit(
                _loc(workflow, f"processor:{processor.name}"),
                f"processor {processor.name!r} has kind "
                f"{processor.kind!r}, which no registry implements",
                suggestion="register the kind or fix the typo",
            )


@rule("WF007", "workflow", "warning",
      "quality annotation names an undeclared dimension")
def _unknown_dimension(self: Rule, workflow: Workflow,
                       context: dict) -> Iterator[Diagnostic]:
    dimensions = context.get("dimensions")
    if not dimensions:
        return
    carriers = [(f"processor:{p.name}", p.quality)
                for p in workflow.processors.values()]
    carriers.append(("annotations", workflow.quality))
    for where, quality in carriers:
        for dimension in quality:
            if dimension not in dimensions:
                yield self.emit(
                    _loc(workflow, where),
                    f"Q({dimension}) is not a declared quality "
                    "dimension",
                    suggestion="register the dimension or fix the "
                    "annotation",
                )


@rule("WF008", "workflow", "error",
      "link endpoint names a processor absent from the workflow")
def _dangling_link(self: Rule, workflow: Workflow,
                   context: dict) -> Iterator[Diagnostic]:
    for index, link in enumerate(workflow.links):
        for end, name in (("source", link.source), ("sink", link.sink)):
            if name != Workflow.IO and name not in workflow.processors:
                yield self.emit(
                    _loc(workflow, f"link:{index}"),
                    f"link {end} {name!r} is not a processor of this "
                    "workflow",
                    suggestion="add the processor or remove the link",
                )


@rule("WF009", "workflow", "error",
      "link references a port its processor does not declare")
def _unknown_port(self: Rule, workflow: Workflow,
                  context: dict) -> Iterator[Diagnostic]:
    for index, link in enumerate(workflow.links):
        if link.source in workflow.processors:
            ports = workflow.processors[link.source].output_ports
            if link.source_port not in ports:
                yield self.emit(
                    _loc(workflow, f"link:{index}"),
                    f"{link.source!r} has no output port "
                    f"{link.source_port!r}",
                    suggestion="declare the port or fix the link",
                )
        if link.sink in workflow.processors:
            ports_in = workflow.processors[link.sink].input_ports
            if link.sink_port not in ports_in:
                yield self.emit(
                    _loc(workflow, f"link:{index}"),
                    f"{link.sink!r} has no input port "
                    f"{link.sink_port!r}",
                    suggestion="declare the port or fix the link",
                )


@rule("WF010", "workflow", "error", "workflow dataflow contains a cycle")
def _workflow_cycle(self: Rule, workflow: Workflow,
                    context: dict) -> Iterator[Diagnostic]:
    edges = _successors(workflow)
    indegree = {name: 0 for name in workflow.processors}
    for sinks in edges.values():
        for sink in sinks:
            indegree[sink] += 1
    ready = [name for name, degree in indegree.items() if degree == 0]
    visited = 0
    while ready:
        current = ready.pop()
        visited += 1
        for sink in edges[current]:
            indegree[sink] -= 1
            if indegree[sink] == 0:
                ready.append(sink)
    if visited != len(workflow.processors):
        cyclic = sorted(
            name for name, degree in indegree.items() if degree > 0
        )
        yield self.emit(
            _loc(workflow),
            f"dataflow cycle involving {', '.join(cyclic)}",
            suggestion="break the cycle; workflows must be DAGs",
        )
