"""Workflow-Run RO-Crate export (Leo et al., "Recording provenance of
workflow runs with RO-Crate").

The provenance repository already speaks OPM internally; long-term
preservation also needs an *exchange* package other archives can read
without our code.  The Workflow Run RO-Crate profiles layer exactly
that over schema.org JSON-LD:

* the crate root is a ``Dataset`` conforming to the Process / Workflow
  / Provenance Run Crate profiles (v0.4),
* the workflow description is a ``ComputationalWorkflow`` with one
  ``HowToStep`` per processor,
* the run is a ``CreateAction`` (``instrument`` = the workflow) whose
  ``object`` / ``result`` lists are the run's input/output artifacts as
  ``PropertyValue`` entities, with one nested ``CreateAction`` per
  processor invocation,
* cache replays carry a ``cachedFrom`` term (declared in the local
  context) pointing at the originating action — a stub contextual
  entity when that run is outside this crate — so the
  ``wasCachedFrom`` chain survives the export and can be re-read by
  :func:`cached_actions`.

Everything is emitted with sorted keys and sorted entity ids, so the
export is byte-deterministic and golden-file testable.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import ReproError
from repro.provenance.repository import ProvenanceRepository

__all__ = [
    "PROFILE_IDS",
    "build_run_crate",
    "cached_actions",
    "crate_to_json",
    "validate_crate",
]

#: Workflow Run RO-Crate profile family (process ⊂ workflow ⊂ provenance).
PROFILE_IDS = (
    "https://w3id.org/ro/wfrun/process/0.4",
    "https://w3id.org/ro/wfrun/workflow/0.4",
    "https://w3id.org/ro/wfrun/provenance/0.4",
)

_RO_CRATE_CONTEXT = "https://w3id.org/ro/crate/1.1/context"

#: Local context extension: OPM's cache-replay edge has no schema.org
#: counterpart, so the term is declared explicitly instead of smuggled
#: through an unprefixed key.
_LOCAL_CONTEXT = {
    "cachedFrom": "https://w3id.org/repro/terms#wasCachedFrom",
}


def _artifact_entity(artifact_id: str, value: Any,
                     role: str | None) -> dict[str, Any]:
    entity: dict[str, Any] = {
        "@id": f"#artifact/{artifact_id}",
        "@type": "PropertyValue",
        "name": artifact_id,
    }
    if role:
        entity["exampleOfWork"] = role
    if value is not None:
        try:
            entity["value"] = json.loads(json.dumps(value, sort_keys=True))
        except (TypeError, ValueError):
            entity["value"] = repr(value)
    return entity


def _ref(entity_id: str) -> dict[str, str]:
    return {"@id": entity_id}


def _refs(ids: list[str]) -> list[dict[str, str]]:
    return [_ref(i) for i in sorted(set(ids))]


def build_run_crate(repository: ProvenanceRepository,
                    run_id: str) -> dict[str, Any]:
    """One run's provenance as a Workflow Run RO-Crate JSON-LD dict."""
    if not repository.has_run(run_id):
        raise ReproError(f"run {run_id!r} is not in the repository")
    trace = repository.trace_for(run_id)
    graph = repository.graph_for(run_id)
    workflow = repository.workflow_for(run_id)

    workflow_id = "#workflow"
    run_action_id = f"#run/{run_id}"
    entities: dict[str, dict[str, Any]] = {}

    def put(entity: dict[str, Any]) -> None:
        entities[entity["@id"]] = entity

    # --- the two mandatory structural entities -------------------------
    put({
        "@id": "ro-crate-metadata.json",
        "@type": "CreativeWork",
        "about": _ref("./"),
        "conformsTo": _ref("https://w3id.org/ro/crate/1.1"),
    })
    put({
        "@id": "./",
        "@type": "Dataset",
        "conformsTo": [_ref(p) for p in PROFILE_IDS],
        "datePublished": trace.started.isoformat(),
        "hasPart": [_ref(workflow_id)],
        "mainEntity": _ref(workflow_id),
        "mentions": _ref(run_action_id),
        "name": f"Workflow run {run_id}",
    })

    # --- the method: workflow + one step per processor -----------------
    step_ids: list[str] = []
    if workflow is not None:
        for proc_name in sorted(workflow.processors):
            proc = workflow.processor(proc_name)
            step_id = f"#step/{proc_name}"
            step_ids.append(step_id)
            put({
                "@id": step_id,
                "@type": "HowToStep",
                "name": proc_name,
                "description": f"{proc.kind} processor",
                "position": len(step_ids) - 1,
            })
    workflow_entity: dict[str, Any] = {
        "@id": workflow_id,
        "@type": ["SoftwareSourceCode", "ComputationalWorkflow", "HowTo"],
        "name": trace.workflow_name,
        "programmingLanguage": _ref("#repro-workflow-language"),
    }
    if step_ids:
        workflow_entity["step"] = _refs(step_ids)
    put(workflow_entity)
    put({
        "@id": "#repro-workflow-language",
        "@type": "ComputerLanguage",
        "name": "repro workflow DSL",
    })

    # --- artifacts crossing the workflow boundary ----------------------
    binding_role = {
        binding.artifact_id: f"{binding.processor}.{binding.port}"
        for binding in trace.bindings
    }
    binding_value = {
        binding.artifact_id: binding.value for binding in trace.bindings
    }
    for node in graph.nodes("artifact"):
        put(_artifact_entity(node.id, binding_value.get(node.id),
                             binding_role.get(node.id)))

    # --- the run and its per-processor actions -------------------------
    run_inputs: list[str] = []
    run_outputs: list[str] = []
    action_ids: list[str] = []
    for process in graph.nodes("process"):
        proc_name = process.label or process.id.rsplit("/", 1)[-1]
        action_id = f"#action/{process.id}"
        action_ids.append(action_id)
        uses = sorted(
            f"#artifact/{e.cause}" for e in graph.edges("used")
            if e.effect == process.id
        )
        makes = sorted(
            f"#artifact/{e.effect}" for e in graph.edges("wasGeneratedBy")
            if e.cause == process.id
        )
        run_inputs.extend(uses)
        run_outputs.extend(makes)
        action: dict[str, Any] = {
            "@id": action_id,
            "@type": "CreateAction",
            "name": proc_name,
            "instrument": _ref(f"#step/{proc_name}")
            if f"#step/{proc_name}" in entities else _ref(workflow_id),
        }
        proc_run = trace.run_for(proc_name)
        if proc_run is not None:
            action["startTime"] = proc_run.started.isoformat()
            action["endTime"] = proc_run.finished.isoformat()
            action["actionStatus"] = (
                "http://schema.org/CompletedActionStatus"
                if proc_run.status == "completed"
                else "http://schema.org/FailedActionStatus"
            )
            if proc_run.error:
                action["error"] = proc_run.error
        if uses:
            action["object"] = [_ref(i) for i in uses]
        if makes:
            action["result"] = [_ref(i) for i in makes]
        quality = process.annotations.get("quality")
        if quality:
            action["description"] = "quality: " + json.dumps(
                quality, sort_keys=True)
        cached_source = process.annotations.get("wasCachedFrom")
        if cached_source:
            source_action_id = f"#action/{cached_source}"
            action["cachedFrom"] = _ref(source_action_id)
            if source_action_id not in entities:
                # contextual stub: the originating run lives in another
                # crate; keep the chain resolvable without inlining it
                put({
                    "@id": source_action_id,
                    "@type": "CreateAction",
                    "name": cached_source,
                    "description": (
                        "stub reference: originating action recorded in "
                        f"the crate of run "
                        f"{cached_source.rsplit('/', 1)[0]!r}"
                    ),
                })
        put(action)

    run_action: dict[str, Any] = {
        "@id": run_action_id,
        "@type": "CreateAction",
        "name": f"Run {run_id} of {trace.workflow_name}",
        "instrument": _ref(workflow_id),
        "startTime": trace.started.isoformat(),
        "actionStatus": "http://schema.org/CompletedActionStatus"
        if trace.status in ("completed", "degraded")
        else "http://schema.org/FailedActionStatus",
    }
    if trace.finished is not None:
        run_action["endTime"] = trace.finished.isoformat()
    # the run "uses" only boundary inputs: artifacts consumed by some
    # processor but generated by none
    generated = {i for i in run_outputs}
    boundary_in = [i for i in run_inputs if i not in generated]
    if boundary_in:
        run_action["object"] = _refs(boundary_in)
    if run_outputs:
        run_action["result"] = _refs(run_outputs)
    agents = sorted(node.id for node in graph.nodes("agent"))
    if agents:
        run_action["agent"] = _ref(f"#agent/{agents[0]}")
        for agent_id in agents:
            put({
                "@id": f"#agent/{agent_id}",
                "@type": "SoftwareApplication",
                "name": agent_id,
            })
    if action_ids:
        run_action["hasPart"] = _refs(action_ids)
    put(run_action)

    ordered = [entities["ro-crate-metadata.json"], entities["./"]]
    ordered.extend(
        entities[key] for key in sorted(entities)
        if key not in ("ro-crate-metadata.json", "./")
    )
    return {
        "@context": [_RO_CRATE_CONTEXT, _LOCAL_CONTEXT],
        "@graph": ordered,
    }


def crate_to_json(crate: dict[str, Any]) -> str:
    return json.dumps(crate, indent=2, sort_keys=True)


def cached_actions(crate: dict[str, Any]) -> dict[str, str]:
    """``{action id: originating action id}`` for every cache replay in
    the crate — the round-trip read of the ``cachedFrom`` term."""
    chain: dict[str, str] = {}
    for entity in crate.get("@graph", []):
        target = entity.get("cachedFrom")
        if isinstance(target, dict) and "@id" in target:
            chain[entity["@id"]] = target["@id"]
    return chain


def validate_crate(crate: dict[str, Any]) -> list[str]:
    """Structural lint of a Workflow-Run RO-Crate.

    Checks the invariants the profile requires (and that downstream
    tooling trips over when they drift): the metadata descriptor and
    root dataset exist and point at each other, the root conforms to
    the wfrun profiles, the main workflow exists, every ``@id``
    reference resolves inside the crate, and every ``cachedFrom``
    target is a ``CreateAction``.  Returns problems (empty = valid).
    """
    problems: list[str] = []
    graph = crate.get("@graph")
    if not isinstance(graph, list) or not graph:
        return ["crate has no @graph entity list"]
    if "@context" not in crate:
        problems.append("crate has no @context")
    by_id: dict[str, dict[str, Any]] = {}
    for entity in graph:
        entity_id = entity.get("@id")
        if not entity_id:
            problems.append(f"entity without @id: {entity!r:.80}")
            continue
        if entity_id in by_id:
            problems.append(f"duplicate entity id {entity_id!r}")
        by_id[entity_id] = entity

    descriptor = by_id.get("ro-crate-metadata.json")
    if descriptor is None:
        problems.append("missing metadata descriptor ro-crate-metadata.json")
    elif descriptor.get("about", {}).get("@id") != "./":
        problems.append("metadata descriptor is not about the root dataset")
    root = by_id.get("./")
    if root is None:
        problems.append("missing root dataset ./")
    else:
        conforms = root.get("conformsTo", [])
        if isinstance(conforms, dict):
            conforms = [conforms]
        profile_ids = {c.get("@id") for c in conforms if isinstance(c, dict)}
        for profile in PROFILE_IDS:
            if profile not in profile_ids:
                problems.append(f"root dataset does not conform to {profile}")
        main = root.get("mainEntity", {})
        if main.get("@id") not in by_id:
            problems.append("root mainEntity does not resolve")

    def check_refs(entity_id: str, value: Any) -> None:
        if isinstance(value, dict):
            target = value.get("@id")
            if target is not None:
                if len(value) == 1 and target not in by_id \
                        and not target.startswith(("http://", "https://")):
                    problems.append(
                        f"{entity_id}: dangling reference to {target!r}")
                return
            for child in value.values():
                check_refs(entity_id, child)
        elif isinstance(value, list):
            for child in value:
                check_refs(entity_id, child)

    for entity_id, entity in by_id.items():
        for key, value in entity.items():
            if key in ("@id", "conformsTo"):
                continue
            check_refs(entity_id, value)
        target = entity.get("cachedFrom", {})
        if isinstance(target, dict) and "@id" in target:
            source = by_id.get(target["@id"])
            if source is not None:
                types = source.get("@type")
                types = types if isinstance(types, list) else [types]
                if "CreateAction" not in types:
                    problems.append(
                        f"{entity_id}: cachedFrom target "
                        f"{target['@id']!r} is not a CreateAction")
    return problems
