"""Command-line interface.

Installed as the ``repro`` console script::

    repro casestudy                 # the paper-scale reproduction
    repro detect --records 1000     # detection on a synthetic collection
    repro decay --start 1990 --end 2013 --period 2
    repro archive --level 3 --output package.json
    repro crossref --publications 60
    repro stats --records 1000      # run a workflow, print telemetry
    repro vault status --records 300 --level 3   # archive lifecycle
    repro provenance export --runs 3             # Workflow-Run RO-Crate
    repro provenance lineage --direction ancestors
    repro provenance stats --runs 5 --json

Every command is seeded and offline.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Provenance-based quality assessment for long-term "
            "preservation of scientific (meta)data (Sousa et al., "
            "ICDE 2014)."
        ),
    )
    parser.add_argument("--seed", type=int, default=2013,
                        help="master seed (default: 2013, the paper run)")
    commands = parser.add_subparsers(dest="command", required=True)

    casestudy = commands.add_parser(
        "casestudy", help="run the full FNJV case study (paper scale)")
    casestudy.add_argument("--full", action="store_true",
                           help="also run geocoding/enrichment/stage 2")

    detect = commands.add_parser(
        "detect", help="outdated-name detection on a synthetic collection")
    detect.add_argument("--records", type=int, default=1_000)
    detect.add_argument("--species", type=int, default=250)
    detect.add_argument("--outdated", type=int, default=20)
    detect.add_argument("--availability", type=float, default=0.9)

    decay = commands.add_parser(
        "decay", help="compare curation policies over evolving taxonomy")
    decay.add_argument("--start", type=int, default=1990)
    decay.add_argument("--end", type=int, default=2013)
    decay.add_argument("--period", type=int, default=2,
                       help="periodic curation interval in years")

    archive = commands.add_parser(
        "archive", help="build a Table-I preservation package")
    archive.add_argument("--level", type=int, choices=(1, 2, 3, 4),
                         default=2)
    archive.add_argument("--records", type=int, default=500)
    archive.add_argument("--output", type=str, default=None,
                         help="write the package JSON here")

    crossref = commands.add_parser(
        "crossref", help="Shadows-style cross-referencing demo")
    crossref.add_argument("--publications", type=int, default=60)

    commands.add_parser(
        "experiments",
        help="run the headline experiments and print pass/fail")

    publish = commands.add_parser(
        "publish", help="export a synthetic collection as Linked Data "
        "triples and/or CSV")
    publish.add_argument("--records", type=int, default=500)
    publish.add_argument("--triples", type=str, default=None,
                         help="write N-Triples here")
    publish.add_argument("--csv", type=str, default=None,
                         help="write the recordings table as CSV here")

    explain = commands.add_parser(
        "explain", help="show the cost-based query plan for a query "
        "over a synthetic collection")
    explain.add_argument("--records", type=int, default=2_000)
    explain.add_argument("--species", type=int, default=300)
    explain.add_argument("--eq", action="append", default=[],
                         metavar="COLUMN=VALUE",
                         help="equality condition (repeatable)")
    explain.add_argument("--between", action="append", default=[],
                         metavar="COLUMN:LOW:HIGH",
                         help="inclusive range condition (repeatable)")
    explain.add_argument("--in", action="append", default=[],
                         dest="in_lists", metavar="COLUMN:V1,V2,...",
                         help="IN-list condition (repeatable)")
    explain.add_argument("--order-by", type=str, default=None)
    explain.add_argument("--desc", action="store_true",
                         help="order descending")
    explain.add_argument("--limit", type=int, default=None)
    explain.add_argument("--analyze", action="store_true",
                         help="also execute the query and report "
                         "actual_rows")
    explain.add_argument("--table-stats", action="store_true",
                         help="include the table's index cardinality "
                         "statistics")

    provenance = commands.add_parser(
        "provenance", help="archival provenance store: export a "
        "Workflow-Run RO-Crate, run bounded lineage queries, or print "
        "store statistics")
    prov_commands = provenance.add_subparsers(dest="provenance_command",
                                              required=True)

    def _prov_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--records", type=int, default=200)
        sub.add_argument("--species", type=int, default=50)
        sub.add_argument("--runs", type=int, default=3,
                         help="workflow executions to archive; a shared "
                         "result cache makes later runs replay earlier "
                         "ones, so wasCachedFrom chains appear")

    p_export = prov_commands.add_parser(
        "export", help="export one run as a Workflow-Run RO-Crate "
        "(ro-crate-metadata.json)")
    _prov_common(p_export)
    p_export.add_argument("--run", type=str, default=None,
                          help="run id to export (default: latest)")
    p_export.add_argument("--output", type=str, default=None,
                          help="write the crate here instead of stdout")
    p_export.add_argument("--validate", action="store_true",
                          help="lint the crate structure and exit 1 on "
                          "problems")

    p_lineage = prov_commands.add_parser(
        "lineage", help="bounded-memory lineage query over the "
        "archival store")
    _prov_common(p_lineage)
    p_lineage.add_argument("--node", type=str, default=None,
                           help="artifact/process id (default: an "
                           "output artifact of the latest run)")
    p_lineage.add_argument("--direction",
                           choices=("ancestors", "descendants"),
                           default="ancestors")
    p_lineage.add_argument("--chain", action="store_true",
                           help="resolve the wasCachedFrom chain of a "
                           "process instead of a lineage closure")
    p_lineage.add_argument("--max-nodes", type=int, default=None,
                           help="traversal node budget")
    p_lineage.add_argument("--max-depth", type=int, default=None,
                           help="traversal depth budget")

    p_stats = prov_commands.add_parser(
        "stats", help="segment manifest, interning and memory "
        "statistics of the archival store")
    _prov_common(p_stats)
    p_stats.add_argument("--json", action="store_true",
                         help="emit raw JSON instead of text")

    stats = commands.add_parser(
        "stats", help="run the detection workflow with telemetry "
        "enabled and print the observability report")
    stats.add_argument("--records", type=int, default=1_000)
    stats.add_argument("--species", type=int, default=250)
    stats.add_argument("--outdated", type=int, default=20)
    stats.add_argument("--availability", type=float, default=0.9)
    stats.add_argument("--workers", type=int, default=1,
                       help="engine max_workers: wave-parallel processor "
                       "execution width (results are identical for "
                       "every value)")
    stats.add_argument("--warm-cache", action="store_true",
                       help="run the workflow twice sharing a result "
                       "cache, so the result cache hit/miss rows appear "
                       "in the report")
    stats.add_argument("--vault", action="store_true",
                       help="also exercise the preservation vault "
                       "(ingest, corrupt, audit, repair) so its "
                       "counters appear in the report")
    stats.add_argument("--service", action="store_true",
                       help="also run a multi-threaded tenant burst "
                       "through the repro.service façade (snapshot "
                       "queries, transactional ingest, admission "
                       "control) so the service panel appears")
    stats.add_argument("--tenants", type=int, default=4,
                       help="concurrent tenants in the --service burst")
    stats.add_argument("--stream", action="store_true",
                       help="also run a streaming-curation burst "
                       "(backpressured ingest + incremental dirty-shard "
                       "re-assessment) so the streaming panel appears")
    stats.add_argument("--json", action="store_true",
                       help="emit the raw snapshot as JSON instead of "
                       "the rendered panel")

    lint = commands.add_parser(
        "lint", help="static analysis: lint workflow/provenance/schema/"
        "vault documents and report diagnostics")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="JSON documents to lint (workflow, OPM graph "
                      "or composite bundle)")
    lint.add_argument("--demo", action="store_true",
                      help="lint a live synthetic world (workflow + "
                      "provenance + storage + vault) instead of files")
    lint.add_argument("--code", action="store_true",
                      help="treat PATHs as Python source files/"
                      "directories and run the source-code rules "
                      "(determinism, lock discipline, hygiene)")
    lint.add_argument("--format", choices=("text", "json"),
                      default="text", dest="output_format")
    lint.add_argument("--baseline", type=str, default=None,
                      help="suppression baseline file to apply")
    lint.add_argument("--write-baseline", type=str, default=None,
                      help="write current findings to this baseline "
                      "file and exit 0")
    lint.add_argument("--disable", action="append", default=[],
                      metavar="RULE", help="disable a rule id "
                      "(repeatable)")
    lint.add_argument("--rules", action="store_true",
                      help="print the rule catalog and exit")

    stream = commands.add_parser(
        "stream", help="streaming curation: backpressured ingest and "
        "dirty-set-proportional incremental re-assessment")
    stream_commands = stream.add_subparsers(dest="stream_command",
                                            required=True)

    def _stream_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--records", type=int, default=600,
                         help="records in the base collection")
        sub.add_argument("--species", type=int, default=120)
        sub.add_argument("--outdated", type=int, default=12)
        sub.add_argument("--shard-size", type=int, default=64,
                         help="records per assessment shard (the "
                         "dirty-set granularity)")

    s_ingest = stream_commands.add_parser(
        "ingest", help="stream a batch of new records through the "
        "backpressured buffer into the collection, then re-assess "
        "incrementally (only the dirty shards re-run)")
    _stream_common(s_ingest)
    s_ingest.add_argument("--arrivals", type=int, default=64,
                          help="new records to stream in")
    s_ingest.add_argument("--capacity", type=int, default=128,
                          help="stream buffer capacity")
    s_ingest.add_argument("--batch-size", type=int, default=32,
                          help="records per micro-batch flush")
    s_ingest.add_argument("--policy", choices=("block", "reject"),
                          default="block",
                          help="backpressure policy on a full buffer")

    s_status = stream_commands.add_parser(
        "status", help="assess a collection once, mutate a small "
        "fraction, re-assess, and print the dirty-set economics")
    _stream_common(s_status)
    s_status.add_argument("--churn", type=int, default=6,
                          help="records to mutate between sweeps")

    s_recheck = stream_commands.add_parser(
        "recheck", help="advance the catalogue (resource bump), drop "
        "only the tagged verdict cache entries, and show the recheck "
        "scheduler folding staleness/decay into a work queue")
    _stream_common(s_recheck)
    s_recheck.add_argument("--to-year", type=int, default=2015,
                           help="advance the catalogue to this year")

    vault = commands.add_parser(
        "vault", help="preservation vault: content-addressed, "
        "replicated, fixity-audited archive with format migration")
    vault_commands = vault.add_subparsers(dest="vault_command",
                                          required=True)

    def _vault_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--records", type=int, default=300)
        sub.add_argument("--level", type=int, choices=(1, 2, 3, 4),
                         default=3, help="Table I preservation level")
        sub.add_argument("--replicas", type=int, default=3)

    v_ingest = vault_commands.add_parser(
        "ingest", help="archive a synthetic collection at one level")
    _vault_common(v_ingest)

    v_audit = vault_commands.add_parser(
        "audit", help="ingest, optionally inject corruption, run a "
        "fixity sweep and auto-repair")
    _vault_common(v_audit)
    v_audit.add_argument("--corrupt", type=int, default=1,
                         help="replicas to corrupt before the sweep")
    v_audit.add_argument("--no-repair", action="store_true",
                         help="detect only; skip the repair pass")

    v_migrate = vault_commands.add_parser(
        "migrate", help="flag at-risk formats by era and migrate them")
    _vault_common(v_migrate)
    v_migrate.add_argument("--horizon", type=int, default=2014,
                           help="planning horizon year")
    v_migrate.add_argument("--target", type=str, default="WAV")

    v_status = vault_commands.add_parser(
        "status", help="run the full lifecycle (ingest, corrupt, "
        "audit, repair, migrate) and print vault status + telemetry")
    _vault_common(v_status)

    v_sites = vault_commands.add_parser(
        "sites", help="place a collection across the federated "
        "multi-site topology and print placements + the "
        "cost/durability trade per level")
    _vault_common(v_sites)

    v_sync = vault_commands.add_parser(
        "sync", help="inject silent bit rot on federated fragments, "
        "run a sampling scrub, then Merkle-sync and repair every site")
    _vault_common(v_sync)
    v_sync.add_argument("--corrupt", type=int, default=2,
                        help="fragments to silently rot before the scrub")

    v_rebuild = vault_commands.add_parser(
        "rebuild", help="lose one federated site and rebuild every "
        "fragment it held onto the survivors")
    _vault_common(v_rebuild)
    v_rebuild.add_argument("--site", type=str, default="sp-1",
                           help="site to fail (see `vault sites`)")

    return parser


def _small_world(seed: int, records: int, species: int, outdated: int):
    """A catalogue + collection sized for CLI experiments."""
    from repro.errors import ReproError
    from repro.sounds.generator import CollectionConfig, generate_collection
    from repro.taxonomy.backbone import BackboneConfig, build_backbone
    from repro.taxonomy.catalogue import CatalogueOfLife
    from repro.taxonomy.synonyms import generate_changes

    if records < species:
        raise ReproError(f"--records ({records}) must be at least "
                         f"--species ({species})")
    backbone = build_backbone(BackboneConfig(
        seed=seed, total_species=max(400, species * 2)))
    registry = generate_changes(backbone, yearly_rate=0.012, seed=seed)
    catalogue = CatalogueOfLife(backbone, registry, as_of_year=2013)
    collection, truth = generate_collection(catalogue, config=CollectionConfig(
        seed=seed, n_records=records, n_distinct_species=species,
        n_outdated_species=outdated))
    return catalogue, collection, truth


def _species_check_world(seed: int, records: int, species: int,
                         outdated: int, availability: float, **engine):
    """The species check over a :func:`_small_world`: the simulated
    Catalogue of Life service (``availability``) in front of the
    catalogue, and a checker whose engine gets ``engine``
    (``max_workers``, ``result_cache``).  Its ``provenance`` manager
    holds the runs."""
    from repro.curation.species_check import SpeciesNameChecker
    from repro.taxonomy.service import CatalogueService

    catalogue, collection, __ = _small_world(seed, records, species,
                                             outdated)
    service = CatalogueService(catalogue, availability=availability,
                               seed=seed)
    return SpeciesNameChecker(collection, service, **engine)


def _command_casestudy(args: argparse.Namespace) -> int:
    from repro.casestudy.fnjv import FNJVCaseStudy, PAPER_FIGURES
    from repro.casestudy.reporting import render_comparison

    study = FNJVCaseStudy(seed=args.seed)
    results = study.run(full_pipeline=args.full)
    print(results.check.render())
    print()
    print(results.quality.render())
    print()
    print(render_comparison(PAPER_FIGURES, results.measured_figures()))
    return 0


def _command_detect(args: argparse.Namespace) -> int:
    from repro.core.manager import DataQualityManager

    checker = _species_check_world(args.seed, args.records, args.species,
                                   args.outdated, args.availability)
    result = checker.run()
    print(result.render())
    print()
    manager = DataQualityManager(provenance=checker.provenance.repository)
    print(manager.assess_species_check_run(result.run_id).render())
    return 0


def _command_decay(args: argparse.Namespace) -> int:
    from repro.core.decay import DecaySimulator
    from repro.taxonomy.backbone import BackboneConfig, build_backbone
    from repro.taxonomy.catalogue import CatalogueOfLife
    from repro.taxonomy.synonyms import generate_changes

    backbone = build_backbone(BackboneConfig(seed=args.seed,
                                             total_species=600))
    registry = generate_changes(backbone, start_year=args.start,
                                end_year=args.end, yearly_rate=0.01,
                                seed=args.seed)
    catalogue = CatalogueOfLife(backbone, registry, as_of_year=args.end)
    names = catalogue.as_of(args.start).species_names()
    simulator = DecaySimulator(catalogue)
    comparison = simulator.compare_policies(
        names, args.start, args.end, period_years=args.period)
    print(f"{'year':<6}{'none':>10}{'one-shot':>12}{'periodic':>12}")
    none = comparison["none"]
    for index, year in enumerate(none.years):
        print(f"{year:<6}{none.accuracy[index]:>10.3f}"
              f"{comparison['one_shot'].accuracy[index]:>12.3f}"
              f"{comparison['periodic'].accuracy[index]:>12.3f}")
    return 0


def _command_archive(args: argparse.Namespace) -> int:
    from repro.core.preservation import PreservationLevel, archive_collection

    __, collection, __truth = _small_world(args.seed, args.records,
                                           max(50, args.records // 5), 5)
    package = archive_collection(collection,
                                 PreservationLevel(args.level))
    print(f"level {args.level} "
          f"({PreservationLevel(args.level).use_case}): "
          f"{package.size_bytes():,} bytes, components: "
          f"{', '.join(package.component_names())}")
    for question, answerable in package.capability_profile().items():
        marker = "yes" if answerable else " no"
        print(f"  [{marker}] {question}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(package.contents, handle, default=str)
        print(f"package written to {args.output}")
    return 0


def _command_crossref(args: argparse.Namespace) -> int:
    from repro.linkeddata.shadows import (
        CrossReferencer,
        generate_publications,
    )
    from repro.taxonomy.backbone import BackboneConfig, build_backbone
    from repro.taxonomy.catalogue import CatalogueOfLife
    from repro.taxonomy.synonyms import generate_changes

    backbone = build_backbone(BackboneConfig(seed=args.seed,
                                             total_species=400))
    registry = generate_changes(backbone, yearly_rate=0.015,
                                seed=args.seed)
    catalogue = CatalogueOfLife(backbone, registry, as_of_year=2013)
    publications = generate_publications(catalogue,
                                         count=args.publications,
                                         seed=args.seed)
    referencer = CrossReferencer(catalogue)
    dividend = referencer.curation_dividend(publications)
    print("cross-referencing publications (Shadows prototype)")
    for key, value in dividend.items():
        print(f"  {key:<24} {value}")
    for link in referencer.links(publications)[:5]:
        if link.via == "synonym":
            print(f"  e.g. {link.left.pub_id} ({link.left.year}, "
                  f"{link.left.community}) <-> {link.right.pub_id} "
                  f"({link.right.year}, {link.right.community}) "
                  f"via {link.taxon!r}")
            break
    return 0


def _command_experiments(args: argparse.Namespace) -> int:
    from repro.casestudy.experiments import run_all

    failures = 0
    for result in run_all():
        status = "PASS" if result["passed"] else "FAIL"
        if not result["passed"]:
            failures += 1
        print(f"[{status}] {result['id']} — {result['reproduces']}")
        print(f"       paper:    {result['paper']}")
        print(f"       measured: {result['measured']}")
    return 1 if failures else 0


def _command_publish(args: argparse.Namespace) -> int:
    from repro.linkeddata import publish_collection
    from repro.storage.csvio import export_csv

    __, collection, __truth = _small_world(
        args.seed, args.records, max(50, args.records // 5), 5)
    if not args.triples and not args.csv:
        print("nothing to do: pass --triples and/or --csv")
        return 1
    if args.triples:
        store = publish_collection(collection)
        with open(args.triples, "w", encoding="utf-8") as handle:
            handle.write(store.to_ntriples() + "\n")
        print(f"{len(store):,} triples written to {args.triples}")
    if args.csv:
        rows = export_csv(collection.database, "recordings", args.csv)
        print(f"{rows:,} rows written to {args.csv}")
    return 0


def _command_explain(args: argparse.Namespace) -> int:
    from repro.errors import StorageError
    from repro.storage.predicate import col

    __, collection, __truth = _small_world(
        args.seed, args.records, args.species, 10)
    database = collection.database
    table = database.table("recordings")

    def coerce(column: str, raw: str):
        column_type = table.schema.column(column).type
        try:
            return column_type.coerce(column_type.from_json(raw))
        except (TypeError, ValueError):
            return raw

    query = database.query("recordings")
    for spec in args.eq:
        column, sep, raw = spec.partition("=")
        if not sep:
            raise StorageError(f"--eq wants COLUMN=VALUE, got {spec!r}")
        query.where(col(column) == coerce(column, raw))
    for spec in args.between:
        parts = spec.split(":")
        if len(parts) != 3:
            raise StorageError(
                f"--between wants COLUMN:LOW:HIGH, got {spec!r}")
        column, low, high = parts
        query.where(col(column).between(coerce(column, low),
                                        coerce(column, high)))
    for spec in args.in_lists:
        column, sep, raw = spec.partition(":")
        if not sep:
            raise StorageError(f"--in wants COLUMN:V1,V2, got {spec!r}")
        query.where(col(column).in_(
            [coerce(column, value) for value in raw.split(",")]))
    if args.order_by:
        query.order_by(args.order_by, descending=args.desc)
    if args.limit is not None:
        query.limit(args.limit)
    plan = query.explain(analyze=args.analyze)
    if args.table_stats:
        plan["table_stats"] = table.stats()
    print(json.dumps(plan, indent=2, sort_keys=True, default=str))
    return 0


def _command_provenance(args: argparse.Namespace) -> int:
    from repro.workflow.cache import ResultCache

    # --runs executions of the species check sharing one result cache,
    # so replays land as wasCachedFrom chains in the store
    checker = _species_check_world(
        args.seed, args.records, args.species, max(5, args.records // 40),
        availability=0.95, result_cache=ResultCache())
    for __ in range(max(1, args.runs)):
        checker.run()
    repository = checker.provenance.repository
    store = repository.store
    run_ids = repository.run_ids()
    latest = run_ids[-1]

    if args.provenance_command == "export":
        from repro.linkeddata.rocrate import (
            build_run_crate,
            crate_to_json,
            validate_crate,
        )

        run_id = args.run or latest
        crate = build_run_crate(repository, run_id)
        if args.validate:
            problems = validate_crate(crate)
            for problem in problems:
                print(f"invalid: {problem}", file=sys.stderr)
            if problems:
                return 1
        rendered = crate_to_json(crate)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(rendered + "\n")
            print(f"crate for {run_id} written to {args.output} "
                  f"({len(crate['@graph'])} entities)")
        else:
            print(rendered)
        return 0

    if args.provenance_command == "lineage":
        from repro.provenance.store import TraversalBudget

        budget = TraversalBudget(
            max_nodes=args.max_nodes
            if args.max_nodes is not None else 100_000,
            max_depth=args.max_depth,
        )
        if args.chain:
            # the metadata reader is the one cacheable processor of the
            # species check, so its chain is the interesting default
            node = args.node or f"{latest}/FNJV_metadata_reader"
            result = store.cached_from_chain(node, budget=budget)
            print(json.dumps(result, indent=2, sort_keys=True))
            return 0
        node = args.node
        if node is None:
            graph = repository.graph_for(latest)
            node = [n.id for n in graph.nodes("artifact")][-1]
        query = (store.ancestors if args.direction == "ancestors"
                 else store.descendants)
        result = query(node, budget=budget)
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0

    # stats
    statistics = store.stats()
    if args.json:
        print(json.dumps(statistics, indent=2, sort_keys=True))
        return 0
    counts = store.manifest_counts()
    print(f"archival provenance store ({len(run_ids)} repository runs)")
    print("-" * 64)
    print(f"  runs archived {counts.get('runs_total', 0)} "
          f"({counts.get('runs_sealed', 0)} sealed, "
          f"{counts.get('runs_tail', 0)} in the active tail)")
    print(f"  sealed segments {counts.get('segments_sealed', 0)}, "
          f"interned strings {counts.get('pool_size', 0)}")
    print(f"  nodes {counts.get('nodes_total', 0)}, "
          f"edges {counts.get('edges_total', 0)}")
    print(f"  resident segment bytes {store.memory_bytes():,}")
    for segment in statistics["segments"]:
        state = "sealed" if segment["sealed"] else "tail"
        print(f"    {segment['segment_id']:<12}{state:<8}"
              f"{segment['runs']:>6} runs {segment['nodes']:>8} nodes "
              f"{segment['edges']:>8} edges")
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    from repro.core.manager import DataQualityManager
    from repro.telemetry import get_telemetry
    from repro.workflow.cache import ResultCache

    telemetry = get_telemetry()
    telemetry.reset()
    checker = _species_check_world(
        args.seed, args.records, args.species, args.outdated,
        args.availability, max_workers=args.workers,
        result_cache=ResultCache() if args.warm_cache else None)
    collection, provenance = checker.collection, checker.provenance
    result = checker.run()
    if args.warm_cache:
        # second pass over identical inputs: repeat invocations come
        # out of the result cache and show up in the report's hit rate
        result = checker.run()
    flagged = checker.updates(status="flagged")  # exercises the query path
    vault = None
    if args.vault:
        from repro.archive import PreservationVault
        from repro.core.preservation import PreservationLevel

        vault = PreservationVault(provenance=provenance.repository,
                                  telemetry=telemetry)
        vault.ingest(collection, PreservationLevel.ANALYSIS_LEVEL)
        vault.inject_corruption()
        vault.repair(vault.verify())
    if args.service:
        _stats_service_burst(collection.database, vault, telemetry,
                             tenants=max(1, args.tenants))
    if args.stream:
        _stats_stream_burst(checker.service.catalogue, collection,
                            telemetry, seed=args.seed)
    if args.json:
        print(json.dumps(telemetry.snapshot(), indent=2, sort_keys=True,
                         default=str))
        return 0
    print(f"run {result.run_id}: status={result.trace.status}, "
          f"{result.records_processed:,} records, "
          f"{result.outdated_names} outdated names, "
          f"{len(flagged)} updates flagged for review")
    # archive size comes from the store manifest — O(1), no run scan
    counts = provenance.repository.store.manifest_counts()
    print(f"provenance archive: {counts.get('runs_total', 0)} run(s), "
          f"{counts.get('segments_sealed', 0)} sealed segment(s) + "
          f"{counts.get('runs_tail', 0)} tail run(s), "
          f"{counts.get('nodes_total', 0)} nodes / "
          f"{counts.get('edges_total', 0)} edges")
    print()
    print(telemetry.render_report())
    print()
    manager = DataQualityManager(provenance=provenance.repository)
    print(manager.assess_operations(telemetry.snapshot()).render())
    return 0


def _stats_service_burst(database, vault, telemetry, tenants: int) -> None:
    """Drive a concurrent mixed-traffic burst through the service façade
    so the ``service_*`` panel has live numbers: each tenant thread
    interleaves snapshot queries, transactional ingests and (when a
    vault is attached) status probes."""
    from concurrent.futures import ThreadPoolExecutor

    from repro.service import PreservationService, ServiceConfig
    from repro.storage import Column, TableSchema
    from repro.storage import types as column_types

    database.create_table(TableSchema(
        "tenant_annotations", [
            Column("id", column_types.INTEGER),
            Column("tenant", column_types.TEXT, nullable=False),
            Column("note", column_types.TEXT),
        ], primary_key="id"))
    service = PreservationService(
        database, vault=vault,
        config=ServiceConfig(max_in_flight=max(2, tenants // 2),
                             max_queue_depth=tenants * 2,
                             simulated_io_seconds=0.001),
        telemetry=telemetry)

    def tenant_traffic(index: int) -> None:
        tenant = f"tenant-{index}"
        for turn in range(6):
            if turn % 3 == 2:
                service.ingest(tenant, "tenant_annotations", rows=[{
                    "id": index * 100 + turn,
                    "tenant": tenant,
                    "note": f"turn {turn}",
                }])
            elif vault is not None and turn % 3 == 1:
                service.vault_status(tenant)
            else:
                service.query(tenant, "recordings", limit=25)

    with ThreadPoolExecutor(max_workers=tenants) as pool:
        list(pool.map(tenant_traffic, range(tenants)))


def _stats_stream_burst(catalogue, collection, telemetry,
                        seed: int) -> None:
    """Drive a small streaming-curation burst so the ``streaming_*``
    panel has live numbers: full sweep, a streamed arrival batch
    (dirty shards only), and a catalogue bump (assessor stages only)."""
    import random

    from repro.curation.pipeline import CollectionSink
    from repro.streaming import IncrementalCurator, ObservationStream
    from repro.streaming.incremental import catalogue_resolver

    curator = IncrementalCurator(
        collection.database, catalogue_resolver(catalogue),
        shard_size=64, resource_versions={"catalogue": 2013},
        telemetry=telemetry)
    curator.assess()
    sink = CollectionSink(collection)
    stream = ObservationStream(
        sink, capacity=64, batch_size=16, telemetry=telemetry,
        source=collection.name,
        on_batch=lambda batch: curator.mark_dirty(sink.last_ids))
    rng = random.Random(seed)
    rows = list(collection.rows())
    arrivals = []
    for __ in range(32):
        row = dict(rng.choice(rows))
        row["record_id"] = None
        arrivals.append(row)
    stream.ingest(arrivals)
    curator.assess()
    catalogue.advance_to(2015)
    curator.bump_resource("catalogue", 2015)
    curator.assess()


def _command_stream(args: argparse.Namespace) -> int:
    from repro.curation.pipeline import CollectionSink
    from repro.streaming import (IncrementalCurator, ObservationStream,
                                 RecheckScheduler)
    from repro.streaming.incremental import catalogue_resolver
    from repro.telemetry import get_telemetry

    telemetry = get_telemetry()
    telemetry.reset()
    catalogue, collection, __ = _small_world(
        args.seed, args.records, args.species, args.outdated)
    curator = IncrementalCurator(
        collection.database, catalogue_resolver(catalogue),
        shard_size=args.shard_size,
        resource_versions={"catalogue": 2013}, telemetry=telemetry)

    cold = curator.assess()
    print(f"cold sweep: {cold.quality['records']:,} records in "
          f"{cold.quality['shards']} shard(s) — accuracy "
          f"{cold.quality['accuracy']:.3f}, "
          f"{len(cold.review)} review row(s)")

    if args.stream_command == "ingest":
        import random

        rng = random.Random(args.seed)
        rows = list(collection.rows())
        arrivals = []
        for __ in range(args.arrivals):
            row = dict(rng.choice(rows))
            row["record_id"] = None
            arrivals.append(row)
        sink = CollectionSink(collection)
        stream = ObservationStream(
            sink, capacity=args.capacity, batch_size=args.batch_size,
            policy=args.policy, telemetry=telemetry,
            source=collection.name,
            on_batch=lambda batch: curator.mark_dirty(sink.last_ids))
        landed = stream.ingest(arrivals)
        print(f"streamed {landed} arrival(s) in "
              f"{stream.stats()['batches']} micro-batch(es) "
              f"(policy={args.policy})")
        warm = curator.assess()
        print(f"incremental sweep: {warm.shards_recomputed} shard(s) "
              f"recomputed, {warm.shards_reused} reused — accuracy "
              f"{warm.quality['accuracy']:.3f}, "
              f"{len(warm.review)} review row(s)")
    elif args.stream_command == "status":
        from repro.storage import col

        rows = list(collection.rows())
        churn = rows[:: max(1, len(rows) // max(1, args.churn))][
            :args.churn]
        for row in churn:
            collection.database.update_where(
                "recordings", col("record_id") == row["record_id"],
                {"species": row["species"] + " (redet.)"})
        curator.mark_dirty([row["record_id"] for row in churn])
        warm = curator.assess()
        dirty_fraction = (warm.shards_recomputed
                          / max(1, warm.quality["shards"]))
        print(f"churned {len(churn)} record(s): "
              f"{warm.shards_recomputed}/{warm.quality['shards']} "
              f"shard(s) recomputed ({dirty_fraction:.0%}), "
              f"{warm.shards_reused} reused from the last sweep")
        print(f"curator: {curator.stats()['cache']}")
    else:  # recheck
        scheduler = RecheckScheduler(clock=curator.engine.clock,
                                     interval_seconds=7 * 24 * 3600,
                                     telemetry=telemetry)
        for shard in cold.shard_digests:
            scheduler.note_assessed(shard)
        catalogue.advance_to(args.to_year)
        dropped = curator.bump_resource("catalogue", args.to_year)
        warm = curator.assess()
        for shard in warm.shard_digests:
            scheduler.note_assessed(shard)
        curator.engine.clock.advance(8 * 24 * 3600)
        due = scheduler.due()
        print(f"catalogue 2013 -> {args.to_year}: dropped {dropped} "
              f"tagged verdict entr{'y' if dropped == 1 else 'ies'}, "
              f"re-resolved {warm.shards_recomputed} shard(s) "
              f"(reader stages replayed from cache)")
        print(f"accuracy now {warm.quality['accuracy']:.3f} "
              f"({warm.quality['outdated_records']} outdated, "
              f"{warm.quality['unresolved_records']} unresolved)")
        print(f"scheduler: {len(due)} subject(s) due after a quiet "
              f"week — e.g. {next(iter(due.items())) if due else '—'}")
    print()
    print(telemetry.render_report())
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        Analyzer,
        AnalysisReport,
        Baseline,
        default_registry,
    )
    from repro.errors import AnalysisError

    registry = default_registry().copy()
    if args.rules:
        for entry in registry.catalog():
            print(f"{entry['id']:<7}{entry['family']:<12}"
                  f"{entry['severity']:<9}{entry['summary']}")
        return 0
    for rule_id in args.disable:
        registry.disable(rule_id)
    baseline = Baseline.load(args.baseline) if args.baseline else None
    analyzer = Analyzer(registry=registry, baseline=baseline)

    report = AnalysisReport()
    if args.code:
        if args.demo:
            print("error: --code and --demo are mutually exclusive",
                  file=sys.stderr)
            return 2
        if not args.paths:
            print("nothing to lint: pass Python source PATHs with "
                  "--code", file=sys.stderr)
            return 2
        try:
            report.merge(analyzer.analyze_code(args.paths))
        except AnalysisError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    elif args.demo:
        report.merge(_lint_demo(analyzer, args.seed))
    elif not args.paths:
        print("nothing to lint: pass PATH arguments or --demo",
              file=sys.stderr)
        return 2
    if not args.code:
        for path in args.paths:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    document = json.load(handle)
            except (OSError, json.JSONDecodeError) as error:
                print(f"error: cannot read {path}: {error}",
                      file=sys.stderr)
                return 2
            try:
                report.merge(
                    analyzer.analyze_document(document, source=path))
            except AnalysisError as error:
                print(f"error: {path}: {error}", file=sys.stderr)
                return 2

    if args.write_baseline:
        Baseline.from_diagnostics(
            report.diagnostics).save(args.write_baseline)
        print(f"baseline with {len(report.diagnostics)} suppression(s) "
              f"written to {args.write_baseline}")
        return 0
    if args.output_format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return report.exit_code


def _lint_demo(analyzer, seed: int):
    """Lint a live synthetic world: workflow, provenance, db, vault."""
    from repro.archive import PreservationVault
    from repro.core.preservation import PreservationLevel
    from repro.curation.species_check import build_species_check_workflow

    checker = _species_check_world(seed, 200, 50, 5, availability=0.95)
    collection, provenance = checker.collection, checker.provenance
    checker.run()
    vault = PreservationVault(provenance=provenance.repository)
    vault.ingest(collection, PreservationLevel.ANALYSIS_LEVEL)

    report = analyzer.analyze_workflow(
        build_species_check_workflow(),
        processor_registry=checker.engine.registry)
    for run_id in provenance.repository.run_ids():
        report.merge(analyzer.analyze_graph(
            provenance.repository.graph_for(run_id)))
    report.merge(analyzer.analyze_storage(collection.database))
    report.merge(analyzer.analyze_vault(vault))
    report.merge(analyzer.analyze_store(provenance.repository.store))
    return report


def _demo_topology():
    """The CLI's stock federation: eight sites, four regions, realistic
    latency spread (the paper's FNJV collection lives in São Paulo)."""
    from repro.archive import Site, SiteTopology

    return SiteTopology([
        Site("sp-1", "southamerica", latency_ms=5),
        Site("sp-2", "southamerica", latency_ms=8),
        Site("rj-1", "southamerica-east", latency_ms=12),
        Site("rj-2", "southamerica-east", latency_ms=14),
        Site("us-1", "northamerica", latency_ms=60),
        Site("us-2", "northamerica", latency_ms=65),
        Site("eu-1", "europe", latency_ms=90),
        Site("eu-2", "europe", latency_ms=95),
    ])


def _command_vault(args: argparse.Namespace) -> int:
    from repro.archive import FederatedVault, PreservationVault
    from repro.core.preservation import PreservationLevel, PreservationPolicy
    from repro.telemetry import get_telemetry

    telemetry = get_telemetry()
    telemetry.reset()
    level = PreservationLevel(args.level)
    species = min(max(5, args.records // 5), args.records)
    __, collection, __truth = _small_world(
        args.seed, args.records, species, min(5, species))
    command = args.vault_command
    federated = command in ("sites", "sync", "rebuild")
    federation = (FederatedVault(_demo_topology(), telemetry=telemetry)
                  if federated else None)
    vault = PreservationVault(replicas=args.replicas, telemetry=telemetry,
                              federation=federation)

    ingest = vault.ingest(collection, level)
    print(f"ingested {ingest.records:,} records at level {int(level)} "
          f"({level.use_case}): {ingest.new_objects:,} objects, "
          f"{ingest.logical_bytes:,} bytes x{args.replicas} replicas, "
          f"package {ingest.package_digest[:12]}…")

    if command == "ingest":
        return 0

    if command == "sites":
        print(f"\nfederation: {len(federation.topology)} sites across "
              f"{len(federation.topology.regions())} regions, "
              f"{len(federation)} objects placed")
        for site in federation.topology.sites():
            print(f"  {site.name:<6} {site.region:<18} "
                  f"{site.latency_ms:>5g} ms  "
                  f"{len(site.store):>5,} fragments  "
                  f"root {site.manifest_root()[:12]}…")
        report = federation.durability_report()
        print(f"\ncost/durability at site-loss "
              f"p={report['site_loss_probability']}:")
        for lvl, entry in sorted(report["levels"].items()):
            scheme = entry["scheme"]
            label = (f"{scheme['copies']}x replicas"
                     if scheme["kind"] == "full_replica"
                     else f"erasure {scheme['k']}-of-{scheme['n']}")
            print(f"  level {lvl}: {label:<18} "
                  f"overhead x{entry['overhead_factor']:g}, "
                  f"durability {entry['durability']:.8f} "
                  f"(~{entry['equivalent_replica_copies']} replicas)")
        for kind, bucket in sorted(report["storage_cost"].items()):
            print(f"  {kind}: {bucket['logical_bytes']:,} logical bytes "
                  f"-> {bucket['stored_bytes']:,} fragment bytes "
                  f"(x{bucket['overhead_factor']:g})")
        return 0

    if command == "sync":
        victims = 0
        for record in federation.objects():
            if victims >= args.corrupt:
                break
            placement = record.placements[victims % len(record.placements)]
            federation.topology.site(placement.site).corrupt(
                placement.stored)
            victims += 1
        print(f"\nsilently rotted {victims} fragment(s)")
        audit = federation.audit_sample(sample_fraction=1.0)
        print(f"scrub {audit.run_id}: {audit.objects_scrubbed:,} "
              f"fragments re-hashed, {len(audit.findings)} rotten")
        sync = federation.sync()
        print(f"sync {sync.run_id}: {sync.nodes_compared} Merkle nodes "
              f"compared across {len(sync.sites_synced)} sites; "
              f"{len(sync.repaired)} fragment(s) repaired, "
              f"{len(sync.unrecoverable)} unrecoverable")
        verdict = federation.sync()
        print(f"re-sync {verdict.run_id}: "
              f"{'healthy' if verdict.healthy else 'STILL DIVERGED'}")
        print(f"provenance runs recorded: "
              f"{', '.join(federation.provenance.run_ids()) or 'none'}")
        print()
        print(telemetry.render_report())
        return 0

    if command == "rebuild":
        lost = args.site
        before = sum(
            len(record.placements_on(lost))
            for record in federation.objects())
        federation.topology.fail_site(lost)
        report = federation.rebuild_site(lost)
        print(f"\nlost site {lost} ({before} fragment(s) held); "
              f"rebuild {report.run_id}: {len(report.rebuilt)} rebuilt, "
              f"{len(report.unrecoverable)} unrecoverable")
        moved: dict[str, int] = {}
        for entry in report.rebuilt:
            moved[entry["to"]] = moved.get(entry["to"], 0) + 1
        for target in sorted(moved):
            print(f"  -> {target}: {moved[target]} fragment(s)")
        sample = federation.objects()[:3]
        for record in sample:
            federation.fetch(record.digest)
        print(f"spot-checked {len(sample)} object(s): all fetchable "
              f"without {lost}")
        print(f"provenance runs recorded: "
              f"{', '.join(federation.provenance.run_ids()) or 'none'}")
        print()
        print(telemetry.render_report())
        return 0

    if command in ("audit", "status"):
        corruptions = args.corrupt if command == "audit" else 1
        rows = vault.manifest(kind="record") or vault.manifest()
        for index in range(min(corruptions, len(rows))):
            vault.group.stores[index % args.replicas].corrupt(
                rows[index]["digest"])
        report = vault.verify()
        print(f"audit {report.run_id}: {report.objects_checked:,} objects, "
              f"{report.replicas_checked:,} replicas, "
              f"{report.bytes_audited:,} bytes; "
              f"{len(report.corrupt)} corrupt, "
              f"{len(report.missing)} missing")
        if not report.healthy and not getattr(args, "no_repair", False):
            repair = vault.repair(report)
            print(f"repair {repair.run_id}: "
                  f"{len(repair.actions)} replicas restored")
            verdict = vault.verify()
            print(f"re-audit {verdict.run_id}: "
                  f"{'healthy' if verdict.healthy else 'STILL DAMAGED'}")

    if command in ("migrate", "status"):
        horizon = getattr(args, "horizon", 2014)
        target = getattr(args, "target", "WAV")
        at_risk = vault.at_risk(horizon)
        print(f"{len(at_risk)} record objects in at-risk formats "
              f"(horizon {horizon})")
        report = vault.migrate(PreservationPolicy(level),
                               horizon_year=horizon, target_format=target)
        print(f"migration {report.run_id}: {len(report.migrations)} "
              f"payloads re-encoded to {target}")
        for migration in report.migrations[:3]:
            print(f"  {migration['object_id']}: "
                  f"{migration['from_format']} -> {migration['to_format']}"
                  f" ({migration['source_digest'][:12]}… -> "
                  f"{migration['derived_digest'][:12]}…)")

    if command == "status":
        print()
        print(json.dumps(vault.status(), indent=2, sort_keys=True,
                         default=str))
        print()
        print(telemetry.render_report())
    else:
        print(f"provenance runs recorded: "
              f"{', '.join(vault.provenance.run_ids()) or 'none'}")
    return 0


_COMMANDS = {
    "casestudy": _command_casestudy,
    "detect": _command_detect,
    "decay": _command_decay,
    "archive": _command_archive,
    "crossref": _command_crossref,
    "experiments": _command_experiments,
    "explain": _command_explain,
    "lint": _command_lint,
    "provenance": _command_provenance,
    "publish": _command_publish,
    "stats": _command_stats,
    "stream": _command_stream,
    "vault": _command_vault,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; a :class:`~repro.errors.ReproError` (bad input,
    a refused migration) ends in one ``repro: error:`` line on stderr
    and exit status 2, like an argument error."""
    from repro.errors import ReproError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        parser.exit(2, f"{parser.prog}: error: {error}\n")


if __name__ == "__main__":
    sys.exit(main())
