"""Vault rules (VA0xx): defects in preservation-vault state.

Rules run on a :class:`VaultState` — a read-only snapshot of replica
health, quorum configuration and the object manifest, taken either
from a live :class:`~repro.archive.vault.PreservationVault` or from a
lint-bundle document.  This is the static half of the fixity story:
``repro vault audit`` finds damage by re-hashing every byte, the
linter finds the *structural* failures (quorum unreachable, manifest
pointing at nothing, an at-risk format nobody has migrated) without
touching a payload.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import Rule, rule
from repro.sounds.formats import SOUND_FORMATS

__all__ = ["VaultState"]

#: Default planning horizon, matching ``FormatMigrationPlanner.plan``.
DEFAULT_HORIZON_YEAR = 2014


class VaultState:
    """A read-only vault snapshot for the vault rules.

    Parameters
    ----------
    name:
        Vault identity.
    replicas:
        Configured member-store count.
    quorum:
        Verified copies a read needs.
    copies:
        ``{digest: intact replica count}`` for every known object.
    manifest:
        Manifest rows (dicts with ``object_id``, ``digest``, ``kind``,
        ``format``, ``source_digest``, ``superseded``).
    horizon_year:
        Planning horizon for the at-risk format rule.
    federation:
        Optional federation snapshot (``sites`` + ``objects`` with
        their placements) for the placement rules; ``None`` when the
        vault has no federated tier.
    """

    def __init__(self, name: str, replicas: int, quorum: int,
                 copies: Mapping[str, int],
                 manifest: list,
                 horizon_year: int = DEFAULT_HORIZON_YEAR,
                 federation: Mapping[str, Any] | None = None) -> None:
        self.name = name
        self.replicas = int(replicas)
        self.quorum = int(quorum)
        self.copies = dict(copies)
        self.manifest = [dict(row) for row in manifest]
        self.horizon_year = int(horizon_year)
        self.federation = dict(federation) if federation else None

    def __repr__(self) -> str:
        return (
            f"VaultState({self.name}, {self.replicas} replicas, "
            f"{len(self.copies)} objects)"
        )

    @classmethod
    def from_vault(cls, vault: Any) -> "VaultState":
        copies = {
            digest: len(vault.group.replica_status(digest).healthy_stores)
            for digest in vault.group.digests()
        }
        federation = getattr(vault, "federation", None)
        return cls(
            vault.name,
            len(vault.group.stores),
            vault.group.quorum,
            copies,
            vault.manifest(include_superseded=True),
            federation=(None if federation is None
                        else cls.federation_snapshot(federation)),
        )

    @staticmethod
    def federation_snapshot(federation: Any) -> dict[str, Any]:
        """A rule-friendly snapshot of a
        :class:`~repro.archive.federation.FederatedVault` (duck-typed,
        so the analysis layer never imports the archive)."""
        topology = federation.topology
        return {
            "sites": {
                site.name: {"region": site.region,
                            "available": site.available}
                for site in topology.sites()
            },
            "regions": topology.regions(),
            "objects": [
                {
                    "digest": record.digest,
                    "kind": record.scheme.kind,
                    "fragments_needed": record.scheme.fragments,
                    "read_fragments": record.scheme.read_fragments,
                    "placements": [
                        {"site": p.site, "role": p.role}
                        for p in record.placements
                    ],
                }
                for record in federation.objects()
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "VaultState":
        """Load from a lint-bundle ``vault`` document::

            {"name": "vault", "replicas": 3, "quorum": 2,
             "objects": [{"digest": "...", "copies": 3}, ...],
             "manifest": [...manifest rows...],
             "horizon_year": 2014}
        """
        copies = {
            str(entry.get("digest", "")): int(entry.get("copies", 0))
            for entry in data.get("objects", ())
        }
        return cls(
            str(data.get("name", "vault")),
            int(data.get("replicas", 1)),
            int(data.get("quorum", 1)),
            copies,
            list(data.get("manifest", ())),
            horizon_year=int(data.get("horizon_year",
                                      DEFAULT_HORIZON_YEAR)),
            federation=data.get("federation"),
        )

    # -- helpers used by the rules -------------------------------------

    def at_risk_formats(self) -> set[str]:
        return {era.name for era in SOUND_FORMATS
                if era.last_year < self.horizon_year}

    def migrated_sources(self) -> set[str]:
        """Digests some manifest row claims to be derived from."""
        return {
            str(row["source_digest"]) for row in self.manifest
            if row.get("source_digest")
        }

    def current_records(self) -> list[dict[str, Any]]:
        return [row for row in self.manifest
                if row.get("kind") == "record"
                and not row.get("superseded")]

    def federation_objects(self) -> list[dict[str, Any]]:
        if not self.federation:
            return []
        return list(self.federation.get("objects", ()))

    def federation_sites(self) -> dict[str, dict[str, Any]]:
        if not self.federation:
            return {}
        return dict(self.federation.get("sites", {}))

    def available_placements(self,
                             entry: Mapping[str, Any]) -> list[dict]:
        """An object's placements whose sites are currently up."""
        sites = self.federation_sites()
        return [
            dict(p) for p in entry.get("placements", ())
            if sites.get(str(p.get("site")), {}).get("available", False)
        ]


def _loc(state: VaultState, *parts: str) -> str:
    return "/".join((f"vault:{state.name}",) + parts)


def _short(digest: str) -> str:
    return digest[:12] + "…" if len(digest) > 12 else digest


@rule("VA001", "vault", "error",
      "object has fewer intact replicas than the read quorum")
def _below_quorum(self: Rule, state: VaultState,
                  context: dict) -> Iterator[Diagnostic]:
    for digest in sorted(state.copies):
        copies = state.copies[digest]
        if copies < state.quorum:
            yield self.emit(
                _loc(state, f"object:{_short(digest)}"),
                f"object {_short(digest)} has {copies} intact "
                f"replica(s); quorum is {state.quorum}",
                suggestion="run `repro vault audit` to repair from "
                "the surviving copies before another replica fails",
            )


@rule("VA002", "vault", "warning",
      "object in an at-risk format has no migration lineage")
def _at_risk_unmigrated(self: Rule, state: VaultState,
                        context: dict) -> Iterator[Diagnostic]:
    risky = state.at_risk_formats()
    sources = state.migrated_sources()
    for row in state.current_records():
        fmt = row.get("format")
        if fmt in risky and str(row.get("digest")) not in sources:
            yield self.emit(
                _loc(state, f"manifest:{row.get('object_id')}"),
                f"record {row.get('object_id')!r} is stored as {fmt} "
                f"(era closed before {state.horizon_year}) and no "
                "derivative references it",
                suggestion="run `repro vault migrate` to re-encode it "
                "with wasDerivedFrom lineage",
            )


@rule("VA003", "vault", "error",
      "manifest row references an object absent from every store")
def _manifest_drift(self: Rule, state: VaultState,
                    context: dict) -> Iterator[Diagnostic]:
    for row in state.manifest:
        digest = str(row.get("digest", ""))
        if digest and digest not in state.copies:
            yield self.emit(
                _loc(state, f"manifest:{row.get('object_id')}"),
                f"manifest row {row.get('object_id')!r} points at "
                f"{_short(digest)}, which no replica holds",
                suggestion="restore the object or retire the manifest "
                "row",
            )


@rule("VA004", "vault", "error",
      "quorum configuration can never be satisfied")
def _quorum_misconfigured(self: Rule, state: VaultState,
                          context: dict) -> Iterator[Diagnostic]:
    if state.quorum < 1 or state.quorum > state.replicas:
        yield self.emit(
            _loc(state),
            f"quorum {state.quorum} is outside [1, {state.replicas}] "
            f"for a {state.replicas}-replica group",
            suggestion="use a majority quorum "
            f"({state.replicas // 2 + 1} for {state.replicas} replicas)",
        )


@rule("VA005", "vault", "error",
      "federated object is unreadable: fewer available fragments "
      "than a read needs")
def _federation_unreadable(self: Rule, state: VaultState,
                           context: dict) -> Iterator[Diagnostic]:
    for entry in state.federation_objects():
        needed = int(entry.get("read_fragments", 1))
        up = len(state.available_placements(entry))
        if up < needed:
            digest = str(entry.get("digest", ""))
            yield self.emit(
                _loc(state, f"federation:{_short(digest)}"),
                f"object {_short(digest)} ({entry.get('kind')}) has "
                f"{up} fragment(s) on available sites; a read needs "
                f"{needed}",
                suggestion="recover the down sites, or run "
                "`repro vault rebuild <site>` while enough fragments "
                "survive",
            )


@rule("VA006", "vault", "warning",
      "federated object is under-placed: lost redundancy has not "
      "been rebuilt")
def _federation_under_placed(self: Rule, state: VaultState,
                             context: dict) -> Iterator[Diagnostic]:
    for entry in state.federation_objects():
        wanted = int(entry.get("fragments_needed", 1))
        up = len(state.available_placements(entry))
        needed = int(entry.get("read_fragments", 1))
        if needed <= up < wanted:
            digest = str(entry.get("digest", ""))
            yield self.emit(
                _loc(state, f"federation:{_short(digest)}"),
                f"object {_short(digest)} ({entry.get('kind')}) has "
                f"{up} of {wanted} fragments on available sites — "
                "still readable, but its durability budget is spent",
                suggestion="run `repro vault rebuild <site>` to "
                "re-materialize the lost fragments on healthy sites",
            )


@rule("VA007", "vault", "warning",
      "federated object's fragments are not spread across regions")
def _federation_region_concentrated(self: Rule, state: VaultState,
                                    context: dict) -> Iterator[Diagnostic]:
    if not state.federation:
        return
    regions_available = len(state.federation.get("regions", ()))
    if regions_available < 2:
        return
    sites = state.federation_sites()
    for entry in state.federation_objects():
        placements = list(entry.get("placements", ()))
        if len(placements) < 2:
            continue
        spanned = {
            str(sites.get(str(p.get("site")), {}).get("region", ""))
            for p in placements
        }
        if len(spanned) < 2:
            digest = str(entry.get("digest", ""))
            region = next(iter(spanned), "?")
            yield self.emit(
                _loc(state, f"federation:{_short(digest)}"),
                f"all {len(placements)} fragments of {_short(digest)} "
                f"sit in region {region!r}; one regional outage loses "
                "every copy at once",
                suggestion="re-place with a region-spreading policy "
                "(PlacementPolicy(spread_regions=True))",
            )
