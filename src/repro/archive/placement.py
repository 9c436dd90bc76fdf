"""Geo-aware placement: which sites hold which fragments.

A :class:`PlacementPolicy` decides, per preservation level, *how* an
object is made redundant (full replicas vs erasure-coded shards, the
cost/durability trade) and *where* the fragments land:

* **spread across regions** — fragments round-robin the topology's
  regions before doubling up inside one, so a whole-region outage
  costs at most ``ceil(fragments / regions)`` fragments;
* **latency-weighted reads** — read plans order candidate sites by
  simulated latency, so a fetch touches the cheapest ``k`` (or 1)
  sites that can serve it;
* **rebuild on site loss** — given a dead site, the policy picks
  replacement sites (same spreading rule, excluding the dead one) for
  every fragment the site held.

The durability model is the standard independent-site-loss one, also
used by the DQM preservation report and pinned by the Monte-Carlo
differential suite: with per-site loss probability *p*,

* ``r`` full replicas survive unless all ``r`` sites die:
  ``1 - p^r``;
* a ``k``-of-``n`` erasure group survives while at least ``k`` shard
  sites live: ``Σ_{i=k}^{n} C(n,i) (1-p)^i p^(n-i)``.
"""

from __future__ import annotations

from math import comb
from typing import Any, Mapping, Sequence

from repro.archive.sites import Site, SiteTopology
from repro.core.preservation import PreservationLevel
from repro.errors import PlacementError

__all__ = ["RedundancyScheme", "PlacementPolicy", "replica_durability",
           "erasure_durability", "FULL_REPLICA", "ERASURE"]

FULL_REPLICA = "full_replica"
ERASURE = "erasure"


def replica_durability(site_loss_probability: float, copies: int) -> float:
    """P(object survives) with ``copies`` full replicas on independent
    sites each lost with ``site_loss_probability``."""
    p = _check_probability(site_loss_probability)
    if copies < 1:
        raise PlacementError(f"copies must be >= 1, got {copies}")
    return 1.0 - p ** copies


def erasure_durability(site_loss_probability: float, k: int,
                       n: int) -> float:
    """P(at least ``k`` of ``n`` shard sites survive) under independent
    loss with ``site_loss_probability``."""
    p = _check_probability(site_loss_probability)
    if not 1 <= k <= n:
        raise PlacementError(f"need 1 <= k <= n, got k={k}, n={n}")
    survive = 1.0 - p
    return sum(
        comb(n, i) * survive ** i * p ** (n - i)
        for i in range(k, n + 1)
    )


def _check_probability(p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise PlacementError(f"probability {p} outside [0, 1]")
    return float(p)


class RedundancyScheme:
    """How one object is made redundant: ``full_replica`` with
    ``copies`` sites, or ``erasure`` with ``k`` of ``n`` shards."""

    __slots__ = ("kind", "copies", "k", "n")

    def __init__(self, kind: str, copies: int = 3, k: int = 4,
                 n: int = 8) -> None:
        if kind not in (FULL_REPLICA, ERASURE):
            raise PlacementError(f"unknown redundancy kind {kind!r}")
        if kind == FULL_REPLICA and copies < 1:
            raise PlacementError(f"copies must be >= 1, got {copies}")
        if kind == ERASURE and not 1 <= k <= n:
            raise PlacementError(f"need 1 <= k <= n, got k={k}, n={n}")
        self.kind = kind
        self.copies = copies
        self.k = k
        self.n = n

    @property
    def fragments(self) -> int:
        """Sites one placement needs."""
        return self.copies if self.kind == FULL_REPLICA else self.n

    @property
    def read_fragments(self) -> int:
        """Fragments a read must gather."""
        return 1 if self.kind == FULL_REPLICA else self.k

    @property
    def overhead_factor(self) -> float:
        """Stored bytes per logical byte (asymptotically)."""
        return (float(self.copies) if self.kind == FULL_REPLICA
                else self.n / self.k)

    def durability(self, site_loss_probability: float) -> float:
        if self.kind == FULL_REPLICA:
            return replica_durability(site_loss_probability, self.copies)
        return erasure_durability(site_loss_probability, self.k, self.n)

    def __repr__(self) -> str:
        if self.kind == FULL_REPLICA:
            return f"RedundancyScheme(full_replica x{self.copies})"
        return f"RedundancyScheme(erasure {self.k}-of-{self.n})"

    def to_dict(self) -> dict[str, Any]:
        if self.kind == FULL_REPLICA:
            return {"kind": self.kind, "copies": self.copies}
        return {"kind": self.kind, "k": self.k, "n": self.n}

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "RedundancyScheme":
        return cls(str(document.get("kind", FULL_REPLICA)),
                   copies=int(document.get("copies", 3)),
                   k=int(document.get("k", 4)),
                   n=int(document.get("n", 8)))


#: default per-level schemes: the paper's lower levels are bulk/outreach
#: data where erasure's n/k overhead wins; the analysis/reproduction
#: levels keep whole copies so any single site can serve a full read.
_DEFAULT_LEVEL_SCHEMES: dict[int, RedundancyScheme] = {
    1: RedundancyScheme(ERASURE, k=4, n=8),
    2: RedundancyScheme(ERASURE, k=4, n=8),
    3: RedundancyScheme(FULL_REPLICA, copies=3),
    4: RedundancyScheme(FULL_REPLICA, copies=3),
}


class PlacementPolicy:
    """Per-level redundancy schemes + deterministic geo-aware site
    selection over a :class:`~repro.archive.sites.SiteTopology`."""

    def __init__(self,
                 level_schemes: Mapping[int, RedundancyScheme]
                 | None = None,
                 spread_regions: bool = True) -> None:
        self.level_schemes = {
            int(level): scheme
            for level, scheme in (level_schemes
                                  or _DEFAULT_LEVEL_SCHEMES).items()
        }
        self.spread_regions = spread_regions

    def __repr__(self) -> str:
        return f"PlacementPolicy({self.level_schemes})"

    def scheme_for_level(self, level: int) -> RedundancyScheme:
        level = int(PreservationLevel(level))
        try:
            return self.level_schemes[level]
        except KeyError:
            raise PlacementError(
                f"no redundancy scheme configured for level {level}"
            ) from None

    # ------------------------------------------------------------------
    # site selection
    # ------------------------------------------------------------------

    def choose_sites(self, topology: SiteTopology, count: int,
                     exclude: Sequence[str] = (),
                     prefer: Sequence[str] = ()) -> list[Site]:
        """``count`` distinct available sites, spread across regions.

        Selection is deterministic: regions in name order, sites within
        a region by (latency, name), fragments dealt round-robin across
        regions.  ``exclude`` skips sites (a dead site during rebuild);
        ``prefer`` pins specific sites to the front (keeping surviving
        placements where they already are).
        """
        excluded = set(exclude)
        candidates = [site for site in topology.available_sites()
                      if site.name not in excluded]
        if count > len(candidates):
            raise PlacementError(
                f"placement needs {count} sites, topology has "
                f"{len(candidates)} available"
                + (f" (excluding {sorted(excluded)})" if excluded else "")
            )
        chosen: list[Site] = []
        chosen_names: set[str] = set()
        for name in prefer:
            for site in candidates:
                if site.name == name and name not in chosen_names:
                    chosen.append(site)
                    chosen_names.add(name)
                    break
        if not self.spread_regions:
            for site in sorted(candidates,
                               key=lambda s: (s.latency_ms, s.name)):
                if len(chosen) >= count:
                    break
                if site.name not in chosen_names:
                    chosen.append(site)
                    chosen_names.add(site.name)
            return chosen[:count]

        by_region: dict[str, list[Site]] = {}
        for site in candidates:
            by_region.setdefault(site.region, []).append(site)
        for sites in by_region.values():
            sites.sort(key=lambda s: (s.latency_ms, s.name))
        regions = sorted(by_region)
        # round-robin the regions until enough fragments are placed
        cursor = {region: 0 for region in regions}
        while len(chosen) < count:
            progressed = False
            for region in regions:
                if len(chosen) >= count:
                    break
                sites = by_region[region]
                while cursor[region] < len(sites):
                    site = sites[cursor[region]]
                    cursor[region] += 1
                    if site.name not in chosen_names:
                        chosen.append(site)
                        chosen_names.add(site.name)
                        progressed = True
                        break
            if not progressed:
                break
        if len(chosen) < count:
            raise PlacementError(
                f"could not place {count} fragments on distinct sites "
                f"({len(chosen)} available after region spreading)"
            )
        return chosen

    def read_order(self, sites: Sequence[Site]) -> list[Site]:
        """Available sites cheapest-first (latency, then name)."""
        return sorted((site for site in sites if site.available),
                      key=lambda s: (s.latency_ms, s.name))
