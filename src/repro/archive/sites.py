"""Simulated multi-site topology for the federated vault.

A :class:`Site` is one storage location: a
:class:`~repro.archive.cas.ContentAddressedStore` plus the operational
profile a placement policy cares about — a **region** tag (geo
spreading), a simulated **read latency** (latency-weighted reads), and
an **availability** switch (outage drills).  Latency is simulated the
same way the replica group simulates backoff: accounted, never slept,
so tests stay fast and deterministic.

Every site also maintains a :class:`~repro.archive.merkle.MerkleManifest`
of what it believes it holds — leaf state equals the object digest
while the copy is healthy.  Writes through the site API keep the
manifest current in O(depth); *silent* corruption
(:meth:`Site.corrupt`, the bit-rot injection hook) deliberately does
not, which is exactly the gap the sampling scrubber
(:meth:`Site.scrub`) closes: it re-hashes stored payloads, updates the
manifest leaves for anything rotten, and thereby makes the damage
visible to O(log n) cross-site sync.

:class:`SiteTopology` is the registry the placement policy and the
federation facade operate on.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Sequence

from repro.archive.cas import ContentAddressedStore
from repro.archive.merkle import MerkleManifest
from repro.errors import ArchiveError, SiteUnavailableError
from repro.hashing import sha256_hex, stable_seed

__all__ = ["Site", "SiteTopology", "ScrubFinding"]


class ScrubFinding:
    """One unhealthy copy a scrub discovered."""

    __slots__ = ("site", "digest", "state")

    def __init__(self, site: str, digest: str, state: str) -> None:
        self.site = site
        self.digest = digest
        self.state = state  # "corrupt" | "missing"

    def __repr__(self) -> str:
        return f"ScrubFinding({self.site}, {self.digest[:12]}…, {self.state})"

    def to_dict(self) -> dict[str, Any]:
        return {"site": self.site, "digest": self.digest,
                "state": self.state}


class Site:
    """One federated storage location.

    Parameters
    ----------
    name:
        Unique site identity (e.g. ``sp-1``).
    region:
        Geo tag placement spreads across (e.g. ``southamerica``).
    latency_ms:
        Simulated per-read latency; reads prefer low-latency sites.
    """

    def __init__(self, name: str, region: str,
                 latency_ms: float = 10.0) -> None:
        if not name:
            raise ArchiveError("a site needs a name")
        if not region:
            raise ArchiveError(f"site {name!r} needs a region tag")
        self.name = name
        self.region = region
        self.latency_ms = float(latency_ms)
        self.available = True
        self.store = ContentAddressedStore(f"site:{name}")
        self._manifest = MerkleManifest()
        self.simulated_io_ms = 0.0

    def __repr__(self) -> str:
        state = "up" if self.available else "DOWN"
        return (
            f"Site({self.name}, {self.region}, {self.latency_ms:g} ms, "
            f"{len(self.store)} objects, {state})"
        )

    # ------------------------------------------------------------------
    # availability
    # ------------------------------------------------------------------

    def fail(self) -> None:
        """Take the site down (simulated outage / site loss)."""
        self.available = False

    def recover(self) -> None:
        self.available = True

    def _check_up(self, what: str) -> None:
        if not self.available:
            raise SiteUnavailableError(
                f"site {self.name} ({self.region}) is down: {what} refused"
            )

    def _charge(self) -> None:
        self.simulated_io_ms += self.latency_ms

    # ------------------------------------------------------------------
    # object I/O (manifest-maintaining)
    # ------------------------------------------------------------------

    def put(self, payload: str,
            media_type: str = "application/json") -> str:
        self._check_up("put")
        self._charge()
        digest = self.store.put(payload, media_type=media_type)
        self._manifest.set(digest, digest)
        return digest

    def get(self, digest: str) -> str:
        self._check_up("get")
        self._charge()
        return self.store.get(digest)

    def get_verified(self, digest: str) -> str:
        self._check_up("get")
        self._charge()
        return self.store.get_verified(digest)

    def exists(self, digest: str) -> bool:
        self._check_up("stat")
        return self.store.exists(digest)

    def verify(self, digest: str) -> bool:
        self._check_up("verify")
        self._charge()
        return self.store.verify(digest)

    def drop(self, digest: str) -> None:
        self._check_up("drop")
        self.store.drop(digest)
        self._manifest.remove(digest)

    def restore(self, digest: str, payload: str,
                media_type: str = "application/json") -> None:
        self._check_up("restore")
        self._charge()
        self.store.restore(digest, payload, media_type=media_type)
        self._manifest.set(digest, digest)

    def digests(self) -> list[str]:
        return self.store.digests()

    # ------------------------------------------------------------------
    # corruption injection + scrubbing
    # ------------------------------------------------------------------

    def corrupt(self, digest: str,
                payload: str = "\x00bitrot\x00") -> None:
        """Silent bit rot: flips the stored bytes *without* telling the
        manifest — only a scrub makes the damage visible."""
        self.store.corrupt(digest, payload)

    def scrub(self, digests: Sequence[str] | None = None,
              sample_fraction: float | None = None,
              seed: int = 0) -> list[ScrubFinding]:
        """Re-hash stored payloads against their digests and update the
        manifest for anything unhealthy.

        ``digests`` limits the scrub to specific objects; otherwise the
        whole holding is scrubbed, or a deterministic ``sample_fraction``
        of it — the sampling-based continuous audit: a few percent per
        pass, every object eventually.
        """
        self._check_up("scrub")
        catalog = list(digests) if digests is not None \
            else self.store.digests()
        if sample_fraction is not None:
            if not 0.0 < sample_fraction <= 1.0:
                raise ArchiveError(
                    f"sample_fraction {sample_fraction} outside (0, 1]")
            rng = random.Random(stable_seed("scrub", self.name, seed,
                                            len(catalog)))
            count = max(1, round(len(catalog) * sample_fraction)) \
                if catalog else 0
            catalog = sorted(rng.sample(catalog, count)) if count else []
        findings: list[ScrubFinding] = []
        for digest in catalog:
            if not self.store.exists(digest):
                if digest in self._manifest:
                    self._manifest.remove(digest)
                    findings.append(ScrubFinding(self.name, digest,
                                                 "missing"))
                continue
            self._charge()
            payload = self.store.get(digest)
            actual = sha256_hex(payload)
            if actual != digest:
                self._manifest.set(digest, actual)
                findings.append(ScrubFinding(self.name, digest, "corrupt"))
            else:
                self._manifest.set(digest, digest)
        return findings

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------

    def manifest(self) -> MerkleManifest:
        """The maintained Merkle manifest (live object, not a copy)."""
        return self._manifest

    def manifest_root(self) -> str:
        return self._manifest.root


class SiteTopology:
    """The registry of federated sites the placement policy draws from."""

    def __init__(self, sites: Iterable[Site] = ()) -> None:
        self._sites: dict[str, Site] = {}
        for site in sites:
            self.add(site)

    def __len__(self) -> int:
        return len(self._sites)

    def __contains__(self, name: str) -> bool:
        return name in self._sites

    def __repr__(self) -> str:
        return (
            f"SiteTopology({len(self._sites)} sites, "
            f"{len(self.regions())} regions)"
        )

    def add(self, site: Site) -> Site:
        if site.name in self._sites:
            raise ArchiveError(f"duplicate site name {site.name!r}")
        self._sites[site.name] = site
        return site

    def site(self, name: str) -> Site:
        try:
            return self._sites[name]
        except KeyError:
            raise ArchiveError(f"no site {name!r} in this topology") \
                from None

    def sites(self) -> list[Site]:
        return [self._sites[name] for name in sorted(self._sites)]

    def available_sites(self) -> list[Site]:
        return [site for site in self.sites() if site.available]

    def regions(self) -> list[str]:
        return sorted({site.region for site in self._sites.values()})

    def fail_site(self, name: str) -> Site:
        site = self.site(name)
        site.fail()
        return site

    def recover_site(self, name: str) -> Site:
        site = self.site(name)
        site.recover()
        return site

    def to_dict(self) -> dict[str, Any]:
        return {
            "sites": [
                {
                    "name": site.name,
                    "region": site.region,
                    "latency_ms": site.latency_ms,
                    "available": site.available,
                    "objects": len(site.store),
                    "manifest_root": site.manifest_root(),
                }
                for site in self.sites()
            ],
            "regions": self.regions(),
        }
