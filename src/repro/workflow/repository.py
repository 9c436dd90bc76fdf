"""The Workflow Repository (Fig. 1).

Stores workflow specifications — serialized as JSON documents — in the
storage engine, versioned by (name, version).  Saving the same name again
creates a new version; loading without a version returns the latest.
"""

from __future__ import annotations

from typing import Any

from repro.errors import WorkflowError
from repro.hashing import sha256_hex
from repro.storage import Column, Database, TableSchema, col
from repro.storage import column_types as ct
from repro.workflow.model import Workflow
from repro.workflow.serialization import workflow_from_json, workflow_to_json

__all__ = ["WorkflowRepository"]

_TABLE = "workflows"


class WorkflowRepository:
    """Versioned workflow storage on a :class:`~repro.storage.Database`."""

    def __init__(self, database: Database | None = None) -> None:
        self.database = database or Database("workflow_repository")
        #: report from the most recent ``save(..., lint=True)``
        self.last_lint: Any = None
        if not self.database.has_table(_TABLE):
            self.database.create_table(TableSchema(_TABLE, [
                Column("id", ct.INTEGER),
                Column("name", ct.TEXT, nullable=False),
                Column("version", ct.INTEGER, nullable=False),
                Column("description", ct.TEXT, default=""),
                Column("document", ct.TEXT, nullable=False),
            ], primary_key="id"))
            self.database.create_index(_TABLE, "name", "hash")

    def save(self, workflow: Workflow, lint: bool = False) -> int:
        """Store ``workflow`` as a new version; returns the version.

        With ``lint=True`` the workflow rule family also runs and its
        report lands on :attr:`last_lint` — warnings never block the
        save (``validate`` already rejected anything fatal), they
        surface what a curator may still want to tidy.
        """
        workflow.validate()
        if lint:
            from repro.analysis import Analyzer

            self.last_lint = Analyzer().analyze_workflow(workflow)
        version = self.latest_version(workflow.name) + 1
        next_id = self.database.count(_TABLE) + 1
        # ids may have gaps after deletes; probe forward
        while self._id_exists(next_id):
            next_id += 1
        self.database.insert(_TABLE, {
            "id": next_id,
            "name": workflow.name,
            "version": version,
            "description": workflow.description,
            "document": workflow_to_json(workflow, indent=None),
        })
        return version

    def _id_exists(self, identifier: int) -> bool:
        return self.database.find(_TABLE, identifier) is not None

    def load(self, name: str, version: int | None = None) -> Workflow:
        """Fetch a workflow by name (latest version by default)."""
        query = self.database.query(_TABLE).where(col("name") == name)
        if version is not None:
            query = query.where(col("version") == version)
        row = query.order_by("version", descending=True).first()
        if row is None:
            raise WorkflowError(
                f"workflow {name!r}"
                + (f" version {version}" if version is not None else "")
                + " is not in the repository"
            )
        return workflow_from_json(row["document"])

    def spec_digest(self, name: str) -> str | None:
        """Content digest of the latest stored document for ``name``
        (``None`` when absent).

        This is the cheap change-detection probe: it hashes the raw
        JSON document without parsing it into a :class:`Workflow`, so
        callers (the decay scanner's memo, scheduled re-checks) can tell
        "unchanged since last scan" apart from "new version / edited /
        deleted-and-resaved" without paying for :meth:`load`.
        """
        row = self.database.query(_TABLE).where(
            col("name") == name
        ).order_by("version", descending=True).first()
        if row is None:
            return None
        return sha256_hex(row["document"].encode("utf-8"))

    def latest_version(self, name: str) -> int:
        rows = self.database.query(_TABLE).where(
            col("name") == name
        ).order_by("version", descending=True).limit(1).all()
        return rows[0]["version"] if rows else 0

    def versions(self, name: str) -> list[int]:
        return sorted(
            self.database.query(_TABLE).where(col("name") == name)
            .values("version")
        )

    def names(self) -> list[str]:
        return sorted({
            row["name"] for row in self.database.query(_TABLE).all()
        })

    def delete(self, name: str, version: int | None = None) -> int:
        """Remove a workflow (all versions unless one is given)."""
        predicate: Any = col("name") == name
        if version is not None:
            predicate = predicate & (col("version") == version)
        return self.database.delete_where(_TABLE, predicate)

    def __len__(self) -> int:
        return self.database.count(_TABLE)
