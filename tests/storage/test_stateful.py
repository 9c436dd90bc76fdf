"""Model-based testing of the storage engine.

A hypothesis state machine drives the :class:`Database` through random
sequences of inserts, updates, deletes, index creations, transactions
(committed and rolled back), full journal recoveries and crashes in the
middle of a commit, checking after every step that the engine's visible
state equals a trivial dict-based reference model.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.errors import ConstraintViolation
from repro.storage import Column, Database, TableSchema, col
from repro.storage import column_types as ct


class StorageMachine(RuleBasedStateMachine):
    """Database vs. a dict model: {pk: (name, score)}."""

    def __init__(self) -> None:
        super().__init__()
        self.tmpdir = None

    @initialize(use_journal=st.booleans())
    def setup(self, use_journal):
        self.journal_path = None
        if use_journal:
            self.tmpdir = tempfile.TemporaryDirectory()
            self.journal_path = f"{self.tmpdir.name}/state.journal"
        self.db = Database("state", journal_path=self.journal_path)
        self.db.create_table(TableSchema("t", [
            Column("pk", ct.INTEGER),
            Column("name", ct.TEXT),
            Column("score", ct.REAL),
        ], primary_key="pk"))
        self.model: dict[int, tuple[str | None, float | None]] = {}

    def teardown(self):
        if self.tmpdir is not None:
            self.tmpdir.cleanup()

    # ------------------------------------------------------------------
    # rules
    # ------------------------------------------------------------------

    @rule(pk=st.integers(0, 30), name=st.one_of(st.none(), st.text(max_size=8)),
          score=st.one_of(st.none(), st.floats(0, 1)))
    def insert(self, pk, name, score):
        if pk in self.model:
            with pytest.raises(ConstraintViolation):
                self.db.insert("t", {"pk": pk, "name": name,
                                     "score": score})
        else:
            self.db.insert("t", {"pk": pk, "name": name, "score": score})
            self.model[pk] = (name, score)

    @rule(pk=st.integers(0, 30), name=st.text(max_size=8))
    def update(self, pk, name):
        if pk in self.model:
            rowid = self.db.rowid_for("t", pk)
            self.db.update("t", rowid, {"name": name})
            self.model[pk] = (name, self.model[pk][1])

    @rule(pk=st.integers(0, 30))
    def delete(self, pk):
        if pk in self.model:
            self.db.delete("t", self.db.rowid_for("t", pk))
            del self.model[pk]

    @rule(kind=st.sampled_from(["hash", "sorted"]),
          column=st.sampled_from(["name", "score"]))
    def create_index(self, kind, column):
        self.db.table("t").create_index(column, kind)

    @rule(pk=st.integers(0, 30), name=st.text(max_size=8),
          commit=st.booleans())
    def transaction_insert(self, pk, name, commit):
        if pk in self.model:
            return
        tx = self.db.transaction()
        self.db.insert("t", {"pk": pk, "name": name, "score": None})
        if commit:
            tx.commit()
            self.model[pk] = (name, None)
        else:
            tx.rollback()

    @rule()
    def recover_from_journal(self):
        if self.journal_path is None:
            return
        recovered = Database.recover("state", self.journal_path)
        assert self._visible(recovered) == self.model

    @rule(pks=st.lists(st.integers(0, 30), min_size=2, max_size=3,
                       unique=True),
          name=st.text(max_size=8), cut=st.integers(0, 10_000))
    def crash_mid_commit(self, pks, name, cut):
        """Commit a multi-insert transaction, then recover from a copy
        of the journal cut at a byte inside that commit: the rows must be
        the model before the commit or after it, never a mix."""
        if self.journal_path is None or any(pk in self.model for pk in pks):
            return
        journal = Path(self.journal_path)
        start = journal.stat().st_size
        before = dict(self.model)
        with self.db.transaction():
            for pk in pks:
                self.db.insert("t", {"pk": pk, "name": name, "score": None})
                self.model[pk] = (name, None)
        data = journal.read_bytes()
        with tempfile.TemporaryDirectory() as crash_dir:
            crashed = Path(crash_dir) / journal.name
            crashed.write_bytes(data[:start + cut % (len(data) - start)])
            snapshot = self.db.journal.snapshot_path()
            if snapshot.exists():
                shutil.copy(snapshot, Path(crash_dir) / snapshot.name)
            recovered = self._visible(Database.recover("crash", crashed))
        assert recovered in (before, self.model)

    @rule()
    def checkpoint(self):
        self.db.checkpoint()

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    @staticmethod
    def _visible(db: Database) -> dict[int, tuple]:
        return {
            row["pk"]: (row["name"], row["score"])
            for row in db.table("t").rows()
        }

    @invariant()
    def engine_matches_model(self):
        assert self._visible(self.db) == self.model

    @invariant()
    def count_matches(self):
        assert self.db.count("t") == len(self.model)

    @invariant()
    def queries_match_filters(self):
        threshold = 0.5
        expected = {
            pk for pk, (__, score) in self.model.items()
            if score is not None and score >= threshold
        }
        got = {
            row["pk"]
            for row in self.db.query("t").where(
                col("score") >= threshold).all()
        }
        assert got == expected


TestStorageStateMachine = StorageMachine.TestCase
TestStorageStateMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None)
