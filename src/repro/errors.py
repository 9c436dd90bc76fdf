"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class.  Each subsystem has its own branch:

* :class:`StorageError` — the embeddable relational engine.
* :class:`WorkflowError` — the dataflow engine.
* :class:`ProvenanceError` — OPM graphs and the provenance manager.
* :class:`TaxonomyError` — the simulated Catalogue of Life.
* :class:`QualityError` — quality dimensions, metrics and assessment.
* :class:`CurationError` — curation pipelines.
* :class:`ArchiveError` — the preservation vault (CAS, replicas,
  fixity, migration).
* :class:`AnalysisError` — the static-analysis rule engine.
* :class:`ServiceError` — the multi-tenant request façade (admission
  control, per-tenant quotas).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the library."""


# ---------------------------------------------------------------------------
# Storage engine
# ---------------------------------------------------------------------------

class StorageError(ReproError):
    """Base class for errors raised by :mod:`repro.storage`."""


class SchemaError(StorageError):
    """A table schema is invalid (duplicate column, bad type, missing key)."""


class ConstraintViolation(StorageError):
    """A row violates a declared constraint (NOT NULL, UNIQUE, CHECK, FK)."""

    def __init__(self, constraint: str, detail: str) -> None:
        super().__init__(f"{constraint}: {detail}")
        self.constraint = constraint
        self.detail = detail


class UnknownTableError(StorageError):
    """A statement referenced a table that does not exist."""


class UnknownColumnError(StorageError):
    """A statement referenced a column absent from the table schema."""


class DuplicateTableError(StorageError):
    """``create_table`` was called with a name that is already in use."""


class RowNotFoundError(StorageError):
    """A lookup by primary key matched no row."""


class TransactionError(StorageError):
    """Misuse of the transaction API (nested begin, commit w/o begin...)."""


class TransactionConflictError(TransactionError):
    """Two transactions raced on the same row version.

    The engine is first-writer-wins: the transaction that touches a row
    version second fails immediately (either the row carries an
    uncommitted write from another live transaction, or it was committed
    after this transaction began).  Callers retry the whole transaction.
    """


class JournalError(StorageError):
    """The write-ahead journal is corrupt or cannot be replayed."""


# ---------------------------------------------------------------------------
# Workflow engine
# ---------------------------------------------------------------------------

class WorkflowError(ReproError):
    """Base class for errors raised by :mod:`repro.workflow`."""


class WorkflowValidationError(WorkflowError):
    """A workflow definition is structurally invalid (cycle, dangling link)."""


class MissingDefaultError(WorkflowValidationError):
    """A required input port's default was read, but it declares none."""


class UnknownProcessorError(WorkflowError):
    """A link or run referenced a processor that is not in the workflow."""


class UnknownPortError(WorkflowError):
    """A link referenced a port a processor does not declare."""


class WorkflowExecutionError(WorkflowError):
    """A processor failed while the workflow was running."""

    def __init__(self, processor: str, cause: BaseException) -> None:
        super().__init__(f"processor {processor!r} failed: {cause}")
        self.processor = processor
        self.cause = cause


class SerializationError(WorkflowError):
    """A workflow document could not be parsed or emitted."""


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

class ProvenanceError(ReproError):
    """Base class for errors raised by :mod:`repro.provenance`."""


class UnknownNodeError(ProvenanceError):
    """An OPM edge referenced a node missing from the graph."""


class InvalidEdgeError(ProvenanceError):
    """An OPM edge connects node kinds the spec does not allow."""


# ---------------------------------------------------------------------------
# Taxonomy / external services
# ---------------------------------------------------------------------------

class TaxonomyError(ReproError):
    """Base class for errors raised by :mod:`repro.taxonomy`."""


class InvalidNameError(TaxonomyError):
    """A string is not a well-formed scientific name."""


class ServiceUnavailableError(TaxonomyError):
    """The (simulated) external web service refused the call."""


# ---------------------------------------------------------------------------
# Quality core
# ---------------------------------------------------------------------------

class QualityError(ReproError):
    """Base class for errors raised by :mod:`repro.core`."""


class UnknownDimensionError(QualityError):
    """A profile or report referenced an unregistered quality dimension."""


class MetricError(QualityError):
    """A quality metric could not be computed."""


class ProfileError(QualityError):
    """A quality profile definition is inconsistent."""


# ---------------------------------------------------------------------------
# Curation
# ---------------------------------------------------------------------------

class CurationError(ReproError):
    """Base class for errors raised by :mod:`repro.curation`."""


class GeocodingError(CurationError):
    """A location string could not be resolved to coordinates."""


# ---------------------------------------------------------------------------
# Preservation vault
# ---------------------------------------------------------------------------

class ArchiveError(ReproError):
    """Base class for errors raised by :mod:`repro.archive`."""


class ObjectMissingError(ArchiveError):
    """A content-addressed object is absent from a store."""


class FixityError(ArchiveError):
    """A stored payload no longer matches its content digest."""


class QuorumError(ArchiveError):
    """Fewer verified replicas than the replica group's read quorum.

    Carries the cause breakdown so callers (and repair provenance) can
    distinguish replicas that are *gone* from replicas whose bytes
    rotted in place: ``missing`` / ``corrupt`` list the offending store
    names, ``verified`` counts the healthy ones.
    """

    def __init__(self, message: str, missing: tuple[str, ...] = (),
                 corrupt: tuple[str, ...] = (), verified: int = 0) -> None:
        super().__init__(message)
        self.missing = tuple(missing)
        self.corrupt = tuple(corrupt)
        self.verified = verified


class MigrationError(ArchiveError):
    """A format migration could not be planned or executed."""


class ErasureError(ArchiveError):
    """Erasure coding failed: bad k/n parameters, too few intact
    shards to reconstruct, or the reconstructed bytes fail fixity."""


class SiteUnavailableError(ArchiveError):
    """A federated site is down (simulated outage) and refused I/O."""


class PlacementError(ArchiveError):
    """A placement policy cannot be satisfied by the site topology."""


# ---------------------------------------------------------------------------
# Static analysis
# ---------------------------------------------------------------------------

class AnalysisError(ReproError):
    """Misuse of the rule engine (duplicate rule id, unknown rule,
    malformed baseline or lint document)."""


# ---------------------------------------------------------------------------
# Multi-tenant service façade
# ---------------------------------------------------------------------------

class ServiceError(ReproError):
    """Base class for errors raised by :mod:`repro.service`."""


class AdmissionRejectedError(ServiceError):
    """The admission controller refused a request (in-flight limit hit
    and the wait queue is full, or the queue wait timed out)."""


class QuotaExceededError(ServiceError):
    """A tenant exhausted its request or row budget for the window."""
