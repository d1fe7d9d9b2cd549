"""Exception hierarchy for the chronicle data model.

Every error raised by this library derives from :class:`ChronicleError`,
so callers can catch the whole family with one clause.  Sub-hierarchies
mirror the layers of the system: schema/typing problems, storage problems,
chronicle-model rule violations, algebra/language violations, and query
language errors.
"""

from __future__ import annotations


class ChronicleError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# Relational substrate errors
# ---------------------------------------------------------------------------


class SchemaError(ChronicleError):
    """A schema is malformed or two schemas are incompatible."""


class TypeMismatchError(SchemaError):
    """A value does not belong to the declared attribute domain."""


class UnknownAttributeError(SchemaError):
    """An attribute name was referenced that the schema does not define."""


class DuplicateAttributeError(SchemaError):
    """Two attributes with the same name were declared in one schema."""


class IntegrityError(ChronicleError):
    """A relation-level integrity constraint was violated."""


class KeyViolationError(IntegrityError):
    """An insert/update would duplicate a key value."""


# ---------------------------------------------------------------------------
# Chronicle model rule violations (Section 2 of the paper)
# ---------------------------------------------------------------------------


class ChronicleModelError(ChronicleError):
    """A rule of the chronicle data model was violated."""


class SequenceOrderError(ChronicleModelError):
    """An append used a sequence number not greater than all existing ones.

    The chronicle model permits only inserts whose sequence number exceeds
    every sequence number already present in the chronicle *group*
    (Section 2.1 / Section 4 of the paper).
    """


class RetroactiveUpdateError(ChronicleModelError):
    """A relation update would affect already-processed chronicle tuples.

    Only *proactive* updates are part of the chronicle model (Section 2.3);
    retroactive updates would require reprocessing chronicle history that
    may no longer be stored.
    """


class ChronicleGroupError(ChronicleModelError):
    """An operation combined chronicles from different chronicle groups."""


class ChronicleAccessError(ChronicleModelError):
    """Maintenance code attempted to read a chronicle store.

    Raised by the no-access guard: Theorems 4.2/4.4 require that neither
    the chronicles nor the chronicle-algebra views be accessed during
    incremental maintenance.
    """


class RetentionError(ChronicleModelError):
    """A query requested chronicle tuples outside the retained window."""


# ---------------------------------------------------------------------------
# Algebra / language errors (Section 4)
# ---------------------------------------------------------------------------


class AlgebraError(ChronicleError):
    """A chronicle-algebra expression is structurally invalid."""


class NotAChronicleError(AlgebraError):
    """An operator would produce a result without the sequencing attribute.

    Theorem 4.3(1): projecting out the sequence number, or grouping without
    it, yields a result that is not a chronicle and hence is not allowed
    inside chronicle algebra (it belongs to the summarization step).
    """


class LanguageViolationError(AlgebraError):
    """An expression uses operators outside the declared language fragment.

    For example a chronicle-chronicle cross product (outside CA entirely,
    Theorem 4.3), or a relation product inside CA1, or a non-key join
    inside CA-join.
    """


class KeyJoinGuaranteeError(LanguageViolationError):
    """A CA-join expression joins a relation on a non-key attribute set.

    Definition 4.2 requires that at most a constant number of relation
    tuples join with each chronicle tuple; joining on a key of the
    relation is the sufficient condition this library enforces.
    """


class AggregateError(AlgebraError):
    """An aggregation function is unusable in the requested context."""


class NotIncrementalError(AggregateError):
    """The aggregate is not incrementally computable (or decomposable).

    SCA (Definition 4.3) only admits aggregation functions that can be
    maintained in O(1) per inserted tuple.
    """


# ---------------------------------------------------------------------------
# View management errors (Sections 2, 5)
# ---------------------------------------------------------------------------


class ViewError(ChronicleError):
    """A persistent-view operation failed."""


class ViewExpiredError(ViewError):
    """A periodic view was used after its expiration time (Section 5.1)."""


class ViewRegistrationError(ViewError):
    """View registration conflicted with an existing view."""


class CalendarError(ViewError):
    """A calendar definition is malformed (Section 5.1)."""


# ---------------------------------------------------------------------------
# Configuration / engine errors
# ---------------------------------------------------------------------------


class ConfigError(ChronicleError):
    """A :class:`~repro.core.config.DatabaseConfig` value is invalid."""


class EngineError(ChronicleError):
    """An operation is unsupported by the selected maintenance engine.

    The sharded engine (:mod:`repro.parallel`) gates a few serial-only
    operations — checkpoint/restore of partitioned view state, the
    ``process`` executor — behind this error until they land.
    """


# ---------------------------------------------------------------------------
# Observability errors
# ---------------------------------------------------------------------------


class ObservabilityError(ChronicleError):
    """An observability (tracing / metrics / audit) operation failed."""


class MaintenanceAuditError(ObservabilityError):
    """The live auditor observed a maintenance invariant violation.

    Raised (in ``raise`` mode) when a maintenance span's cost-counter
    diff shows chronicle reads, or unbounded view reads, on the append
    path — the operational form of the Theorem 4.2/4.4 no-access rule.
    """


class ConformanceError(ObservabilityError):
    """A conformance sweep could not be measured.

    Raised when the profiler cannot observe a view's maintenance — e.g.
    the driver records never pass the view's prefilter, so no
    ``maintain`` span is produced to measure.
    """


# ---------------------------------------------------------------------------
# Query language errors
# ---------------------------------------------------------------------------


class QueryError(ChronicleError):
    """Base class for query-language errors."""


class LexError(QueryError):
    """The view definition text could not be tokenized."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(QueryError):
    """The view definition text could not be parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        if line or column:
            super().__init__(f"{message} (line {line}, column {column})")
        else:
            super().__init__(message)
        self.line = line
        self.column = column


class CompileError(QueryError):
    """The parsed view definition could not be compiled to the algebra."""
