"""Chronicle algebra (Definition 4.1): AST, validation, compiled delta
plans, and the batch oracle.  The literal Theorem 4.1 rules the plans are
tested against live in :mod:`repro.algebra.reference`, imported on purpose
only by tests, benchmarks and the conformance profiler."""

from .ast import (
    ChronicleProduct,
    ChronicleScan,
    Difference,
    GroupBySeq,
    Node,
    NonEquiSeqJoin,
    Project,
    RelKeyJoin,
    RelProduct,
    Select,
    SeqJoin,
    Union,
    scan,
)
from .classify import Classification, IMClass, Language, classify, im_class_of, language_of
from .evaluate import evaluate
from .plan import CompiledPlan, Interner, PlanCompiler, compile_predicate
from .validate import validate_ca, validate_ca1, validate_ca_join

__all__ = [
    "Node",
    "ChronicleScan",
    "Select",
    "Project",
    "SeqJoin",
    "Union",
    "Difference",
    "GroupBySeq",
    "RelProduct",
    "RelKeyJoin",
    "ChronicleProduct",
    "NonEquiSeqJoin",
    "scan",
    "evaluate",
    "CompiledPlan",
    "Interner",
    "PlanCompiler",
    "compile_predicate",
    "classify",
    "language_of",
    "im_class_of",
    "Classification",
    "Language",
    "IMClass",
    "validate_ca",
    "validate_ca1",
    "validate_ca_join",
]
