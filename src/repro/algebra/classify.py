"""Language classification and incremental-complexity accounting.

Given an operator tree, :func:`classify` determines the smallest language
fragment containing it — CA1 ⊂ CA⋈ ⊂ CA, or NOT_CA for expressions using
the extension operators — and counts the parameters of the Theorem 4.2
complexity formulas:

* ``u`` — number of union operators;
* ``j`` — number of equijoins and chronicle-relation products/joins;
* ``max_relation_size`` — |R| for the formulas' relation factor.

A selection whose predicate lies outside the Definition 4.1 fragment
(:func:`predicate_in_ca_fragment`) also puts an expression in NOT_CA.

The summarization step then maps fragments to the incremental maintenance
classes of Section 3 (Theorem 4.5):

====================  =================
fragment (of χ)        IM class of SCA-χ
====================  =================
CA1                    IM-Constant
CA⋈                    IM-log(R)
CA                     IM-R^k
NOT_CA                 IM-C^k
====================  =================
"""

from __future__ import annotations

import enum
from typing import Optional

from ..relational.predicate import And, Comparison, Or, Predicate, TruePredicate
from .ast import (
    ChronicleProduct,
    Node,
    NonEquiSeqJoin,
    RelKeyJoin,
    RelProduct,
    SeqJoin,
    Union as UnionNode,
)


def predicate_in_ca_fragment(predicate: Predicate) -> bool:
    """Whether *predicate* is admissible in a CA selection.

    The Definition 4.1 fragment is atomic comparisons and disjunctions of
    them.  A top-level conjunction of admissible predicates is accepted
    as syntactic sugar for a cascade of selections.
    """
    if isinstance(predicate, (Comparison, TruePredicate)):
        return True
    if isinstance(predicate, Or):
        return all(isinstance(term, Comparison) for term in predicate.terms)
    if isinstance(predicate, And):
        return all(predicate_in_ca_fragment(term) for term in predicate.terms)
    return False


class Language(enum.Enum):
    """Chronicle-algebra fragments, ordered by containment."""

    CA1 = "CA1"
    CA_JOIN = "CA-join"
    CA = "CA"
    NOT_CA = "not-CA"

    def __le__(self, other: "Language") -> bool:
        order = [Language.CA1, Language.CA_JOIN, Language.CA, Language.NOT_CA]
        return order.index(self) <= order.index(other)


class IMClass(enum.Enum):
    """Incremental maintenance complexity classes (Section 3)."""

    CONSTANT = "IM-Constant"
    LOG_R = "IM-log(R)"
    POLY_R = "IM-R^k"
    POLY_C = "IM-C^k"

    def __le__(self, other: "IMClass") -> bool:
        order = [IMClass.CONSTANT, IMClass.LOG_R, IMClass.POLY_R, IMClass.POLY_C]
        return order.index(self) <= order.index(other)


#: Theorem 4.5 mapping from fragment of χ to IM class of the SCA view.
IM_CLASS_OF = {
    Language.CA1: IMClass.CONSTANT,
    Language.CA_JOIN: IMClass.LOG_R,
    Language.CA: IMClass.POLY_R,
    Language.NOT_CA: IMClass.POLY_C,
}


class Classification:
    """The result of :func:`classify`.

    Attributes
    ----------
    language:
        Smallest fragment containing the expression.
    im_class:
        IM class of a summarized view over the expression (Theorem 4.5).
    unions, joins:
        The u and j of the Theorem 4.2 formulas.
    max_relation_size:
        Largest referenced relation (0 when none), the formulas' |R|.
    offender:
        The first node, in walk order, that puts the expression in its
        fragment (``None`` for CA1) — what a validator's error names.
    """

    __slots__ = ("language", "unions", "joins", "max_relation_size", "offender")

    def __init__(self, language: Language, unions: int, joins: int,
                 max_relation_size: int, offender: Optional[Node] = None) -> None:
        self.language = language
        self.unions = unions
        self.joins = joins
        self.max_relation_size = max_relation_size
        self.offender = offender

    @property
    def im_class(self) -> IMClass:
        return IM_CLASS_OF[self.language]

    def delta_size_bound(self) -> float:
        """Theorem 4.2's space bound on the delta of the expression.

        O((u |R|)^j) for CA, O(u^j) for CA⋈/CA1 — evaluated with u and
        |R| floored at 1 so the bound is meaningful for small expressions.
        """
        u = max(self.unions + 1, 1)
        j = self.joins
        if self.language is Language.CA:
            r = max(self.max_relation_size, 1)
            return float((u * r) ** j) if j else float(u)
        return float(u ** j) if j else float(u)

    def __repr__(self) -> str:
        return (
            f"Classification({self.language.value}, u={self.unions}, "
            f"j={self.joins}, |R|={self.max_relation_size}, "
            f"im={self.im_class.value})"
        )


#: Each operator's own contribution: the smallest fragment containing
#: it, and the joins and unions it adds to Theorem 4.2's j and u.
#: Operators not listed contribute ``(CA1, 0, 0)``; a node carrying a
#: selection predicate outside the Definition 4.1 fragment is NOT_CA.
_CONTRIBUTIONS = {
    SeqJoin: (Language.CA1, 1, 0),
    UnionNode: (Language.CA1, 0, 1),
    RelKeyJoin: (Language.CA_JOIN, 1, 0),
    RelProduct: (Language.CA, 1, 0),
    ChronicleProduct: (Language.NOT_CA, 1, 0),
    NonEquiSeqJoin: (Language.NOT_CA, 1, 0),
}
_NOTHING = (Language.CA1, 0, 0)


def classify(node: Node) -> Classification:
    """Classify an operator tree into its smallest language fragment."""
    language = Language.CA1
    offender = None
    unions = 0
    joins = 0
    max_relation = 0
    for sub in node.walk():
        fragment, sub_joins, sub_unions = _CONTRIBUTIONS.get(type(sub), _NOTHING)
        if "predicate" in sub.param_names and not predicate_in_ca_fragment(sub.predicate):
            fragment = Language.NOT_CA
        if "relation" in sub.param_names:
            max_relation = max(max_relation, len(sub.relation))
        if not fragment <= language:
            language, offender = fragment, sub
        joins += sub_joins
        unions += sub_unions
    return Classification(language, unions, joins, max_relation, offender)


def language_of(node: Node) -> Language:
    """Shorthand: just the fragment of :func:`classify`."""
    return classify(node).language


def im_class_of(node: Node) -> IMClass:
    """IM class of a summarized view over *node* (Theorem 4.5)."""
    return classify(node).im_class
