"""Structural validation of chronicle-algebra expressions.

Most of Definition 4.1's rules are enforced at node construction time
(see :mod:`repro.algebra.ast`).  The whole-expression checks — the
selection-predicate fragment, absence of the extension operators from
CA, no relation operators in CA1, only key-guaranteed joins in CA⋈ — are
one question: is the expression's fragment (:func:`~repro.algebra
.classify.classify`) within the validator's ceiling?  Each validator
asks it and, when the answer is no, names the node that raised the
fragment.
"""

from __future__ import annotations

from ..errors import LanguageViolationError
from .ast import Node
from .classify import Language, classify


def _require(node: Node, ceiling: Language) -> None:
    result = classify(node)
    if result.language <= ceiling:
        return
    offender = result.offender
    if result.language is Language.NOT_CA:
        if "predicate" in offender.param_names:
            message = (
                f"selection predicate {offender.predicate!r} is outside the "
                f"Definition 4.1 fragment (comparisons and disjunctions)"
            )
        else:
            message = (
                f"{type(offender).__name__} is outside chronicle algebra: "
                f"maintaining it requires access to stored chronicle history "
                f"(Theorem 4.3)"
            )
    elif ceiling is Language.CA1:
        message = "CA1 excludes every chronicle-relation operator (Definition 4.2)"
    else:
        message = (
            "CA-join replaces the chronicle-relation cross product with a "
            "key-guaranteed join; use keyjoin() instead of product()"
        )
    raise LanguageViolationError(message)


def validate_ca(node: Node) -> None:
    """Raise unless *node* is a chronicle-algebra (CA) expression."""
    _require(node, Language.CA)


def validate_ca_join(node: Node) -> None:
    """Raise unless *node* is a CA⋈ expression (Definition 4.2).

    CA⋈ replaces the relation cross product with the key-guaranteed
    join; RelKeyJoin constructors already verified the guarantee.
    """
    _require(node, Language.CA_JOIN)


def validate_ca1(node: Node) -> None:
    """Raise unless *node* is a CA1 expression (no relation operators)."""
    _require(node, Language.CA1)
