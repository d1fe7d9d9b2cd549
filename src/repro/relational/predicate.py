"""Selection predicates.

Definition 4.1 allows selection predicates of the form ``A θ B`` or
``A θ k`` (attribute–attribute or attribute–constant comparisons) and
disjunctions of such terms.  We implement that language exactly, plus
conjunction and negation for the *general* relational-algebra baseline —
the chronicle-algebra validator (:mod:`repro.algebra.validate`) rejects
predicates that fall outside the Definition 4.1 fragment.

Predicates are small immutable ASTs with:

* ``evaluate(row)`` / ``evaluate2(left, right)`` — truth value on a row;
* ``attributes()`` — the set of attribute names referenced;
* ``is_ca_predicate()`` — membership in the Definition 4.1 fragment.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, FrozenSet, Iterable, Tuple

from ..errors import AlgebraError
from .tuples import Row

_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Comparison operator names admitted by Definition 4.1.
COMPARISON_OPS: Tuple[str, ...] = tuple(_OPS)


def _flip(op: str) -> str:
    """The operator obtained by swapping comparison operands."""
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}[op]


class Predicate:
    """Abstract base of the predicate AST."""

    __slots__ = ()

    def evaluate(self, row: Row) -> bool:
        """Truth value of the predicate on *row*."""
        raise NotImplementedError

    def attributes(self) -> FrozenSet[str]:
        """Attribute names the predicate references."""
        raise NotImplementedError

    def is_ca_predicate(self) -> bool:
        """Whether the predicate lies in the Definition 4.1 fragment.

        The fragment is: atomic comparisons ``A θ B`` / ``A θ k``, and
        disjunctions of such terms.
        """
        raise NotImplementedError

    # Convenient composition ------------------------------------------------

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)

    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __invert__(self) -> "Predicate":
        return Not(self)


class Comparison(Predicate):
    """An atomic comparison ``A θ B`` or ``A θ k``.

    Parameters
    ----------
    attr:
        Left-hand attribute name.
    op:
        One of ``= != < <= > >=``.
    rhs:
        Either another attribute name (when *rhs_is_attr*) or a constant.
    rhs_is_attr:
        Disambiguates string constants from attribute references.
    """

    __slots__ = ("attr", "op", "rhs", "rhs_is_attr", "_fn")

    def __init__(self, attr: str, op: str, rhs: Any, rhs_is_attr: bool = False) -> None:
        if op not in _OPS:
            raise AlgebraError(f"unknown comparison operator {op!r}")
        self.attr = attr
        self.op = op
        self.rhs = rhs
        self.rhs_is_attr = rhs_is_attr
        self._fn = _OPS[op]

    def evaluate(self, row: Row) -> bool:
        left = row[self.attr]
        right = row[self.rhs] if self.rhs_is_attr else self.rhs
        if left is None or right is None:
            return False  # SQL-style: comparisons with NULL are not true
        return self._fn(left, right)

    def attributes(self) -> FrozenSet[str]:
        names = {self.attr}
        if self.rhs_is_attr:
            names.add(self.rhs)
        return frozenset(names)

    def is_ca_predicate(self) -> bool:
        return True

    def flipped(self) -> "Comparison":
        """``A θ B`` rewritten as ``B θ' A`` (attribute–attribute only)."""
        if not self.rhs_is_attr:
            raise AlgebraError("cannot flip an attribute-constant comparison")
        return Comparison(self.rhs, _flip(self.op), self.attr, rhs_is_attr=True)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Comparison):
            return NotImplemented
        return (
            self.attr == other.attr
            and self.op == other.op
            and self.rhs == other.rhs
            and self.rhs_is_attr == other.rhs_is_attr
        )

    def __hash__(self) -> int:
        return hash((self.attr, self.op, self.rhs, self.rhs_is_attr))

    def __repr__(self) -> str:
        rhs = self.rhs if self.rhs_is_attr else repr(self.rhs)
        return f"({self.attr} {self.op} {rhs})"


class Or(Predicate):
    """Disjunction of sub-predicates (allowed inside CA predicates)."""

    __slots__ = ("terms",)

    def __init__(self, *terms: Predicate) -> None:
        if not terms:
            raise AlgebraError("OR requires at least one term")
        flattened = []
        for term in terms:
            if isinstance(term, Or):
                flattened.extend(term.terms)
            else:
                flattened.append(term)
        self.terms: Tuple[Predicate, ...] = tuple(flattened)

    def evaluate(self, row: Row) -> bool:
        return any(term.evaluate(row) for term in self.terms)

    def attributes(self) -> FrozenSet[str]:
        names: set = set()
        for term in self.terms:
            names |= term.attributes()
        return frozenset(names)

    def is_ca_predicate(self) -> bool:
        return all(isinstance(t, Comparison) for t in self.terms)

    def __repr__(self) -> str:
        return "(" + " OR ".join(map(repr, self.terms)) + ")"


class And(Predicate):
    """Conjunction — *outside* the strict Definition 4.1 fragment.

    Note that a conjunction of CA-admissible selections is expressible in
    CA as a cascade of selections, so the validator treats top-level ANDs
    as syntactic sugar while still reporting ``is_ca_predicate() == False``
    for nested uses that cannot be unfolded.
    """

    __slots__ = ("terms",)

    def __init__(self, *terms: Predicate) -> None:
        if not terms:
            raise AlgebraError("AND requires at least one term")
        flattened = []
        for term in terms:
            if isinstance(term, And):
                flattened.extend(term.terms)
            else:
                flattened.append(term)
        self.terms: Tuple[Predicate, ...] = tuple(flattened)

    def evaluate(self, row: Row) -> bool:
        return all(term.evaluate(row) for term in self.terms)

    def attributes(self) -> FrozenSet[str]:
        names: set = set()
        for term in self.terms:
            names |= term.attributes()
        return frozenset(names)

    def is_ca_predicate(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "(" + " AND ".join(map(repr, self.terms)) + ")"


class Not(Predicate):
    """Negation — general-RA only, never CA-admissible."""

    __slots__ = ("term",)

    def __init__(self, term: Predicate) -> None:
        self.term = term

    def evaluate(self, row: Row) -> bool:
        return not self.term.evaluate(row)

    def attributes(self) -> FrozenSet[str]:
        return self.term.attributes()

    def is_ca_predicate(self) -> bool:
        return False

    def __repr__(self) -> str:
        return f"(NOT {self.term!r})"


class TruePredicate(Predicate):
    """The always-true predicate (identity selection)."""

    __slots__ = ()

    def evaluate(self, row: Row) -> bool:
        return True

    def attributes(self) -> FrozenSet[str]:
        return frozenset()

    def is_ca_predicate(self) -> bool:
        return True

    def __repr__(self) -> str:
        return "TRUE"


TRUE = TruePredicate()


# -- convenience constructors ----------------------------------------------------


def attr_eq(attr: str, value: Any) -> Comparison:
    """``attr = value`` (constant comparison)."""
    return Comparison(attr, "=", value)


def attr_cmp(attr: str, op: str, value: Any) -> Comparison:
    """``attr op value`` (constant comparison)."""
    return Comparison(attr, op, value)


def attrs_cmp(left: str, op: str, right: str) -> Comparison:
    """``left op right`` (attribute–attribute comparison)."""
    return Comparison(left, op, right, rhs_is_attr=True)


def disjunction(terms: Iterable[Predicate]) -> Predicate:
    """OR together *terms*; a single term passes through unchanged."""
    terms = list(terms)
    if len(terms) == 1:
        return terms[0]
    return Or(*terms)


def conjunction(terms: Iterable[Predicate]) -> Predicate:
    """AND together *terms*; a single term passes through unchanged."""
    terms = list(terms)
    if len(terms) == 1:
        return terms[0]
    return And(*terms)
