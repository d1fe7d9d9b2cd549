"""Tests for language classification (Definition 4.2, Theorem 4.5) and
structural validation of the CA fragments."""

import pytest

from repro.aggregates import SUM, spec
from repro.algebra.ast import ChronicleProduct, NonEquiSeqJoin, scan
from repro.algebra.classify import (
    IMClass,
    Language,
    classify,
    im_class_of,
    language_of,
    predicate_in_ca_fragment,
)
from repro.algebra.validate import validate_ca, validate_ca1, validate_ca_join
from repro.core.group import ChronicleGroup
from repro.errors import LanguageViolationError
from repro.relational.predicate import And, Not, Or, attr_cmp, attr_eq
from repro.relational.relation import Relation
from repro.relational.schema import Schema


@pytest.fixture
def setup():
    group = ChronicleGroup("g")
    calls = group.create_chronicle("calls", [("acct", "INT"), ("mins", "INT")])
    fees = group.create_chronicle("fees", [("acct", "INT"), ("mins", "INT")])
    customers = Relation(
        "customers", Schema.build(("acct", "INT"), ("state", "STR"), key=["acct"])
    )
    customers.insert({"acct": 1, "state": "NJ"})
    customers.insert({"acct": 2, "state": "NY"})
    return group, calls, fees, customers


class TestLanguageFragments:
    def test_pure_chronicle_expression_is_ca1(self, setup):
        _, calls, fees, _ = setup
        node = scan(calls).select(attr_cmp("mins", ">", 0)).union(scan(fees))
        assert language_of(node) is Language.CA1

    def test_keyjoin_promotes_to_ca_join(self, setup):
        _, calls, _, customers = setup
        node = scan(calls).keyjoin(customers, [("acct", "acct")])
        assert language_of(node) is Language.CA_JOIN

    def test_product_promotes_to_ca(self, setup):
        _, calls, _, customers = setup
        node = scan(calls).product(customers)
        assert language_of(node) is Language.CA

    def test_product_dominates_keyjoin(self, setup):
        _, calls, _, customers = setup
        node = scan(calls).keyjoin(customers, [("acct", "acct")]).product(customers)
        assert language_of(node) is Language.CA

    def test_chronicle_product_is_not_ca(self, setup):
        _, calls, fees, _ = setup
        node = ChronicleProduct(scan(calls), scan(fees))
        assert language_of(node) is Language.NOT_CA

    def test_non_equi_join_is_not_ca(self, setup):
        _, calls, fees, _ = setup
        node = NonEquiSeqJoin(scan(calls), scan(fees), "<")
        assert language_of(node) is Language.NOT_CA

    def test_negated_predicate_is_not_ca(self, setup):
        _, calls, _, _ = setup
        node = scan(calls).select(Not(attr_eq("acct", 1)))
        assert language_of(node) is Language.NOT_CA

    def test_language_ordering(self):
        assert Language.CA1 <= Language.CA_JOIN <= Language.CA <= Language.NOT_CA
        assert not (Language.CA <= Language.CA1)


class TestCounts:
    def test_union_and_join_counts(self, setup):
        _, calls, fees, customers = setup
        node = (
            scan(calls)
            .union(scan(fees))
            .keyjoin(customers, [("acct", "acct")])
        )
        result = classify(node)
        assert result.unions == 1
        assert result.joins == 1
        assert result.max_relation_size == 2

    def test_seq_join_counts_as_join(self, setup):
        _, calls, fees, _ = setup
        node = scan(calls).join(scan(fees))
        assert classify(node).joins == 1

    def test_nested_counts(self, setup):
        _, calls, fees, customers = setup
        left = scan(calls).union(scan(fees))
        right = scan(calls).union(scan(fees))
        node = left.join(right).product(customers)
        result = classify(node)
        assert result.unions == 2
        assert result.joins == 2

    def test_delta_size_bound_monotone(self, setup):
        _, calls, fees, customers = setup
        small = classify(scan(calls))
        big = classify(
            scan(calls).union(scan(fees)).product(customers).product(customers)
        )
        assert small.delta_size_bound() <= big.delta_size_bound()


class TestIMClasses:
    def test_theorem_45_mapping(self, setup):
        # Theorem 4.5: SCA1 ⊂ IM-Constant, SCA⋈ ⊂ IM-log(R), SCA ⊂ IM-R^k.
        _, calls, fees, customers = setup
        assert im_class_of(scan(calls)) is IMClass.CONSTANT
        assert (
            im_class_of(scan(calls).keyjoin(customers, [("acct", "acct")]))
            is IMClass.LOG_R
        )
        assert im_class_of(scan(calls).product(customers)) is IMClass.POLY_R
        assert (
            im_class_of(ChronicleProduct(scan(calls), scan(fees)))
            is IMClass.POLY_C
        )

    def test_im_class_ordering(self):
        # The containment chain of Section 3.
        assert IMClass.CONSTANT <= IMClass.LOG_R <= IMClass.POLY_R <= IMClass.POLY_C


class TestPredicateFragment:
    def test_comparisons_and_disjunctions_admissible(self):
        assert predicate_in_ca_fragment(attr_eq("a", 1))
        assert predicate_in_ca_fragment(Or(attr_eq("a", 1), attr_cmp("b", "<", 2)))

    def test_conjunction_sugar_admissible(self):
        assert predicate_in_ca_fragment(And(attr_eq("a", 1), attr_eq("b", 2)))
        assert predicate_in_ca_fragment(
            And(Or(attr_eq("a", 1), attr_eq("a", 2)), attr_eq("b", 3))
        )

    def test_negation_inadmissible(self):
        assert not predicate_in_ca_fragment(Not(attr_eq("a", 1)))

    def test_or_of_and_inadmissible(self):
        # Definition 4.1 allows only disjunctions of atomic terms.
        assert not predicate_in_ca_fragment(
            Or(And(attr_eq("a", 1), attr_eq("b", 2)), attr_eq("c", 3))
        )


class TestValidators:
    def test_validate_ca_accepts_ca(self, setup):
        _, calls, _, customers = setup
        validate_ca(scan(calls).product(customers))

    def test_validate_ca_rejects_extension_ops(self, setup):
        _, calls, fees, _ = setup
        with pytest.raises(LanguageViolationError):
            validate_ca(ChronicleProduct(scan(calls), scan(fees)))
        with pytest.raises(LanguageViolationError):
            validate_ca(NonEquiSeqJoin(scan(calls), scan(fees), "<"))

    def test_validate_ca_rejects_bad_predicate(self, setup):
        _, calls, _, _ = setup
        with pytest.raises(LanguageViolationError):
            validate_ca(scan(calls).select(Not(attr_eq("acct", 1))))

    def test_validate_ca_join_rejects_product(self, setup):
        _, calls, _, customers = setup
        with pytest.raises(LanguageViolationError):
            validate_ca_join(scan(calls).product(customers))

    def test_validate_ca_join_accepts_keyjoin(self, setup):
        _, calls, _, customers = setup
        validate_ca_join(scan(calls).keyjoin(customers, [("acct", "acct")]))

    def test_validate_ca1_rejects_relation_operators(self, setup):
        _, calls, _, customers = setup
        with pytest.raises(LanguageViolationError):
            validate_ca1(scan(calls).keyjoin(customers, [("acct", "acct")]))
        with pytest.raises(LanguageViolationError):
            validate_ca1(scan(calls).product(customers))

    def test_validate_ca1_accepts_pure_chronicle(self, setup):
        _, calls, fees, _ = setup
        validate_ca1(scan(calls).union(scan(fees)).select(attr_eq("acct", 1)))
