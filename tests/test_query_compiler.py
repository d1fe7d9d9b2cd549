"""Tests for the view-definition compiler (text → CA/SCA trees)."""

import pytest

from repro.algebra.ast import RelKeyJoin, RelProduct, Select, SeqJoin
from repro.algebra.classify import Language, language_of
from repro.core.group import ChronicleGroup
from repro.errors import CompileError
from repro.query.compiler import Catalog, Compiler, compile_view
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sca.summarize import GroupBySummary, ProjectSummary


@pytest.fixture
def catalog():
    group = ChronicleGroup("g")
    flights = group.create_chronicle(
        "flights", [("acct", "INT"), ("miles", "INT"), ("day", "INT")]
    )
    bonuses = group.create_chronicle(
        "bonuses", [("acct", "INT"), ("miles", "INT"), ("day", "INT")]
    )
    customers = Relation(
        "customers",
        Schema.build(("acct", "INT"), ("name", "STR"), ("state", "STR"), key=["acct"]),
    )
    return Catalog(
        {"flights": flights, "bonuses": bonuses}, {"customers": customers}
    )


class TestFromClause:
    def test_unknown_source(self, catalog):
        with pytest.raises(CompileError):
            compile_view("DEFINE VIEW v AS SELECT acct FROM nowhere", catalog)

    def test_relation_as_source_rejected(self, catalog):
        with pytest.raises(CompileError):
            compile_view("DEFINE VIEW v AS SELECT name FROM customers", catalog)

    def test_plain_scan(self, catalog):
        name, summary = compile_view(
            "DEFINE VIEW v AS SELECT acct FROM flights", catalog
        )
        assert name == "v"
        assert isinstance(summary, ProjectSummary)
        assert language_of(summary.expression) is Language.CA1


class TestJoins:
    def test_key_join_compiles_to_relkeyjoin(self, catalog):
        _, summary = compile_view(
            "DEFINE VIEW v AS SELECT state, SUM(miles) AS total "
            "FROM flights JOIN customers ON flights.acct = customers.acct "
            "GROUP BY state",
            catalog,
        )
        assert isinstance(summary.expression, RelKeyJoin)
        assert language_of(summary.expression) is Language.CA_JOIN

    def test_join_orientation_flipped(self, catalog):
        _, summary = compile_view(
            "DEFINE VIEW v AS SELECT state, COUNT(*) AS n "
            "FROM flights JOIN customers ON customers.acct = flights.acct "
            "GROUP BY state",
            catalog,
        )
        assert isinstance(summary.expression, RelKeyJoin)
        assert summary.expression.pairs == (("acct", "acct"),)

    def test_cross_join_compiles_to_product(self, catalog):
        _, summary = compile_view(
            "DEFINE VIEW v AS SELECT state, COUNT(*) AS n "
            "FROM flights CROSS JOIN customers GROUP BY state",
            catalog,
        )
        assert isinstance(summary.expression, RelProduct)
        assert language_of(summary.expression) is Language.CA

    def test_chronicle_join_on_sequence_numbers(self, catalog):
        # "acct" is ambiguous after the join (both chronicles carry it),
        # so it must be qualified — the compiler renames the right-hand
        # copy to r_acct internally.
        _, summary = compile_view(
            "DEFINE VIEW v AS SELECT flights.acct, COUNT(*) AS n "
            "FROM flights JOIN bonuses ON flights.sn = bonuses.sn "
            "GROUP BY flights.acct",
            catalog,
        )
        assert isinstance(summary.expression, SeqJoin)
        assert summary.grouping == ("acct",)

    def test_chronicle_join_unqualified_ambiguous_column_rejected(self, catalog):
        with pytest.raises(CompileError):
            compile_view(
                "DEFINE VIEW v AS SELECT acct, COUNT(*) AS n "
                "FROM flights JOIN bonuses ON flights.sn = bonuses.sn "
                "GROUP BY acct",
                catalog,
            )

    def test_chronicle_join_on_other_attribute_rejected(self, catalog):
        # Theorem 4.3: only the SN equijoin is inside CA.
        with pytest.raises(CompileError):
            compile_view(
                "DEFINE VIEW v AS SELECT acct, COUNT(*) AS n "
                "FROM flights JOIN bonuses ON flights.acct = bonuses.acct "
                "GROUP BY acct",
                catalog,
            )

    def test_chronicle_cross_join_rejected(self, catalog):
        with pytest.raises(CompileError):
            compile_view(
                "DEFINE VIEW v AS SELECT acct, COUNT(*) AS n "
                "FROM flights CROSS JOIN bonuses GROUP BY acct",
                catalog,
            )

    def test_qualified_relation_attribute_after_join(self, catalog):
        _, summary = compile_view(
            "DEFINE VIEW v AS SELECT customers.state, SUM(miles) AS total "
            "FROM flights JOIN customers ON flights.acct = customers.acct "
            "GROUP BY customers.state",
            catalog,
        )
        assert summary.grouping == ("state",)

    def test_joined_key_resolves_to_chronicle_attr(self, catalog):
        _, summary = compile_view(
            "DEFINE VIEW v AS SELECT customers.acct, COUNT(*) AS n "
            "FROM flights JOIN customers ON flights.acct = customers.acct "
            "GROUP BY customers.acct",
            catalog,
        )
        assert summary.grouping == ("acct",)


class TestWhere:
    def test_where_becomes_selection(self, catalog):
        _, summary = compile_view(
            "DEFINE VIEW v AS SELECT acct FROM flights WHERE miles > 0",
            catalog,
        )
        assert isinstance(summary.expression, Select)

    def test_constant_normalization(self, catalog):
        _, summary = compile_view(
            "DEFINE VIEW v AS SELECT acct FROM flights WHERE 100 < miles",
            catalog,
        )
        predicate = summary.expression.predicate
        assert predicate.attr == "miles" and predicate.op == ">"

    def test_where_unknown_column(self, catalog):
        with pytest.raises(CompileError):
            compile_view(
                "DEFINE VIEW v AS SELECT acct FROM flights WHERE zzz = 1", catalog
            )

    def test_chronicle_conjunct_pushed_below_join(self, catalog):
        """Chronicle-only WHERE conjuncts sit directly above the scan so
        the Section 5.2 prefilter can harvest them."""
        _, summary = compile_view(
            "DEFINE VIEW v AS SELECT state, COUNT(*) AS n "
            "FROM flights JOIN customers ON flights.acct = customers.acct "
            "WHERE miles > 100 AND state = 'NJ' GROUP BY state",
            catalog,
        )
        from repro.views.registry import scan_prefilters

        prefilters = scan_prefilters(summary.expression)
        assert len(prefilters["flights"]) == 1  # miles > 100 pushed down
        # The residual (state = 'NJ') stays above the join.
        assert isinstance(summary.expression, Select)

    def test_pushdown_preserves_semantics(self, catalog):
        from repro.core.group import ChronicleGroup
        from repro.sca.view import PersistentView, evaluate_summary
        from repro.views.registry import attach_view

        flights = catalog.chronicles["flights"]
        customers = catalog.relations["customers"]
        customers.insert({"acct": 1, "name": "a", "state": "NJ"})
        customers.insert({"acct": 2, "name": "b", "state": "NY"})
        _, summary = compile_view(
            "DEFINE VIEW v AS SELECT state, SUM(miles) AS total "
            "FROM flights JOIN customers ON flights.acct = customers.acct "
            "WHERE miles > 50 AND state = 'NJ' GROUP BY state",
            catalog,
        )
        view = PersistentView("v", summary)
        group = flights.group
        attach_view(view, group)
        for acct, miles in ((1, 40), (1, 60), (2, 70), (1, 80)):
            group.append(flights, {"acct": acct, "miles": miles, "day": 0})
        assert view.value(("NJ",), "total") == 140
        assert view.to_table() == evaluate_summary(summary)


class TestSelectList:
    def test_group_by_produces_groupby_summary(self, catalog):
        _, summary = compile_view(
            "DEFINE VIEW v AS SELECT acct, SUM(miles) AS total, COUNT(*) AS n "
            "FROM flights GROUP BY acct",
            catalog,
        )
        assert isinstance(summary, GroupBySummary)
        assert summary.grouping == ("acct",)
        assert [s.output for s in summary.aggregates] == ["total", "n"]

    def test_aggregates_without_group_by_are_global(self, catalog):
        _, summary = compile_view(
            "DEFINE VIEW v AS SELECT SUM(miles) AS total FROM flights", catalog
        )
        assert isinstance(summary, GroupBySummary)
        assert summary.grouping == ()

    def test_plain_select_is_projection(self, catalog):
        _, summary = compile_view(
            "DEFINE VIEW v AS SELECT acct, miles FROM flights", catalog
        )
        assert isinstance(summary, ProjectSummary)
        assert summary.names == ("acct", "miles")

    def test_selecting_sn_rejected(self, catalog):
        with pytest.raises(CompileError):
            compile_view("DEFINE VIEW v AS SELECT sn, acct FROM flights", catalog)

    def test_grouping_by_sn_rejected(self, catalog):
        with pytest.raises(CompileError):
            compile_view(
                "DEFINE VIEW v AS SELECT sn, COUNT(*) AS n FROM flights GROUP BY sn",
                catalog,
            )

    def test_non_grouped_column_rejected(self, catalog):
        with pytest.raises(CompileError):
            compile_view(
                "DEFINE VIEW v AS SELECT day, SUM(miles) AS t FROM flights GROUP BY acct",
                catalog,
            )

    def test_group_by_without_aggregate_rejected(self, catalog):
        with pytest.raises(CompileError):
            compile_view(
                "DEFINE VIEW v AS SELECT acct FROM flights GROUP BY acct", catalog
            )

    def test_unknown_aggregate(self, catalog):
        with pytest.raises(Exception):
            compile_view(
                "DEFINE VIEW v AS SELECT MEDIAN(miles) AS m FROM flights", catalog
            )

    def test_count_requires_no_argument_but_sum_does(self, catalog):
        with pytest.raises(CompileError):
            compile_view("DEFINE VIEW v AS SELECT SUM(*) AS s FROM flights", catalog)

    def test_projection_alias_rejected(self, catalog):
        with pytest.raises(CompileError):
            compile_view(
                "DEFINE VIEW v AS SELECT acct AS account FROM flights", catalog
            )


class TestCatalog:
    def test_kind_of(self, catalog):
        assert catalog.kind_of("flights") == "chronicle"
        assert catalog.kind_of("customers") == "relation"

    def test_kind_of_unknown(self, catalog):
        with pytest.raises(CompileError):
            catalog.kind_of("nope")

    def test_name_collision_detected(self, catalog):
        collision = Relation("flights", Schema.build(("x", "INT")))
        catalog.add_relation(collision)
        with pytest.raises(CompileError):
            catalog.kind_of("flights")

    def test_ambiguous_unqualified_column(self, catalog):
        # "name" only exists in customers, "miles" only in flights; but
        # "acct" exists in both after a join — must qualify in GROUP BY?
        # The joined key case resolves both qualifiers to the chronicle
        # attribute, so it is NOT ambiguous.  An ambiguous case needs a
        # non-key shared attribute.
        group = ChronicleGroup("g2")
        readings = group.create_chronicle("readings", [("zone", "INT"), ("v", "INT")])
        zones = Relation(
            "zones", Schema.build(("zid", "INT"), ("v", "INT"), key=["zid"])
        )
        cat = Catalog({"readings": readings}, {"zones": zones})
        with pytest.raises(CompileError):
            compile_view(
                "DEFINE VIEW x AS SELECT v, COUNT(*) AS n "
                "FROM readings JOIN zones ON readings.zone = zones.zid GROUP BY v",
                cat,
            )
