"""Chronicle algebra operator trees (Definition 4.1).

Each node knows its output :class:`~repro.relational.schema.Schema`
(computed and validated at construction), its operand children, and the
referenced chronicles/relations.  The structural rules of the paper are
enforced eagerly:

* every chronicle-algebra expression *is a chronicle*: its schema retains
  the sequencing attribute (Lemma 4.1) — violating constructions raise
  :class:`~repro.errors.NotAChronicleError` (Theorem 4.3(1));
* binary chronicle operators require operands from the same chronicle
  group (Section 4);
* the CA-join operator requires the key-join guarantee of Definition 4.2.

Two *extension* operators — :class:`ChronicleProduct` and
:class:`NonEquiSeqJoin` — deliberately step outside CA.  They exist so the
maximality result (Theorem 4.3(2)) can be demonstrated empirically: their
maintenance provably needs access to stored chronicle history, and the
benchmarks show their per-append cost growing with |C|.

Construction is fluent: every node carries ``select/project/join/union/
minus/groupby_sn/product/keyjoin`` methods returning new nodes.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from ..aggregates.base import AggregateSpec
from ..core.chronicle import Chronicle
from ..errors import (
    AlgebraError,
    ChronicleGroupError,
    KeyJoinGuaranteeError,
    NotAChronicleError,
)
from ..relational.predicate import Predicate
from ..relational.schema import Attribute, Schema
from ..relational.tuples import Row


def aggregate_attribute(input_schema: Schema, spec: AggregateSpec) -> Attribute:
    """The result attribute for one aggregation-list entry.

    The domain follows the aggregate's ``output_domain`` (COUNT → INT,
    AVG → FLOAT, MIN/MAX/SUM → the input attribute's domain); results are
    nullable because some aggregates are undefined on empty groups.
    """
    input_domain = (
        input_schema.attribute(spec.attribute).domain
        if spec.attribute is not None
        else None
    )
    return Attribute(spec.output, spec.function.output_domain(input_domain), nullable=True)


class Node:
    """Base class of chronicle-algebra operator nodes.

    A constructor takes the operands first, then :attr:`param_names`.
    Rebuilding, interning, portable specs and shard rebinding derive
    from that one declaration; rules that differ per operator are one
    ``{operator class: rule}`` table per consumer.
    """

    #: Output schema; always a chronicle schema for CA nodes.
    schema: Schema
    #: Operand nodes (empty for leaves).
    children: Tuple["Node", ...] = ()
    #: The operator's name in interning keys and portable plan specs;
    #: ``None`` for the Theorem 4.3 extension operators, which are never
    #: merged by the interner, encoded or rebound onto shard mirrors.
    tag: Optional[str] = None
    #: The non-operand constructor arguments, in constructor order.  A
    #: parameter's name is also its kind for the generic consumers:
    #: ``chronicle`` and ``relation`` name live objects, ``predicate``
    #: and ``aggregates`` carry data with a structural key of their own.
    param_names: Tuple[str, ...] = ()

    @property
    def params(self) -> Tuple[Any, ...]:
        """The values of :attr:`param_names`, in constructor order."""
        return tuple(getattr(self, name) for name in self.param_names)

    # -- tree queries ---------------------------------------------------------------

    def chronicles(self) -> List[Chronicle]:
        """Every base chronicle referenced, in leaf order (with repeats)."""
        return self._referenced("chronicle")

    def relations(self) -> List[Any]:
        """Every relation referenced, in tree order (with repeats)."""
        return self._referenced("relation")

    def _referenced(self, param: str) -> List[Any]:
        return [getattr(node, param) for node in self.walk() if param in node.param_names]

    def walk(self) -> Iterator["Node"]:
        """Depth-first pre-order iteration over the tree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def fold(self, visit: Callable[["Node", Tuple[Any, ...]], Any]) -> Any:
        """Post-order map: ``visit(node, results for its children)``.

        Children are folded left to right before their parent; the
        result for the root is returned.
        """
        return visit(self, tuple(child.fold(visit) for child in self.children))

    def with_children(self, children: Sequence["Node"]) -> "Node":
        """This operator, same parameters, over new operand *children*.

        Goes through the constructor, so every structural invariant is
        checked again for the new operands.
        """
        return type(self)(*children, *self.params)

    @property
    def group(self):
        """The chronicle group the expression's result belongs to.

        Lemma 4.1: a CA expression is a chronicle in the same group as
        its operands.
        """
        for chronicle in self.chronicles():
            return chronicle.group
        return None

    def _require_same_group(self, other: "Node", operation: str) -> None:
        left, right = self.group, other.group
        if left is not None and right is not None and left is not right:
            raise ChronicleGroupError(
                f"{operation} requires operands from the same chronicle group; "
                f"got {left.name!r} and {right.name!r}"
            )

    # -- fluent construction -----------------------------------------------------------

    def select(self, predicate: Predicate) -> "Select":
        """σ_p over this expression."""
        return Select(self, predicate)

    def project(self, names: Sequence[str]) -> "Project":
        """π over this expression (must retain the sequencing attribute)."""
        return Project(self, names)

    def join(self, other: "Node") -> "SeqJoin":
        """Natural equijoin with *other* on the sequencing attribute."""
        return SeqJoin(self, other)

    def union(self, other: "Node") -> "Union":
        """Set union with *other*."""
        return Union(self, other)

    def minus(self, other: "Node") -> "Difference":
        """Set difference with *other*."""
        return Difference(self, other)

    def groupby_sn(
        self, grouping: Sequence[str], aggregates: Sequence[AggregateSpec]
    ) -> "GroupBySeq":
        """GROUPBY with the sequencing attribute among the grouping list."""
        return GroupBySeq(self, grouping, aggregates)

    def product(self, relation: Any) -> "RelProduct":
        """Temporal cross product with a relation (C × R)."""
        return RelProduct(self, relation)

    def keyjoin(
        self, relation: Any, pairs: Sequence[Tuple[str, str]]
    ) -> "RelKeyJoin":
        """Key-guaranteed join with a relation (the CA-join operator)."""
        return RelKeyJoin(self, relation, pairs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self.children))})"


class ChronicleScan(Node):
    """Leaf node: a base chronicle."""

    tag = "scan"
    param_names = ("chronicle",)

    def __init__(self, chronicle: Chronicle) -> None:
        self.chronicle = chronicle
        self.schema = chronicle.schema
        self.children = ()

    def __repr__(self) -> str:
        return f"Scan({self.chronicle.name})"


class Select(Node):
    """σ_p(C) with p a CA predicate (checked by the validator)."""

    tag = "select"
    param_names = ("predicate",)

    def __init__(self, child: Node, predicate: Predicate) -> None:
        # Every referenced attribute must exist; fail at build time.
        for name in predicate.attributes():
            child.schema.position(name)
        self.child = child
        self.predicate = predicate
        self.schema = child.schema
        self.children = (child,)

    def __repr__(self) -> str:
        return f"Select({self.predicate!r}, {self.child!r})"


class Project(Node):
    """Π over attributes that include the sequencing attribute."""

    tag = "project"
    param_names = ("names",)

    def __init__(self, child: Node, names: Sequence[str]) -> None:
        names = list(names)
        seq = child.schema.sequence_attribute
        if seq is not None and seq not in names:
            raise NotAChronicleError(
                f"projection onto {names} drops the sequencing attribute "
                f"{seq!r}; the result would not be a chronicle (Theorem 4.3). "
                f"Use the summarization step (SCA) to eliminate it."
            )
        self.child = child
        self.names = tuple(names)
        self.schema = child.schema.project(names)
        self.children = (child,)

    def __repr__(self) -> str:
        return f"Project({list(self.names)}, {self.child!r})"


class SeqJoin(Node):
    """Natural equijoin of two chronicles on the sequencing attribute.

    One of the two sequencing attributes is projected out of the result
    (Definition 4.1); the output schema is the left schema followed by the
    right schema minus its sequencing attribute, with name clashes
    prefixed ``r_``.
    """

    tag = "seqjoin"

    def __init__(self, left: Node, right: Node) -> None:
        if left.schema.sequence_attribute is None or right.schema.sequence_attribute is None:
            raise NotAChronicleError("sequence join requires two chronicle operands")
        left._require_same_group(right, "sequence join")
        self.left = left
        self.right = right
        right_kept = [
            n for n in right.schema.names if n != right.schema.sequence_attribute
        ]
        self._right_positions = right.schema.positions(right_kept)
        self.schema = left.schema.concat(right.schema.project(right_kept))
        self.children = (left, right)

    def combine(self, left_row: Row, right_row: Row) -> Row:
        """Join one matching pair into an output row."""
        values = left_row.values + tuple(
            right_row.values[p] for p in self._right_positions
        )
        return Row(self.schema, values, validate=False)


class Union(Node):
    """C1 ∪ C2 over same-typed chronicles of one group."""

    tag = "union"

    def __init__(self, left: Node, right: Node) -> None:
        left.schema.require_compatible(right.schema, "chronicle union")
        left._require_same_group(right, "chronicle union")
        self.left = left
        self.right = right
        self.schema = left.schema
        self.children = (left, right)


class Difference(Node):
    """C1 − C2 over same-typed chronicles of one group."""

    tag = "difference"

    def __init__(self, left: Node, right: Node) -> None:
        left.schema.require_compatible(right.schema, "chronicle difference")
        left._require_same_group(right, "chronicle difference")
        self.left = left
        self.right = right
        self.schema = left.schema
        self.children = (left, right)


class GroupBySeq(Node):
    """GROUPBY(C, GL, AL) with the sequencing attribute in GL.

    Because every group contains one sequence number and appends only
    bring fresh sequence numbers, delta groups are brand-new groups — the
    aggregation step of the Theorem 4.2 proof.
    """

    tag = "groupby_sn"
    param_names = ("grouping", "aggregates")

    def __init__(
        self,
        child: Node,
        grouping: Sequence[str],
        aggregates: Sequence[AggregateSpec],
    ) -> None:
        grouping = list(grouping)
        seq = child.schema.sequence_attribute
        if seq is None or seq not in grouping:
            raise NotAChronicleError(
                f"chronicle-algebra GROUPBY must group by the sequencing "
                f"attribute {seq!r}; grouping without it belongs to the "
                f"summarization step (Theorem 4.3)"
            )
        if not aggregates:
            raise AlgebraError("GROUPBY requires at least one aggregation function")
        for name in grouping:
            child.schema.position(name)
        for agg in aggregates:
            if agg.attribute is not None:
                child.schema.position(agg.attribute)
        self.child = child
        self.grouping = tuple(grouping)
        self.aggregates = tuple(aggregates)
        attrs = [child.schema.attribute(name) for name in grouping]
        attrs += [aggregate_attribute(child.schema, a) for a in aggregates]
        self.schema = Schema(attrs, sequence_attribute=seq)
        self.children = (child,)

    def __repr__(self) -> str:
        return (
            f"GroupBySeq({list(self.grouping)}, {list(self.aggregates)}, {self.child!r})"
        )


class RelProduct(Node):
    """C × R — cross product with an implicit temporal join (Sec. 2.3).

    Each chronicle tuple is combined with the version of R current at the
    tuple's sequence number.  Maintenance only ever needs the *current*
    version (proactive updates), so the delta step costs O(|R|) per delta
    tuple — the source of the (u·|R|)^j factor in Theorem 4.2.
    """

    tag = "relproduct"
    param_names = ("relation",)

    def __init__(self, child: Node, relation: Any) -> None:
        if child.schema.sequence_attribute is None:
            raise NotAChronicleError("relation product requires a chronicle operand")
        self.child = child
        self.relation = relation
        self.schema = child.schema.concat(relation.schema)
        self.children = (child,)

    def combine(self, chronicle_row: Row, relation_row: Row) -> Row:
        values = chronicle_row.values + relation_row.values
        return Row(self.schema, values, validate=False)

    def __repr__(self) -> str:
        return f"RelProduct({self.child!r}, {self.relation.name})"


class RelKeyJoin(Node):
    """The CA-join operator of Definition 4.2.

    Joins the chronicle expression to a relation on attribute *pairs*
    ``(chronicle_attr, relation_attr)``; the relation-side attributes must
    carry a uniqueness guarantee (the relation's key or a unique index) so
    that at most a constant number of relation tuples match each chronicle
    tuple.  The matched relation key attributes are projected out of the
    result (they duplicate chronicle attributes).
    """

    tag = "relkeyjoin"
    param_names = ("relation", "pairs")

    def __init__(
        self,
        child: Node,
        relation: Any,
        pairs: Sequence[Tuple[str, str]],
    ) -> None:
        if child.schema.sequence_attribute is None:
            raise NotAChronicleError("relation join requires a chronicle operand")
        if not pairs:
            raise AlgebraError("relation join requires at least one attribute pair")
        pairs = [tuple(p) for p in pairs]
        for chronicle_attr, relation_attr in pairs:
            child.schema.position(chronicle_attr)
            relation.schema.position(relation_attr)
        relation_attrs = [r for _, r in pairs]
        if not relation.has_unique_index(relation_attrs):
            raise KeyJoinGuaranteeError(
                f"CA-join on {relation.name}.{relation_attrs} lacks the "
                f"Definition 4.2 guarantee: the join attributes must be a key "
                f"of the relation (or carry a unique index) so at most a "
                f"constant number of tuples match"
            )
        self.child = child
        self.relation = relation
        self.pairs: Tuple[Tuple[str, str], ...] = tuple(pairs)
        kept = [n for n in relation.schema.names if n not in relation_attrs]
        self._kept_positions = relation.schema.positions(kept)
        self._child_positions = child.schema.positions([c for c, _ in pairs])
        self.relation_attrs = tuple(relation_attrs)
        self.schema = child.schema.concat(relation.schema.project(kept))
        self.children = (child,)

    def probe_key(self, chronicle_row: Row) -> Any:
        """The relation-side lookup key for one chronicle row."""
        values = tuple(chronicle_row.values[p] for p in self._child_positions)
        return values[0] if len(values) == 1 else values

    def combine(self, chronicle_row: Row, relation_row: Row) -> Row:
        values = chronicle_row.values + tuple(
            relation_row.values[p] for p in self._kept_positions
        )
        return Row(self.schema, values, validate=False)

    def __repr__(self) -> str:
        return f"RelKeyJoin({self.child!r}, {self.relation.name}, {list(self.pairs)})"


# ---------------------------------------------------------------------------
# Extension operators — outside CA (Theorem 4.3(2))
# ---------------------------------------------------------------------------


class ChronicleProduct(Node):
    """C1 × C2 — cross product *between chronicles*.

    Not part of CA: maintaining it requires looking up all old tuples of
    one chronicle whenever the other grows, putting maintenance in
    IM-C^k.  Provided (and so marked) purely to demonstrate Theorem
    4.3(2); the delta engine refuses it unless explicitly granted
    chronicle access.
    """

    def __init__(self, left: Node, right: Node) -> None:
        if left.schema.sequence_attribute is None or right.schema.sequence_attribute is None:
            raise NotAChronicleError("chronicle product requires chronicle operands")
        left._require_same_group(right, "chronicle product")
        self.left = left
        self.right = right
        # Both sequence numbers survive; the left one remains the
        # distinguished sequencing attribute of the (pseudo-)chronicle.
        self.schema = left.schema.concat(right.schema)
        self.children = (left, right)

    def combine(self, left_row: Row, right_row: Row) -> Row:
        return Row(self.schema, left_row.values + right_row.values, validate=False)


class NonEquiSeqJoin(Node):
    """C1 ⋈_{SN θ SN} C2 with θ a non-equality comparison.

    Not part of CA for the same reason as :class:`ChronicleProduct`
    (Theorem 4.3(2)): old chronicle tuples must be revisited.
    """

    param_names = ("op",)

    def __init__(self, left: Node, right: Node, op: str) -> None:
        if op == "=":
            raise AlgebraError("use SeqJoin for the equijoin on sequence numbers")
        if op not in ("<", "<=", ">", ">=", "!="):
            raise AlgebraError(f"unknown comparison operator {op!r}")
        if left.schema.sequence_attribute is None or right.schema.sequence_attribute is None:
            raise NotAChronicleError("sequence join requires chronicle operands")
        left._require_same_group(right, "non-equi sequence join")
        self.left = left
        self.right = right
        self.op = op
        self.schema = left.schema.concat(right.schema)
        self.children = (left, right)

    def combine(self, left_row: Row, right_row: Row) -> Row:
        return Row(self.schema, left_row.values + right_row.values, validate=False)


def scan(chronicle: Chronicle) -> ChronicleScan:
    """Entry point of the fluent builder: scan a base chronicle."""
    return ChronicleScan(chronicle)
