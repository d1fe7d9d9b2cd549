"""Compiled maintenance plans: multi-query CSE + fused delta pipelines.

Every persistent view is maintained by a compiled plan: the delta rules
of the Theorem 4.1 proof (stated one operator at a time in
:mod:`repro.algebra.reference`, the oracle the plans are tested
against), built once per view into directly linked closures, in the
spirit of classic multi-query optimization [Sellis 86] and
DBToaster-style compiled delta programs [Koch et al. 14]:

1. **Structural interning** (:class:`Interner`) — at registration time,
   algebra trees are rewritten bottom-up so structurally equal subtrees
   become *one shared node object*.  Two views defined independently over
   ``σ_p(scan(calls))`` end up referencing the same ``Select`` node, so a
   per-event cache keyed by node identity hits across views.

2. **Plan compilation** (:class:`PlanCompiler`) — each view's delta
   propagation is fused into a flat closure pipeline.  Chains of
   select/project collapse into a single compiled function over raw value
   tuples (predicates are precompiled against attribute *positions*, so
   the hot loop never resolves names or allocates intermediate rows), and
   there is no per-node dispatch: the plan is a tree of directly linked
   closures.  Nodes shared between plans become explicit cache points,
   evaluated once per append event.

Every operator compiles to a step.  The CA operators compile to their
delta rules; the Theorem 4.3 extension operators, which have none,
compile to a step that raises :class:`~repro.errors.ChronicleAccessError`
— maintaining them would mean reading stored chronicle history, which
the maintenance path never does.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..complexity.counters import GLOBAL_COUNTERS
from ..core.delta import Delta
from ..errors import AlgebraError, ChronicleAccessError
from ..obs import runtime as obs_runtime
from ..relational.predicate import And, Comparison, Not, Or, Predicate, TruePredicate
from ..relational.schema import Attribute, Schema
from ..relational.tuples import Row
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
)

#: A compiled delta step: (event deltas, per-event cache) → node delta.
PlanFn = Callable[[Mapping[str, Delta], Dict[int, Delta]], Delta]

#: A compiled predicate over a raw value tuple.
ValuesPredicate = Callable[[Tuple[Any, ...]], bool]


# ---------------------------------------------------------------------------
# Structural keys
# ---------------------------------------------------------------------------


def predicate_key(predicate: Predicate) -> Tuple[Any, ...]:
    """A hashable structural fingerprint of a predicate.

    Two predicates with equal keys accept exactly the same rows, so the
    selections carrying them can be merged by the interner.
    """
    if isinstance(predicate, Comparison):
        rhs = predicate.rhs
        try:
            hash(rhs)
        except TypeError:
            rhs = id(rhs)
        return ("cmp", predicate.attr, predicate.op, rhs, predicate.rhs_is_attr)
    if isinstance(predicate, Or):
        return ("or",) + tuple(predicate_key(t) for t in predicate.terms)
    if isinstance(predicate, And):
        return ("and",) + tuple(predicate_key(t) for t in predicate.terms)
    if isinstance(predicate, Not):
        return ("not", predicate_key(predicate.term))
    if isinstance(predicate, TruePredicate):
        return ("true",)
    # User-defined predicate classes: identity is the only safe equality.
    return ("opaque", id(predicate))


def _aggregate_key(spec: Any) -> Tuple[Any, ...]:
    # The standard aggregates are module-level singletons, so identity of
    # the function object is exactly "same aggregation function".
    return (id(spec.function), spec.attribute, spec.output)


# ---------------------------------------------------------------------------
# Interner
# ---------------------------------------------------------------------------


class Interner:
    """Hash-conses algebra trees so equal subtrees become one object.

    ``intern`` rebuilds a tree bottom-up, looking each node up by its
    structural key; the first tree to exhibit a subexpression donates the
    canonical node, later trees reference it.  Nodes whose structure
    cannot be fingerprinted (extension or user-defined operators) are
    interned by identity — they never merge, but their (interned)
    children still can.
    """

    def __init__(self) -> None:
        self._table: Dict[Tuple[Any, ...], Node] = {}
        # id(canonical node) → its table key, so release() finds the entry.
        self._keys: Dict[int, Tuple[Any, ...]] = {}

    def __len__(self) -> int:
        return len(self._table)

    def intern(self, node: Node) -> Node:
        """The canonical node for *node*'s structure (children interned)."""
        children = tuple(self.intern(child) for child in node.children)
        key = self._key(node, children)
        canonical = self._table.get(key)
        if canonical is None:
            # Unknown operators (keyed by identity) and nodes already over
            # canonical children are kept as they are.
            canonical = (
                node
                if key[0] == "opaque" or children == node.children
                else node.with_children(children)
            )
            self._table[key] = canonical
            self._keys[id(canonical)] = key
        return canonical

    def release(self, node: Node) -> None:
        """Forget the canonical *node*: nothing references it any more.

        Keys name children, chronicles and relations by ``id``; the table
        entry is what keeps those objects (and so their ids) alive, so a
        node is released only once every node built on it has been —
        :meth:`PlanCompiler.remove_root` guarantees that order.
        """
        key = self._keys.pop(id(node), None)
        if key is not None:
            del self._table[key]

    @staticmethod
    def _key(node: Node, children: Tuple[Node, ...]) -> Tuple[Any, ...]:
        child_ids = tuple(id(c) for c in children)
        if isinstance(node, ChronicleScan):
            return ("scan", id(node.chronicle))
        if isinstance(node, Select):
            return ("select", predicate_key(node.predicate)) + child_ids
        if isinstance(node, Project):
            return ("project", node.names) + child_ids
        if isinstance(node, Union):
            return ("union",) + child_ids
        if isinstance(node, Difference):
            return ("difference",) + child_ids
        if isinstance(node, SeqJoin):
            return ("seqjoin",) + child_ids
        if isinstance(node, GroupBySeq):
            aggs = tuple(_aggregate_key(a) for a in node.aggregates)
            return ("groupby", node.grouping, aggs) + child_ids
        if isinstance(node, RelProduct):
            return ("relproduct", id(node.relation)) + child_ids
        if isinstance(node, RelKeyJoin):
            return ("relkeyjoin", id(node.relation), node.pairs) + child_ids
        # Extension / unknown operators: intern by identity only.
        return ("opaque", id(node))


# ---------------------------------------------------------------------------
# Predicate compilation
# ---------------------------------------------------------------------------


def compile_predicate(
    predicate: Predicate, schema: Schema, resolve: Optional[Callable[[str], int]] = None
) -> ValuesPredicate:
    """Compile *predicate* into a closure over raw value tuples.

    Attribute references are resolved to positions once, here; the
    returned function does no name lookups.  *resolve* overrides position
    resolution (the fused pipelines use it to map positions through
    intermediate projections back to the base tuple).
    """
    if resolve is None:
        resolve = schema.position
    if isinstance(predicate, Comparison):
        pos = resolve(predicate.attr)
        fn = predicate._fn
        if predicate.rhs_is_attr:
            rpos = resolve(predicate.rhs)

            def attr_cmp(values: Tuple[Any, ...]) -> bool:
                left, right = values[pos], values[rpos]
                if left is None or right is None:
                    return False
                return fn(left, right)

            return attr_cmp
        rhs = predicate.rhs
        if rhs is None:
            return lambda values: False  # comparisons with NULL are not true

        def const_cmp(values: Tuple[Any, ...]) -> bool:
            left = values[pos]
            if left is None:
                return False
            return fn(left, rhs)

        return const_cmp
    if isinstance(predicate, Or):
        terms = tuple(compile_predicate(t, schema, resolve) for t in predicate.terms)
        return lambda values: any(t(values) for t in terms)
    if isinstance(predicate, And):
        terms = tuple(compile_predicate(t, schema, resolve) for t in predicate.terms)
        return lambda values: all(t(values) for t in terms)
    if isinstance(predicate, Not):
        term = compile_predicate(predicate.term, schema, resolve)
        return lambda values: not term(values)
    if isinstance(predicate, TruePredicate):
        return lambda values: True
    # User-defined predicates evaluate on rows; wrap for compatibility.
    return lambda values, s=schema, p=predicate: p.evaluate(Row.unchecked(s, values))


def conjoin(tests: List[ValuesPredicate]) -> Optional[ValuesPredicate]:
    """AND together compiled predicates (None for the empty conjunction)."""
    if not tests:
        return None
    if len(tests) == 1:
        return tests[0]
    if len(tests) == 2:
        first, second = tests
        return lambda values: first(values) and second(values)
    fixed = tuple(tests)
    return lambda values: all(t(values) for t in fixed)


def _is_dispatch_atom(term: Predicate) -> bool:
    """Whether *term* is ``attr = const`` with a constant a dict can key on.

    The dispatch index answers ``row[attr] == const`` with a dict lookup,
    so the constant must be hashable and equal to itself (NaN is neither
    equal to itself nor found by value); ``attr = NULL`` is never true and
    stays with the residual.
    """
    if not isinstance(term, Comparison) or term.op != "=" or term.rhs_is_attr:
        return False
    rhs = term.rhs
    if rhs is None:
        return False
    try:
        hash(rhs)
    except TypeError:
        return False
    return bool(rhs == rhs)


def split_prefilter(predicate: Predicate) -> Tuple[Optional[Comparison], List[Predicate]]:
    """Split one scan conjunction into its dispatch atom and residual terms.

    *predicate* is one entry of :func:`repro.views.registry.scan_prefilters`
    (cascaded selections already flattened into one ``And``).  Returns the
    first equality atom the registry's dispatch index can key on (``None``
    when there is none) and the remaining conjuncts, in order.
    """
    terms = list(predicate.terms) if isinstance(predicate, And) else [predicate]
    for index, term in enumerate(terms):
        if _is_dispatch_atom(term):
            return term, terms[:index] + terms[index + 1 :]
    return None, terms


def compile_prefilter(
    predicate: Predicate, schema: Schema
) -> Tuple[Optional[Tuple[int, Any]], Optional[ValuesPredicate]]:
    """Compile one scan conjunction for the registry's dispatch index.

    Returns ``(key, residual)``: *key* is ``(attribute position, constant)``
    of the conjunction's dispatch atom (``None`` when it has none), and
    *residual* the remaining conjuncts compiled over raw value tuples
    (``None`` when nothing is left to test).
    """
    atom, rest = split_prefilter(predicate)
    key = None if atom is None else (schema.position(atom.attr), atom.rhs)
    return key, conjoin([compile_predicate(term, schema) for term in rest])


# ---------------------------------------------------------------------------
# Plan compilation
# ---------------------------------------------------------------------------


class CompiledPlan:
    """One view's compiled delta program.

    Calling the plan with the event's base deltas and the per-event cache
    returns the delta of the view's χ expression.  The cache is shared by
    every plan of a registry, so interned nodes referenced by several
    plans are evaluated once per event.
    """

    __slots__ = ("root", "_fn")

    def __init__(self, root: Node, fn: PlanFn) -> None:
        self.root = root
        self._fn = fn

    def __call__(
        self, deltas: Mapping[str, Delta], cache: Optional[Dict[int, Delta]] = None
    ) -> Delta:
        return self._fn(deltas, cache if cache is not None else {})


class PlanCompiler:
    """Compiles maintenance plans over a shared interner.

    The compiler tracks how many times each interned node is referenced
    across all registered expressions.  A node referenced more than once
    is a *sharing point*: its compiled step is wrapped with a per-event
    cache lookup, and select/project fusion never crosses it (fusing
    through would duplicate work the cache exists to save).  Because
    sharing changes as views come and go, plans are (re)compiled lazily
    by the registry after any registration change — compilation is cheap
    and happens off the append path.
    """

    def __init__(self) -> None:
        self.interner = Interner()
        self._refs: Dict[int, int] = {}

    # -- root bookkeeping -----------------------------------------------------------

    def add_root(self, expression: Node) -> Node:
        """Intern *expression* and count its node references."""
        root = self.interner.intern(expression)
        for node in root.walk():
            self._refs[id(node)] = self._refs.get(id(node), 0) + 1
        return root

    def remove_root(self, root: Node) -> None:
        """Release the references of a previously added (interned) root."""
        for node in root.walk():
            remaining = self._refs.get(id(node), 0) - 1
            if remaining > 0:
                self._refs[id(node)] = remaining
            elif self._refs.pop(id(node), None) is not None:
                # A root contains every node under it, so a parent's count
                # reaches zero no later than its children's: no surviving
                # table key can name the node released here.
                self.interner.release(node)

    def is_shared(self, node: Node) -> bool:
        """Whether *node* is referenced from more than one place."""
        return self._refs.get(id(node), 0) > 1

    # -- compilation -----------------------------------------------------------------

    def compile(self, root: Node) -> CompiledPlan:
        """Compile the (interned) *root* into a flat delta program."""
        GLOBAL_COUNTERS.count("plan_compile")
        return CompiledPlan(root, self._step(root))

    def _step(self, node: Node) -> PlanFn:
        fn = self._step_inner(node)
        if self.is_shared(node):
            key = id(node)
            inner = fn

            def cached(deltas: Mapping[str, Delta], cache: Dict[int, Delta]) -> Delta:
                memo = cache.get(key)
                if memo is not None:
                    GLOBAL_COUNTERS.count("delta_cache_hit")
                    return memo
                result = inner(deltas, cache)
                cache[key] = result
                return result

            fn = cached
        # Observability shim: a ``delta`` span per step when operator
        # tracing is on.  The disabled path is one module-attribute load
        # and an identity test per step call — plans never need to be
        # recompiled to toggle tracing.
        kind = type(node).__name__
        step_fn = fn

        def traced(deltas: Mapping[str, Delta], cache: Dict[int, Delta]) -> Delta:
            obs = obs_runtime.ACTIVE
            if obs is None or not obs.trace_operators:
                return step_fn(deltas, cache)
            tracer = obs.tracer
            span = tracer.start("delta", operator=kind, engine="compiled")
            try:
                result = step_fn(deltas, cache)
                span.attrs["rows"] = len(result.rows)
                return result
            finally:
                tracer.finish(span)

        return traced

    def _step_inner(self, node: Node) -> PlanFn:
        if isinstance(node, ChronicleScan):
            return self._compile_scan(node)
        if isinstance(node, (Select, Project)):
            return self._compile_pipeline(node)
        if isinstance(node, Union):
            return self._compile_union(node)
        if isinstance(node, Difference):
            return self._compile_difference(node)
        if isinstance(node, SeqJoin):
            return self._compile_seq_join(node)
        if isinstance(node, GroupBySeq):
            return self._compile_group_by(node)
        if isinstance(node, RelProduct):
            return self._compile_rel_product(node)
        if isinstance(node, RelKeyJoin):
            return self._compile_rel_key_join(node)
        if isinstance(node, (ChronicleProduct, NonEquiSeqJoin)):
            return self._compile_extension(node)
        raise TypeError(f"no delta rule for {type(node).__name__}")

    @staticmethod
    def _compile_scan(node: ChronicleScan) -> PlanFn:
        name = node.chronicle.name
        empty = Delta.empty(node.schema)

        def scan_step(deltas: Mapping[str, Delta], cache: Dict[int, Delta]) -> Delta:
            delta = deltas.get(name)
            return delta if delta is not None else empty

        return scan_step

    @staticmethod
    def _compile_extension(node: Node) -> PlanFn:
        """Theorem 4.3: the operator has no delta rule over deltas alone.

        The step raises before computing its operands, so a plan
        containing it reads nothing — not even the event's deltas.
        """
        message = (
            f"maintaining {type(node).__name__} requires reading stored "
            f"chronicle history (Theorem 4.3); it is outside CA"
        )

        def extension_step(deltas: Mapping[str, Delta], cache: Dict[int, Delta]) -> Delta:
            raise ChronicleAccessError(message)

        return extension_step

    def fused_chain(self, node: Node) -> Tuple[List[Node], Node]:
        """The select/project chain headed by *node*, and the chain's input.

        The chain extends downward through unary select/project nodes
        until it hits a sharing point or any other operator; that node is
        the pipeline's input.  Compilation and EXPLAIN both fuse by this
        walk, so a described step is a compiled step.
        """
        chain: List[Node] = [node]
        child = node.children[0]
        while isinstance(child, (Select, Project)) and not self.is_shared(child):
            chain.append(child)
            child = child.children[0]
        return chain, child

    def _compile_pipeline(self, node: Node) -> PlanFn:
        """Fuse a select/project chain into one compiled loop.

        Predicates are compiled against base-tuple positions by threading
        projections' position maps, so the loop touches only raw value
        tuples.
        """
        chain, source = self.fused_chain(node)
        base_fn = self._step(source)
        out_schema = node.schema

        perm: Optional[Tuple[int, ...]] = None  # base positions of current attrs
        tests: List[ValuesPredicate] = []
        for op in reversed(chain):
            child_schema = op.children[0].schema
            if isinstance(op, Select):
                if perm is None:
                    resolve = child_schema.position
                else:
                    mapping = perm

                    def resolve(name: str, s=child_schema, m=mapping) -> int:
                        return m[s.position(name)]

                tests.append(compile_predicate(op.predicate, child_schema, resolve))
            else:
                positions = child_schema.positions(op.names)
                if perm is None:
                    perm = positions
                else:
                    perm = tuple(perm[p] for p in positions)
        test = conjoin(tests)

        if perm is None and test is None:  # degenerate: no chain ops
            return base_fn
        unchecked = Row.unchecked
        count = GLOBAL_COUNTERS.count

        if perm is None:

            def filter_step(deltas: Mapping[str, Delta], cache: Dict[int, Delta]) -> Delta:
                rows = base_fn(deltas, cache).rows
                if not rows:
                    return Delta(out_schema, ())
                count("tuple_op", len(rows))
                return Delta(out_schema, [row for row in rows if test(row.values)])

            return filter_step

        if test is None:
            keep = perm

            def project_step(deltas: Mapping[str, Delta], cache: Dict[int, Delta]) -> Delta:
                rows = base_fn(deltas, cache).rows
                if not rows:
                    return Delta(out_schema, ())
                count("tuple_op", len(rows))
                return Delta(
                    out_schema,
                    [
                        unchecked(out_schema, tuple(row.values[p] for p in keep))
                        for row in rows
                    ],
                )

            return project_step

        keep = perm

        def fused_step(deltas: Mapping[str, Delta], cache: Dict[int, Delta]) -> Delta:
            rows = base_fn(deltas, cache).rows
            if not rows:
                return Delta(out_schema, ())
            count("tuple_op", len(rows))
            out = []
            for row in rows:
                values = row.values
                if test(values):
                    out.append(unchecked(out_schema, tuple(values[p] for p in keep)))
            return Delta(out_schema, out)

        return fused_step

    def _compile_union(self, node: Union) -> PlanFn:
        left_fn = self._step(node.children[0])
        right_fn = self._step(node.children[1])
        schema = node.schema
        count = GLOBAL_COUNTERS.count

        def union_step(deltas: Mapping[str, Delta], cache: Dict[int, Delta]) -> Delta:
            left = left_fn(deltas, cache).rows
            right = right_fn(deltas, cache).rows
            if left or right:
                count("tuple_op", len(left) + len(right))
            # Union operands are schema-compatible (same names/positions),
            # so rows pass through unrebound; the Delta deduplicates.
            return Delta(schema, left + right)

        return union_step

    def _compile_difference(self, node: Difference) -> PlanFn:
        left_fn = self._step(node.children[0])
        right_fn = self._step(node.children[1])
        schema = node.schema
        count = GLOBAL_COUNTERS.count

        def difference_step(deltas: Mapping[str, Delta], cache: Dict[int, Delta]) -> Delta:
            left = left_fn(deltas, cache).rows
            if not left:
                return Delta(schema, ())
            removed = {row.values for row in right_fn(deltas, cache).rows}
            count("tuple_op", len(left))
            if not removed:
                return Delta(schema, left)
            return Delta(schema, [row for row in left if row.values not in removed])

        return difference_step

    def _compile_seq_join(self, node: SeqJoin) -> PlanFn:
        left_fn = self._step(node.children[0])
        right_fn = self._step(node.children[1])
        schema = node.schema
        left_seq = node.left.schema.position(node.left.schema.sequence_attribute)
        right_seq = node.right.schema.position(node.right.schema.sequence_attribute)
        right_positions = node._right_positions
        unchecked = Row.unchecked
        count = GLOBAL_COUNTERS.count

        def seq_join_step(deltas: Mapping[str, Delta], cache: Dict[int, Delta]) -> Delta:
            left = left_fn(deltas, cache).rows
            if not left:
                return Delta(schema, ())
            right = right_fn(deltas, cache).rows
            if not right:
                # Cross terms with old tuples are provably empty (fresh
                # sequence numbers never match old ones).
                return Delta(schema, ())
            buckets: Dict[Any, List[Tuple[Any, ...]]] = {}
            for row in right:
                values = row.values
                buckets.setdefault(values[right_seq], []).append(values)
            rows = []
            ops = len(right) + len(left)
            for lrow in left:
                lvalues = lrow.values
                for rvalues in buckets.get(lvalues[left_seq], ()):
                    ops += 1
                    rows.append(
                        unchecked(
                            schema,
                            lvalues + tuple(rvalues[p] for p in right_positions),
                        )
                    )
            count("tuple_op", ops)
            return Delta(schema, rows)

        return seq_join_step

    def _compile_group_by(self, node: GroupBySeq) -> PlanFn:
        child_fn = self._step(node.children[0])
        schema = node.schema
        positions = node.child.schema.positions(node.grouping)
        specs = node.aggregates
        initials = tuple(a.function.initial for a in specs)
        steps = tuple(a.function.step for a in specs)
        finalizers = tuple(a.function.finalize for a in specs)
        arg_positions = tuple(
            node.child.schema.position(a.attribute) if a.attribute is not None else None
            for a in specs
        )
        unchecked = Row.unchecked
        count = GLOBAL_COUNTERS.count

        def group_by_step(deltas: Mapping[str, Delta], cache: Dict[int, Delta]) -> Delta:
            child = child_fn(deltas, cache).rows
            if not child:
                return Delta(schema, ())
            states: Dict[Tuple[Any, ...], List[Any]] = {}
            order: List[Tuple[Any, ...]] = []
            for row in child:
                values = row.values
                key = tuple(values[p] for p in positions)
                accumulators = states.get(key)
                if accumulators is None:
                    accumulators = [initial() for initial in initials]
                    states[key] = accumulators
                    order.append(key)
                for i, step in enumerate(steps):
                    pos = arg_positions[i]
                    accumulators[i] = step(
                        accumulators[i], 1 if pos is None else values[pos]
                    )
            count("tuple_op", len(child))
            count("aggregate_step", len(child) * len(specs))
            rows = []
            for key in order:
                finals = tuple(
                    finalize(state)
                    for finalize, state in zip(finalizers, states[key])
                )
                rows.append(unchecked(schema, key + finals))
            return Delta(schema, rows)

        return group_by_step

    def _compile_rel_product(self, node: RelProduct) -> PlanFn:
        child_fn = self._step(node.children[0])
        schema = node.schema
        relation = node.relation
        unchecked = Row.unchecked
        count = GLOBAL_COUNTERS.count

        def rel_product_step(deltas: Mapping[str, Delta], cache: Dict[int, Delta]) -> Delta:
            child = child_fn(deltas, cache).rows
            if not child:
                return Delta(schema, ())
            # Proactive updates guarantee the current version of R is the
            # right one for fresh sequence numbers.
            current = [row.values for row in relation.rows()]
            rows = []
            for crow in child:
                cvalues = crow.values
                for rvalues in current:
                    rows.append(unchecked(schema, cvalues + rvalues))
            count("tuple_op", len(child) * len(current))
            return Delta(schema, rows)

        return rel_product_step

    def _compile_rel_key_join(self, node: RelKeyJoin) -> PlanFn:
        child_fn = self._step(node.children[0])
        schema = node.schema
        relation = node.relation
        relation_attrs = node.relation_attrs
        child_positions = node._child_positions
        kept_positions = node._kept_positions
        single = len(child_positions) == 1
        unchecked = Row.unchecked
        count = GLOBAL_COUNTERS.count

        def rel_key_join_step(deltas: Mapping[str, Delta], cache: Dict[int, Delta]) -> Delta:
            child = child_fn(deltas, cache).rows
            if not child:
                return Delta(schema, ())
            rows = []
            ops = len(child)
            lookup = relation.lookup
            for crow in child:
                cvalues = crow.values
                if single:
                    key = cvalues[child_positions[0]]
                else:
                    key = tuple(cvalues[p] for p in child_positions)
                for rrow in lookup(relation_attrs, key):
                    ops += 1
                    rows.append(
                        unchecked(
                            schema,
                            cvalues + tuple(rrow.values[p] for p in kept_positions),
                        )
                    )
            count("tuple_op", ops)
            return Delta(schema, rows)

        return rel_key_join_step


def standalone_plan(expression: Node) -> CompiledPlan:
    """Compile *expression* on its own, sharing with no other view.

    What maintains a view that no registry owns: a periodic view set's
    interval views (one plan for the whole set) and a single view wired
    straight to a group.
    """
    compiler = PlanCompiler()
    return compiler.compile(compiler.add_root(expression))


# ---------------------------------------------------------------------------
# Plan description (EXPLAIN)
# ---------------------------------------------------------------------------


class PlanNode:
    """One node of a described plan tree (what ``EXPLAIN`` renders).

    Mirrors the *compiled* shape, not the raw expression tree: a fused
    select/project chain collapses into its chain head exactly as
    :meth:`PlanCompiler._compile_pipeline` fuses it, so described nodes
    correspond one-to-one with the ``delta`` spans the compiled plan
    emits (and with :class:`~repro.obs.costmodel.CostLedger` shapes).
    """

    __slots__ = ("kind", "detail", "fused", "shared", "refs", "children")

    def __init__(
        self,
        kind: str,
        detail: str = "",
        fused: Optional[List[str]] = None,
        shared: bool = False,
        refs: int = 1,
        children: Optional[List["PlanNode"]] = None,
    ) -> None:
        self.kind = kind
        self.detail = detail
        #: Descriptions of chain operators fused *into* this step
        #: (beyond the head itself); empty for non-pipeline nodes.
        self.fused = fused or []
        #: Whether this step is a sharing point (wrapped with the
        #: per-event delta cache).
        self.shared = shared
        self.refs = refs
        self.children = children or []

    def walk(self) -> Iterable["PlanNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind}
        if self.detail:
            out["detail"] = self.detail
        if self.fused:
            out["fused"] = list(self.fused)
        if self.shared:
            out["shared"] = True
            out["refs"] = self.refs
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


def _describe_op(node: Node) -> str:
    """A one-line operator description for EXPLAIN output."""
    if isinstance(node, ChronicleScan):
        return f"scan {node.chronicle.name}"
    if isinstance(node, Select):
        return f"σ {node.predicate!r}"
    if isinstance(node, Project):
        return "π [" + ", ".join(node.names) + "]"
    if isinstance(node, GroupBySeq):
        aggs = ", ".join(
            f"{spec.function.name.upper()}({spec.attribute or '*'}) AS {spec.output}"
            for spec in node.aggregates
        )
        return f"group by ({', '.join(node.grouping)}); {aggs}"
    if isinstance(node, RelProduct):
        return f"× relation {node.relation.name}"
    if isinstance(node, RelKeyJoin):
        pairs = ", ".join(f"{c}={r}" for c, r in node.pairs)
        return f"⋈ relation {node.relation.name} on ({pairs})"
    return ""


def describe_plan(root: Node, compiler: PlanCompiler) -> PlanNode:
    """Describe the plan *compiler* builds for the (interned) *root*.

    The description has the compiled structure: a select/project chain is
    one node (:meth:`PlanCompiler.fused_chain`, the walk compilation
    itself uses), and sharing points carry their reference counts.
    """
    if isinstance(root, (Select, Project)):
        chain, source = compiler.fused_chain(root)
        children = [source]
    else:
        chain, children = [root], root.children
    return PlanNode(
        type(root).__name__,
        detail=_describe_op(root),
        fused=[_describe_op(op) for op in chain[1:]],
        shared=compiler.is_shared(root),
        refs=compiler._refs.get(id(root), 1),
        children=[describe_plan(child, compiler) for child in children],
    )


# ---------------------------------------------------------------------------
# Partition-key inference
# ---------------------------------------------------------------------------
#
# The sharded engine (:mod:`repro.parallel`) hash-partitions incoming
# records by each view's summary key and maintains each partition
# independently.  That is sound exactly when *every* record that can
# contribute to a given view key lands in the same shard.  The analysis
# below decides this by tracing the copy-lineage of the summary-key
# attributes through the view's χ expression down to base-chronicle
# attributes: because CA's reshaping operators only *copy* values (no
# arithmetic), a key attribute that traces to one base attribute in every
# scanned chronicle yields a routing rule "hash that base attribute".
#
# Views whose keys straddle partitions declare UNPARTITIONABLE and fall
# back to the serial shard:
#
# * global aggregates (empty grouping) — one cross-key accumulator;
# * keys derived from aggregate outputs or relation-side attributes —
#   no base-chronicle lineage;
# * expressions containing SeqJoin / the extension operators — an output
#   row derives from *several* chronicle rows matched by sequence
#   number, which routing by value cannot co-locate.
#
# Union is partitionable (each output row derives from one input row);
# so is Difference (cancellation requires *identical* tuples, and
# identical tuples hash identically, so per-shard difference equals the
# global difference restricted to the shard).


class _Unpartitionable:
    """Sentinel: the view's maintenance cannot be hash-partitioned."""

    _instance: Optional["_Unpartitionable"] = None

    def __new__(cls) -> "_Unpartitionable":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNPARTITIONABLE"

    def __bool__(self) -> bool:
        return False


#: The partition declaration of views that must run on the serial shard.
UNPARTITIONABLE = _Unpartitionable()


class PartitionSpec:
    """A view's routing rule: chronicle name → base routing attributes.

    ``keys[chronicle]`` lists, *in summary-key order*, the base attribute
    of that chronicle whose value each summary-key attribute copies.  Two
    records with equal routing-attribute values always contribute to the
    same view keys, so hashing the routing tuple assigns every record to
    the shard that owns all view state it can touch — and a summary-key
    lookup hashes the key itself to find that shard.
    """

    __slots__ = ("keys",)

    def __init__(self, keys: Mapping[str, Tuple[str, ...]]) -> None:
        self.keys: Dict[str, Tuple[str, ...]] = dict(keys)

    @property
    def chronicles(self) -> Tuple[str, ...]:
        return tuple(sorted(self.keys))

    def canonical(self) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
        """A hashable identity: equal specs can share shard state."""
        return tuple(sorted(self.keys.items()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PartitionSpec) and self.keys == other.keys

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:
        inner = ", ".join(f"{c}: {list(a)}" for c, a in sorted(self.keys.items()))
        return f"PartitionSpec({inner})"


#: attr name -> {chronicle name -> base attr};  None = poisoned subtree.
_Lineage = Optional[Dict[str, Dict[str, str]]]


def _attribute_lineage(node: Node) -> _Lineage:
    """Copy-lineage of *node*'s output attributes to base-chronicle attrs.

    Returns ``None`` when the subtree contains an operator whose output
    rows derive from several chronicle rows (SeqJoin, the extension
    operators, or any operator this analysis does not know) — such trees
    are unpartitionable outright.  An attribute mapped to an empty dict
    has no chronicle lineage (aggregate outputs, relation attributes).
    """
    if isinstance(node, ChronicleScan):
        name = node.chronicle.name
        return {attr: {name: attr} for attr in node.schema.names}
    if isinstance(node, Select):
        return _attribute_lineage(node.child)
    if isinstance(node, Project):
        child = _attribute_lineage(node.child)
        if child is None:
            return None
        return {name: child[name] for name in node.names}
    if isinstance(node, (Union, Difference)):
        left = _attribute_lineage(node.left)
        right = _attribute_lineage(node.right)
        if left is None or right is None:
            return None
        merged: Dict[str, Dict[str, str]] = {}
        for attr in node.schema.names:
            sources = dict(left.get(attr, {}))
            for chronicle, base in right.get(attr, {}).items():
                if sources.get(chronicle, base) != base:
                    # The two branches copy the attribute from different
                    # base columns of the same chronicle: no single
                    # routing attribute serves both. Dropping the entry
                    # makes the resolution check below fail for it.
                    sources.pop(chronicle, None)
                else:
                    sources[chronicle] = base
            merged[attr] = sources
        return merged
    if isinstance(node, GroupBySeq):
        child = _attribute_lineage(node.child)
        if child is None:
            return None
        lineage = {name: child[name] for name in node.grouping}
        for spec in node.aggregates:
            lineage[spec.output] = {}
        return lineage
    if isinstance(node, (RelProduct, RelKeyJoin)):
        # The relation side is replicated read-only across shards, so
        # chronicle-attribute lineage passes through; relation-sourced
        # output attributes carry no chronicle lineage.
        child = _attribute_lineage(node.child)
        if child is None:
            return None
        return {name: child.get(name, {}) for name in node.schema.names}
    # SeqJoin, ChronicleProduct, NonEquiSeqJoin, unknown operators: an
    # output row combines several chronicle rows matched by sequence
    # number — value-routing cannot co-locate the match partners.
    return None


def infer_partition(summary: Any) -> Any:
    """Infer a view's partition declaration from its summary.

    Returns a :class:`PartitionSpec` when maintenance can be
    hash-partitioned by the summary key, else :data:`UNPARTITIONABLE`.
    *summary* is a :class:`~repro.sca.summarize.Summary` (grouping or
    projection).
    """
    grouping = getattr(summary, "grouping", None)
    if grouping is not None:
        if not grouping:
            return UNPARTITIONABLE  # global aggregate: one cross-key state
        keys = tuple(grouping)
    else:
        keys = tuple(getattr(summary, "names", ()))
        if not keys:
            return UNPARTITIONABLE
    expression = summary.expression
    lineage = _attribute_lineage(expression)
    if lineage is None:
        return UNPARTITIONABLE
    chronicle_names = {c.name for c in expression.chronicles()}
    if not chronicle_names:
        return UNPARTITIONABLE
    spec: Dict[str, Tuple[str, ...]] = {}
    for chronicle in chronicle_names:
        routing = []
        for key in keys:
            base = lineage.get(key, {}).get(chronicle)
            if base is None:
                return UNPARTITIONABLE
            routing.append(base)
        spec[chronicle] = tuple(routing)
    return PartitionSpec(spec)


# ---------------------------------------------------------------------------
# Portable plan specs
# ---------------------------------------------------------------------------
#
# The process executor (:mod:`repro.parallel.worker`) rebuilds each
# shard's maintenance machinery inside a worker process.  Live algebra
# trees cannot cross that boundary: a ChronicleScan holds the chronicle,
# which holds the group, which holds its listeners — pickling one node
# would drag the whole database (locks, thread pools, registries) along.
# Schemas are identity-sensitive too: Domain objects compare by ``is``,
# so a pickled copy of INT would no longer *be* INT.
#
# A *plan spec* is the neutral encoding that avoids both traps: nested
# tuples of plain values, with chronicle scans recorded **by name** and
# domains **by domain name**.  ``build_*`` reconstructs the live objects
# over a caller-supplied chronicle mapping (the worker's mirrors), going
# through the ordinary constructors so every structural invariant is
# re-validated on arrival.  Predicates and the standard aggregate
# singletons are carried as objects — they are plain data and pickle
# cleanly; anything that does not (lambdas in user-defined aggregates,
# live relations) makes the view non-portable, which
# ``summary_spec`` reports by raising :class:`~repro.errors.AlgebraError`.


def schema_spec(schema: Schema) -> Tuple[Any, ...]:
    """A picklable, identity-free encoding of a schema."""
    return (
        tuple((a.name, a.domain.name, a.nullable) for a in schema.attributes),
        schema.key,
        schema.sequence_attribute,
    )


def build_schema(spec: Tuple[Any, ...]) -> Schema:
    """Rebuild a schema from :func:`schema_spec` (domains by name)."""
    attrs, key, sequence_attribute = spec
    return Schema(
        [Attribute(name, domain, nullable) for name, domain, nullable in attrs],
        key=key,
        sequence_attribute=sequence_attribute,
    )


def node_spec(node: Node) -> Tuple[Any, ...]:
    """A picklable encoding of a chronicle-algebra tree (scans by name).

    Covers exactly the operators whose delta rules are process-portable.
    Relation-backed operators (``RelProduct``/``RelKeyJoin``) reference a
    live, proactively-updated relation object that only exists in the
    admission process — there is no sound way to replicate it into a
    worker mid-stream — and the extension operators need chronicle
    history a worker does not store; both raise
    :class:`~repro.errors.AlgebraError` (callers fall back to the serial
    shard).
    """
    if isinstance(node, ChronicleScan):
        return ("scan", node.chronicle.name)
    if isinstance(node, Select):
        return ("select", node_spec(node.child), node.predicate)
    if isinstance(node, Project):
        return ("project", node_spec(node.child), node.names)
    if isinstance(node, SeqJoin):
        return ("seqjoin", node_spec(node.left), node_spec(node.right))
    if isinstance(node, Union):
        return ("union", node_spec(node.left), node_spec(node.right))
    if isinstance(node, Difference):
        return ("difference", node_spec(node.left), node_spec(node.right))
    if isinstance(node, GroupBySeq):
        return ("groupby_sn", node_spec(node.child), node.grouping, node.aggregates)
    raise AlgebraError(
        f"{type(node).__name__} has no portable plan spec (it references "
        f"process-local state); views containing it stay on the serial shard "
        f"under the process executor"
    )


def build_node(spec: Tuple[Any, ...], chronicles: Mapping[str, Any]) -> Node:
    """Rebuild an algebra tree from :func:`node_spec` over *chronicles*."""
    kind = spec[0]
    if kind == "scan":
        return ChronicleScan(chronicles[spec[1]])
    if kind == "select":
        return Select(build_node(spec[1], chronicles), spec[2])
    if kind == "project":
        return Project(build_node(spec[1], chronicles), spec[2])
    if kind == "seqjoin":
        return SeqJoin(build_node(spec[1], chronicles), build_node(spec[2], chronicles))
    if kind == "union":
        return Union(build_node(spec[1], chronicles), build_node(spec[2], chronicles))
    if kind == "difference":
        return Difference(
            build_node(spec[1], chronicles), build_node(spec[2], chronicles)
        )
    if kind == "groupby_sn":
        return GroupBySeq(build_node(spec[1], chronicles), spec[2], spec[3])
    raise AlgebraError(f"unknown plan-spec node kind {kind!r}")


def summary_spec(summary: Any) -> Tuple[Any, ...]:
    """A picklable encoding of a view definition (summary over χ).

    Raises :class:`~repro.errors.AlgebraError` for summaries that cannot
    cross a process boundary; :func:`is_portable` wraps this as a probe.
    """
    from ..sca.summarize import GroupBySummary, ProjectSummary

    if isinstance(summary, GroupBySummary):
        return (
            "groupby",
            node_spec(summary.expression),
            summary.grouping,
            summary.aggregates,
            summary.having,
        )
    if isinstance(summary, ProjectSummary):
        return ("projection", node_spec(summary.expression), summary.names)
    raise AlgebraError(
        f"summary type {type(summary).__name__} has no portable plan spec"
    )


def build_summary(spec: Tuple[Any, ...], chronicles: Mapping[str, Any]) -> Any:
    """Rebuild a summary from :func:`summary_spec` over *chronicles*."""
    from ..sca.summarize import GroupBySummary, ProjectSummary

    kind = spec[0]
    if kind == "groupby":
        return GroupBySummary(
            build_node(spec[1], chronicles), spec[2], spec[3], having=spec[4]
        )
    if kind == "projection":
        return ProjectSummary(build_node(spec[1], chronicles), spec[2])
    raise AlgebraError(f"unknown plan-spec summary kind {kind!r}")


def is_portable(summary: Any) -> bool:
    """Whether a view definition can be shipped to a worker process.

    True when the summary has a plan spec **and** that spec pickles —
    the spec carries predicates and aggregate functions as objects, so a
    user-defined aggregate closed over a lambda is caught here, not at
    dispatch time.
    """
    import pickle

    try:
        payload = summary_spec(summary)
        pickle.dumps(payload)
    except Exception:
        return False
    return True
