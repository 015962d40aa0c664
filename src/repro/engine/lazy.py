"""Navigation-driven lazy evaluation (Section 4 of the paper).

"The MIX client receives a virtual answer document in response to its
query.  The virtual document is not materialized into the client memory
until the client starts navigating into it."  Here:

* every operator's output is a pull stream of column blocks
  (:class:`~repro.engine.block.Block`);
* values inside tuples are lazy too — constructed elements
  (:class:`~repro.xmltree.tree.ConstructedObject`, which holds its
  child bindings until read), lists
  (:class:`~repro.algebra.values.VList`), and group partitions
  (:class:`~repro.engine.block.BlockSet`) are one memoized prefix,
  :class:`~repro.xmltree.tree.LazyPrefix`: each materializes its
  contents only when navigation reaches them, and one whose source
  failed re-raises that failure wherever navigation needs more;
* the leaves pull from source cursors, so a ``d``/``r`` command at the
  client propagates down the plan and ends as "either queries or moves
  of the cursors" at the relational source — exactly the paper's
  decomposition of client navigations into source commands.

Group-by picks the presorted stateless implementation of Table 1 whenever
the input's inferred sort order clusters the group variables (e.g. below
an ``orderBy`` or an ``rQ`` whose SQL carries a matching ORDER BY), and
the buffering stateful one otherwise.

**Block execution**: operators exchange column blocks — one list per
variable (see :mod:`repro.engine.block`) — the per-pull span/counter
bookkeeping is paid once per block, pushed-SQL rows are fetched
``fetch_block``-at-a-time straight into columns, and every handler
processes a whole block per Python call.  There is one handler per
operator and one path for every width: ``block_size=1`` is simply a
one-row block, whose row stream, source traffic and per-hop navigation
transcripts are the seed's (the EXPLAIN goldens and the lattice
differential pin that).
"""

from __future__ import annotations

from functools import partial
from itertools import takewhile
from operator import itemgetter

from repro import stats as statnames
from repro.errors import EvaluationError, PlanError, SourceError
from repro.resilience.stub import (
    RAISE,
    degrade_children,
    degraded_stub,
    degrades,
)
from repro.xmltree.tree import ConstructedObject, Node, OidGenerator, atomize
from repro.algebra import operators as ops
from repro.algebra.conditions import skolem_arg_of, KEY, VALUE
from repro.algebra.plan import defined_vars, nested_env
from repro.algebra.values import Skolem, VList, value_key
from repro.engine.block import (
    Block,
    BlockSet,
    Row,
    VectorBlocks,
    Width,
    check_var,
    concat,
    rows,
)
from repro.engine.gby import (
    input_is_sorted_for,
    presorted_gby_blocks,
    stateful_gby_blocks,
)
from repro.engine.pathvals import eval_path_on_value
from repro.obs.instrument import Instrument
from repro.obs.tokens import node_token
from repro.sources.relational import assemble

#: The prefix of the surrogate oids an engine mints (``&L1``, ...): a
#: ``tD`` without a root oid of its own takes the first.
SURROGATES = "L"


class LazyEngine:
    """Evaluates XMAS plans by navigation-driven pull.

    Args:
        catalog: the :class:`~repro.sources.SourceCatalog`.
        stats: counters shared with the sources.
        force_stateful_gby: disable the Table-1 presorted gBy (used by
            benchmarks to isolate its effect).
        on_source_error: ``"raise"`` (default) propagates source
            failures; ``"degrade"`` substitutes ``<mix:error>`` stubs so
            navigation over the healthy part of the result continues.
        block_size: tuples per dataflow vector (default ``1``, a
            one-tuple block: the seed's pull granularity).  Every width
            yields the same tuples, in the same order, with the same
            source traffic — see :mod:`repro.engine.block`.
        demand: how many root children earlier answers of the plan were
            navigated to.  The root export pipeline — root ``tD``, every
            operator beneath it, its ``rQ`` fetches — starts that wide
            and grows ×4 per root pull up to ``block_size`` (``None``:
            every width is ``block_size``).
    """

    def __init__(self, catalog, stats=None, oids=None,
                 force_stateful_gby=False, on_source_error=RAISE,
                 block_size=1, demand=None):
        self._degrade = degrades(on_source_error)
        if not isinstance(block_size, int) or block_size < 1:
            raise ValueError(
                "block_size must be an int >= 1, got {!r}".format(block_size)
            )
        self.block_size = block_size
        self.catalog = catalog
        self.stats = stats or Instrument()
        self.oids = oids or OidGenerator(SURROGATES)
        self.force_stateful_gby = force_stateful_gby
        self._full = Width(block_size, block_size)
        self._ramp = self._full
        if demand and demand < block_size:
            self._ramp = Width(demand, block_size)
        #: The env of the root export pipeline: the only one on the ramp.
        self._root_env = {}

    # -- entry points -----------------------------------------------------------

    def evaluate(self, plan):
        """Evaluate ``plan``.

        A ``tD``-rooted plan returns the (virtual, lazily materializing)
        result tree root; any other root returns the lazy tuple stream.
        """
        if isinstance(plan, ops.TD):
            if self._ramp is not self._full:
                self.stats.incr(statnames.DEMAND_SIZED)
            return self._td_root(plan, self._root_env)
        return self.stream(plan, {})

    def evaluate_tree(self, plan):
        root = self.evaluate(plan)
        if not isinstance(root, Node):
            raise EvaluationError("plan does not produce a tree")
        return root

    def stream(self, plan, env):
        """The lazy tuple stream of a (non-``tD``) plan: a memoized
        :class:`~repro.engine.block.BlockSet` over its blocks, for
        consumers that think in tuples (table navigation, semijoin
        probes)."""
        return BlockSet(self.blocks(plan, env))

    def blocks(self, plan, env):
        """The lazy block stream of a plan.

        Every operator has one ``_blk_*`` handler yielding column
        blocks; :class:`~repro.engine.block.VectorBlocks` repacks them
        to ``block_size``.  Counting happens here, once per block.
        """
        handler = self._HANDLERS.get(type(plan))
        if handler is None:
            raise PlanError(
                "no lazy handler for {}".format(type(plan).__name__)
            )
        return self._counted_blocks(
            VectorBlocks(handler(self, plan, env), self._width(env)), plan
        )

    def _width(self, env):
        """The :class:`Width` of the pipeline under ``env``: only the root
        export ramps.  Inputs an operator reads to the end (join build
        sides, semijoin probes, sort and stateful gBy inputs) are pulled
        under a copy of ``env`` — at full width, like ``apply`` bodies."""
        return self._ramp if env is self._root_env else self._full

    def _counted_blocks(self, block_iter, plan):
        """Per-*block* accounting: one merged operator span, one
        ``operator_tuples`` and span ``rows`` bump of ``block.n`` per
        pull.  Each pull runs inside the operator's span, so the work is
        attributed to whichever navigation command caused it (this
        amortization is what E-BLOCK measures)."""
        obs = self.stats
        block_iter = iter(block_iter)
        token = node_token(plan)
        name = getattr(plan, "opname", type(plan).__name__)
        attrs = (
            {"server": plan.server, "sql": plan.display_sql}
            if isinstance(plan, ops.RelQuery)
            else {}
        )
        while True:
            with obs.operator_span(name, key=token, **attrs) as span:
                try:
                    block = next(block_iter)
                except StopIteration:
                    return
                obs.incr(statnames.OPERATOR_TUPLES, block.n)
                if span is not None:
                    span.rows += block.n
            yield block

    # -- tD and the virtual tree ---------------------------------------------------

    def _td_root(self, plan, env):
        root_oid = plan.root_oid
        if root_oid is None:
            oid = self.oids.fresh()
        elif str(root_oid).startswith("&"):
            oid = root_oid
        else:
            oid = "&{}".format(root_oid)
        return Node(oid, "list", lazy_tail=self._td_children(plan, env))

    def _td_children(self, plan, env):
        """The child elements a ``tD`` exports, as a lazy generator: one
        span per input block.

        Node-valued exports are unpacked (and counted) a whole block at
        a time; set-valued exports (``VList``) stay lazy per item so the
        export never forces more of a nested stream than navigation
        demanded; each item is pulled (and counted) in the ``tD``'s own
        span.  The outermost degradation net: a source failure that
        escapes the operators below (the leaf-level nets catch their
        own) becomes one stub child and ends the export, instead of
        unwinding the client's navigation.  Each pull grows the ramp.
        """
        obs = self.stats
        token = node_token(plan)
        var = plan.var
        width = self._width(env)
        blocks = iter(self.blocks(plan.input, env))
        while True:
            stub = None
            with obs.operator_span("tD", key=token) as span:
                try:
                    block = next(blocks)
                except StopIteration:
                    return
                except SourceError as exc:
                    if not self._degrade:
                        raise
                    stub = degraded_stub(exc, obs, self.oids)
                else:
                    values = block.column(var)
                    direct = 0
                    for value in values:
                        if isinstance(value, Node):
                            direct += 1
                        elif not isinstance(value, VList):
                            raise EvaluationError(
                                "tD variable {} bound to a nested "
                                "set".format(var)
                            )
                    if span is not None:
                        span.rows += direct
            width.grow()
            if stub is not None:
                yield stub
                return
            for value in values:
                if isinstance(value, Node):
                    yield value
                    continue
                items = iter(value)
                while True:
                    with obs.operator_span("tD", key=token) as span:
                        try:
                            item = next(items)
                        except StopIteration:
                            break
                        if not isinstance(item, Node):
                            raise EvaluationError(
                                "tD cannot export nested sets"
                            )
                        if span is not None:
                            span.rows += 1
                    yield item

    # -- operators -------------------------------------------------------------------
    #
    # Each ``_blk_*`` handler consumes its input via :meth:`blocks` and
    # yields column blocks (typically one per input block): a new
    # variable is one new column, a filter or fan-out is one ``take`` of
    # row indices, and untouched columns are shared.
    # :class:`~repro.engine.block.VectorBlocks` repacks them into
    # ``block_size`` blocks and parks mid-stream exceptions so failures
    # keep their tuple positions.

    def _blk_mksrc(self, plan, env):
        # Blocks of one: the degradation rule is per child, and
        # source-side span batching happens inside the wrapper
        # (``set_block_size``).
        if plan.input is not None:
            if not isinstance(plan.input, ops.TD):
                raise EvaluationError(
                    "mksrc over a sub-plan requires a tD-rooted plan"
                )
            open_children = partial(self._td_children, plan.input, env)
        else:
            open_children = partial(self.catalog.iter_children, plan.source)
        if self._degrade:
            children = degrade_children(
                open_children, self.stats, self.oids, plan.source
            )
        else:
            children = open_children()
        var = check_var(plan.var)
        for child in children:
            yield Block({var: [child]}, 1)

    def _blk_relquery(self, plan, env):
        varmap = plan.varmap
        names = [check_var(entry.var) for entry in varmap]
        try:
            server = self.catalog.server(plan.server)
            self.stats.incr(statnames.RQ_STATEMENTS)
            self.stats.event("sql", plan.display_sql, server=plan.server)
            cursor = server.execute_sql(plan.sql, plan.params)
        except SourceError as exc:
            if not self._degrade:
                raise
            stub = degraded_stub(exc, self.stats, self.oids, plan.server)
            yield Block({name: [stub] for name in names}, 1)
            return
        width = self._width(env)
        fetch = cursor.fetch_block
        builders = [_entry_builder(entry, self.oids) for entry in varmap]
        while True:
            try:
                fetched = fetch(width.size)
            except SourceError as exc:
                # A parked mid-batch failure (shard death included):
                # degrade to one stub row and keep draining the
                # surviving streams.
                if not self._degrade:
                    raise
                stub = degraded_stub(exc, self.stats, self.oids, plan.server)
                yield Block({name: [stub] for name in names}, 1)
                continue
            if not fetched:
                return
            cols = [[] for __ in names]
            count = 0
            for row in fetched:
                values = []
                for build in builders:
                    value = build(row)
                    if value is None:  # NULL field: drop the row
                        break
                    values.append(value)
                else:
                    for col, value in zip(cols, values):
                        col.append(value)
                    count += 1
            yield Block(dict(zip(names, cols)), count)

    def _blk_getd(self, plan, env):
        path, in_var, out_var = plan.path, plan.in_var, plan.out_var
        for block in self.blocks(plan.input, env):
            index, out, fanned = [], [], False
            for i, value in enumerate(block.column(in_var)):
                matches = eval_path_on_value(value, path)
                if len(matches) != 1:
                    fanned = True
                index += [i] * len(matches)
                out += matches
            if out:
                base = block.take(index) if fanned else block
                yield base.with_column(out_var, out)

    def _blk_select(self, plan, env):
        condition = plan.condition
        for block in self.blocks(plan.input, env):
            cols = block.cols
            keep = [
                i for i in range(block.n) if condition.evaluate(Row(cols, i))
            ]
            if keep:
                yield block if len(keep) == block.n else block.take(keep)

    def _blk_project(self, plan, env):
        variables = plan.variables
        seen = set()
        for block in self.blocks(plan.input, env):
            cols = [block.column(v) for v in variables]
            keep = []
            for i in range(block.n):
                key = tuple(value_key(col[i]) for col in cols)
                if key not in seen:
                    seen.add(key)
                    keep.append(i)
            if keep:
                yield Block(dict(zip(variables, cols)), block.n).take(keep)

    def _blk_join(self, plan, env):
        # A hash join on the var-var equalities; with none, every right
        # row is in the one bucket ``()`` — the nested-loop join.
        hash_conds, loop_conds = _split_join_conditions(plan.conditions)
        index = None
        for lblock in self.blocks(plan.left, env):
            if index is None:
                # Build on first probe block: an empty left input
                # never touches the right source at all.
                sides = _hash_sides(hash_conds, *_join_sides(plan, env))
                index = {}
                for rt in rows(self.blocks(plan.right, dict(env))):
                    index.setdefault(_hash_key(rt, sides, 1), []).append(rt)
            lidx, matched = [], []
            for i in range(lblock.n):
                lt = Row(lblock.cols, i)
                for rt in index.get(_hash_key(lt, sides, 0), ()):
                    if all(c.evaluate(lt, extra=rt) for c in loop_conds):
                        lidx.append(i)
                        matched.append(rt)
            if lidx:
                yield _joined(lblock, lidx, matched)

    def _blk_semijoin(self, plan, env):
        keep_left = plan.keep == "left"
        keep_plan, probe_plan = (
            (plan.left, plan.right) if keep_left else (plan.right, plan.left)
        )
        probe = self.stream(probe_plan, dict(env))
        probe_rows = None
        seen = set()
        for kblock in self.blocks(keep_plan, env):
            if probe_rows is None:
                probe_rows = probe.tuples
            cols = [kblock.cols[v] for v in sorted(kblock.cols)]
            keep = []
            for i in range(kblock.n):
                kt = Row(kblock.cols, i)
                for pt in probe_rows:
                    first, second = (kt, pt) if keep_left else (pt, kt)
                    if all(
                        c.evaluate(first, extra=second)
                        for c in plan.conditions
                    ):
                        key = tuple(value_key(col[i]) for col in cols)
                        if key not in seen:
                            seen.add(key)
                            keep.append(i)
                        break
            if keep:
                yield kblock if len(keep) == kblock.n else kblock.take(keep)

    def _blk_crelt(self, plan, env):
        for block in self.blocks(plan.input, env):
            children = block.column(plan.ch_var)
            arg_cols = [block.column(v) for v in plan.skolem_args]
            elements = [
                self._build_element(
                    plan, child, [skolem_arg_of(col[i]) for col in arg_cols]
                )
                for i, child in enumerate(children)
            ]
            self.stats.incr(statnames.ELEMENTS_BUILT, block.n)
            yield block.with_column(plan.out_var, elements)

    def _build_element(self, plan, ch_value, args):
        oid = Skolem(plan.out_var, plan.fn, args, arg_vars=plan.skolem_args)
        if isinstance(ch_value, Node):
            return ConstructedObject(oid, plan.label, (ch_value,))
        if plan.ch_is_list:
            return Node(oid, plan.label, [ch_value])
        if isinstance(ch_value, VList):
            return ConstructedObject(oid, plan.label, ch_value.parts())
        raise EvaluationError(
            "crElt child variable {} bound to {!r}".format(
                plan.ch_var, ch_value
            )
        )

    def _blk_cat(self, plan, env):
        for block in self.blocks(plan.input, env):
            xs = block.column(plan.x_var)
            ys = block.column(plan.y_var)
            yield block.with_column(plan.out_var, [
                _lazy_as_list(x, plan.x_single).lazy_concat(
                    _lazy_as_list(y, plan.y_single)
                )
                for x, y in zip(xs, ys)
            ])

    def _blk_groupby(self, plan, env):
        # gBy runs the Table-1 streams over the input's block stream; a
        # presorted partition is a row range of the memoized column run.
        sorted_vars = infer_sorted_vars(plan.input)
        if not self.force_stateful_gby and input_is_sorted_for(
            sorted_vars, plan.group_vars
        ):
            groups = presorted_gby_blocks(
                self.blocks(plan.input, env), plan.group_vars,
                plan.out_var, self.block_size,
            )
        else:
            groups = stateful_gby_blocks(
                self.blocks(plan.input, dict(env)), plan.group_vars,
                plan.out_var, self.stats,
            )
        yield from groups

    def _blk_apply(self, plan, env):
        inp_var, nested = plan.inp_var, plan.plan
        scope = (plan, env)
        for block in self.blocks(plan.input, env):
            inputs = (
                block.column(inp_var) if inp_var is not None
                else [None] * block.n
            )
            out = []
            for value in inputs:
                inner_env = dict(env)
                inner_env[_SCOPE] = scope
                if inp_var is not None:
                    inner_env[inp_var] = value
                if isinstance(nested, ops.TD):
                    out.append(VList(
                        lazy_tail=self._td_children(nested, inner_env)
                    ))
                else:
                    out.append(BlockSet(self.blocks(nested, inner_env)))
            yield block.with_column(plan.out_var, out)

    def _blk_nestedsrc(self, plan, env):
        if plan.var not in env:
            raise EvaluationError(
                "nestedSrc({}) evaluated outside an apply".format(plan.var)
            )
        nested = env[plan.var]
        if not isinstance(nested, BlockSet):
            raise EvaluationError("nestedSrc({}) bound to {!r}".format(
                plan.var, nested))
        yield from nested.blocks()

    def _blk_orderby(self, plan, env):
        buffered = [b for b in self.blocks(plan.input, dict(env)) if b.n]
        if not buffered:
            return
        block = concat(buffered)
        cols = [block.column(v) for v in plan.variables]
        yield block.take(sorted(
            range(block.n),
            key=lambda i: tuple(repr(value_key(col[i])) for col in cols),
        ))

    def _blk_empty(self, plan, env):
        return iter(())

    _HANDLERS = {}


LazyEngine._HANDLERS = {
    ops.MkSrc: LazyEngine._blk_mksrc,
    ops.RelQuery: LazyEngine._blk_relquery,
    ops.GetD: LazyEngine._blk_getd,
    ops.Select: LazyEngine._blk_select,
    ops.Project: LazyEngine._blk_project,
    ops.Join: LazyEngine._blk_join,
    ops.SemiJoin: LazyEngine._blk_semijoin,
    ops.CrElt: LazyEngine._blk_crelt,
    ops.Cat: LazyEngine._blk_cat,
    ops.GroupBy: LazyEngine._blk_groupby,
    ops.Apply: LazyEngine._blk_apply,
    ops.NestedSrc: LazyEngine._blk_nestedsrc,
    ops.OrderBy: LazyEngine._blk_orderby,
    ops.Empty: LazyEngine._blk_empty,
}


# -- helpers ------------------------------------------------------------------------


def _entry_builder(entry, oids):
    """``assemble`` for one ``rQ`` entry.  A keyed ``element`` entry
    binds the previous row's tuple object while all of its columns,
    key included, repeat — a key run of the ORDER BY — so a join view
    builds each customer once, not once per order."""
    if entry.kind != "element" or not entry.key_positions:
        return partial(assemble, entry, oids=oids)
    signature = itemgetter(*[p for p, __ in entry.columns],
                           *entry.key_positions)
    last = [object(), None]  # no row matches yet

    def build(row):
        sig = signature(row)
        if sig != last[0]:
            last[0], last[1] = sig, assemble(entry, row, oids)
        return last[1]

    return build


def _lazy_as_list(value, single):
    if single:
        return VList([value])
    if isinstance(value, VList):
        return value
    if isinstance(value, Node):
        return VList([value])
    raise EvaluationError("cat expects a list value, got {!r}".format(value))


#: The key of an ``apply`` body's env that holds ``(apply, outer env)``,
#: from which the body's partition schemas follow (:func:`_schemas`).
_SCOPE = object()


def _schemas(env):
    """The static env (:func:`~repro.algebra.plan.nested_env`) of the
    nested plan evaluated under the run-time ``env``: each enclosing
    apply's input variable mapped to its partition schema."""
    scope = env.get(_SCOPE)
    if scope is None:
        return None
    apply, outer = scope
    return nested_env(apply, _schemas(outer))


def _join_sides(plan, env):
    """The variables each input of the join ``plan`` binds; a side that
    reads ``nestedSrc`` is resolved through the enclosing applies."""
    schemas = _schemas(env)
    return [
        defined_vars(side, schemas) or frozenset() for side in plan.children
    ]


def _split_join_conditions(conditions):
    """Separate hashable equality conditions from loop conditions."""
    hashable = []
    loop = []
    for c in conditions:
        if c.op == "=" and c.is_var_var() and c.mode in (VALUE, KEY):
            hashable.append(c)
        else:
            loop.append(c)
    return hashable, loop


def _cond_sides(cond, left_defined, right_defined):
    """Orient a var-var equality: (left input's var, right input's var)."""
    lv, rv = cond.left.var, cond.right.var
    if lv in left_defined and rv in right_defined:
        return lv, rv
    if rv in left_defined and lv in right_defined:
        return rv, lv
    raise EvaluationError(
        "join condition {!r} does not span both inputs".format(cond)
    )


def _hash_sides(hash_conds, left_defined, right_defined):
    """Each hash condition as (left input's var, right input's var, mode)."""
    return [
        _cond_sides(c, left_defined, right_defined) + (c.mode,)
        for c in hash_conds
    ]


def _hash_key(t, sides, side):
    """A row's hash-join key on ``side`` (0: left input, 1: right)."""
    key = []
    for cond in sides:
        value = t.get(cond[side])
        if cond[2] == KEY:
            key.append(value_key(value))
        else:
            key.append(atomize(value) if isinstance(value, Node) else None)
    return tuple(key)


def _joined(lblock, lidx, matched):
    """The paper's ``b1 + b2`` for each left row ``lidx[k]`` and right row
    ``matched[k]``; the two variable sets must be disjoint."""
    left = lblock.take(lidx)
    right_vars = matched[0].variables()
    overlap = right_vars & set(left.cols)
    if overlap:
        raise PlanError(
            "cannot merge tuples sharing variables {}".format(sorted(overlap))
        )
    cols = dict(left.cols)
    for var in right_vars:
        cols[var] = [rt.get(var) for rt in matched]
    return Block(cols, left.n)


def infer_sorted_vars(plan):
    """Variables the plan's output is (clustered-)sorted on.

    Conservative static inference: ``orderBy`` and ``rQ`` establish
    order; every other operator keeps the order of the input it streams
    — the first of its :class:`~repro.algebra.operators.Output` rule's
    inputs: its input, a join's left (probe) side, a semijoin's kept
    side — as far as its output schema binds a prefix of it.  Leaves
    (``mksrc``, ``nestedSrc``, ``empty``) and ``tD`` yield no guarantee.
    """
    if isinstance(plan, ops.OrderBy):
        return tuple(plan.variables)
    if isinstance(plan, ops.RelQuery):
        return tuple(plan.order_vars)
    streamed = plan.output.inputs(plan)
    if not streamed:
        return ()
    order = infer_sorted_vars(streamed[0])
    if plan.output is ops.NARROW:  # the one rule that drops input variables
        order = tuple(takewhile(defined_vars(plan).__contains__, order))
    return order
