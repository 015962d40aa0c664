"""Pipelined executor for the SQL subset.

Evaluation is generator-based end to end: nothing past the rows a cursor
has actually fetched is computed, except where a plan has to hold rows
back.  This mirrors the pipelined, cursor-driven evaluation the paper
assumes of relational sources and is what makes the mediator's
navigation-driven evaluation effective down to the base tables.

There are two physical plans.

**Hash joins + sort** (every statement without ``ORDER BY``, every
statement under ``Database(optimizer=False)``, and any statement for
which it is estimated cheaper).  Predicates are classified into
per-alias filters (applied on the scan), equi-join predicates (hash
joins), and residual cross-alias predicates (filtered after a
nested-loop/cross product).  *Blocks:* the build side of each hash join
is materialized on the first pull, and ``ORDER BY`` materializes and
sorts the whole join before the first row.  *Streams:* the probe side,
projection and ``DISTINCT``.  With the cost-based optimizer on
(``Database(optimizer=True)``, the default) the join order, each hash
join's build side, and the index-vs-scan choice come from
:class:`repro.optimizer.cost.SelectPlanner`; with it off the seed's
syntactic planning applies — the join order greedily follows equi-join
connectivity from the first FROM entry, the build side is always the
newly joined alias, and only fully bound indexes are used.

**Order-preserving index nested loops** (optimizer on, ``ORDER BY``
led by the primary key of one alias, estimated no dearer than the
above; see :meth:`~repro.optimizer.cost.SelectPlanner.ordered_plan`).
The leading alias is read in key order and every other alias is joined
to it by lookup — primary key, DDL index, or a per-table-version hash
*join index* — which keeps that order.  *Blocks:* only one run of rows
with equal leading key at a time, sorted on the remaining ``ORDER BY``
columns; building a join index (one scan, reused until the table's
version moves); an alias joined without any equality, which is
materialized once.  *Streams:* everything else — the first row costs
one run, not the join.  Under ``DISTINCT`` the aliases that contribute
no output column are joined as semijoins (first match only), and
``DISTINCT`` itself forgets its rows at each run boundary.

Both plans snapshot every table on the first pull
(:meth:`~repro.relational.table.Table.access_paths`), so a cursor reads
one version of each table however long it stays open.  Rows flow as
plain tuples concatenated in join order; a per-statement *layout*
(alias → offset) places each column.  Work counters are kept in a local
list and handed to the instrument once per cursor fetch.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from operator import itemgetter

from repro import stats as statnames
from repro.errors import SchemaError, SqlError
from repro.relational import ast
from repro.relational.types import sort_key as _sort_key

_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Slots of a statement's local work counters, and the instrument
#: counters they are flushed to.
_SCANNED, _JOINED, _LOOKUPS = range(3)
_COUNTERS = (
    statnames.ROWS_SCANNED, statnames.JOIN_TUPLES, statnames.INDEX_LOOKUPS
)


def compare(left, op, right):
    """Three-valued-ish comparison: any NULL operand yields False."""
    if left is None or right is None:
        return False
    if isinstance(left, bool) or isinstance(right, bool):
        raise SqlError("boolean values are not comparable")
    numeric = isinstance(left, (int, float)) and isinstance(right, (int, float))
    if not numeric and type(left) is not type(right):
        # Heterogeneous comparison (e.g. '5' vs 5): only (in)equality is
        # defined, and values of different types are never equal.
        if op == "=":
            return False
        if op == "!=":
            return True
        return False
    return _OPS[op](left, right)


class _Binding:
    """Name resolution for one SELECT: alias -> table."""

    def __init__(self, database, table_refs):
        self.aliases = []
        self.tables = {}
        for ref in table_refs:
            if ref.alias in self.tables:
                raise SqlError("duplicate alias {!r}".format(ref.alias))
            self.aliases.append(ref.alias)
            self.tables[ref.alias] = database.table(ref.table)

    def width(self, alias):
        return len(self.tables[alias].schema.columns)

    def resolve(self, colref):
        """Map a :class:`ColRef` to (alias, column position in it)."""
        if colref.qualifier is not None:
            alias = colref.qualifier
            if alias not in self.tables:
                raise SchemaError("unknown alias {!r}".format(alias))
        else:
            candidates = [
                alias
                for alias in self.aliases
                if self.tables[alias].schema.has_column(colref.column)
            ]
            if not candidates:
                raise SchemaError("unknown column {!r}".format(colref.column))
            if len(candidates) > 1:
                raise SchemaError(
                    "ambiguous column {!r} (in {})".format(
                        colref.column, ", ".join(candidates)
                    )
                )
            alias = candidates[0]
        return alias, self.tables[alias].schema.column_index(colref.column)


class _Operand:
    """A resolved predicate operand: a column (``alias``, ``index`` in
    the alias's row, ``column`` name) or a literal value."""

    _NO_LITERAL = object()

    def __init__(self, alias=None, index=None, column=None,
                 literal=_NO_LITERAL):
        self.alias = alias
        self.index = index
        self.column = column
        self.aliases = frozenset() if alias is None else frozenset([alias])
        self._literal = literal

    @property
    def is_literal(self):
        return self._literal is not _Operand._NO_LITERAL

    @property
    def literal(self):
        return self._literal

    def position(self, layout):
        return layout[self.alias] + self.index


def _resolve_operand(binding, operand):
    if isinstance(operand, ast.Literal):
        return _Operand(literal=operand.value)
    alias, index = binding.resolve(operand)
    return _Operand(alias, index, operand.column)


class _ResolvedPredicate:
    def __init__(self, binding, predicate):
        self.left = _resolve_operand(binding, predicate.left)
        self.op = predicate.op
        self.right = _resolve_operand(binding, predicate.right)
        self.aliases = self.left.aliases | self.right.aliases

    def compile(self, layout):
        """``row -> bool`` for rows laid out by ``layout`` (alias ->
        offset of the alias's columns in the row)."""
        op, left, right = self.op, self.left, self.right
        if left.is_literal and right.is_literal:
            result = compare(left.literal, op, right.literal)
            return lambda row: result
        if right.is_literal:
            pos, value = left.position(layout), right.literal
            return lambda row: compare(row[pos], op, value)
        if left.is_literal:
            pos, value = right.position(layout), left.literal
            return lambda row: compare(value, op, row[pos])
        lpos, rpos = left.position(layout), right.position(layout)
        return lambda row: compare(row[lpos], op, row[rpos])

    def side_of(self, alias):
        """``(operand of alias, the other operand)`` of a two-alias
        predicate."""
        if self.left.alias == alias:
            return self.left, self.right
        return self.right, self.left

    def equality_binding(self):
        """``(column, literal)`` when this is ``col = const``, else None."""
        if self.op != "=":
            return None
        if self.left.column is not None and self.right.is_literal:
            return self.left.column, self.right.literal
        if self.right.column is not None and self.left.is_literal:
            return self.right.column, self.left.literal
        return None


def resolve_select(database, stmt):
    """Name-resolve a SELECT: ``(binding, resolved_predicates)``.

    Shared by execution (below) and by the cost model's
    :func:`repro.optimizer.cost.estimate_select`, which plans the same
    resolved form without running it.
    """
    binding = _Binding(database, stmt.tables)
    predicates = [_ResolvedPredicate(binding, p) for p in stmt.predicates]
    return binding, predicates


def execute_select(database, stmt):
    """Evaluate a SELECT; returns ``(column_names, rows, after_fetch)``.

    ``rows`` is a generator that does nothing until first pulled.  The
    cursor calls ``after_fetch(n)`` at the end of every fetch with the
    number of rows it took: that hands the work counted since the last
    call — and ``n`` under the statement's ``rows_out:<tables>`` — to
    ``database.stats`` in one increment each, attributed to whichever
    navigation span is active during the fetch.
    """
    binding, predicates = resolve_select(database, stmt)
    names, columns = _projection(binding, stmt.items)
    order_by = [binding.resolve(c) for c in stmt.order_by]
    planner = ordered = None
    if getattr(database, "optimizer", False):
        from repro.optimizer.cost import SelectPlanner

        planner = SelectPlanner(binding, predicates)
        if order_by:
            shown = {alias for alias, _ in columns + order_by}
            ordered = planner.ordered_plan(
                order_by, shown if stmt.distinct else None
            )
    counts = [0] * len(_COUNTERS)
    if ordered is not None:
        start = _ordered_select(
            binding, predicates, ordered, columns, order_by, stmt.distinct,
            counts,
        )
    else:
        start = _sorted_select(
            binding, predicates, planner, columns, order_by, stmt.distinct,
            counts,
        )
    obs = database.stats
    rows_out = "rows_out:" + ",".join(
        sorted({ref.table for ref in stmt.tables})
    )

    def after_fetch(fetched):
        for slot, name in enumerate(_COUNTERS):
            if counts[slot]:
                obs.incr(name, counts[slot])
                counts[slot] = 0
        if fetched:
            obs.incr(rows_out, fetched)

    return names, _deferred(start), after_fetch


def _deferred(start):
    """Run ``start()`` — snapshot the tables, build the operator chain —
    on the first pull, not when the statement is issued."""
    yield from start()


def _projection(binding, items):
    """``(names, [(alias, column position)])`` of the select list."""
    names = []
    columns = []
    for item in items:
        if item.is_star:
            for alias in binding.aliases:
                table = binding.tables[alias]
                for i, col in enumerate(table.schema.columns):
                    names.append(col.name)
                    columns.append((alias, i))
        else:
            names.append(item.alias or item.ref.column)
            columns.append(binding.resolve(item.ref))
    return names, columns


def _positions(layout, columns):
    return [layout[alias] + index for alias, index in columns]


def _getter(positions):
    """``row -> value`` for one position, ``row -> tuple`` for more
    (both sides of a join key use the same arity, so they compare)."""
    return itemgetter(*positions)


def _projector(positions):
    if len(positions) == 1:
        (pos,) = positions
        return lambda row: (row[pos],)
    return itemgetter(*positions)


def _has_null(key):
    """Whether a join key — one value, or a tuple of several — holds a
    NULL, which no equality matches."""
    return key is None or type(key) is tuple and None in key


def _sorter(positions):
    if len(positions) == 1:
        (pos,) = positions
        return lambda row: _sort_key(row[pos])
    return lambda row: [_sort_key(row[p]) for p in positions]


def _all_of(tests):
    """One ``row -> bool`` for a conjunction; ``None`` when empty."""
    if not tests:
        return None
    if len(tests) == 1:
        return tests[0]

    def test(row):
        for t in tests:
            if not t(row):
                return False
        return True

    return test


def _take(predicates, wanted):
    """Remove and return the predicates satisfying ``wanted``."""
    taken = [p for p in predicates if wanted(p)]
    for p in taken:
        predicates.remove(p)
    return taken


def _distinct_stream(rows):
    seen = set()
    for row in rows:
        if row not in seen:
            seen.add(row)
            yield row


# -- hash joins + sort ---------------------------------------------------------------


#: One alias of the hash plan: how it is scanned (``local`` filters,
#: ``index`` probe or ``None``) and joined in (``equi`` hash keys,
#: ``cross`` residual filters, ``build_new`` side).
_HashStep = namedtuple("_HashStep", "alias local index equi cross build_new")


def _sorted_select(binding, predicates, planner, columns, order_by,
                   distinct, counts):
    steps, final = _hash_steps(binding, predicates, planner)
    layout = {}
    width = 0
    for step in steps:
        layout[step.alias] = width
        width += binding.width(step.alias)
    project = _projector(_positions(layout, columns))
    order_positions = _positions(layout, order_by)

    def start():
        rows = _hash_pipeline(binding, steps, final, layout, counts)
        if order_positions:
            rows = sorted(rows, key=_sorter(order_positions))
        projected = map(project, rows)
        return _distinct_stream(projected) if distinct else projected

    return start


def _hash_steps(binding, predicates, planner):
    """The join order and each step's predicates: ``(steps, final)``.

    With a :class:`~repro.optimizer.cost.SelectPlanner` the join order
    and each step's build side follow its cost-based plan; without one
    (optimizer off) the seed's syntactic order applies.  ``final`` is
    what no step could take (predicates between literals).
    """
    if not binding.aliases:
        raise SqlError("SELECT requires at least one table")
    remaining = list(predicates)
    planned = planner.join_order() if planner is not None else None
    pending = list(binding.aliases)
    joined = set()
    steps = []
    while pending:
        if planned is not None:
            step = planned[len(steps)]
            alias = step.alias
            build_new = step.build_new is not False
        else:
            alias = _next_alias(pending, joined, remaining)
            build_new = True
        pending.remove(alias)
        local = _take(remaining, lambda p: p.aliases == {alias})
        index = _pick_index(
            binding.tables[alias], local, planner=planner, alias=alias
        )

        def joins(p):
            return (len(p.aliases) == 2 and alias in p.aliases
                    and (p.aliases - {alias}) <= joined)

        equi = _take(remaining, lambda p: p.op == "=" and joins(p))
        cross = _take(remaining, joins)
        steps.append(_HashStep(alias, local, index, equi, cross, build_new))
        joined.add(alias)
    return steps, remaining


def _hash_pipeline(binding, steps, final, layout, counts):
    stream = None
    for step in steps:
        alias = step.alias
        local = _all_of([p.compile({alias: 0}) for p in step.local])
        scan = _scan(
            binding.tables[alias].access_paths(), step.index, local, counts
        )
        if stream is None:
            stream = scan
            continue
        sides = [p.side_of(alias) for p in step.equi]
        keys = (None, None)
        if sides:
            keys = (
                _getter([other.position(layout) for _, other in sides]),
                _getter([own.index for own, _ in sides]),
            )
        stream = _hash_join(
            stream, scan, *keys,
            _all_of([p.compile(layout) for p in step.cross]),
            step.build_new, counts,
        )
    test = _all_of([p.compile(layout) for p in final])
    return stream if test is None else filter(test, stream)


def _scan(paths, index, test, counts):
    """Filtered scan of one alias's table version.

    Equality predicates covered by a secondary index turn the scan into
    an index probe (``index`` is ``(columns, values)``); ``test`` filters
    on top.  Every row read counts as scanned, as it is read.
    """
    if index is not None:
        counts[_LOOKUPS] += 1
        rows = paths.index_rows(*index)
    else:
        rows = paths.scan()
    for row in rows:
        counts[_SCANNED] += 1
        if test is None or test(row):
            yield row


def _pick_index(table, local_predicates, planner=None, alias=None):
    """The secondary index to probe for the local equality predicates;
    returns ``(columns, values)`` or ``None`` for a full scan.

    An index is usable when a *leading prefix* of its columns is bound
    by equality predicates (an index on ``(a, b)`` answers ``a = 1``).
    With a planner the choice among usable indexes — and whether any
    beats a full scan — is cost-based; without one the seed's syntactic
    rule applies (most-covering fully bound index, else the longest
    usable prefix).
    """
    bindings = {}
    for p in local_predicates:
        eq = p.equality_binding()
        if eq is not None:
            bindings.setdefault(eq[0], eq[1])
    candidates = table.usable_indexes(bindings)
    if planner is not None:
        best = planner.choose_index(alias, candidates)
    else:
        best = None
        for columns, prefix_len in candidates:
            if prefix_len == len(columns):
                if best is None or len(columns) > len(best[0]):
                    best = (columns, prefix_len)
        if best is None:
            for columns, prefix_len in candidates:
                if best is None or prefix_len > best[1]:
                    best = (columns, prefix_len)
    if best is None:
        return None
    columns, prefix_len = best
    return columns, [bindings[c] for c in columns[:prefix_len]]


def _next_alias(pending, joined, predicates):
    """Prefer an alias equi-connected to the already-joined set.

    This is the *syntactic* (optimizer-off) order.  The blind
    ``pending[0]`` fallback on a disconnected join graph is kept
    deliberately so ``--no-optimizer`` reproduces the seed's plans
    byte for byte; the cost-based planner's fallback instead prefers
    the smallest alias with a usable index or local predicate
    (:meth:`repro.optimizer.cost.SelectPlanner._next_step`).
    """
    if not joined:
        return pending[0]
    for alias in pending:
        for p in predicates:
            if (
                p.op == "="
                and alias in p.aliases
                and len(p.aliases) == 2
                and (p.aliases - {alias}) <= joined
            ):
                return alias
    return pending[0]


def _hash_join(stream, scan, stream_key, scan_key, test, build_new, counts):
    """Hash join (or filtered cross product when there is no key) of the
    accumulated ``stream`` with the ``scan`` of a new alias.

    One side is materialized on first pull; the other stays pipelined,
    so cursor pulls still drive how much of it is consumed.
    ``build_new`` picks the side: ``True`` (the seed behavior)
    materializes the newly joined alias and streams the accumulated
    pipeline; ``False`` — chosen by the cost model when the accumulated
    stream is estimated smaller — materializes the stream and pipelines
    the new alias's scan instead.  Either way a joined row is the
    stream's row followed by the new alias's.  Every emitted tuple
    counts one ``join_tuples``, the intermediate-traffic metric the
    E-OPT benchmark compares across join orders.
    """
    if build_new:
        build, build_key, probe, probe_key = scan, scan_key, stream, stream_key
    else:
        build, build_key, probe, probe_key = stream, stream_key, scan, scan_key
    if build_key is None:
        every = list(build)
        matches = lambda row: every
    else:
        # A NULL key equals nothing, so it gets no bucket — and a NULL
        # probe key then finds none.
        buckets = {}
        for row in build:
            key = build_key(row)
            if not _has_null(key):
                buckets.setdefault(key, []).append(row)
        matches = lambda row: buckets.get(probe_key(row), ())
    for probe_row in probe:
        for build_row in matches(probe_row):
            if build_new:
                merged = probe_row + build_row
            else:
                merged = build_row + probe_row
            if test is None or test(merged):
                counts[_JOINED] += 1
                yield merged


# -- order-preserving index nested loops ---------------------------------------------


class _Lookup:
    """One compiled :class:`~repro.optimizer.cost.LookupStep`.

    ``fetch(row)`` gives the candidate rows of the step's alias for an
    outer ``row``; ``inner`` filters a candidate on its own, ``merged``
    the concatenation.  ``scans`` says whether taking a candidate reads
    the table (it does not when they come from a materialized loop).
    """

    __slots__ = ("fetch", "scans", "inner", "merged")

    def __init__(self, step, paths, layout, local, rest, counts):
        alias = step.alias
        inner = _all_of([p.compile({alias: 0}) for p in local])
        self.scans = step.access != "loop"
        self.fetch = _fetcher(step, paths, layout, inner, counts)
        # A loop's candidates were filtered when it was materialized.
        self.inner = inner if self.scans else None
        self.merged = _all_of([_join_test(p, layout) for p in rest])


def _ordered_select(binding, predicates, plan, columns, order_by, distinct,
                    counts):
    # Aliases joined only for existence (a semijoin group) are laid out
    # past the row they are tested against and never kept.
    layout = {plan.driver: 0}
    width = binding.width(plan.driver)
    remaining = list(predicates)
    driver_tests = _take(remaining, lambda p: p.aliases <= {plan.driver})
    joined = {plan.driver}
    units = []  # (semi group or None, [(step, local, rest)])
    for step in plan.steps:
        alias = step.alias
        if step.semi is None:
            layout[alias] = width
            width += binding.width(alias)
        else:
            if not units or units[-1][0] != step.semi:
                units.append((step.semi, []))
                group_width = width
            layout[alias] = group_width
            group_width += binding.width(alias)
        joined.add(alias)
        for p in step.lookups:
            remaining.remove(p)
        local = _take(remaining, lambda p: p.aliases == {alias})
        rest = _take(remaining, lambda p: p.aliases <= joined)
        if step.semi is None:
            units.append((None, []))
        units[-1][1].append((step, local, rest))

    positions = _positions(layout, columns)
    project = _projector(positions)
    order_positions = _positions(layout, order_by)
    run_positions = order_positions[:plan.sorted_prefix]
    rest_positions = order_positions[plan.sorted_prefix:]
    # Rows of different runs differ in the run columns, so DISTINCT may
    # forget a finished run — if those columns are part of the output.
    forget = distinct and set(run_positions) <= set(positions)

    def start():
        paths = {
            alias: binding.tables[alias].access_paths()
            for alias in binding.aliases
        }
        rows = _key_ordered(
            paths[plan.driver],
            _all_of([p.compile(layout) for p in driver_tests]),
            counts,
        )
        for semi, members in units:
            lookups = [
                _Lookup(step, paths[step.alias], layout, local, rest, counts)
                for step, local, rest in members
            ]
            if semi is None:
                rows = _lookup_join(rows, lookups[0], counts)
            else:
                rows = _semi_join(rows, lookups, counts)
        if not rest_positions and not distinct:
            return map(project, rows)
        if not rest_positions and not forget:
            return _distinct_stream(map(project, rows))
        return _run_output(
            rows, _getter(run_positions),
            _sorter(rest_positions) if rest_positions else None,
            project, distinct, forget,
        )

    return start


def _join_test(predicate, layout):
    """A join predicate over a merged row.  Equality between columns
    is the hash join's key test: equal and not NULL."""
    if (predicate.op == "=" and predicate.left.alias is not None
            and predicate.right.alias is not None):
        lpos = predicate.left.position(layout)
        rpos = predicate.right.position(layout)
        return lambda row: row[lpos] == row[rpos] and row[lpos] is not None
    return predicate.compile(layout)


def _key_ordered(paths, test, counts):
    rows = paths.rows
    for pos in paths.key_order():
        counts[_SCANNED] += 1
        row = rows[pos]
        if test is None or test(row):
            yield row


def _fetcher(step, paths, layout, inner, counts):
    """``outer row -> candidate rows`` of ``step.alias``, counting the
    probe.  (Rows are counted by whoever takes them: a semijoin stops at
    the first match.)"""
    if step.access == "loop":
        # No equality to look up by: the filtered table, read once.
        every = []

        def fetch_all(row):
            if not every:
                every.append(list(_scan(paths, None, inner, counts)))
            return every[0]

        return fetch_all
    outer = _getter([
        p.side_of(step.alias)[1].position(layout) for p in step.lookups
    ])
    # A NULL in the outer key matches no row, whatever the index holds.
    if step.access == "key":
        lookup = paths.lookup
        single = len(step.lookups) == 1

        def fetch_key(row):
            key = outer(row)
            if _has_null(key):
                return ()
            found = lookup((key,) if single else key)
            return () if found is None else (found,)

        return fetch_key
    probe = paths.probe(step.columns)

    def fetch_bucket(row):
        key = outer(row)
        if _has_null(key):
            return ()
        counts[_LOOKUPS] += 1
        return probe(key) or ()

    return fetch_bucket


def _lookup_join(outer, lookup, counts):
    """Index nested loop: the outer order is the output order."""
    fetch, inner_test, merged_test = lookup.fetch, lookup.inner, lookup.merged
    scans = lookup.scans
    for row in outer:
        found = fetch(row)
        if scans:
            counts[_SCANNED] += len(found)
        for inner in found:
            if inner_test is not None and not inner_test(inner):
                continue
            merged = row + inner
            if merged_test is None or merged_test(merged):
                counts[_JOINED] += 1
                yield merged


def _semi_join(outer, group, counts):
    """Keep the outer rows for which the aliases of ``group`` have at
    least one joint match; the search stops at the first."""
    for row in outer:
        if _joint_match(row, group, 0, counts):
            yield row


def _joint_match(row, group, depth, counts):
    """Whether ``row`` has a joint match in ``group[depth:]``.  A module
    function, not a self-recursive closure: that closure made a
    reference cycle per statement, keeping its lookups alive until the
    cyclic collector ran."""
    lookup = group[depth]
    for inner in lookup.fetch(row):
        if lookup.scans:
            counts[_SCANNED] += 1
        if lookup.inner is not None and not lookup.inner(inner):
            continue
        merged = row + inner
        if lookup.merged is not None and not lookup.merged(merged):
            continue
        counts[_JOINED] += 1
        if depth == len(group) - 1 or _joint_match(
                merged, group, depth + 1, counts):
            return True
    return False


def _run_output(rows, run_key, rest_key, project, distinct, forget):
    """Incremental sort: ``rows`` arrive ordered on ``run_key``; each
    run of equal ``run_key`` is sorted on ``rest_key`` and projected.
    ``DISTINCT`` forgets its rows between runs when ``forget``."""
    seen = set()
    run = []
    current = None
    for row in rows:
        key = run_key(row)
        if run and key != current:
            yield from _finish_run(run, rest_key, project, distinct, seen)
            run = []
            if forget:
                seen = set()
        current = key
        run.append(row)
    if run:
        yield from _finish_run(run, rest_key, project, distinct, seen)


def _finish_run(run, rest_key, project, distinct, seen):
    if rest_key is not None:
        run.sort(key=rest_key)
    for row in map(project, run):
        if distinct:
            if row in seen:
                continue
            seen.add(row)
        yield row
