"""The cost model driving the SQL executor's physical choices.

Four decisions, all previously syntactic, become cost-based here:

* **join order** — a greedy enumeration over the join graph: start from
  the alias with the smallest estimated (filtered) cardinality, then
  repeatedly take the equi-connected alias that minimizes the estimated
  intermediate result (cross products only when the graph is
  disconnected, and then smallest-first);
* **build vs probe** — each hash join materializes its smaller side and
  streams the larger one (the seed always built the newly joined
  alias);
* **index vs scan** — among the usable (prefix-bound) secondary
  indexes, the one with the fewest estimated matching rows, and only
  when that beats a full scan;
* **sort vs interesting order** — an ``ORDER BY`` led by the primary
  key of one alias can be met by reading that alias in key order and
  joining everything else to it by lookup, which streams; that plan is
  costed against hash joins + a full sort and the cheaper one runs
  (:meth:`SelectPlanner.ordered_plan`).

Everything here consumes the executor's resolved predicate objects
duck-typed (``aliases``/``op``/``left``/``right`` with
``column``/``is_literal``), so the estimator stays import-cycle-free.
"""

from __future__ import annotations

from math import log2

from repro.relational.types import FLIPPED
from repro.optimizer.selectivity import (
    column_ndv,
    conjunction_selectivity,
    default_selectivity,
    equijoin_selectivity,
    predicate_selectivity,
)

#: A partial-prefix index probe must look this much better than a full
#: scan to be chosen (it walks the index's distinct keys, so a barely
#: selective prefix can cost more than the scan it replaces).
PARTIAL_PREFIX_THRESHOLD = 0.75

class JoinStep:
    """One planned pipeline step: join ``alias`` into the stream.

    ``build_new`` picks the hash-join build side: ``True`` materializes
    the newly joined alias (the seed behavior), ``False`` materializes
    the accumulated stream and probes the new alias instead.  ``None``
    for the first step (a plain scan).
    """

    __slots__ = ("alias", "build_new", "estimate")

    def __init__(self, alias, build_new, estimate):
        self.alias = alias
        self.build_new = build_new
        self.estimate = estimate

    def __repr__(self):
        return "JoinStep({}, build_new={}, est={:.1f})".format(
            self.alias, self.build_new, self.estimate
        )


class LookupStep:
    """One step of an order-preserving plan: join ``alias`` to the
    stream by index nested loop.

    ``access`` says how its rows are found for an outer row: ``"key"``
    (primary-key lookup), ``"index"`` (hash probe on ``columns`` — the
    DDL index on exactly these columns, else the table version's join
    index on the single column) or ``"loop"`` (no equality: the
    filtered table, materialized once).  ``lookups`` are the equijoin
    predicates that supply the probe values, one per column of
    ``columns``, in order.  ``semi`` numbers the semijoin group the
    alias belongs to (``None``: an ordinary join).
    """

    __slots__ = ("alias", "access", "columns", "lookups", "semi", "estimate")

    def __init__(self, alias, access, columns, lookups, semi, estimate):
        self.alias = alias
        self.access = access
        self.columns = columns
        self.lookups = lookups
        self.semi = semi
        self.estimate = estimate

    def __repr__(self):
        return "LookupStep({}, {}{}, semi={}, est={:.1f})".format(
            self.alias, self.access, list(self.columns), self.semi,
            self.estimate,
        )


class OrderedPlan:
    """Read ``driver`` in primary-key order, then join ``steps`` in
    turn.  The stream arrives sorted on the first ``sorted_prefix``
    ``ORDER BY`` columns; ``cost`` is in the units of
    :meth:`SelectPlanner.sort_plan_cost`."""

    __slots__ = ("driver", "sorted_prefix", "steps", "cost")

    def __init__(self, driver, sorted_prefix, steps, cost):
        self.driver = driver
        self.sorted_prefix = sorted_prefix
        self.steps = steps
        self.cost = cost


class SelectPlanner:
    """Cost-based physical planning for one SELECT.

    Built from the executor's name binding and resolved predicates;
    every estimate bottoms out in the tables' live row counts plus
    whatever fresh ``ANALYZE`` statistics exist.
    """

    def __init__(self, binding, predicates):
        self.binding = binding
        self.predicates = list(predicates)
        self._position = {a: i for i, a in enumerate(binding.aliases)}
        self._local = {
            alias: [
                p for p in self.predicates
                if p.aliases and p.aliases <= {alias}
            ]
            for alias in binding.aliases
        }
        self._scan_est = {
            alias: self._filtered_rows(alias) for alias in binding.aliases
        }
        self._join_order = None

    # -- per-alias estimates ---------------------------------------------------

    def table(self, alias):
        return self.binding.tables[alias]

    def local_predicates(self, alias):
        return self._local[alias]

    def _filtered_rows(self, alias):
        table = self.table(alias)
        rows = float(len(table))
        sels = [
            self._local_selectivity(table, p)
            for p in self._local[alias]
        ]
        return rows * conjunction_selectivity(sels)

    @staticmethod
    def _local_selectivity(table, predicate):
        column, op, literal = _column_literal_form(predicate)
        if column is not None:
            return predicate_selectivity(table, column, op, literal)
        return default_selectivity(predicate.op)

    # -- join ordering ---------------------------------------------------------

    def join_order(self):
        """The greedy cost-based order; a list of :class:`JoinStep`."""
        if self._join_order is None:
            self._join_order = self._plan_join_order()
        return self._join_order

    def _plan_join_order(self):
        pending = list(self.binding.aliases)
        if not pending:
            return []
        first = min(
            pending,
            key=lambda a: (self._scan_est[a], self._position[a]),
        )
        pending.remove(first)
        stream_est = self._scan_est[first]
        steps = [JoinStep(first, None, stream_est)]
        joined = {first}
        while pending:
            alias, estimate = self._next_step(pending, joined, stream_est)
            pending.remove(alias)
            build_new = self._scan_est[alias] <= stream_est
            steps.append(JoinStep(alias, build_new, estimate))
            joined.add(alias)
            stream_est = estimate
        return steps

    def final_estimate(self):
        """Estimated output rows of the whole FROM/WHERE pipeline."""
        steps = self.join_order()
        estimate = steps[-1].estimate if steps else 0.0
        # Residual predicates (spanning 3+ aliases, or whatever the
        # join loop could not consume) filter the final stream.
        joined = {s.alias for s in steps}
        for p in self.predicates:
            if len(p.aliases) > 2 and p.aliases <= joined:
                estimate *= default_selectivity(p.op)
        return estimate

    def _joining(self, alias, joined):
        """The two-alias predicates between ``alias`` and ``joined``."""
        return [
            p for p in self.predicates
            if len(p.aliases) == 2 and alias in p.aliases
            and (p.aliases - {alias}) <= joined
        ]

    def _next_step(self, pending, joined, stream_est):
        connected = [
            a for a in pending
            if any(p.op == "=" for p in self._joining(a, joined))
        ]
        if connected:
            best = min(
                connected,
                key=lambda a: (
                    self._join_estimate(a, joined, stream_est),
                    self._position[a],
                ),
            )
            return best, self._join_estimate(best, joined, stream_est)
        # Disconnected join graph: a cross product is unavoidable.
        # Prefer an alias a usable index or a local predicate shrinks
        # (the satellite fix for the old blind ``pending[0]``).
        best = min(
            pending,
            key=lambda a: (
                self._scan_est[a],
                0 if self._has_usable_index(a) else 1,
                self._position[a],
            ),
        )
        return best, stream_est * self._scan_est[best]

    def _join_estimate(self, alias, joined, stream_est):
        estimate = stream_est * self._scan_est[alias]
        for p in self._joining(alias, joined):
            if p.op == "=" and not (p.left.is_literal or p.right.is_literal):
                estimate *= self._equijoin_selectivity(p)
            else:
                estimate *= default_selectivity(p.op)
        return estimate

    def _equijoin_selectivity(self, predicate):
        (l_alias,) = predicate.left.aliases
        (r_alias,) = predicate.right.aliases
        return equijoin_selectivity(
            self.table(l_alias), predicate.left.column,
            self.table(r_alias), predicate.right.column,
        )

    def _has_usable_index(self, alias):
        bound = _equality_bindings(self._local[alias])
        return bool(self.table(alias).usable_indexes(bound))

    # -- index choice ----------------------------------------------------------

    def choose_index(self, alias, candidates):
        """Pick among usable index candidates ``[(columns, prefix_len)]``.

        Returns the winning ``(columns, prefix_len)`` or ``None`` when a
        full scan is estimated to be cheaper.
        """
        choice = self._cheapest_index(alias, candidates)
        return None if choice is None else choice[0]

    def _cheapest_index(self, alias, candidates):
        """``(candidate, estimated rows)`` of :meth:`choose_index`."""
        if not candidates:
            return None
        table = self.table(alias)
        bound = _equality_bindings(self._local[alias])
        rows = float(len(table))

        def probe_estimate(candidate):
            columns, prefix_len = candidate
            sels = [
                predicate_selectivity(table, col, "=", bound[col])
                for col in columns[:prefix_len]
            ]
            return rows * conjunction_selectivity(sels)

        best = min(candidates, key=lambda c: (probe_estimate(c), c[0]))
        estimate = probe_estimate(best)
        if best[1] == len(best[0]):
            # Fully bound: a single O(1) bucket probe always wins.
            return best, estimate
        if estimate < rows * PARTIAL_PREFIX_THRESHOLD:
            return best, estimate
        return None

    # -- sort vs interesting order -----------------------------------------------

    def sort_plan_cost(self):
        """Cost of hash joins in :meth:`join_order` plus a full sort.

        The unit is one row handled: every row a scan reads, every
        tuple a join emits, and ``n log2 n`` for sorting the ``n``
        estimated result rows.
        """
        cost = 0.0
        for alias in self.binding.aliases:
            table = self.table(alias)
            bound = _equality_bindings(self._local[alias])
            choice = self._cheapest_index(alias, table.usable_indexes(bound))
            cost += len(table) if choice is None else choice[1]
        cost += sum(step.estimate for step in self.join_order()[1:])
        rows = self.final_estimate()
        return cost + rows * log2(rows + 2.0)

    def ordered_plan(self, order_by, shown=None):
        """The order-preserving plan for ``ORDER BY order_by``, or
        ``None`` when there is none or the sort plan is cheaper.

        ``order_by`` lists ``(alias, column position)``.  The plan
        exists when the leading ``ORDER BY`` columns are a leading part
        of one alias's primary key, in key order: that alias drives, in
        key order, and index nested loops keep its order.  ``shown``
        names the aliases with a column in the select list or ``ORDER
        BY`` when the statement is ``DISTINCT`` (else ``None``): every
        connected set of the other aliases only decides whether an
        output row exists, so it is joined as a semijoin, right after
        the aliases it attaches to.

        Costed in :meth:`sort_plan_cost`'s unit: rows read in key order
        and by lookup, tuples emitted, and the sorts within runs of
        equal leading key.  A join index costs its table one more scan
        per table version, which is not charged: it is the build side
        the hash join would have read anyway, and later statements
        reuse it.
        """
        driver = order_by[0][0]
        key = self.table(driver).schema.key_indexes()
        prefix = 0
        for (alias, index), key_index in zip(order_by, key):
            if alias != driver or index != key_index:
                break
            prefix += 1
        if not prefix:
            return None
        hidden = set()
        if shown is not None:
            hidden = set(self.binding.aliases) - set(shown)
        groups = self._connected(hidden)
        pending = [
            a for a in self.binding.aliases if a != driver and a not in hidden
        ]
        joined = {driver}
        stream = self._scan_est[driver]
        cost = float(len(self.table(driver)))
        steps = []
        while pending or groups:
            group = next(
                (g for g in groups if self._attachments(g) <= joined), None
            )
            if group is not None:
                groups.remove(group)
                members = list(group)
                semi = self._position[members[0]]
                entered = stream
            else:
                members = [self._next_step(pending, joined, stream)[0]]
                pending.remove(members[0])
                semi = None
            while members:
                alias, estimate = self._next_step(members, joined, stream)
                members.remove(alias)
                step, reads = self._lookup_step(
                    alias, joined, stream, estimate, semi
                )
                steps.append(step)
                joined.add(alias)
                cost += reads + step.estimate
                stream = step.estimate
            if semi is not None:
                stream = min(entered, stream)
        runs = max(1.0, self._scan_est[driver])
        cost += stream * log2(stream / runs + 2.0)
        if cost > self.sort_plan_cost():
            return None
        return OrderedPlan(driver, prefix, steps, cost)

    def _connected(self, aliases):
        """The connected components of ``aliases`` under the predicates
        between them, as lists in FROM order."""
        component = {a: {a} for a in aliases}
        for p in self.predicates:
            if len(p.aliases) == 2 and p.aliases <= aliases:
                a, b = p.aliases
                if component[a] is not component[b]:
                    component[a] |= component[b]
                    for member in component[b]:
                        component[member] = component[a]
        groups = []
        for alias in self.binding.aliases:
            if alias in aliases and component[alias] is not None:
                members = component[alias]
                groups.append(sorted(members, key=self._position.get))
                for member in members:
                    component[member] = None
        return groups

    def _attachments(self, group):
        """The aliases outside ``group`` its predicates mention."""
        members = set(group)
        outside = set()
        for p in self.predicates:
            if p.aliases & members:
                outside |= p.aliases - members
        return outside

    def _lookup_step(self, alias, joined, stream_est, estimate, semi):
        """``(LookupStep, estimated rows read)`` for joining ``alias``
        to a stream of ``stream_est`` rows over ``joined``."""
        table = self.table(alias)
        by_column = {}
        for p in self._joining(alias, joined):
            if p.op == "=":
                own = p.left if p.left.aliases == {alias} else p.right
                by_column.setdefault(own.column, p)
        key = table.schema.primary_key
        if key and all(column in by_column for column in key):
            # At most one row per probe, whatever the NDV guess says.
            access, columns = "key", tuple(key)
            fanout = 1.0
            estimate = min(estimate, stream_est)
        elif by_column:
            access = "index"
            indexed = [
                columns for columns in table.indexes()
                if all(column in by_column for column in columns)
            ]
            if indexed:
                columns = max(indexed, key=len)
            else:
                columns = (max(
                    by_column, key=lambda c: column_ndv(table, c)
                ),)
            distinct = 1.0
            for column in columns:
                distinct *= column_ndv(table, column)
            fanout = len(table) / min(max(distinct, 1.0), max(len(table), 1))
        else:
            access, columns = "loop", ()
            fanout = self._scan_est[alias]
        reads = stream_est * fanout
        if access == "loop":
            reads += len(table)
        step = LookupStep(
            alias, access, columns, [by_column[c] for c in columns], semi,
            estimate,
        )
        return step, reads


def estimate_select(database, stmt):
    """Estimated result rows of a parsed SELECT against ``database``.

    This is what the mediator-level plan estimator (`est=` in EXPLAIN)
    and the pushed-SQL split consult.  Import is deferred so the
    executor's lazy import of this module stays cycle-free.
    """
    from repro.relational.executor import resolve_select

    binding, predicates = resolve_select(database, stmt)
    planner = SelectPlanner(binding, predicates)
    return max(0.0, planner.final_estimate())


def _column_literal_form(predicate):
    """``(column, op, literal)`` for a one-sided comparison, flipping
    the operator when the literal is on the left; ``(None, op, None)``
    otherwise."""
    if predicate.left.column is not None and predicate.right.is_literal:
        return predicate.left.column, predicate.op, predicate.right.literal
    if predicate.right.column is not None and predicate.left.is_literal:
        op = FLIPPED.get(predicate.op, predicate.op)
        return predicate.right.column, op, predicate.left.literal
    return None, predicate.op, None


def _equality_bindings(local_predicates):
    bindings = {}
    for p in local_predicates:
        eq = p.equality_binding()
        if eq is not None:
            bindings.setdefault(eq[0], eq[1])
    return bindings
