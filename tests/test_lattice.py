"""The configuration-lattice differential.

MIX changes *how* an answer is computed — lazily, a block at a time,
from caches, over shards, through faults, across the wire — never
*what* it is.  One harness checks that for combinations, not one feature
at a time.  Hypothesis draws a workload shape, a few queries, a script
of visits, DML batches and view redefinitions, and one point of

    engine × width × cache × deployment × cost optimizer × transport × faults

and every observation is compared with the oracle's:
``Mediator(lazy=False, cache=False, block_size=1)`` over the unsharded
in-memory wrapper, fault-free and in-process (the configuration
``mixbench/oracle.py`` uses).  A visit is one browsing session on a
query: a stepwise ``d``/``r`` walk and a bulk ``walk`` under a budget,
the ``tree``, and a ``q`` from the root or from the first child.  At
every point:

* answers are byte-identical to the oracle's (hash shards gather in
  arrival order: the same top-level records, sorted);
* budgeted transcripts equal the oracle's wherever order is defined
  (elsewhere, their lengths do), and full ones are compared as answers;
* reading an answer to its end ships as many tuples as the oracle's
  when the cache is off and every pull is delivered: width, engine,
  transport and shard count change how rows travel, never how many;
* every compiled plan is verifier-clean (``strict=True`` everywhere);
* with the cache on, the plan bound for a request renders as the
  ``cache=False`` compile of the same text, rewrite rules included;
* no ``<mix:error>`` stub appears unless the point degrades, and under
  ``degrade`` the records without a stub are the fault-free answer;
* under ``escape`` (permanent faults, default ``raise`` policy) a read
  either raises the source's failure or equals the oracle's — nothing
  is cut short and presented as complete — and a stepwise walk that
  meets a raise moves on to the next record, whose every step again
  raises or equals the oracle's.

Fault schedules are breaker-free.  Pull faults are keyed on a child's
position in its document and SQL faults on the statement count, so
neither depends on the width; a circuit breaker's timing would (it is
shared by every document of a source).  Half of the ``degrade`` draws
(odd fault seeds) take the resilient path: the injected source sits
behind a single-attempt ``ResilientSource`` — on a fleet every member is
injected and wrapped by ``shard_resilience`` — so the source raises and
only the engine stubs.  ``MIX_SEED`` seeds the example search, the
workload's order values and the fault schedules.
"""

from __future__ import annotations

import itertools
import re
from collections import namedtuple

from hypothesis import given, seed, settings, strategies as st

from repro import Instrument, Mediator, render_plan
from repro import stats as statnames
from repro.errors import MixError, SourceError
from repro.resilience import (
    ERROR_LABEL,
    FaultInjectingSource,
    ManualClock,
    ResilientSource,
    RetryPolicy,
    shard_resilience,
)
from repro.server import LoopbackClient, MediatorService, ServerReplyError
from repro.sources import hash_shard
from repro.workloads import (
    CustomersOrdersSpec,
    build_customers_orders,
    build_sharded_customers_orders,
)
from repro.xmltree import Node, parse_xml, serialize

from tests.conftest import MIX_SEED, DyingCursorSource

Point = namedtuple(
    "Point", "engine width cache deployment cost transport faults"
)

#: Every value of every axis.  ``cache``: ``warm`` visits every query
#: once with other literals first (plan-cache hits bind new literals);
#: ``demand`` repeats every visit with the navigation memo cleared in
#: between (the repeat sized by the demand the first recorded).
#: ``faults``: ``retry`` injects transient pull and SQL faults that a
#: ``RetryPolicy`` absorbs; ``degrade`` injects pull faults into a
#: ``push_sql=False`` mediator that answers with stubs (see
#: :func:`with_faults` for its resilient half); ``escape`` injects
#: permanent faults that the default ``raise`` policy lets through.
AXES = Point(
    engine=("lazy", "eager"),
    width=(1, 2, 7, 64, 1024),
    cache=("off", "cold", "warm", "demand"),
    deployment=("memory", "sqlite", "hash 2", "hash 4", "hash 7",
                "range 2", "range 4", "range 7"),
    cost=(True, False),
    transport=("in-process", "served"),
    faults=("none", "retry", "degrade", "escape"),
)

#: A query, its refinement from the answer's root and (for answers of
#: constructed elements) from the answer's first child, and whether its
#: pushed SQL fixes the answer's order under every gather.
Shape = namedtuple("Shape", "text root_q node_q ordered")

_CUSTREC = ("RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {{$O}} "
            "</CustRec> {{$C}}")
_JOIN = ("FOR $C IN {}(root1)/customer $O IN document(root2)/order "
         "WHERE $C/id/data() = $O/cid/data() ")
_ORDER_INFO = ("FOR $O IN document(root)/OrderInfo "
               "WHERE $O/order/value/data() > {v} RETURN $O")

SHAPES = [
    Shape(_JOIN.format("source") + _CUSTREC,
          "FOR $R IN document(root)/CustRec "
          "WHERE $R/customer/name/data() != {i} RETURN $R",
          _ORDER_INFO, True),
    # The Fig. 12 refinement: composed with its view it self-joins
    # ``orders``, which a fleet refuses to scatter.
    Shape(_JOIN.format("document") + "AND $O/value/data() < {v} "
          + _CUSTREC,
          "FOR $R IN document(root)/CustRec $S IN $R/OrderInfo "
          "WHERE $S/order/value/data() > {v} RETURN $R",
          _ORDER_INFO, True),
    Shape("FOR $O IN document(root2)/order WHERE $O/value/data() > {v} "
          "RETURN <Big> $O </Big>",
          "FOR $R IN document(root)/Big $S IN $R/order "
          "WHERE $S/value/data() > {v} RETURN $R",
          "FOR $X IN document(root)/order WHERE $X/value/data() < {v} "
          "RETURN $X", False),
    Shape("FOR $C IN document(root1)/customer WHERE $C/id/data() = {i} "
          "RETURN $C",
          "FOR $C IN document(root)/customer WHERE $C/name/data() != {i} "
          "RETURN $C", None, True),
    Shape("FOR $O IN document(root2)/order RETURN $O",
          "FOR $O IN document(root)/order WHERE $O/value/data() < {v} "
          "RETURN $O", None, False),
    Shape("FOR $R IN document(vw)/Rec RETURN $R",
          "FOR $R IN document(root)/Rec $S IN $R/order "
          "WHERE $S/value/data() < {v} RETURN $S",
          "FOR $X IN document(root)/order WHERE $X/value/data() > {v} "
          "RETURN $X", False),
]

VIEWS = [
    "FOR $O IN document(root2)/order WHERE $O/value/data() > 1000 "
    "RETURN <Rec> $O </Rec>",
    "FOR $O IN document(root2)/order RETURN <Rec> $O </Rec>",
    "FOR $C IN document(root1)/customer RETURN <Rec> $C </Rec>",
]

#: Literal pools, indexed by the script: order values and customer ids
#: (quotes and a ``?0`` look-alike exercise the shape binder).
VALUES = [0, 150, 900, 1800, 2600.5, 5000]
IDS = ['"C000000"', '"C000002"', '"N0"', "\"it's\"", '"?0"', '"C000001"']
CIDS = ["C000000", "C000001", "C000003", "N0"]
BUDGETS = [None, 1, 2, 3, 7, 17]


def literals(index):
    return {"v": VALUES[index], "i": IDS[index]}


def grid(*axes):
    """Every combination of the axes, for one flat draw."""
    return st.sampled_from(list(itertools.product(*axes)))


points = grid(*AXES).map(Point._make)
#: (shape, literal) of the queries a script visits, so visits repeat.
queries = st.lists(
    grid(range(len(SHAPES)), range(len(VALUES))), min_size=1, max_size=2
)
#: What a step changes before its visit: nothing, the data (a DML
#: batch) or the view.
changes = st.one_of(
    st.none(),
    st.tuples(st.just("dml"), st.lists(grid(
        ("insert", "customer", "update", "delete", "update by key",
         "delete by key"), range(len(CIDS)),
        (50, 700, 1500, 4000),
    ), min_size=1, max_size=3)),
    st.tuples(st.just("view"), st.integers(0, len(VIEWS) - 1)),
)
#: A script: steps of (change, visit), a visit being (query, refinement
#: literal, refine from the first child?, budget).
scripts = st.lists(st.tuples(changes, grid(
    (0, 1), range(len(VALUES)), (False, True), BUDGETS,
)), min_size=2, max_size=5)
#: (fault seed, pull fault rate, transient SQL faults before success).
schedules = grid(range(151), (0.25, 0.5, 1.0), range(3))


# -- the deployments ----------------------------------------------------------


class Deployment:
    """One layout of the workload's rows, and DML routed to the members
    that hold the rows it writes.  Fleets partition ``orders`` on
    ``orid`` (a customer's orders spread over hash members) and
    replicate ``customer``; a new order goes to its hash member, or to
    the last range member, which holds the highest ``orid``\\ s."""

    def __init__(self, name, spec, stats, member_wrapper=None):
        scheme, __, k = name.partition(" ")
        self.scheme = scheme
        if scheme == "memory":
            self.source = build_customers_orders(spec, stats=stats).wrapper
            self.members = [self.source]
        elif scheme == "sqlite":
            # A one-member fleet's member is a plain SqliteWrapper.
            self.members = build_sharded_customers_orders(
                1, spec, stats=stats, backend="sqlite"
            ).members
            self.source = self.members[0]
        else:
            built = build_sharded_customers_orders(
                int(k), spec, stats=stats, scheme=scheme,
                partition_key="orid", member_wrapper=member_wrapper,
            )
            self.source, self.members = built.sharded, built.members

    def run(self, sql, orid=None):
        members = self.members
        if orid is not None and len(members) > 1:
            index = -1 if self.scheme == "range" else hash_shard(
                orid, len(members))
            members = [members[index]]
        for member in members:
            getattr(member, "database", member).run(sql)

    def dml(self, batch, next_key):
        for kind, index, value in batch:
            cid = CIDS[index]
            if kind == "insert":
                self.run("INSERT INTO orders VALUES ({}, '{}', {})".format(
                    next_key, cid, value), orid=next_key)
            elif kind == "customer":
                self.run("INSERT INTO customer VALUES ('N{0}', 'New{0}',"
                         " 'Town{0}')".format(next_key))
            elif kind == "update":
                self.run("UPDATE orders SET value = {} WHERE cid = '{}'"
                         .format(value, cid))
            elif kind == "delete":
                self.run("DELETE FROM orders WHERE value > {}".format(
                    value * 2))
            # The key-addressed statements name one of orders 0-3 (the
            # customer draw's index); every member runs them, and only
            # the one holding that order edits a row.
            elif kind == "update by key":
                self.run("UPDATE orders SET value = {} WHERE orid = {}"
                         .format(value, index))
            else:
                self.run("DELETE FROM orders WHERE orid = {}".format(index))
            next_key += 1
        return next_key

    def close(self):
        close = getattr(self.source, "close", None)
        if close is not None:
            close()


def inject(source, schedule):
    """``source`` under the schedule's pull faults (each rate-chosen
    position fails once)."""
    fault_seed, rate, __ = schedule
    injected = FaultInjectingSource(
        source, clock=ManualClock(), seed=fault_seed ^ (MIX_SEED * 7919)
    )
    injected.fail_pulls_randomly("root1", rate)
    injected.fail_pulls_randomly("root2", rate)
    return injected


def with_faults(point, spec, stats, schedule):
    """``(deployment, the source the mediator registers)`` under the
    point's (breaker-free) fault schedule.  Half of the ``degrade``
    draws put a single-attempt ``ResilientSource`` between the faults
    and the engine — one per member on a fleet."""
    resilient = point.faults == "degrade" and schedule[0] % 2
    if resilient and point.deployment[-1].isdigit():
        deployment = Deployment(
            point.deployment, spec, stats,
            member_wrapper=lambda members: shard_resilience(
                [inject(member, schedule) for member in members]),
        )
        return deployment, deployment.source
    deployment = Deployment(point.deployment, spec, stats)
    if point.faults == "none":
        return deployment, deployment.source
    if point.faults == "escape":
        # Every pushed cursor dies after two to four rows, and one
        # position of each document fails every pull.
        fault_seed = schedule[0]
        escaping = DyingCursorSource(deployment.source, 2 + fault_seed % 3)
        escaping.fail_pull("root1", fault_seed % 4, kind="permanent")
        escaping.fail_pull("root2", fault_seed % 5, kind="permanent")
        return deployment, escaping
    injected = inject(deployment.source, schedule)
    if point.faults == "degrade":
        if resilient:
            return deployment, ResilientSource(
                injected, retry=RetryPolicy(attempts=1))
        return deployment, injected
    # The SQL faults fail one statement's first attempts: three attempts
    # absorb every fault.
    injected.fail_sql(times=schedule[2])
    return deployment, ResilientSource(
        injected, retry=RetryPolicy(attempts=3, sleep=injected.clock.sleep)
    )


def switches(point, schedule):
    """The mediator's switches at ``point``: ``degrade`` navigates the
    sources, and so does a third of the ``escape`` draws (the others
    push SQL, whose cursors die)."""
    degrade = point.faults == "degrade"
    pulls = degrade or point.faults == "escape" and schedule[2] == 0
    return dict(
        lazy=point.engine == "lazy", block_size=point.width,
        cost_optimizer=point.cost, strict=True, push_sql=not pulls,
        on_source_error="degrade" if degrade else "raise",
    )


# -- the transports: one script, in-process or through the wire ---------------


class InProcess:
    """Script primitives on QDOM handles."""

    def __init__(self, mediator):
        self.mediator = mediator

    def query(self, text):
        return self.mediator.query(text)

    def q(self, node, text):
        return node.q(text)

    def down(self, node):
        return self._landing(node.d())

    def right(self, node):
        return self._landing(node.r())

    @staticmethod
    def _landing(node):
        return None if node is None else (node, node.fl())

    def walk(self, node, budget):
        return node.walk(budget)

    def tree(self, node):
        return serialize(node.to_tree())

    def close(self):
        pass


class Served:
    """The same primitives as wire frames, alternating two sessions."""

    def __init__(self, mediator):
        self.mediator = mediator
        self.client = LoopbackClient(MediatorService(mediator))
        self.sessions = [self.client.call("open")["session"]
                         for __ in range(2)]
        self.turn = 0

    def _call(self, op, handle, **params):
        session, node = handle
        return self.client.call(op, session=session, node=node, **params)

    def query(self, text):
        self.turn += 1
        session = self.sessions[self.turn % 2]
        reply = self.client.call("query", session=session, query=text)
        return session, reply["node"]

    def q(self, handle, text):
        return handle[0], self._call("q", handle, query=text)["node"]

    def down(self, handle):
        return self._landing(handle, self._call("d", handle))

    def right(self, handle):
        return self._landing(handle, self._call("r", handle))

    @staticmethod
    def _landing(handle, reply):
        if reply["node"] is None:
            return None
        return (handle[0], reply["node"]), reply["label"]

    def walk(self, handle, budget):
        reply = self._call("walk", handle, budget=budget)
        return reply["steps"], reply["truncated"]

    def tree(self, handle):
        return self._call("tree", handle)["xml"]

    def close(self):
        self.client.close()


def stepwise(transport, root, budget):
    """``[depth, label]`` per ``d``/``r`` landing, depth-first, stopping
    after ``budget`` landings."""
    out = []
    left = [float("inf") if budget is None else budget]

    def rec(landing, depth):
        while landing is not None and left[0] > 0:
            left[0] -= 1
            node, label = landing
            out.append([depth, label])
            rec(transport.down(node), depth + 1)
            if left[0] <= 0:
                return
            landing = transport.right(node)

    rec(transport.down(root), 0)
    return out


def texts(point, query, refine, from_child):
    """``(query, refinement, from the first child?)`` of a visit at
    ``point``.  A first-child refinement falls back to the root one when
    the shape has none, when a stub or a raise may come first and
    when a hash fleet gathers an unordered answer (which record comes
    first is not fixed); a fleet refuses the Fig. 12 refinement's
    self-join, so there is none."""
    shape, a = query
    if from_child and (
        shape.node_q is None or point.faults in ("degrade", "escape")
        or point.deployment.startswith("hash") and not shape.ordered
    ):
        from_child = False
    refinement = shape.node_q if from_child else shape.root_q
    if shape is SHAPES[1] and not from_child and \
            point.deployment[-1].isdigit():
        refinement = None
    return (shape.text.format(**literals(a)),
            refinement and refinement.format(**literals(refine)),
            from_child)


def visit(transport, request, budget, fresh=True):
    """The observations of one visit: ``{read: value}``.  The bulk and
    the stepwise walk each start on a ``fresh`` answer; every answer is
    read to its end.  ``shipped`` counts what reading one answer took
    (not its refinement: the lazy engine may ship less for that)."""
    query, refinement, from_child = request
    meter = transport.mediator.stats
    before = meter.get(statnames.TUPLES_SHIPPED)
    root = transport.query(query)
    steps, truncated = transport.walk(root, budget)
    seen = {"walk": ([list(step) for step in steps], truncated),
            "tree": transport.tree(root)}
    seen["shipped"] = meter.get(statnames.TUPLES_SHIPPED) - before
    if fresh:
        root = transport.query(query)
    seen["steps"] = stepwise(transport, root, budget)
    if refinement is not None:
        start = transport.down(root) if from_child else (root, None)
        seen["q"] = None if start is None else transport.tree(
            transport.q(start[0], refinement))
    seen["tree after"] = transport.tree(root)
    return seen


#: What a read that met an escaping source failure observed.
RAISED = "raised"


def attempt(read):
    """``read()``, or :data:`RAISED` when a source failure escapes it —
    raised in-process, or an error reply over the wire."""
    try:
        return read()
    except MixError as exc:
        if isinstance(exc, ServerReplyError):
            if exc.code != "MIX-E-SOURCE":
                raise
        elif not isinstance(exc, SourceError):
            raise
        return RAISED


def descend(transport, node, out, depth=1):
    """Append ``[depth, label]`` for every landing below ``node``."""
    landing = transport.down(node)
    while landing is not None:
        child, label = landing
        out.append([depth, label])
        descend(transport, child, out, depth + 1)
        landing = transport.right(child)


def stepwise_past_raises(transport, root):
    """The unbudgeted :func:`stepwise` walk, one root child at a time:
    ``(per child (its landings, whether a step raised), whether the
    walk ended cleanly)``.  A raise below a root child moves on to the
    next one; a raise at the root ends the walk."""
    children = []
    landing = attempt(lambda: transport.down(root))
    while landing not in (None, RAISED):
        node, label = landing
        steps = [[0, label]]
        raised = attempt(lambda: descend(transport, node, steps)) == RAISED
        children.append((steps, raised))
        landing = attempt(lambda: transport.right(node))
    return children, landing is None


def escaping_visit(transport, request, budget):
    """:func:`visit` under escaping faults, each read on a fresh answer
    and :data:`RAISED` where a failure escaped it; the stepwise walk is
    :func:`stepwise_past_raises`, and ``tree after`` reads its root."""
    query, refinement, __ = request

    def walk():
        steps, truncated = transport.walk(transport.query(query), budget)
        return [list(step) for step in steps], truncated

    def stepped():
        root = transport.query(query)
        return (stepwise_past_raises(transport, root),
                attempt(lambda: transport.tree(root)))

    seen = {"walk": attempt(walk),
            "tree": attempt(lambda: transport.tree(transport.query(query)))}
    walked = attempt(stepped)
    seen["steps"], seen["tree after"] = (
        (RAISED, RAISED) if walked == RAISED else walked)
    if refinement is not None:
        seen["q"] = attempt(lambda: transport.tree(
            transport.q(transport.query(query), refinement)))
    return seen


def agree_past_raises(point, budget, got, want, steps, label):
    """Assert every read of an escaping visit raised or equals the
    oracle's (``steps``: the oracle's unbudgeted stepwise walk)."""
    completed = {read: value for read, value in got.items()
                 if value != RAISED and read != "steps"}
    agree(point._replace(faults="none"), budget, completed,
          {read: want[read] for read in completed}, label)
    if got["steps"] == RAISED:
        return
    children, clean = got["steps"]
    expected = []
    for depth, name in steps:
        if depth == 0:
            expected.append([])
        expected[-1].append([depth, name])
    where = "steps: " + label
    assert len(children) <= len(expected), where
    if point.deployment.startswith("hash"):
        # Arrival order: match each record to some oracle record.
        unmatched = list(expected)
        for mine, raised in children:
            if raised:
                assert any(e[:len(mine)] == mine for e in expected), where
            else:
                assert mine in unmatched, where
                unmatched.remove(mine)
    else:
        for (mine, raised), theirs in zip(children, expected):
            assert mine == (theirs[:len(mine)] if raised else theirs), where
    if clean:
        assert len(children) == len(expected), where


def compiled(mediator, request):
    """What each compile of a visit bound: its plans (``viewN`` blanked,
    as every inline compile numbers its root afresh) and rewrite rules."""
    query, refinement, from_child = request
    out = []

    def note(handle):
        out.append(tuple(
            re.sub(r"view\d+", "view", render_plan(plan))
            for plan in (handle.view.exec_plan(), handle.view.compose_plan())
        ) + (mediator.last_rewrite_rules,))

    root = mediator.query(query)
    note(root)
    start = root.d() if from_child else root
    if refinement is not None and start is not None:
        note(start.q(refinement))
    return out


# -- comparison ---------------------------------------------------------------


def canonical(node):
    """A node with every child list sorted: the order-free form."""
    if node.is_leaf:
        return str(node.label)
    return "<{}>{}</>".format(
        node.label, "".join(sorted(canonical(c) for c in node.children))
    )


def tree_of(steps):
    """The labelled tree a full depth-first transcript walked."""
    root = Node("&walk", "list")
    path = [root]
    for depth, label in steps:
        del path[depth + 1:]
        path[depth].append(Node("&walk", label))
        path.append(path[depth].children[-1])
    return serialize(root)


_TOKENS = re.compile(r"</?[^<>]*>|[^<]+")


def records(xml):
    """The serialized top-level records of a serialized answer."""
    out, depth = [], 0
    for token in _TOKENS.findall(xml):
        if token.startswith("</"):
            depth -= 1
            if depth:
                out[-1] += token
            continue
        if depth == 1:
            out.append(token)
        elif depth > 1:
            out[-1] += token
        if token.startswith("<"):
            depth += 1
    return out


def answer(xml, point):
    """What must equal between the point's answer and the oracle's."""
    hashed = point.deployment.startswith("hash")
    if xml is None or not hashed and point.faults != "degrade":
        return xml
    if hashed and point.faults == "degrade":
        # Navigating a hash fleet's documents (degrade pulls instead of
        # pushing SQL) interleaves its members' orders at every level.
        root = parse_xml(xml, coerce_numbers=False) if "<" in xml else None
        found = [canonical(c) for c in (root.children if root else ())]
    else:
        found = records(xml)
    found = [r for r in found if ERROR_LABEL not in r]
    return sorted(found) if hashed else found


def agree(point, budget, got, want, label):
    """Assert every observation of a visit matches the oracle's."""
    assert got.keys() == want.keys(), label
    degrade = point.faults == "degrade"
    for read in got:
        mine, theirs = got[read], want[read]
        where = "{}: {}".format(read, label)
        if read == "shipped":
            # Width, engine, transport and shard count change how rows
            # travel, never how many — unless a cache serves them or a
            # stub stands in for a pull.
            if point.cache == "off" and not degrade:
                assert mine == theirs, where
            continue
        if read in ("steps", "walk"):
            if read == "walk":
                (mine, truncated), (theirs, expected) = mine, theirs
                assert degrade or truncated == expected, where
            if budget is not None:
                if degrade:
                    continue  # a stub takes a landing of the budget
                if point.deployment.startswith("hash"):
                    # Arrival order: only the landing count is fixed.
                    mine, theirs = len(mine), len(theirs)
                assert mine == theirs, where
                continue
            # A full walk visits the whole answer: compare it as one.
            mine, theirs = tree_of(mine), tree_of(theirs)
        if mine is not None and not degrade:
            assert ERROR_LABEL not in mine, where
        assert answer(mine, point) == answer(theirs, point), where


# -- the lattice --------------------------------------------------------------


@seed(MIX_SEED)
@settings(max_examples=120, deadline=None)
@given(
    point=points,
    shape=grid(range(1, 7), range(1, 4)),
    schedule=schedules,
    pool=queries,
    script=scripts,
)
def test_every_lattice_point_agrees_with_the_oracle(point, shape, schedule,
                                                    pool, script):
    spec = CustomersOrdersSpec(
        n_customers=shape[0], orders_per_customer=shape[1],
        value_mode="uniform", tiers=30, seed=MIX_SEED,
    )
    oracle_stats, stats = Instrument(), Instrument()
    reference = Deployment("memory", spec, oracle_stats)
    oracle = InProcess(Mediator(
        stats=oracle_stats, lazy=False, cache=False, block_size=1
    ).add_source(reference.source))
    deployment, source = with_faults(point, spec, stats, schedule)
    mediator = Mediator(
        stats=stats, cache=point.cache != "off", **switches(point, schedule)
    ).add_source(source)
    # The cache-off compile of every request, over the same sources
    # (lazy: the engine does not enter the compile, and it reads less).
    twin = None
    if point.cache != "off":
        twin = Mediator(catalog=mediator.catalog, stats=Instrument(),
                        **dict(switches(point, schedule), lazy=True))
    mediators = [m for m in (oracle.mediator, mediator, twin)
                 if m is not None]
    views = 0
    for m in mediators:
        m.define_view("vw", VIEWS[views])
    transport = {"in-process": InProcess, "served": Served}[
        point.transport](mediator)
    pool = [(SHAPES[index], a) for index, a in pool]
    bound = set()  # (request, views) whose binding was checked
    # Only a lazy answer can be half read: an eager one is built whole.
    fresh = point.engine == "lazy"
    escape = point.faults == "escape"
    next_key = 100000
    try:
        if point.cache == "warm":
            for shape, a in pool:
                other = (a + 1) % len(VALUES)
                (escaping_visit if escape else visit)(
                    transport, texts(point, (shape, other), other, True), 3)
        for step, (change, visited) in enumerate(script):
            index, refine, from_child, budget = visited
            label = "step {} at {}".format(step, point)
            if change is not None and change[0] == "dml":
                deployment.dml(change[1], next_key)
                next_key = reference.dml(change[1], next_key)
            elif change is not None:
                views = change[1]
                for m in mediators:
                    m.define_view("vw", VIEWS[views])
            request = texts(point, pool[index % len(pool)], refine,
                            from_child)
            want = visit(oracle, request, budget, fresh=False)
            if escape:
                steps = stepwise(oracle, oracle.query(request[0]), None)

            def check():
                if escape:
                    agree_past_raises(
                        point, budget,
                        escaping_visit(transport, request, budget), want,
                        steps, label)
                else:
                    agree(point, budget,
                          visit(transport, request, budget, fresh), want,
                          label)

            check()
            if point.cache == "demand":
                mediator.cache.nav_memo.clear()
                check()
            if twin is not None and (request, views) not in bound:
                try:
                    mine = compiled(mediator, request)
                except SourceError:
                    if not escape:
                        raise
                    continue  # an eager answer fails while it is built
                bound.add((request, views))
                assert mine == compiled(twin, request), label
    finally:
        transport.close()
        deployment.close()
