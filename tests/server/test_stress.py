"""Concurrency stress: 32+ threads racing queries, navigation,
query-in-place, and DML invalidation over one shared mediator.

What must hold afterwards:

* no request ever failed (valid frames, generous limits — every error
  reply is a bug surfaced by the race);
* the poison fence held — no ``<mix:error>`` stub ever reached a
  served tree;
* the serve counters sum (requests = accepted, opened − closed =
  active = 0, nothing left in flight);
* every cache level's counters stay self-consistent;
* the shared mediator still agrees with a cold mediator over the final
  database state — no torn read ever poisoned a cache.
"""

from __future__ import annotations

import random
import threading

from repro import Database, Instrument, Mediator, RelationalWrapper
from repro.resilience import ERROR_LABEL
from repro.server import LoopbackClient, MediatorService, ServerLimits
from repro.xmltree import serialize

from tests.conftest import MIX_SEED

THREADS = 32
ITERATIONS = 12

QUERIES = [
    "FOR $C IN document(root1)/customer RETURN $C",
    "FOR $O IN document(root2)/order RETURN $O",
    """
    FOR $C IN document(root1)/customer
        $O IN document(root2)/order
    WHERE $C/id/data() = $O/cid/data()
    RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> </CustRec>
    """,
    """
    FOR $O IN document(root2)/order
    WHERE $O/value/data() > 1000
    RETURN <Big> $O </Big>
    """,
]

IN_PLACE = """
FOR $X IN document(root)/OrderInfo
WHERE $X/order/value/data() > 500
RETURN $X
"""


def build_shared_service():
    stats = Instrument()
    db = Database("stress", stats=stats)
    db.run("CREATE TABLE customer (id TEXT, name TEXT, addr TEXT,"
           " PRIMARY KEY (id))")
    db.run("CREATE TABLE orders (orid INT, cid TEXT, value INT,"
           " PRIMARY KEY (orid))")
    db.run("INSERT INTO customer VALUES"
           " ('XYZ', 'XYZInc.', 'LosAngeles'),"
           " ('DEF', 'DEFCorp.', 'NewYork'),"
           " ('ABC', 'ABCInc.', 'SanDiego')")
    db.run("INSERT INTO orders VALUES"
           " (28904, 'XYZ', 2400), (87456, 'ABC', 200000),"
           " (111, 'XYZ', 100), (222, 'DEF', 30000)")
    wrapper = (
        RelationalWrapper(db)
        .register_document("root1", "customer")
        .register_document("root2", "orders", element_label="order")
    )
    mediator = Mediator(stats=stats, cache=True).add_source(wrapper)
    limits = ServerLimits(
        max_sessions=THREADS + 8, max_inflight=THREADS * 4
    )
    return MediatorService(mediator, limits=limits, database=db), db


def test_threads_race_queries_navigation_and_dml():
    service, db = build_shared_service()
    failures = []
    trees = []
    lock = threading.Lock()
    barrier = threading.Barrier(THREADS)
    # Unique key space per thread so concurrent INSERTs never collide
    # on the primary key (key collisions are a *client* error).
    next_orid = [1000]

    def worker(index):
        rng = random.Random(MIX_SEED * 7919 + index)
        client = LoopbackClient(service)
        queries_run = 0
        try:
            barrier.wait()
            session = client.call("open")["session"]
            for step in range(ITERATIONS):
                choice = rng.random()
                if choice < 0.55:
                    # query + a short racy navigation
                    query = rng.choice(QUERIES)
                    root = client.call("query", session=session,
                                       query=query)
                    queries_run += 1
                    node = client.call("d", session=session,
                                       node=root["node"])
                    hops = rng.randint(0, 4)
                    while node["node"] is not None and hops:
                        if rng.random() < 0.3:
                            client.call("fl", session=session,
                                        node=node["node"])
                        node = client.call("r", session=session,
                                           node=node["node"])
                        hops -= 1
                    if rng.random() < 0.4:
                        xml = client.call(
                            "tree", session=session, node=root["node"]
                        )["xml"]
                        with lock:
                            trees.append(xml)
                elif choice < 0.7:
                    # query-in-place from a fresh CustRec handle
                    root = client.call("query", session=session,
                                       query=QUERIES[2])
                    queries_run += 1
                    rec = client.call("d", session=session,
                                      node=root["node"])
                    if rec["node"] is not None:
                        sub = client.call("q", session=session,
                                          node=rec["node"],
                                          query=IN_PLACE)
                        client.call("walk", session=session,
                                    node=sub["node"], budget=6)
                elif choice < 0.9:
                    # DML through the SQL shell: invalidation racing
                    # every other thread's lookups
                    kind = rng.randrange(3)
                    if kind == 0:
                        with lock:
                            orid = next_orid[0]
                            next_orid[0] += 1
                        statement = (
                            "INSERT INTO orders VALUES ({}, 'XYZ', {})"
                            .format(orid, rng.randrange(500, 5000))
                        )
                    elif kind == 1:
                        statement = (
                            "UPDATE orders SET value = {} WHERE cid = 'DEF'"
                            .format(rng.randrange(100, 90000))
                        )
                    else:
                        statement = (
                            "DELETE FROM orders WHERE value > {}"
                            .format(rng.randrange(150000, 400000))
                        )
                    client.call("sql", statements=statement)
                else:
                    client.call("stats")
            client.call("close", session=session)
        except Exception as exc:  # noqa: BLE001 — collected, not raised
            with lock:
                failures.append("thread {}: {!r}".format(index, exc))
        finally:
            client.close()
        with lock:
            totals["queries"] += queries_run

    totals = {"queries": 0}
    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not failures, "\n".join(failures)

    # -- poison fence: nothing degraded was ever served -------------------
    for xml in trees:
        assert ERROR_LABEL not in xml

    # -- serve counters sum ----------------------------------------------
    obs = service.mediator.stats
    snapshot = obs.snapshot()
    assert snapshot.get("serve_rejected", 0) == 0
    assert snapshot["serve_requests"] == snapshot["serve_accepted"]
    assert snapshot["serve_sessions_opened"] == THREADS
    assert snapshot["serve_sessions_closed"] == THREADS
    assert snapshot.get("serve_active_sessions", 0) == 0
    assert service.sessions.session_count() == 0
    assert service.sessions.inflight() == 0

    # -- cache counters stay self-consistent ------------------------------
    stats = service.mediator.cache_stats()
    for level in (stats["plan_cache"], stats["nav_memo"], *stats["sql"]):
        assert level["hits"] >= 0 and level["misses"] >= 0
        assert level["size"] <= level["maxsize"]
    consulted = stats["plan_cache"]["hits"] + stats["plan_cache"]["misses"]
    assert consulted >= totals["queries"] > 0

    # -- no torn read poisoned a cache: the hot mediator still agrees
    #    with a cold one over the final database state ---------------------
    cold = Mediator(stats=Instrument()).add_source(
        RelationalWrapper(db)
        .register_document("root1", "customer")
        .register_document("root2", "orders", element_label="order")
    )
    for query in QUERIES:
        hot_xml = serialize(service.mediator.query(query).to_tree())
        cold_xml = serialize(cold.query(query).to_tree())
        assert hot_xml == cold_xml
        assert ERROR_LABEL not in hot_xml


def test_backpressure_under_thread_storm():
    """A tiny in-flight cap under a storm: rejects are typed, slots
    never leak, and the server keeps serving afterwards."""
    service, _ = build_shared_service()
    service.limits.max_inflight = 2
    service.sessions.limits.max_inflight = 2
    outcomes = []
    lock = threading.Lock()
    barrier = threading.Barrier(16)

    def worker(index):
        from repro.server import ServerReplyError

        client = LoopbackClient(service)
        try:
            barrier.wait()
            for _ in range(10):
                try:
                    client.call("hello")
                    with lock:
                        outcomes.append("ok")
                except ServerReplyError as exc:
                    assert exc.code == "MIX-E-BUSY"
                    with lock:
                        outcomes.append("busy")
        finally:
            client.close()

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(16)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(outcomes) == 160
    assert "ok" in outcomes  # the cap rejected, it never deadlocked
    assert service.sessions.inflight() == 0
    with LoopbackClient(service) as client:
        assert client.call("hello")["server"] == "repro.server"
