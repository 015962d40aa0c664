"""Service dispatch tests over the loopback client (the real byte
path, no socket)."""

from __future__ import annotations

import json

import pytest

from repro import Instrument
from repro.server import LoopbackClient, ServerLimits, ServerReplyError
from repro.server.protocol import encode_frame
from repro.xmltree import serialize

from tests.server.conftest import make_service

JOIN_QUERY = """
FOR $C IN document(root1)/customer
    $O IN document(root2)/order
WHERE $C/id/data() = $O/cid/data()
RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> </CustRec>
"""

CUSTOMERS_QUERY = "FOR $C IN document(root1)/customer RETURN $C"

IN_PLACE_QUERY = """
FOR $O IN document(root)/OrderInfo
WHERE $O/order/value/data() > 2000
RETURN $O
"""


class TestLifecycle:
    def test_hello_reports_identity_ops_and_limits(self, client):
        hello = client.call("hello")
        assert hello["server"] == "repro.server"
        assert hello["protocol"] == "jsonl/1"
        assert {"open", "close", "query", "d", "r", "fl", "fv",
                "sql", "explain", "stats"} <= set(hello["ops"])
        assert hello["limits"]["max_sessions"] == 512

    def test_open_close_cycle(self, client):
        session = client.call("open")["session"]
        assert client.call("close", session=session)["closed"] is True
        assert client.call("close", session=session)["closed"] is False

    def test_ops_on_closed_sessions_are_typed_errors(self, client):
        session = client.call("open")["session"]
        client.call("close", session=session)
        with pytest.raises(ServerReplyError) as info:
            client.call("query", session=session, query=CUSTOMERS_QUERY)
        assert info.value.code == "MIX-E-SESSION"


class TestNavigation:
    def test_query_then_navigate_matches_direct_qdom(self, client):
        mediator = client.service.mediator
        session = client.call("open")["session"]
        root = client.call("query", session=session, query=JOIN_QUERY)
        direct = mediator.query(JOIN_QUERY)
        assert root["label"] == direct.fl()

        served = client.call("d", session=session, node=root["node"])
        expected = direct.d()
        assert served["label"] == expected.fl() == "CustRec"

        labels = []
        node = served
        while node["node"] is not None:
            labels.append(node["label"])
            node = client.call("r", session=session, node=node["node"])
        expect_labels = []
        cursor = expected
        while cursor is not None:
            expect_labels.append(cursor.fl())
            cursor = cursor.r()
        assert labels == expect_labels

    def test_fl_fv_fetch(self, client):
        session = client.call("open")["session"]
        root = client.call("query", session=session, query=CUSTOMERS_QUERY)
        customer = client.call("d", session=session, node=root["node"])
        assert client.call(
            "fl", session=session, node=customer["node"]
        )["label"] == "customer"
        id_node = client.call(
            "find", session=session, node=customer["node"], label="id"
        )
        value = client.call("fv", session=session, node=id_node["node"])
        assert value["value"] in (None, "XYZ", "DEF", "ABC")

    def test_navigation_past_the_end_is_bottom(self, client):
        session = client.call("open")["session"]
        root = client.call("query", session=session, query=CUSTOMERS_QUERY)
        node = client.call("d", session=session, node=root["node"])
        hops = 0
        while node["node"] is not None:
            node = client.call("r", session=session, node=node["node"])
            hops += 1
        assert node == {"node": None}  # the paper's ⊥ on the wire
        assert hops == 3

    def test_children_bulk_matches_single_steps(self, client):
        session = client.call("open")["session"]
        root = client.call("query", session=session, query=JOIN_QUERY)
        bulk = client.call(
            "children", session=session, node=root["node"]
        )["children"]
        assert [child["label"] for child in bulk] == ["CustRec"] * len(bulk)

    def test_walk_full_and_budgeted(self, client):
        session = client.call("open")["session"]
        root = client.call("query", session=session, query=JOIN_QUERY)
        full = client.call("walk", session=session, node=root["node"])
        assert full["truncated"] is False
        assert [0, "CustRec"] in full["steps"]
        partial = client.call(
            "walk", session=session, node=root["node"], budget=3
        )
        assert partial["truncated"] is True
        assert partial["steps"] == full["steps"][:3]

    def test_tree_serializes_the_subtree(self, client):
        mediator = client.service.mediator
        session = client.call("open")["session"]
        root = client.call("query", session=session, query=JOIN_QUERY)
        xml = client.call("tree", session=session, node=root["node"])["xml"]
        assert xml == serialize(mediator.query(JOIN_QUERY).to_tree())

    def test_query_in_place_from_a_handle(self, client):
        session = client.call("open")["session"]
        root = client.call("query", session=session, query=JOIN_QUERY)
        cust_rec = client.call("d", session=session, node=root["node"])
        sub = client.call(
            "q", session=session, node=cust_rec["node"],
            query=IN_PLACE_QUERY,
        )
        walked = client.call("walk", session=session, node=sub["node"])
        assert all(label == "OrderInfo"
                   for depth, label in walked["steps"] if depth == 0)

    def test_stale_handles_are_typed_errors(self, client):
        session = client.call("open")["session"]
        with pytest.raises(ServerReplyError) as info:
            client.call("d", session=session, node=424242)
        assert info.value.code == "MIX-E-HANDLE"

    def test_handles_are_per_session(self, client):
        one = client.call("open")["session"]
        two = client.call("open")["session"]
        root = client.call("query", session=one, query=CUSTOMERS_QUERY)
        with pytest.raises(ServerReplyError) as info:
            client.call("d", session=two, node=root["node"])
        assert info.value.code == "MIX-E-HANDLE"


class TestOwnership:
    def test_another_clients_session_is_unknown(self, service, client):
        session = client.call("open")["session"]
        root = client.call("query", session=session, query=CUSTOMERS_QUERY)
        with LoopbackClient(service) as other:
            reply = other.request("d", session=session, node=root["node"])
            assert reply["error"]["code"] == "MIX-E-SESSION"
            assert other.call("close", session=session)["closed"] is False
        # the other client's teardown left this client's session open
        assert client.call("d", session=session, node=root["node"])[
            "label"] == "customer"


class TestCommandAccounting:
    """A served navigation costs the QDOM commands the in-process call
    costs: node descriptors read their label without an ``fl``."""

    @staticmethod
    def commands(service, call):
        before = service.obs.get("qdom_commands")
        call()
        return service.obs.get("qdom_commands") - before

    def test_served_d_r_and_children_count_one_command_each(
        self, service, client
    ):
        assert service.mediator.block_size == 64
        session = client.call("open")["session"]
        root = client.call("query", session=session, query=CUSTOMERS_QUERY)
        first = {}

        def down():
            first.update(client.call("d", session=session, node=root["node"]))

        assert self.commands(service, down) == 1
        assert self.commands(service, lambda: client.call(
            "r", session=session, node=first["node"])) == 1
        children = []
        assert self.commands(service, lambda: children.extend(client.call(
            "children", session=session, node=root["node"])["children"])) == 1
        assert [c["label"] for c in children] == ["customer"] * 3
        # ... exactly as the in-process calls do.
        direct = service.mediator.query(CUSTOMERS_QUERY)
        assert self.commands(service, direct.d) == 1
        assert self.commands(service, direct.d().r) == 1
        assert self.commands(service, direct.children) == 1


class TestQueriesAndSql:
    def test_explain_is_masked_and_deterministic(self):
        # Two fresh servers in the same state produce byte-identical
        # masked EXPLAIN output (times masked, ids deterministic), and
        # it is the in-process mediator's: the wire adds nothing.
        texts = []
        for _ in range(2):
            with LoopbackClient(make_service(cache=False)) as client:
                texts.append(client.call("explain", query=JOIN_QUERY)["text"])
        assert texts[0] == texts[1] == make_service(
            cache=False).mediator.explain(JOIN_QUERY, mask_times=True)
        assert "crElt(CustRec" in texts[0]   # it really is the plan
        assert "sql:" in texts[0]            # with the pushed-down join

    def test_bad_query_text_is_a_typed_error(self, client):
        session = client.call("open")["session"]
        for bad in (None, "", 42):
            with pytest.raises(ServerReplyError) as info:
                client.call("query", session=session, query=bad)
            assert info.value.code == "MIX-E-PROTO"

    def test_parse_errors_surface_with_their_code(self, client):
        session = client.call("open")["session"]
        with pytest.raises(ServerReplyError) as info:
            client.call("query", session=session,
                        query="THIS IS NOT XQUERY AT ALL (")
        assert info.value.code.startswith("MIX-E-")
        assert "Traceback" not in str(info.value)

    def test_sql_select_and_dml(self, client):
        select = client.call(
            "sql", statements="SELECT name FROM customer"
        )["results"]
        assert select[0]["columns"] == ["name"]
        assert ["XYZInc."] in select[0]["rows"]
        batch = client.call("sql", statements=[
            "INSERT INTO orders VALUES (999, 'XYZ', 50)",
            "SELECT cid FROM orders WHERE orid = 999;",
        ])["results"]
        assert batch[0] == {"affected": 1}
        assert batch[1]["rows"] == [["XYZ"]]

    def test_sql_dml_invalidates_served_queries(self, client):
        """The SQL shell and the query path share one backend: DML
        through the wire must be visible to the next served query."""
        session = client.call("open")["session"]

        def count_customers():
            root = client.call("query", session=session,
                               query=CUSTOMERS_QUERY)
            walk = client.call("walk", session=session, node=root["node"])
            return sum(1 for depth, _ in walk["steps"] if depth == 0)

        before = count_customers()
        client.call("sql", statements=(
            "INSERT INTO customer VALUES ('NEW', 'NewCo', 'Here')"
        ))
        assert count_customers() == before + 1

    def test_sql_without_a_database_is_mix_e_sql(self):
        service = make_service(database=False)
        with LoopbackClient(service) as client:
            with pytest.raises(ServerReplyError) as info:
                client.call("sql", statements="SELECT 1")
            assert info.value.code == "MIX-E-SQL"

    @pytest.mark.parametrize("bad", [None, 42, ["SELECT 1", 7], {"x": 1}])
    def test_sql_statement_shapes_are_validated(self, client, bad):
        with pytest.raises(ServerReplyError) as info:
            client.call("sql", statements=bad)
        assert info.value.code == "MIX-E-PROTO"


class TestLimitsAndErrors:
    def test_unknown_op_lists_the_known_ones(self, client):
        reply = client.request("frobnicate")
        assert reply["ok"] is False
        assert reply["error"]["code"] == "MIX-E-OP"
        assert "open" in reply["error"]["message"]

    def test_session_cap_is_a_typed_reply(self):
        service = make_service(limits=ServerLimits(max_sessions=1))
        with LoopbackClient(service) as client:
            client.call("open")
            with pytest.raises(ServerReplyError) as info:
                client.call("open")
            assert info.value.code == "MIX-E-LIMIT"

    def test_full_inflight_cap_rejects_instead_of_queueing(self):
        service = make_service(limits=ServerLimits(max_inflight=1))
        with LoopbackClient(service) as client:
            service.sessions.admit()  # the one slot, taken
            with pytest.raises(ServerReplyError) as info:
                client.call("hello")
            service.sessions.release_slot()
            assert info.value.code == "MIX-E-BUSY"
            assert client.call("hello")["server"] == "repro.server"
        assert service.obs.get("serve_rejected") == 1
        assert service.sessions.inflight() == 0

    def test_handle_cap_is_a_typed_reply(self):
        service = make_service(limits=ServerLimits(max_handles=1))
        with LoopbackClient(service) as client:
            session = client.call("open")["session"]
            client.call("query", session=session, query=CUSTOMERS_QUERY)
            with pytest.raises(ServerReplyError) as info:
                client.call("query", session=session, query=CUSTOMERS_QUERY)
            assert info.value.code == "MIX-E-LIMIT"

    def test_result_size_cap_is_mix_e_size(self):
        service = make_service(
            limits=ServerLimits(max_result_bytes=120)
        )
        with LoopbackClient(service) as client:
            session = client.call("open")["session"]
            root = client.call("query", session=session, query=JOIN_QUERY)
            with pytest.raises(ServerReplyError) as info:
                client.call("tree", session=session, node=root["node"])
            assert info.value.code == "MIX-E-SIZE"
            # small replies still fit
            client.call("fl", session=session, node=root["node"])

    def test_errors_never_wedge_the_service(self, client):
        for _ in range(3):
            client.request("nope")
            client.send_raw(b"garbage\n")
        assert client.call("hello")["server"] == "repro.server"
        assert client.service.sessions.inflight() == 0

    @pytest.mark.parametrize("budget", ["x", "3", 2.5, -1, True, [3], {}])
    def test_walk_budget_must_be_null_or_a_natural(self, client, budget):
        session = client.call("open")["session"]
        root = client.call("query", session=session, query=CUSTOMERS_QUERY)
        reply = client.request(
            "walk", session=session, node=root["node"], budget=budget
        )
        assert reply["error"]["code"] == "MIX-E-PROTO"
        assert client.call(
            "walk", session=session, node=root["node"], budget=0
        ) == {"steps": [], "truncated": True}

    @pytest.mark.parametrize("session", [[1], {}, "1", 1.5, True, None])
    def test_a_malformed_session_id_is_mix_e_session(self, client, session):
        client.call("open")  # session 1 exists
        for op in ("close", "query", "d"):
            reply = client.request(op, session=session, node=1,
                                   query=CUSTOMERS_QUERY)
            assert reply["error"]["code"] == "MIX-E-SESSION"

    def test_admission_slot_released_on_error(self, service, client):
        def blow_up(text):
            raise RuntimeError("handler blew up")

        session = client.call("open")["session"]
        service.mediator.query = blow_up
        reply = client.request("query", session=session, query="x")
        assert reply["error"] == {
            "code": "MIX-E-INTERNAL", "type": "RuntimeError",
            "message": "internal server error",
        }
        assert service.sessions.inflight() == 0
        assert service.obs.get("serve_errors") == 1
        assert client.call("hello")["server"] == "repro.server"

    def test_oversized_request_frame_is_rejected(self, client):
        big = {"id": 1, "op": "query", "session": 1,
               "query": "x" * (client.service.limits.max_frame_bytes + 1)}
        reply = client.send_raw(json.dumps(big).encode("utf-8"))
        assert reply["error"]["code"] == "MIX-E-FRAME"
        assert reply["id"] == 1  # best-effort id recovery still works


class TestStats:
    def test_stats_counters_sum(self):
        stats = Instrument()
        service = make_service(stats=stats)
        with LoopbackClient(service) as client:
            session = client.call("open")["session"]
            client.call("query", session=session, query=CUSTOMERS_QUERY)
            client.request("bogus-op")
            snapshot = client.call("stats")
        counters = snapshot["counters"]
        assert counters["serve_requests"] == 4  # open/query/bogus/stats
        assert counters["serve_accepted"] == 3
        assert counters["serve_rejected"] == 1
        assert snapshot["sessions"]["open"] == 1
        assert snapshot["sessions"]["limits"]["max_inflight"] == 64
        assert snapshot["cache"]["plan_cache"]["misses"] >= 1

    def test_loopback_close_releases_sessions(self):
        service = make_service()
        client = LoopbackClient(service)
        client.call("open")
        client.call("open")
        assert service.sessions.session_count() == 2
        client.close()
        assert service.sessions.session_count() == 0


def _open_at_the_cap(client):
    client.call("open")
    return encode_frame({"id": 9, "op": "open"})


def _tree_past_the_size_cap(client):
    session = client.call("open")["session"]
    root = client.call("query", session=session, query=JOIN_QUERY)
    return encode_frame(
        {"id": 9, "op": "tree", "session": session, "node": root["node"]}
    )


class TestRequestPath:
    """One path per request: one outcome counted, one root trace."""

    @pytest.mark.parametrize("limits, frame, outcome, code", [
        ({}, lambda client: encode_frame({"id": 9, "op": "hello"}),
         "accepted", None),
        ({}, lambda client: b'{"id": 9, "op"', "rejected", "MIX-E-PROTO"),
        ({}, lambda client: encode_frame({"id": 9, "op": "frobnicate"}),
         "rejected", "MIX-E-OP"),
        ({"max_inflight": 0},
         lambda client: encode_frame({"id": 9, "op": "hello"}),
         "rejected", "MIX-E-BUSY"),
        ({}, lambda client: encode_frame(
            {"id": 9, "op": "d", "session": 404, "node": 1}),
         "error", "MIX-E-SESSION"),
        ({"max_sessions": 1}, _open_at_the_cap, "error", "MIX-E-LIMIT"),
        ({"max_result_bytes": 120}, _tree_past_the_size_cap,
         "error", "MIX-E-SIZE"),
    ], ids=["ok", "bad-frame", "unknown-op", "busy", "failed",
            "session-cap", "result-size"])
    def test_each_request_counts_exactly_one_outcome(
        self, limits, frame, outcome, code
    ):
        service = make_service(limits=ServerLimits(**limits))
        with LoopbackClient(service) as client:
            data = frame(client)
            before = service.obs.snapshot()
            reply = client.send_raw(data)
            delta = service.obs.diff(before)
        assert reply["ok"] is (code is None)
        if code is not None:
            assert reply["error"]["code"] == code
        counted = {
            name: delta.get("serve_" + name, 0)
            for name in ("requests", "accepted", "rejected", "errors")
        }
        assert counted == {
            "requests": 1,
            "accepted": int(outcome != "rejected"),
            "rejected": int(outcome == "rejected"),
            "errors": int(outcome == "error"),
        }

    def test_each_served_request_is_one_root_trace(self):
        service = make_service(
            cache=False, limits=ServerLimits(max_inflight=1)
        )
        obs = service.obs
        with LoopbackClient(service) as client:
            session = client.call("open")["session"]

            def served(op):
                root = client.call("query", session=session,
                                   query=JOIN_QUERY)
                seen, commands = len(obs.traces()), obs.get("qdom_commands")
                client.call(op, session=session, node=root["node"])
                new = obs.traces()[seen:]
                assert [trace.name for trace in new] == ["serve:" + op]
                return new[0], obs.get("qdom_commands") - commands

            trace, commands = served("d")
            assert [(span.name, span.kind) for span in trace.children] == [
                ("d", "navigation")]
            assert commands == 1

            trace, commands = served("walk")
            assert {span.name for span in trace.children} == {"d_many"}
            assert len(trace.children) == commands > 1

            trace, commands = served("tree")
            assert trace.children
            assert {span.kind for span in trace.children} == {"operator"}

            seen = len(obs.traces())
            client.send_raw(b"not a frame")
            client.request("frobnicate")
            service.sessions.admit()  # the server is full
            busy = client.request("hello")
            service.sessions.release_slot()
            assert busy["error"]["code"] == "MIX-E-BUSY"
            assert len(obs.traces()) == seen
