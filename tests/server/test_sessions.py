"""Session manager tests: lifecycle, limits, admission, counters."""

from __future__ import annotations

import threading

import pytest

from repro.obs import Instrument
from repro.errors import (
    BackpressureError,
    SessionError,
    SessionLimitError,
    StaleHandleError,
)
from repro.server.sessions import ServerLimits, ServerSession, SessionManager


class TestServerLimits:
    def test_defaults(self):
        limits = ServerLimits()
        assert limits.max_sessions == 512
        assert limits.max_inflight == 64
        assert limits.max_frame_bytes == 256 * 1024

    def test_as_dict_round_trips(self):
        limits = ServerLimits(max_sessions=7, max_inflight=3)
        snapshot = limits.as_dict()
        assert snapshot["max_sessions"] == 7
        assert snapshot["max_inflight"] == 3
        assert set(snapshot) == {
            "max_sessions", "max_inflight", "max_handles",
            "max_result_bytes", "max_frame_bytes",
        }


class TestServerSession:
    """A session is a record; its handle table is read and written
    through the manager, under the manager's lock."""

    def test_put_get_release(self):
        manager = SessionManager()
        session = manager.open()
        handle = manager.put(session, "a-node")
        assert manager.get(session.id, handle=handle) == (session, "a-node")
        assert len(session.handles) == 1
        assert manager.close(session) is True
        assert session.handles == {}
        with pytest.raises(SessionError):
            manager.get(session.id, handle=handle)

    def test_handles_are_distinct(self):
        manager = SessionManager()
        session = manager.open()
        assert manager.put(session, "a") != manager.put(session, "b")

    @pytest.mark.parametrize("bad", ["3", None, 3.0, True, [3]])
    def test_non_integer_handles_are_stale(self, bad):
        manager = SessionManager()
        session = manager.open()
        manager.put(session, "a-node")  # handle 1 == 1.0 == True
        with pytest.raises(StaleHandleError):
            manager.get(session.id, handle=bad)

    def test_handle_cap(self):
        manager = SessionManager(ServerLimits(max_handles=2))
        session = manager.open()
        manager.put(session, "a")
        manager.put(session, "b")
        with pytest.raises(SessionLimitError):
            manager.put(session, "c")

    def test_a_session_is_a_record_without_a_lock(self):
        assert set(ServerSession.__slots__) == {
            "id", "owner", "handles", "last_handle"
        }


class TestSessionManager:
    def test_open_get_close(self):
        manager = SessionManager()
        session = manager.open()
        assert manager.get(session.id) == (session, None)
        assert manager.session_count() == 1
        assert manager.close(session) is True
        assert manager.session_count() == 0
        with pytest.raises(SessionError):
            manager.get(session.id)

    def test_close_is_idempotent(self):
        manager = SessionManager()
        session = manager.open()
        assert manager.close(session) is True
        assert manager.close(session) is False
        assert manager.get(99999, missing_ok=True) == (None, None)

    def test_session_cap_rejects_then_recovers(self):
        manager = SessionManager(ServerLimits(max_sessions=2))
        first = manager.open()
        manager.open()
        with pytest.raises(SessionLimitError):
            manager.open()
        manager.close(first)
        assert manager.open() is not None  # a slot freed up

    @pytest.mark.parametrize("bad", ["1", None, 1.5, True, [1]])
    def test_session_ids_must_be_integers(self, bad):
        manager = SessionManager()
        manager.open()  # session 1 == 1.0 == True
        for missing_ok in (False, True):
            with pytest.raises(SessionError):
                manager.get(bad, missing_ok=missing_ok)

    def test_close_all_closes_only_the_owners_sessions(self):
        manager = SessionManager()
        one, two = object(), object()
        for owner in (one, one, two, None):
            manager.open(owner)
        assert manager.close_all(one) == 2
        assert manager.session_count() == 2
        assert manager.close_all(one) == 0
        assert manager.close_all(two) == 1
        assert manager.close_all() == 1  # the sessions opened unowned
        assert manager.session_count() == 0

    def test_another_owners_session_reads_as_unknown(self):
        manager = SessionManager()
        owner, intruder = object(), object()
        session = manager.open(owner)
        assert manager.get(session.id, owner) == (session, None)
        for who in (intruder, None):
            with pytest.raises(SessionError) as info:
                manager.get(session.id, who)
            assert str(info.value) == "no open session {}".format(session.id)
            assert manager.get(session.id, who, missing_ok=True) == (
                None, None)
        assert manager.close(session) is True

    def test_admission_meters_inflight(self):
        manager = SessionManager(ServerLimits(max_inflight=2))
        manager.admit()
        manager.admit()
        assert manager.inflight() == 2
        with pytest.raises(BackpressureError):
            manager.admit()  # reject, don't queue
        manager.release_slot()
        assert manager.inflight() == 1
        manager.admit()  # the released slot is reusable
        manager.release_slot()
        manager.release_slot()
        assert manager.inflight() == 0

    def test_counters_sum_consistently(self):
        # The manager counts session lifecycles only; a request's
        # outcome (accepted/rejected) is counted once, by the service.
        obs = Instrument()
        manager = SessionManager(
            ServerLimits(max_sessions=2, max_inflight=1), obs=obs
        )
        sessions = [manager.open(), manager.open()]
        with pytest.raises(SessionLimitError):
            manager.open()
        manager.close(sessions[0])
        manager.admit()
        with pytest.raises(BackpressureError):
            manager.admit()
        assert obs.get("serve_sessions_opened") == 2
        assert obs.get("serve_sessions_closed") == 1
        assert obs.get("serve_active_sessions") == manager.session_count() == 1
        assert obs.get("serve_accepted") == 0
        assert obs.get("serve_rejected") == 0

    def test_concurrent_opens_never_exceed_the_cap(self):
        manager = SessionManager(ServerLimits(max_sessions=16))
        outcomes = []
        lock = threading.Lock()
        barrier = threading.Barrier(32)

        def worker():
            barrier.wait()
            try:
                manager.open()
                with lock:
                    outcomes.append("opened")
            except SessionLimitError:
                with lock:
                    outcomes.append("rejected")

        threads = [threading.Thread(target=worker) for _ in range(32)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes.count("opened") == 16
        assert outcomes.count("rejected") == 16
        assert manager.session_count() == 16
