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
    def test_put_get_release(self):
        session = ServerSession(1, max_handles=10)
        handle = session.put("a-node")
        assert session.get(handle) == "a-node"
        assert session.handle_count() == 1
        session.release()
        assert session.handle_count() == 0
        with pytest.raises(StaleHandleError):
            session.get(handle)

    def test_handles_are_distinct(self):
        session = ServerSession(1, max_handles=10)
        assert session.put("a") != session.put("b")

    @pytest.mark.parametrize("bad", ["3", None, 3.0, True, [3]])
    def test_non_integer_handles_are_stale(self, bad):
        session = ServerSession(1, max_handles=10)
        with pytest.raises(StaleHandleError):
            session.get(bad)

    def test_handle_cap(self):
        session = ServerSession(1, max_handles=2)
        session.put("a")
        session.put("b")
        with pytest.raises(SessionLimitError):
            session.put("c")


class TestSessionManager:
    def test_open_get_close(self):
        manager = SessionManager()
        session = manager.open()
        assert manager.get(session.id) is session
        assert manager.session_count() == 1
        assert manager.close(session.id) is True
        assert manager.session_count() == 0
        with pytest.raises(SessionError):
            manager.get(session.id)

    def test_close_is_idempotent(self):
        manager = SessionManager()
        session = manager.open()
        assert manager.close(session.id) is True
        assert manager.close(session.id) is False
        assert manager.close(99999) is False

    def test_session_cap_rejects_then_recovers(self):
        manager = SessionManager(ServerLimits(max_sessions=2))
        first = manager.open()
        manager.open()
        with pytest.raises(SessionLimitError):
            manager.open()
        manager.close(first.id)
        assert manager.open() is not None  # a slot freed up

    @pytest.mark.parametrize("bad", ["1", None, 1.5, True])
    def test_session_ids_must_be_integers(self, bad):
        with pytest.raises(SessionError):
            SessionManager().get(bad)

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
        assert manager.get(session.id, owner) is session
        for who in (intruder, None):
            with pytest.raises(SessionError) as info:
                manager.get(session.id, who)
            assert str(info.value) == "no open session {}".format(session.id)
            assert manager.close(session.id, who) is False
        assert manager.close(session.id, owner) is True

    def test_admission_meters_inflight(self):
        manager = SessionManager(ServerLimits(max_inflight=2))
        a = manager.admit()
        b = manager.admit()
        assert manager.inflight() == 2
        with pytest.raises(BackpressureError):
            manager.admit()  # reject, don't queue
        with a:
            pass
        assert manager.inflight() == 1
        manager.admit()  # the released slot is reusable
        with b:
            pass

    def test_admission_slot_released_on_error(self):
        manager = SessionManager(ServerLimits(max_inflight=1))
        with pytest.raises(RuntimeError):
            with manager.admit():
                raise RuntimeError("handler blew up")
        assert manager.inflight() == 0
        with manager.admit():
            pass

    def test_counters_sum_consistently(self):
        obs = Instrument()
        manager = SessionManager(
            ServerLimits(max_sessions=2, max_inflight=1), obs=obs
        )
        sessions = [manager.open(), manager.open()]
        with pytest.raises(SessionLimitError):
            manager.open()
        manager.close(sessions[0].id)
        with manager.admit():
            with pytest.raises(BackpressureError):
                manager.admit()
        assert obs.get("serve_sessions_opened") == 2
        assert obs.get("serve_sessions_closed") == 1
        assert obs.get("serve_active_sessions") == manager.session_count() == 1
        assert obs.get("serve_accepted") == 1
        assert obs.get("serve_rejected") == 2  # session cap + busy

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
