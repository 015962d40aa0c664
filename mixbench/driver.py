"""The closed-loop driver: runs session scripts, times them, checks them.

One :class:`Driver` owns one transport (a function from an encoded
request line to the decoded reply) and executes sessions strictly one
request at a time.  Timing happens here and only here; answers are kept
and compared with the oracle *after* a slice's clock has stopped, so
checking never sits inside a measured interval.
"""

import hashlib
import json
import socket
import time

from mixbench.oracle import answer_of_reply

#: Refusals: the server declined the work, or never answered in time.
REFUSAL_CODES = ("MIX-E-BUSY", "MIX-E-LIMIT", "MIX-E-SIZE", "timeout")

_now = time.perf_counter


class RunAborted(Exception):
    """The connection is no longer usable (timeout, server gone)."""


class SessionTimes:
    """Raw (unscaled) seconds measured in one session."""

    __slots__ = ("cycle", "session", "first", "refined", "nav", "bulk")

    def __init__(self):
        self.cycle = 0.0  # the whole turn, driver bookkeeping included
        self.session = []  # open -> close (one sample, none if it failed)
        self.first = []
        self.refined = []
        self.nav = []
        self.bulk = []


class Driver:
    """Executes scripts over one transport and accounts for every op."""

    def __init__(self, send):
        self._send = send
        self._next_id = 1
        self._transcript = hashlib.sha256()
        self.attempted = 0
        self.failed = 0
        #: error code (or ``timeout``/``mismatch``) -> count
        self.failures = {}
        self.mismatches = []
        #: Called before each session (the tracer numbers sessions).
        self.on_session = None

    def transcript(self):
        """sha256 over every request line sent so far."""
        return self._transcript.hexdigest()

    def fail(self, code):
        self.failed += 1
        self.failures[code] = self.failures.get(code, 0) + 1

    def call(self, op, **args):
        """One untimed request outside any session script (``stats``,
        the closing row count); returns the result or ``None``."""
        frame = {"id": self._next_id, "op": op}
        self._next_id += 1
        frame.update(args)
        reply = self._exchange(frame)[0]
        if reply.get("ok"):
            return reply["result"]
        self.fail(reply["error"]["code"])
        return None

    def _exchange(self, frame):
        data = (json.dumps(frame) + "\n").encode("utf-8")
        self._transcript.update(data)
        self.attempted += 1
        began = _now()
        try:
            reply = self._send(data)
        except (socket.timeout, ConnectionError, OSError) as exc:
            self.fail("timeout" if isinstance(exc, socket.timeout)
                       else "connection")
            raise RunAborted(str(exc))
        return reply, began, _now()

    def run_slice(self, sessions, pause=None, mark=None):
        """Run ``sessions`` back to back; ``(times, marks, answers)``.

        ``times`` has one :class:`SessionTimes` per session.  ``pause``
        (the calibration kernel) runs after every session and its
        results are collected in ``marks``, after the caller's ``mark``
        taken just before the slice: session *i* sits between
        ``marks[i]`` and ``marks[i + 1]``.  ``answers`` holds
        ``(session, step index, op, result)`` for :meth:`check`.
        """
        times = []
        marks = [mark]
        answers = []
        for number, session in enumerate(sessions):
            if self.on_session is not None:
                self.on_session()
            turn = SessionTimes()
            began = _now()
            self._run_session(number, session, turn, answers)
            turn.cycle = _now() - began
            times.append(turn)
            if pause is not None:
                marks.append(pause())
        return times, marks, answers

    def _run_session(self, number, session, times, answers):
        regs = {}
        sid = None
        opened = asked = refined = 0.0
        for index, step in enumerate(session):
            frame = {"id": self._next_id, "op": step.op}
            self._next_id += 1
            if sid is not None:
                frame["session"] = sid
            name = step.node
            if name is not None:
                frame["node"] = (
                    regs[name[0]][name[1]] if type(name) is tuple
                    else regs[name]
                )
            if step.args:
                frame.update(step.args)
            reply, began, ended = self._exchange(frame)
            if not reply.get("ok"):
                # The session cannot go on without this answer; the
                # server drops its handles when the connection closes.
                self.fail(reply["error"]["code"])
                return
            result = reply["result"]
            kind = step.kind
            if kind == "nav":
                times.nav.append(ended - began)
            elif kind == "bulk":
                times.bulk.append(ended - began)
            elif kind == "open":
                sid = result["session"]
                opened = began
                continue
            elif kind == "close":
                times.session.append(ended - opened)
                continue
            elif kind == "query":
                asked = began
            elif kind == "first":
                times.first.append(ended - asked)
            elif kind == "q":
                refined = began
            elif kind == "refined":
                times.refined.append(ended - refined)
            answers.append((number, index, step.op, result))
            if step.save is not None:
                regs[step.save] = (
                    [kid["node"] for kid in result["children"]]
                    if step.op == "children" else result["node"]
                )

    def check(self, answers, expected):
        """Compare a slice's answers with the oracle's; returns the
        number of answer nodes delivered.  A mismatch is a failed op."""
        nodes = 0
        for number, index, op, result in answers:
            value, count = answer_of_reply(op, result)
            nodes += count
            want = expected[number][index]
            if value != want:
                self.fail("mismatch")
                if len(self.mismatches) < 10:
                    self.mismatches.append({
                        "session": number, "step": index, "op": op,
                        "got": value, "expected": want,
                    })
        return nodes

    def refused(self):
        return sum(
            count for code, count in self.failures.items()
            if code in REFUSAL_CODES
        )
