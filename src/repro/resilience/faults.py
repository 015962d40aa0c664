"""Deterministic fault injection for source wrappers.

:class:`FaultInjectingSource` wraps any :class:`~repro.sources.base.
Source` and injects *configured* failures into its pull stream and its
pushed-SQL path.  Nothing here consults the wall clock or unseeded
randomness: explicit faults are keyed on the **position** of the pull in
the document's child stream, probabilistic faults draw from a
``random.Random`` seeded per document, and slow pulls advance an
injected clock — so a fault schedule replays identically run after run.

Fault kinds:

* ``transient`` — raises :class:`TransientSourceError`; fires ``times``
  attempts (default 1), then the pull succeeds — exactly what a retry
  policy should absorb;
* ``permanent`` — raises :class:`SourceError` on every attempt;
* slow pulls — the attempt sleeps on the injected clock before
  delivering, which trips a :class:`~repro.resilience.policy.Timeout`.

An injected raise never consumes the wrapped source's element: the
iterator is *retry-safe* (``retry_safe = True``), so an in-place retry
of ``next()`` finds the stream exactly where it was.  ``skip()`` lets a
degrading caller abandon a permanently poisoned position.
"""

from __future__ import annotations

import random
import zlib

from repro.errors import SourceError, TransientSourceError
from repro.relational.ast import bind_sql
from repro.resilience.clock import ManualClock
from repro.sources.base import SourceProxy

TRANSIENT = "transient"
PERMANENT = "permanent"

#: Wildcard doc id: the fault applies to every document.
ANY_DOC = "*"

_UNLIMITED = None


class _Fault:
    """One scheduled fault with a remaining-fires budget."""

    __slots__ = ("kind", "delay", "remaining")

    def __init__(self, kind, delay=0.0, times=1):
        self.kind = kind
        self.delay = delay
        self.remaining = times  # None = unlimited (permanent-style)

    def take(self):
        """Consume one firing; returns False when the budget is spent."""
        if self.remaining is _UNLIMITED:
            return True
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        return True


class FaultInjectingSource(SourceProxy):
    """A proxy source that injects failures into a wrapped source.

    Example::

        faulty = (
            FaultInjectingSource(wrapper, clock=clock, obs=stats)
            .fail_pull("root2", 1)                  # 2nd pull fails once
            .slow_pull("root1", 0, delay=0.5)       # 1st pull is slow
            .fail_sql(times=1)                      # next SQL fails once
        )

    The consumption state of every fault lives on the *source* (not on
    an iterator), so retries, re-opened iterations, and both engines'
    reads observe one consistent schedule.
    """

    def __init__(self, inner, clock=None, seed=0, obs=None, name=None):
        super().__init__(inner)
        self.clock = clock or ManualClock()
        self.seed = seed
        self.name = name or "faulty({})".format(
            inner.server_name or type(inner).__name__
        )
        self._obs = obs
        self._pull_faults = {}   # (doc_id, position) -> _Fault
        self._sql_faults = []    # list of (match, _Fault)
        self._pull_rates = {}    # doc_id -> (rate, kind)
        self._rate_decisions = {}  # (doc_id, position) -> bool, memoized
        self.injected = []       # (op, doc_id, position, kind) log

    # -- schedule configuration ------------------------------------------------------

    def fail_pull(self, doc_id, position, kind=TRANSIENT, times=1):
        """Fail the pull of child ``position`` (0-based) of ``doc_id``.

        ``kind="permanent"`` (or ``times=None``) fails every attempt.
        """
        if kind == PERMANENT:
            times = _UNLIMITED
        self._pull_faults[(doc_id, position)] = _Fault(kind, times=times)
        return self

    def slow_pull(self, doc_id, position, delay, times=1):
        """Delay the pull of child ``position`` by ``delay`` clock secs."""
        self._pull_faults[(doc_id, position)] = _Fault(
            "slow", delay=delay, times=times
        )
        return self

    def fail_pulls_randomly(self, doc_id, rate, kind=TRANSIENT):
        """Transiently fail pulls of ``doc_id`` with probability ``rate``.

        Decisions are drawn from ``random.Random`` seeded from
        ``(seed, doc_id)`` via CRC32 — stable across processes and
        interpreter hash randomization — and memoized per position, so a
        position that failed fails exactly once (transient) no matter
        how often it is re-attempted.
        """
        self._pull_rates[doc_id] = (float(rate), kind)
        return self

    def fail_sql(self, kind=TRANSIENT, times=1, match=None):
        """Fail the next ``times`` ``execute_sql`` calls.

        ``match`` restricts the fault to statements whose text, with
        the values of its slots spelled in, contains the substring.
        ``kind="permanent"`` fails without a budget.
        """
        if kind == PERMANENT:
            times = _UNLIMITED
        self._sql_faults.append((match, _Fault(kind, times=times)))
        return self

    # -- fault dispatch ----------------------------------------------------------------

    def _record(self, op, doc_id, position, kind):
        self.injected.append((op, doc_id, position, kind))
        if self._obs is not None:
            self._obs.incr("faults_injected")
            self._obs.event(
                "fault", kind, op=op, doc=str(doc_id), position=position
            )

    def _raise(self, kind, doc_id, position):
        detail = "injected {} fault on pull of {!r} (position {})".format(
            kind, doc_id, position
        )
        if kind == TRANSIENT:
            raise TransientSourceError(
                detail, doc_id=doc_id, source=self.name
            )
        raise SourceError(detail, doc_id=doc_id, source=self.name)

    def _rate_fires(self, doc_id, position):
        rate_entry = self._pull_rates.get(doc_id)
        if rate_entry is None:
            return None
        rate, kind = rate_entry
        key = (doc_id, position)
        if key not in self._rate_decisions:
            rng = random.Random(
                zlib.crc32(str(doc_id).encode("utf-8")) ^ (self.seed or 0)
            )
            # Deterministic per-position draw: advance the stream to the
            # position so earlier positions do not depend on pull order.
            draws = [rng.random() for __ in range(position + 1)]
            self._rate_decisions[key] = draws[position] < rate
        if self._rate_decisions[key]:
            # Transient one-shot: consume the decision.
            self._rate_decisions[key] = False
            return kind
        return None

    def _before_pull(self, doc_id, position):
        """Apply any fault scheduled for this pull; may raise or sleep."""
        fault = self._pull_faults.get((doc_id, position))
        if fault is None:
            fault = self._pull_faults.get((ANY_DOC, position))
        if fault is not None and fault.take():
            if fault.kind == "slow":
                self._record("pull", doc_id, position, "slow")
                self.clock.sleep(fault.delay)
                return
            self._record("pull", doc_id, position, fault.kind)
            self._raise(fault.kind, doc_id, position)
            return
        rate_kind = self._rate_fires(doc_id, position)
        if rate_kind is not None:
            self._record("pull", doc_id, position, rate_kind)
            self._raise(rate_kind, doc_id, position)

    # -- Source interface --------------------------------------------------------------

    def iter_document_children(self, doc_id):
        return _InjectedIterator(self, doc_id)

    def execute_sql(self, sql, params=()):
        text = bind_sql(sql, params) if self._sql_faults else sql
        for match, fault in self._sql_faults:
            if match is not None and match not in text:
                continue
            if fault.take():
                self._record("sql", None, None, fault.kind)
                detail = "injected {} fault on execute_sql".format(
                    fault.kind
                )
                if fault.kind == TRANSIENT:
                    raise TransientSourceError(
                        detail, sql=text, source=self.name
                    )
                raise SourceError(detail, sql=text, source=self.name)
        return self.inner.execute_sql(sql, params)

    def __repr__(self):
        return "FaultInjectingSource({!r}, faults={})".format(
            self.name, len(self._pull_faults) + len(self._sql_faults)
        )


class _InjectedIterator:
    """Pull iterator that applies the schedule *before* touching the
    wrapped stream — an injected raise leaves the stream untouched, so
    ``retry_safe`` callers simply call ``next()`` again."""

    retry_safe = True

    def __init__(self, source, doc_id):
        self._source = source
        self._doc = doc_id
        self._inner = iter(source.inner.iter_document_children(doc_id))
        self._position = 0

    def __iter__(self):
        return self

    def __next__(self):
        self._source._before_pull(self._doc, self._position)
        item = next(self._inner)
        self._position += 1
        return item

    def skip(self):
        """Abandon the current (poisoned) position: discard the wrapped
        element and move on — the degradation path's escape hatch."""
        try:
            next(self._inner)
        except StopIteration:
            pass
        self._position += 1
