"""The ``ResilientSource`` decorator: one fault-tolerance skin for every
wrapper.

Because all wrappers (relational, XML file, mediator-as-source — and the
fault injector itself) speak the same :class:`~repro.sources.base.Source`
interface, a single decorator gives the whole source layer retry with
backoff, latency budgets and circuit breaking::

    resilient = ResilientSource(
        wrapper,
        retry=RetryPolicy(attempts=4, sleep=clock.sleep),
        breaker=CircuitBreaker(failure_threshold=3, cooldown=5, clock=clock),
        timeout=Timeout(0.25, clock=clock),
        obs=stats,
    )
    mediator = Mediator(stats=stats).add_source(resilient)

Once the budget is spent the failure is raised, named after this
source.  Whether it then becomes a ``<mix:error>`` stub is the
mediator's ``on_source_error`` policy, applied by the engine alone
(:mod:`repro.resilience.stub`).

Pull streams get special care, because a pull is *not* an idempotent
call.  They speak the pull protocol the engine relies on:

* a raised pull consumes nothing: an injected/transient failure is
  retried **in place** when the inner iterator declares ``retry_safe``;
  otherwise the dead stream is **reopened and fast-forwarded** past the
  elements already delivered (sources iterate deterministically, e.g. a
  re-executed cursor) before the error goes anywhere;
* a pull that exceeds the latency budget raises
  :class:`SourceTimeoutError` but keeps the late value buffered — the
  retry (or the next pull) delivers it, so no element is ever lost to a
  timeout;
* ``skip()`` abandons exactly one position, and a stream that cannot be
  fast-forwarded back to where it was ends instead of looping.

Everything the decorator does is reported: counters
(``source_retries``, ``source_timeouts``, ``source_failures``,
``breaker_transitions``) and span events (``retry``, ``breaker``) land
on the instrument passed as ``obs``, and the ``resilience`` kind of
:meth:`ResilientSource.health` exposes the cumulative tallies that
``Mediator.explain`` renders per source.
"""

from __future__ import annotations

from repro import stats as statnames
from repro.errors import (
    CircuitOpenError,
    SourceError,
    SourceTimeoutError,
    TransientSourceError,
)
from repro.sources.base import SourceProxy

_NO_VALUE = object()


class ResilientSource(SourceProxy):
    """Wrap ``inner`` with retry/timeout/breaker policies.

    Args:
        inner: any :class:`Source`.
        retry: a :class:`~repro.resilience.policy.RetryPolicy`
            (``None`` = single attempt, no retrying).
        breaker: a :class:`~repro.resilience.policy.CircuitBreaker`
            guarding every call and pull (``None`` = no breaker).
        timeout: a :class:`~repro.resilience.policy.Timeout` budget
            applied per call/pull (``None`` = unbounded).
        obs: the :class:`~repro.obs.Instrument` to report to.
        name: printable name used in errors, stubs, and health reports
            (defaults to the inner wrapper's server name or class).
    """

    def __init__(self, inner, retry=None, breaker=None, timeout=None,
                 obs=None, name=None):
        super().__init__(inner)
        self.retry = retry
        self.breaker = breaker
        self.timeout = timeout
        self.name = name or inner.server_name or type(inner).__name__
        self._obs = obs
        self._health = {
            "retries": 0,
            "failures": 0,
            "timeouts": 0,
            "circuit_rejections": 0,
        }
        if breaker is not None:
            owner = getattr(breaker, "_owner", None)
            if owner is not None and owner is not self:
                raise ValueError(
                    "CircuitBreaker {!r} is already attached to source "
                    "{!r}: a breaker counts one source's consecutive "
                    "failures, and sharing it would let a flapping "
                    "source open the circuit for its siblings — use "
                    "breaker.clone() to give each source its own "
                    "instance".format(breaker.name, owner.name)
                )
            breaker._owner = self
            if breaker.name is None:
                breaker.name = self.name
            breaker.on_transition = self._chain_transition(
                breaker.on_transition
            )

    # -- observability -----------------------------------------------------------------

    def _chain_transition(self, previous):
        def hook(from_state, to_state):
            self._note_breaker(from_state, to_state)
            if previous is not None:
                previous(from_state, to_state)

        return hook

    def _note_breaker(self, from_state, to_state):
        if self._obs is not None:
            self._obs.incr(statnames.BREAKER_TRANSITIONS)
            self._obs.event(
                "breaker",
                "{}->{}".format(from_state, to_state),
                source=self.name,
            )

    def _note_retry(self, attempt, exc, doc_id):
        self._health["retries"] += 1
        if self._obs is not None:
            self._obs.incr(statnames.SOURCE_RETRIES)
            self._obs.event(
                "retry",
                str(exc),
                source=self.name,
                doc=str(doc_id),
                attempt=attempt,
            )

    def _note_failure(self, exc):
        """Count a failed attempt against the health tallies and the
        breaker (a rejection by the open breaker is not one more
        failure of the source); the error now names this source, the
        one a caller sees give up."""
        exc.source = self.name
        self._health["failures"] += 1
        if isinstance(exc, SourceTimeoutError):
            self._health["timeouts"] += 1
            if self._obs is not None:
                self._obs.incr(statnames.SOURCE_TIMEOUTS)
        if isinstance(exc, CircuitOpenError):
            self._health["circuit_rejections"] += 1
        elif self.breaker is not None:
            self.breaker.record_failure()
        if self._obs is not None:
            self._obs.incr(statnames.SOURCE_FAILURES)

    def health(self):
        """The inner source's health plus ``resilience``: the counters
        above, the breaker's current state and its transition history
        as ``"closed->open"`` strings."""
        resilience = dict(self._health)
        resilience["source"] = self.name
        if self.breaker is not None:
            resilience["breaker"] = self.breaker.state
            resilience["breaker_transitions"] = [
                "{}->{}".format(a, b) for a, b in self.breaker.transitions
            ]
        else:
            resilience["breaker"] = None
            resilience["breaker_transitions"] = []
        return dict(self.inner.health(), resilience=resilience)

    # -- protected idempotent calls -----------------------------------------------------

    def _attempts(self):
        return self.retry.attempts if self.retry is not None else 1

    def _retryable(self):
        if self.retry is not None:
            return self.retry.retry_on
        return (TransientSourceError,)

    def _call(self, fn, doc_id=None, record_success=True):
        """Run an idempotent source call under all three policies.

        ``record_success=False`` is used when merely *opening* a pull
        stream: a generator-backed source runs no code until the first
        pull, so success there would spuriously reset the breaker's
        consecutive-failure count.
        """
        attempts = self._attempts()
        retryable = self._retryable()
        attempt = 0
        while True:
            if self.breaker is not None:
                try:
                    self.breaker.allow(doc_id)
                except CircuitOpenError as exc:
                    self._note_failure(exc)
                    raise
            try:
                if self.timeout is not None:
                    result = self.timeout.guard(
                        fn, doc_id=doc_id, source=self.name
                    )
                else:
                    result = fn()
            except retryable + (SourceError,) as exc:
                self._note_failure(exc)
                if attempt >= attempts - 1 or not isinstance(exc, retryable):
                    raise
                attempt += 1
                self._note_retry(attempt, exc, doc_id)
                if self.retry is not None:
                    self.retry.backoff(attempt - 1)
            else:
                if record_success and self.breaker is not None:
                    self.breaker.record_success()
                return result

    # -- Source interface --------------------------------------------------------------

    def document_ids(self):
        return self._call(self.inner.document_ids)

    def iter_document_children(self, doc_id):
        return _ResilientIterator(self, doc_id)

    def execute_sql(self, sql, params=()):
        return self._call(lambda: self.inner.execute_sql(sql, params))

    def describe_table(self, table_name):
        return self._call(lambda: self.inner.describe_table(table_name))

    def __repr__(self):
        return "ResilientSource({!r}, retry={}, breaker={})".format(
            self.name, self.retry, self.breaker
        )


def shard_resilience(members, retry=None, breaker=None, timeout=None,
                     obs=None, name=None):
    """Wrap each shard member in its own :class:`ResilientSource`.

    ``retry`` and ``timeout`` are stateless, so every member shares
    them; ``breaker`` is a *template*: every member receives its own
    :meth:`~repro.resilience.policy.CircuitBreaker.clone`, so one
    flapping member trips only its own circuit while its siblings keep
    serving (``ResilientSource`` enforces this by rejecting an
    already-attached breaker outright).

    Members are named ``<name>[<index>]`` (``name`` defaults to each
    member's own server name), which is how their failures read in
    stubs, health reports, and the EXPLAIN resilience footer.

    Returns the wrapped member list, ready to hand to
    :class:`~repro.sources.shard.ShardedSource`.
    """
    wrapped = []
    for index, member in enumerate(members):
        base = name or member.server_name or type(member).__name__
        member_name = "{}[{}]".format(base, index)
        wrapped.append(
            ResilientSource(
                member,
                retry=retry,
                breaker=(
                    breaker.clone(name=member_name)
                    if breaker is not None else None
                ),
                timeout=timeout,
                obs=obs,
                name=member_name,
            )
        )
    return wrapped


class _ResilientIterator:
    """The policy-protected pull stream over one document.

    It speaks the engine's pull protocol, as ``_InjectedIterator`` and
    ``_ShardedChildIterator`` do: a raised pull consumes nothing, and
    :meth:`skip` abandons the position the last pull failed at.
    """

    retry_safe = True

    def __init__(self, source, doc_id):
        self._rs = source
        self._doc = doc_id
        self._consumed = 0      # elements pulled from the wrapped stream
        self._pending = _NO_VALUE   # late value from a timed-out pull
        self._done = False
        # Hoisted off the per-pull hot path.
        self._attempts = source._attempts()
        self._retryable = source._retryable()
        self._caught = self._retryable + (SourceError,)
        self._inner = iter(
            source._call(
                lambda: source.inner.iter_document_children(doc_id),
                doc_id=doc_id,
                record_success=False,
            )
        )

    def __iter__(self):
        return self

    def __next__(self):
        rs = self._rs
        if self._done:
            raise StopIteration
        attempt = 0
        attempts = self._attempts
        while True:
            if self._pending is not _NO_VALUE:
                item = self._pending
                self._pending = _NO_VALUE
                if rs.breaker is not None:
                    rs.breaker.record_success()
                return item
            if rs.breaker is not None:
                try:
                    rs.breaker.allow(self._doc)
                except CircuitOpenError as exc:
                    rs._note_failure(exc)
                    raise
            try:
                item = self._pull()
            except StopIteration:
                self._done = True
                raise
            except self._caught as exc:
                rs._note_failure(exc)
                if self._pending is _NO_VALUE and not getattr(
                    self._inner, "retry_safe", False
                ):
                    # The raise may have killed the stream: reopen it
                    # where it was (a timed-out value is buffered).
                    self._reopen(self._consumed)
                if self._done or attempt >= attempts - 1 \
                        or not isinstance(exc, self._retryable):
                    raise
                attempt += 1
                rs._note_retry(attempt, exc, self._doc)
                if rs.retry is not None:
                    rs.retry.backoff(attempt - 1)
            else:
                if rs.breaker is not None:
                    rs.breaker.record_success()
                return item

    def _pull(self):
        """One attempt: pull, count consumption, enforce the budget."""
        rs = self._rs
        if rs.timeout is None:
            item = next(self._inner)
            self._consumed += 1
            return item
        timeout = rs.timeout
        clock = timeout.clock
        start = clock.time()
        item = next(self._inner)
        elapsed = clock.time() - start
        self._consumed += 1
        if elapsed > timeout.limit:
            # The value arrived late; keep it so the retry (or the next
            # pull) delivers it instead of losing it.
            self._pending = item
            timeout.check(elapsed, doc_id=self._doc, source=rs.name)
        return item

    def skip(self):
        """Abandon the position the last pull failed at: drop its late
        value, or skip it in the wrapped stream, or reopen past it."""
        if self._done:
            return
        if self._pending is not _NO_VALUE:
            self._pending = _NO_VALUE
            return
        skip = getattr(self._inner, "skip", None)
        if skip is None:
            self._reopen(self._consumed + 1)
            return
        skip()
        self._consumed += 1

    def _reopen(self, count):
        """Restart the wrapped stream past its first ``count`` elements.
        A stream that ends or fails before it gets there (the fault
        re-fires during the replay) is done, rather than looping."""
        try:
            inner = iter(self._rs.inner.iter_document_children(self._doc))
            for __ in range(count):
                next(inner)
        except (StopIteration, SourceError):
            self._done = True
            return
        self._inner = inner
        self._consumed = count

    def __repr__(self):
        return "_ResilientIterator({!r}, consumed={})".format(
            self._doc, self._consumed
        )
