"""Exception hierarchy for the MIX reproduction.

Every error raised by the library derives from :class:`MixError`, so client
code can catch a single base class.  Sub-hierarchies mirror the subsystems:
parsing (XML text, SQL text, XQuery text), planning/translation, the lazy
engine, the rewriter, and the relational substrate.
"""

from __future__ import annotations


class MixError(Exception):
    """Base class of every exception raised by :mod:`repro`."""


class ParseError(MixError):
    """A textual input (XML, SQL, or XQuery) could not be parsed.

    Attributes:
        text: the offending source text (may be ``None``).
        position: character offset of the error, when known.
    """

    def __init__(self, message, text=None, position=None):
        super().__init__(message)
        self.text = text
        self.position = position

    @property
    def line(self):
        """1-based line of the error, or ``None`` when untracked."""
        if self.text is None or self.position is None:
            return None
        return self.text.count("\n", 0, self.position) + 1

    @property
    def column(self):
        """1-based column of the error, or ``None`` when untracked."""
        if self.text is None or self.position is None:
            return None
        last_newline = self.text.rfind("\n", 0, self.position)
        return self.position - last_newline


class XmlParseError(ParseError):
    """Malformed XML text."""


class SqlError(MixError):
    """Base class for relational-substrate errors."""


class SqlParseError(ParseError, SqlError):
    """Malformed SQL text."""


class SchemaError(SqlError):
    """A table/column reference does not match the database schema."""


class TypeMismatchError(SqlError):
    """A value does not conform to its declared column type."""


class IntegrityError(SqlError):
    """A primary-key or uniqueness constraint was violated."""


class XQueryParseError(ParseError):
    """Malformed XQuery text (the paper's Fig. 4 subset)."""


class TranslationError(MixError):
    """The XQuery AST could not be translated to an XMAS plan."""


class PlanError(MixError):
    """An XMAS plan is structurally invalid (unknown variable, arity, ...)."""


class ParameterValueDemanded(PlanError):
    """A compile step read the value of a literal that was left open.

    Raised by :class:`repro.algebra.conditions.ParamOperand`; the
    mediator answers it by compiling the text with its literals inline.
    """


class PlanVerificationError(PlanError):
    """The static plan verifier rejected a plan.

    Attributes:
        diagnostics: the :class:`repro.analysis.Diagnostic` findings that
            caused the rejection (at least one has severity ``error``).
        stage: the pipeline stage whose output failed (``translate``, a
            rewrite stage, ``sql-split``, ...), when known.
        rule: for rewrite stages, the name of the rewrite rule whose
            output failed verification (``None`` for non-rewrite
            stages) — the handle tooling uses to attribute a broken
            plan to the rule that broke it.
    """

    def __init__(self, message, diagnostics=(), stage=None, rule=None):
        super().__init__(message)
        self.diagnostics = list(diagnostics)
        self.stage = stage
        self.rule = rule


class EvaluationError(MixError):
    """The engine could not evaluate a plan over the given sources."""


class NavigationError(MixError):
    """An invalid QDOM navigation command (e.g. ``d`` on a leaf id of the
    wrong operator, or a stale node id)."""


class RewriteError(MixError):
    """A rewrite rule produced or was applied to an inconsistent plan,
    or the fixpoint driver failed to terminate.

    Attributes:
        steps: the last-k :class:`~repro.rewriter.engine.RewriteStep`\\ s
            before the failure (rule names + plan fingerprints), so a
            non-terminating rule set names its offenders instead of
            dying opaquely.  Empty for registration-time errors.
        code: the stable diagnostic code (``MIX-E013`` for termination
            failures), or ``None``.
        kind: ``"cycle"`` (a plan fingerprint recurred), ``"divergence"``
            (``max_steps`` exceeded without a detected cycle), or
            ``None`` for other rewrite errors.
    """

    def __init__(self, message, steps=(), code=None, kind=None):
        super().__init__(message)
        self.steps = list(steps)
        self.code = code
        self.kind = kind


class RuleCertificationError(MixError):
    """A strict mediator refused an extension rule that failed static
    certification (:func:`repro.analysis.certify_rules`).

    Attributes:
        diagnostics: the error-severity :class:`repro.analysis.Diagnostic`
            findings, each naming the offending rule.
    """

    def __init__(self, message, diagnostics=()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


class CompositionError(MixError):
    """Decontextualization / query composition failed (e.g. a node id that
    carries no skolem provenance was used as a query root)."""


class SourceError(MixError):
    """A wrapped source rejected a request or is misconfigured.

    Attributes:
        doc_id: the document the failing request addressed (``None`` for
            requests that are not document-scoped).
        sql: the offending pushed-down SQL text, when the request was an
            :meth:`~repro.sources.base.Source.execute_sql`.
        source: a printable name of the source the request went to.

    The message is kept as the sole ``args`` entry so every subclass
    pickles with the standard machinery (the payload attributes travel
    in ``__dict__``); resilience errors cross the obs export boundary as
    JSON and must survive ``pickle``/``repr`` round-trips.
    """

    def __init__(self, message, doc_id=None, sql=None, source=None):
        super().__init__(message)
        self.doc_id = doc_id
        self.sql = sql
        self.source = source


class UnknownSourceError(SourceError):
    """A plan references a source id that the mediator does not know.

    Attributes:
        known: the sorted list of names the catalog *does* know, so the
            error message (and any tooling on top) can suggest
            alternatives.
    """

    def __init__(self, message, doc_id=None, known=()):
        super().__init__(message, doc_id=doc_id)
        self.known = list(known)


class TransientSourceError(SourceError):
    """A source request failed in a way that may succeed when retried
    (a dropped connection, an injected transient fault, ...).

    The retry policy of :class:`repro.resilience.ResilientSource`
    retries exactly this class (and its subclasses) by default.
    """


class SourceTimeoutError(TransientSourceError):
    """A source request exceeded its latency budget.

    Attributes:
        limit: the configured budget in (clock) seconds.
        elapsed: how long the request actually took.
    """

    def __init__(self, message, doc_id=None, sql=None, source=None,
                 limit=None, elapsed=None):
        super().__init__(message, doc_id=doc_id, sql=sql, source=source)
        self.limit = limit
        self.elapsed = elapsed


class ShardError(SourceError):
    """One member of a sharded table failed during scatter-gather.

    Raised by a scattered statement's cursor at the stream position
    where the failed member's rows would have appeared, or by the
    partitioned document's navigation when a member's child stream
    fails as a whole; the surviving members keep streaming, so an
    engine that degrades substitutes a single ``<mix:error>`` stub for
    the lost shard and the answer stays partial instead of dead.

    Attributes:
        shard: printable name of the failing member.
        index: the member's position in the shard list.
    """

    def __init__(self, message, doc_id=None, sql=None, source=None,
                 shard=None, index=None):
        super().__init__(message, doc_id=doc_id, sql=sql, source=source)
        self.shard = shard
        self.index = index


class CircuitOpenError(SourceError):
    """A request was rejected without reaching the source because its
    circuit breaker is open (the source failed too often recently).

    Attributes:
        retry_after: clock seconds until the breaker will admit a probe.
    """

    def __init__(self, message, doc_id=None, source=None, retry_after=None):
        super().__init__(message, doc_id=doc_id, source=source)
        self.retry_after = retry_after


class ServerError(MixError):
    """Base class of the mediator server's typed errors.

    Every subclass carries a stable wire code (``MIX-E-*``), which is
    what crosses the JSON-lines protocol instead of a Python stack
    trace; clients dispatch on the code, never on the message text.
    """

    #: The stable wire code; subclasses override.
    code = "MIX-E-SERVER"


class ProtocolError(ServerError):
    """A frame could not be decoded: not JSON, not an object, or
    missing/invalid required fields (``id``, ``op``)."""

    code = "MIX-E-PROTO"


class FrameTooLargeError(ProtocolError):
    """An incoming frame exceeded the server's frame-size limit."""

    code = "MIX-E-FRAME"


class UnknownOpError(ProtocolError):
    """The request named an operation the server does not export.

    Attributes:
        known: the sorted op names the server does export.
    """

    code = "MIX-E-OP"

    def __init__(self, message, known=()):
        known = list(known)
        if known:
            message = "{} (known ops: {})".format(
                message, ", ".join(known)
            )
        super().__init__(message)
        self.known = known


class SessionError(ServerError):
    """A request addressed a session id that is not open (never opened,
    already closed, or swept after its connection died)."""

    code = "MIX-E-SESSION"


class StaleHandleError(ServerError):
    """A request addressed a node handle its session does not hold."""

    code = "MIX-E-HANDLE"


class SessionLimitError(ServerError):
    """Opening one more session would exceed ``max_sessions`` (or the
    session would exceed one of its own resource caps)."""

    code = "MIX-E-LIMIT"


class BackpressureError(ServerError):
    """The server is at its in-flight request limit; the request was
    rejected immediately instead of queueing unboundedly.  Clients
    should back off and retry."""

    code = "MIX-E-BUSY"


class ResultTooLargeError(ServerError):
    """A reply would exceed the per-request result-size cap; re-ask
    with a narrower query or a bounded bulk op (``walk`` budget)."""

    code = "MIX-E-SIZE"
