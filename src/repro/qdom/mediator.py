"""The MIX mediator: the Fig.-1 architecture in one object.

A query's lifecycle, exactly as the paper's architecture section lays it
out: the XQuery text is translated to an XMAS plan, rewritten by the
optimizer, the maximal relational parts are pushed to the sources as SQL
(``rQ``), and the engine returns the root of a *virtual* result that the
client navigates.  A query issued from a node of a previous result is
first decontextualized (Section 5) or composed (Section 6), then goes
through the same rewrite/push/evaluate pipeline.
"""

from __future__ import annotations

import itertools
from functools import partial

from repro import stats as statnames
from repro.errors import CompositionError, ParameterValueDemanded
from repro.cache.keys import (
    catalog_shape,
    data_fingerprint,
    failure_epoch,
)
from repro.cache.shapes import (
    BoundPlan,
    DeferredView,
    PreparedPlan,
    parametrise,
    request_shape,
)
from repro.algebra.translator import Translator
from repro.analysis.pipeline import verify_stages
from repro.analysis.verifier import assert_plan_verifies
from repro.composer import compose_at_root, decontextualize
from repro.engine.lazy import SURROGATES, LazyEngine
from repro.engine.eager import EagerEngine
from repro.qdom.api import QdomNode
from repro.qdom.local import held_answer
from repro.resilience.stub import RAISE, PrefixPoisonWatch, degrades
from repro.obs import Instrument, explain_analyze, explain_analyze_with_trace
from repro.rewriter import Rewriter, push_to_sources
from repro.sources.catalog import SourceCatalog
from repro.xmltree.tree import Node, OidGenerator
from repro.xquery.parser import (
    lex_query,
    literal_spans,
    parse_xquery,
    same_literals,
)
from repro.xquery.printer import render_query

#: The :class:`Mediator` keywords that are read-only after ``__init__``.
_SWITCHES = frozenset((
    "optimize", "push_sql", "lazy", "on_source_error", "cost_optimizer",
    "strict", "block_size", "cache_size",
))


class Mediator:
    """A MIX mediator over a catalog of wrapped sources.

    Args:
        catalog: an existing :class:`SourceCatalog` (one is created when
            omitted).
        stats: shared statistics registry; defaults to a fresh one.
        optimize: run the Table-2 rewriter on every plan (on by default;
            benchmarks switch it off to measure the naive pipeline).
        push_sql: compile maximal relational subtrees to SQL ``rQ``
            operators (on by default).
        lazy: evaluate with the navigation-driven engine; ``False``
            selects the eager full-materialization engine (the baseline
            the paper argues against).
        on_source_error: ``"raise"`` (default) propagates source
            failures to the client; ``"degrade"`` substitutes
            ``<mix:error>`` stubs for failed subtrees so the rest of the
            answer stays navigable (partial results).  It is the one
            policy of every ``query`` and in-place ``q``.
        cache: enable the multi-level cache (plan cache + navigation
            memo on the mediator, pushed-SQL result cache on every
            relational source added afterwards).  Off by default; the
            CLI turns it on.  Invalidation is version-based, never
            time-based (see :mod:`repro.cache`).
        cache_size: max entries per cache level; ``0`` disables caching
            even when ``cache=True``.
        cost_optimizer: statistics-driven cost-based planning (on by
            default).  Controls the relational executor's join
            order/build side/index choice on every source added through
            :meth:`add_source`, the statistics-gated SQL refinements of
            the push-down, and the ``est=`` column of EXPLAIN ANALYZE.
            ``False`` (CLI ``--no-optimizer``) reproduces the seed's
            syntactic plans byte for byte.
        strict: run the static plan verifier on every compiled plan —
            a ``query`` or an in-place ``q`` — at every pipeline stage
            (each rewrite step and the SQL split, beside the translate
            stage every mediator verifies).  A transformation
            that breaks binding-schema flow raises
            :class:`~repro.errors.PlanVerificationError` naming the
            offending stage.  Verification results are cached with the
            plan, so warm plan-cache hits never re-verify.
        block_size: tuples per dataflow vector / children per
            navigation prefetch (block-at-a-time execution, on by
            default at :data:`~repro.engine.block.DEFAULT_BLOCK_SIZE`).
            Answers are byte-identical at every size and
            ``tuples_shipped`` is unchanged; sizes ``> 1`` amortize the
            per-tuple engine bookkeeping and per-hop navigation
            commands (see E-BLOCK).  ``1`` is a one-tuple block: it
            reproduces the seed's pull order and per-hop command
            transcripts exactly (strict shipping-minimality and golden-trace tests
            pin this).  Sources added through :meth:`add_source` get
            ``set_block_size``; those that batch fetch rows at the same
            width.  It is the *largest* width: with the cache on,
            a shape whose answers were navigated to ``k`` root children
            starts its next answer at ``k`` (:mod:`repro.engine.lazy`).
        extension_rules: extra rewrite rules registered *after* the
            Table-2 set (registration order is application priority;
            see :class:`repro.rewriter.Rewriter`).  Each rule must
            satisfy the registration contract of
            :mod:`repro.rewriter.rule` — a nonempty unique ``name``, a
            declared ``schema_contract``, an ``apply`` method.  Under
            ``strict=True`` the bar is higher: every extension rule
            must carry full explicit certification metadata *and* pass
            the static rule certifier
            (:func:`repro.analysis.certify_rules` — schema contract,
            termination against the whole rule set, liveness/shadowing,
            differential answer preservation) before the mediator will
            construct; a refused rule raises
            :class:`~repro.errors.RuleCertificationError` naming the
            findings.

    The switches (all of the above but ``catalog``, ``stats``, ``cache``
    and ``extension_rules``) are fixed at construction: assigning one
    raises :class:`AttributeError`, since cached plans and configured
    sources were built under the old value.
    """

    def __setattr__(self, name, value):
        if name in _SWITCHES and name in self.__dict__:
            raise AttributeError(
                "Mediator.{} is fixed at construction".format(name)
            )
        object.__setattr__(self, name, value)

    def __init__(self, catalog=None, stats=None, optimize=True,
                 push_sql=True, lazy=True, on_source_error=RAISE,
                 cache=False, cache_size=128, cost_optimizer=True,
                 strict=False, block_size=None, extension_rules=None):
        degrades(on_source_error)
        if block_size is None:
            from repro.engine.block import DEFAULT_BLOCK_SIZE

            block_size = DEFAULT_BLOCK_SIZE
        if not isinstance(block_size, int) or block_size < 1:
            raise ValueError(
                "block_size must be an int >= 1, got {!r}".format(
                    block_size
                )
            )
        self.block_size = block_size
        self.catalog = catalog or SourceCatalog()
        self.stats = stats or Instrument()
        self.optimize = optimize
        self.push_sql = push_sql
        self.lazy = lazy
        self.on_source_error = on_source_error
        self.cost_optimizer = cost_optimizer
        self.strict = strict
        #: Stage count of the most recent verification (a strict compile
        #: or a plan-cache hit on a verified entry); ``None`` otherwise.
        self.last_verified_stages = None
        self.cache_size = cache_size
        if cache and cache_size:
            from repro.cache import CacheManager

            self.cache = CacheManager(cache_size, obs=self.stats)
        else:
            self.cache = None
        self._translator = Translator()
        self._rewriter = Rewriter()
        #: Rule-name sequence fired while compiling the most recent
        #: plan (restored from the plan cache on a warm hit); ``()``
        #: when nothing fired.
        self.last_rewrite_rules = ()
        if extension_rules:
            self._register_extension_rules(tuple(extension_rules))
        self._view_ids = itertools.count(1)
        self._views = {}  # view name -> tD-rooted plan
        self._views_epoch = 0  # bumped by define_view; part of plan keys

    # -- configuration ------------------------------------------------------------

    def _register_extension_rules(self, rules):
        """Register extension rewrite rules, certifying under strict mode.

        Non-strict mediators only enforce the registration contract
        (done by :meth:`Rewriter.register` itself).  Strict mediators
        additionally refuse rules without full explicit certification
        metadata and rules the static certifier rejects — an uncertified
        rule must never touch a strict mediator's plans.
        """
        if self.strict:
            from repro.analysis.rulecheck import certify_rules
            from repro.errors import RuleCertificationError
            from repro.rewriter.rule import is_certifiable, rule_name

            for rule in rules:
                if not is_certifiable(rule):
                    raise RuleCertificationError(
                        "strict mediator refuses extension rule {!r}: "
                        "missing explicit certification metadata (name, "
                        "schema_contract)".format(rule)
                    )
            focus = [rule_name(r) for r in rules]
            report = certify_rules(extension_rules=rules, focus=focus)
            errors = [d for d in report.diagnostics if d.is_error]
            if errors:
                raise RuleCertificationError(
                    "strict mediator refuses uncertified extension "
                    "rule(s): {}".format(
                        "; ".join(d.render() for d in errors[:3])
                    ),
                    diagnostics=errors,
                )
        for rule in rules:
            self._rewriter.register(rule)

    def add_source(self, source):
        """Register a wrapped source (all its documents).

        With caching enabled, relational sources get a pushed-SQL
        result cache of the mediator's ``cache_size`` (counters on the
        mediator's instrument).
        """
        self.catalog.register(source)
        if self.cache is not None:
            source.enable_sql_cache(self.cache_size, obs=self.stats)
        source.set_cost_optimizer(self.cost_optimizer)
        source.set_block_size(self.block_size)
        return self

    def analyze_sources(self):
        """``ANALYZE`` every source that supports it.

        Returns ``{server_name: tables_analyzed}``.  Statistics feed the
        cost-based planners and the ``est=`` EXPLAIN column; they go
        stale (and estimates silently disappear) on the next DML.
        """
        analyzed = {}
        for source in self.catalog.sources():
            count = source.analyze()
            if count is not None:
                analyzed[source.server_name] = count
        return analyzed

    def define_view(self, name, query_text):
        """Define a named *virtual* view.

        The view is never materialized: queries that reference
        ``document(name)`` are composed with the view's plan (Section 6)
        and optimized as one, so the combined conditions reach the
        sources.  Views may reference other views (composition repeats
        to a fixpoint).  This is the "integrated views" role of the
        Fig. 1 architecture, driven entirely by the composition
        machinery.
        """
        if self.catalog.has_document(name):
            raise CompositionError(
                "view name {!r} collides with a source document".format(
                    name
                )
            )
        plan = self._translator.translate(
            parse_xquery(query_text)
            if isinstance(query_text, str)
            else query_text,
            root_oid=name,
        )
        assert_plan_verifies(plan, stage="translate")
        self._views[name] = plan
        # A (re)definition changes what every query over the view means:
        # the epoch moves (old plan keys can never hit again) and live
        # entries are dropped eagerly so the change is *counted* as
        # invalidations rather than disappearing as silent key churn.
        self._views_epoch += 1
        if self.cache is not None:
            self.cache.clear()
        return self

    def view_names(self):
        return sorted(self._views)

    def _expand_views(self, plan):
        """Compose every reference to a named view, to a fixpoint."""
        from repro.composer.compose import root_source_operators

        for __ in range(len(self._views) + 1):
            expanded = False
            for name, view_plan in self._views.items():
                if root_source_operators(
                    plan, name, include_query_root=False
                ):
                    plan = compose_at_root(
                        view_plan, plan, view_id=name,
                        include_query_root=False,
                    )
                    expanded = True
            if not expanded:
                return plan
        raise CompositionError(
            "view definitions are cyclic: {}".format(self.view_names())
        )

    # -- the client interface --------------------------------------------------------

    def query(self, query_text):
        """Run an XQuery against the registered sources and views.

        Returns the root :class:`QdomNode` of the (virtual) answer.

        With caching enabled, the compiled plan is reused across
        queries of one *shape* (:mod:`repro.cache.shapes` — the text up
        to its literals), and — under the strict ``"raise"`` policy
        only — the answer's root is shared between repeats of the shape
        with the same literals through the navigation memo, so child
        lists one session materialized are free for the next.  A
        degrading mediator never touches the memo: a ``<mix:error>``
        stub must never be served from cache.
        """
        with self.stats.command_span(
            "query", kind="query", query=_clip_query(query_text)
        ):
            view, _status, memo_key = self._prepare(query_text)
            if self.on_source_error != RAISE:
                memo_key = None
            if memo_key is not None:
                entry = self.cache.lookup_result(memo_key, self.catalog)
                if entry is not None:
                    return self._handle(entry.root, entry.view, (
                        entry.fingerprint, entry.fail_epoch
                    ))
            stamp = self._stamp()
            root = self._evaluate(
                view.exec_plan(), demand=view.prepared.demand
            )
            if memo_key is not None:
                self.cache.store_result(memo_key, root, view, stamp[0])
            return self._handle(root, view, stamp)

    def query_from(self, qdom_node, query_text):
        """Run an XQuery whose ``document(root)`` is ``qdom_node``.

        Implements the paper's ``q(query, p)``: the query is
        decontextualized against the view that produced ``qdom_node``
        and evaluated as an ordinary context-free query.  With caching
        enabled the composed plan is compiled once per (view shape,
        start-node context, query shape) and bound per request.

        A lazy, optimizing mediator answers a *selection* of
        ``document(root)`` (:mod:`repro.qdom.local`) from the nodes the
        client already holds, with no compile and no SQL, when the
        start node's subtree is fully materialized and clean and the
        catalog's data fingerprint and the mediator's failure epoch are
        the ones its answer was produced under.  That answer's view
        compiles only when something reads it (a further ``q``).
        """
        view = qdom_node.view
        if view is None:
            raise CompositionError(
                "this node does not belong to a mediator view"
            )
        with self.stats.command_span(
            "q", kind="query",
            query=_clip_query(query_text),
            oid=str(qdom_node.oid),
        ) as span:
            provenance = (
                None if qdom_node.parent is None
                else qdom_node.require_query_root()
            )
            stamp = self._stamp()
            query = None
            if self._may_hold(qdom_node, query_text, stamp):
                query = parse_xquery(query_text)
                records = held_answer(
                    query, qdom_node.node,
                    view if qdom_node.parent is None else None,
                )
                if records is not None:
                    self.stats.incr(statnames.Q_ANSWERED_LOCALLY)
                    span.set_attribute("answer", "held")
                    # The root oid a pushed answer's fresh engine mints.
                    root = Node(
                        OidGenerator(SURROGATES).fresh(), "list", records
                    )
                    return QdomNode.root(
                        root, obs=self.stats, prefetch=self.block_size,
                        mediator=self, stamp=stamp,
                        view=DeferredView(partial(
                            self._prepare, query_text, view, provenance,
                            query,
                        )),
                    )
            composed, _status, _ = self._prepare(
                query_text, view, provenance, query
            )
            root = self._evaluate(
                composed.exec_plan(), demand=composed.prepared.demand
            )
            return self._handle(root, composed, stamp)

    def _stamp(self):
        """``(data fingerprint, failure epoch)`` now: what an answer
        produced from here on must still find to be answered from."""
        return data_fingerprint(self.catalog), failure_epoch(self.stats)

    @staticmethod
    def _may_hold(qdom_node, query_text, stamp):
        """Whether the held nodes may answer ``query_text`` at
        ``qdom_node``: the answer was produced under ``stamp`` (the
        current one, with a data fingerprint), the text is a string and
        the start node's subtree is complete and clean."""
        held = qdom_node.answer_root().stamp
        node = qdom_node.node
        return (
            held is not None and held[0] is not None
            and isinstance(query_text, str) and node.fully_materialized
            and held == stamp and PrefixPoisonWatch(node).complete()
        )

    def _handle(self, root, view, stamp):
        """The client handle on an answer root (recording demand) that
        was produced under ``stamp`` (:meth:`_stamp`).  Only a lazy,
        optimizing mediator keeps it: the eager oracle and the naive
        pipeline never answer a ``q`` from held nodes."""
        return QdomNode.root(
            root, obs=self.stats, prefetch=self.block_size,
            plan=view.prepared, mediator=self, view=view,
            stamp=stamp if self.lazy and self.optimize else None,
        )

    # -- pipeline stages ----------------------------------------------------------------

    def _plan_key(self, query_text, view=None, provenance=None):
        """``(key, values, literals)`` of a request, or ``None`` when it
        cannot be cached (cache off, a text :func:`lex_query` cannot
        key, or an AST whose text does not carry its literals).

        ``key`` binds everything the compiled plan depends on: the
        query's shape (its token sequence, literals lifted out), which
        of its literals are equal (to each other and to the view's) and
        their types, the prepared view and start-node context of an
        in-place query, the catalog's exported documents and the view
        epoch.  The pipeline switches are fixed at construction and the
        cache is this mediator's, so no switch is in it.
        ``values`` are the literals the plan is bound to — the view's
        first.  ``literals`` are the lexer's, which a miss checks its
        parse against (``None`` for an AST, checked here).  Keying
        parses nothing.
        """
        if self.cache is None:
            return None
        text = query_text
        if not isinstance(text, str):
            try:
                text = render_query(query_text)
            except (AttributeError, TypeError):  # not a query AST
                return None
        hit, entry = self.cache.text_shapes.lookup(text)
        if not hit:
            lexed = lex_query(text)
            if lexed is None:
                return None
            entry = lexed + (request_shape(*lexed),)
            self.cache.text_shapes.store(text, entry)
        shape_text, literals, plain = entry
        if text is not query_text:  # an AST: its text must carry them
            if not same_literals(query_text, literals):
                return None
        if view is not None and view.values:
            shape, values = request_shape(shape_text, literals, view.values)
        else:
            shape, values = plain
        context = None
        if provenance is not None:
            context = (provenance.var, tuple(sorted(
                (var, str(key)) for var, key in provenance.fixed.items()
            )))
        key = (
            shape,
            view.prepared if view is not None else None,
            context,
            catalog_shape(self.catalog),
            self._views_epoch,
        )
        return key, values, literals if text is query_text else None

    def prepare(self, query_text):
        """Compile ``query_text`` to ``(exec_plan, compose_plan, status)``.

        ``compose_plan`` is the rewritten plan before the SQL split
        (in-place queries compose against it: ``rQ`` leaves cannot take
        new conditions).  ``status`` is ``"hit"``/``"miss"`` when the plan cache was
        consulted, ``"off"`` when it was bypassed.  A hit skips
        parse → translate → rewrite → SQL-split entirely: the text's
        literals are bound into the plan compiled for its shape.
        """
        view, status, _ = self._prepare(query_text)
        return view.exec_plan(), view.compose_plan(), status

    def _prepare(self, query_text, view=None, provenance=None,
                 parsed=None):
        """``(BoundPlan, status, navigation-memo key)`` for a query —
        issued from the node of ``view`` with ``provenance`` (``None``
        at its root) when ``view`` is given.  ``parsed`` is the text's
        AST when the caller has parsed it already.

        With the cache on every text goes shape → lookup → (parse and
        compile once) → bind; its literals are compiled inline only
        when its parse holds other literals than its key lifted
        (:func:`~repro.xquery.parser.same_literals`) or the compile of
        its shape reads one
        (:class:`~repro.errors.ParameterValueDemanded`).  With the
        cache off nothing is parametrised.
        """
        request = self._plan_key(query_text, view, provenance)
        query = query_text if parsed is None else parsed
        if request is None:
            prepared, __ = self._compile(query, view, provenance)
            status, memo_key, values = "off", None, ()
        else:
            key, values, literals = request
            hit, prepared = self.cache.lookup_plan(key, values)
            status, memo_key = "hit" if hit else "miss", (key, values)
            if not hit:
                if isinstance(query, str):
                    query = parse_xquery(query)
                prepared = None
                if literals is None or same_literals(
                    query, literals, literal_spans(query_text)
                ):
                    __, slots, __ = key[0]  # the request's shape
                    try:
                        prepared, __ = self._compile(
                            parametrise(query, slots), view, provenance,
                            templated=True,
                        )
                    except ParameterValueDemanded:
                        pass
                if prepared is None:  # compiled for these values only
                    prepared, __ = self._compile(query, view, provenance)
                self.cache.store_plan(key, prepared, values)
        # Verification and rewrite provenance are cached with the plan:
        # a hit reuses the stored stage count and fired-rule names.
        # These two attributes are the latest prepare's, whichever
        # session ran it; EXPLAIN reads its own PreparedPlan instead.
        self.last_verified_stages = prepared.verified_stages
        self.last_rewrite_rules = prepared.rewrite_rules
        if not prepared.templated:
            values = ()  # its literals are in the plan
        return BoundPlan(prepared, values), status, memo_key

    def _compile(self, query, view=None, provenance=None, templated=False,
                 verify=False):
        """translate → expand views → compose → rewrite → SQL split:
        the mediator's one compile path; returns ``(PreparedPlan,
        PipelineReport)``.

        ``templated`` says ``query``'s literals are parameters; the
        view is then composed unbound, so its parameters and the
        query's end up in one plan.  The verifier always checks the
        ``translate`` stage (the plan after translation, view expansion
        and composition); strict mode adds source resolution
        (MIX-E009), one ``rewrite[<rule>]`` stage per rewrite step and
        ``sql-split``.  The first bad stage raises
        :class:`~repro.errors.PlanVerificationError`.
        ``verify=True`` is :meth:`verify_query`'s compile: it checks
        every stage, consumes no view id, and returns the report rather
        than raising it.
        """
        plan = self.translate(query, assign_root=view is None and not verify)
        plan = self._expand_views(plan)
        if view is not None:
            view_plan = (
                view.prepared.compose_plan if templated
                else view.compose_plan()
            )
            if provenance is None:
                plan = compose_at_root(view_plan, plan)
            else:
                plan = decontextualize(view_plan, provenance, plan)
        every_stage = self.strict or verify
        # Outside strict mode an unknown document is left to the engine
        # (UnknownSourceError on the pull that reaches it).
        with self.stats.timer("verify"):
            report = verify_stages(
                query, [("translate", plan, None)],
                self.catalog if every_stage else None,
            )
        if not verify:
            report.raise_if_failed()
        trace = []
        compose_plan = exec_plan = plan
        if self.optimize:
            with self.stats.timer("rewrite"):
                compose_plan = exec_plan = self._rewriter.rewrite(
                    plan, trace=trace
                )
        if self.push_sql:
            with self.stats.timer("push_sql"):
                exec_plan = push_to_sources(
                    compose_plan, self.catalog, cost=self.cost_optimizer
                )
        if every_stage:
            stages = [
                ("rewrite[{}]".format(s.rule_name), s.plan, s.rule_name)
                for s in trace
            ]
            if self.push_sql:
                stages.append(("sql-split", exec_plan, None))
            with self.stats.timer("verify"):
                report.stages += verify_stages(
                    query, stages, self.catalog
                ).stages
            if not verify:
                report.raise_if_failed()
        # Fired rules come from this call's own trace: the rewriter and
        # this mediator are shared between sessions.
        return PreparedPlan(
            exec_plan, compose_plan,
            report.stage_count if every_stage else None,
            tuple(step.rule_name for step in trace), templated,
        ), report

    def translate(self, query_text, assign_root=True):
        """XQuery text (or parsed AST) to an XMAS plan (unverified:
        :meth:`_compile` verifies it after view expansion)."""
        query = (
            parse_xquery(query_text)
            if isinstance(query_text, str)
            else query_text
        )
        root_oid = (
            "view{}".format(next(self._view_ids)) if assign_root else None
        )
        with self.stats.timer("translate"):
            return self._translator.translate(query, root_oid=root_oid)

    def _evaluate(self, exec_plan, stats=None, demand=None):
        """Evaluate a bound executable plan to its answer root Node under
        the mediator's failure policy, counting on ``stats`` (default:
        the mediator's instrument); the root pipeline's first pull is
        ``demand`` wide (``None``: the full block size)."""
        stats = self.stats if stats is None else stats
        if self.lazy:
            engine = LazyEngine(
                self.catalog, stats=stats,
                on_source_error=self.on_source_error,
                block_size=self.block_size, demand=demand,
            )
        else:
            # The eager engine materializes everything up front; block
            # vectors would change nothing it measures.
            engine = EagerEngine(
                self.catalog, stats=stats,
                on_source_error=self.on_source_error,
            )
        return engine.evaluate_tree(exec_plan)

    # -- static analysis --------------------------------------------------------------

    def verify_query(self, query_text):
        """Per-stage static verification of ``query_text``'s pipeline.

        Compiles through :meth:`_compile` — the path every query takes
        — outside the plan cache and without consuming a view id, so
        repeated calls never perturb plan naming, and returns the
        verifier's :class:`~repro.analysis.PipelineReport` over the
        stages that compile recorded: translate, every rewrite step,
        the SQL split.
        """
        return self._compile(query_text, verify=True)[1]

    def lint(self, query_text):
        """Schema-aware lint of ``query_text`` against this mediator's
        catalog and views; returns a list of
        :class:`~repro.analysis.Diagnostic`."""
        from repro.analysis import lint_query

        return lint_query(
            query_text, catalog=self.catalog, views=self.view_names()
        )

    # -- observability ---------------------------------------------------------------

    def explain(self, query_text, mask_times=False):
        """``EXPLAIN ANALYZE`` for ``query_text``: run the full pipeline
        on a dedicated instrument and return the annotated plan text."""
        return explain_analyze(self, query_text, mask_times=mask_times)

    def explain_with_trace(self, query_text, mask_times=False):
        """Like :meth:`explain`, also returning ``(text, trace, plan)``."""
        return explain_analyze_with_trace(
            self, query_text, mask_times=mask_times
        )

    def last_trace(self):
        """The most recent completed trace on this mediator's bus."""
        return self.stats.last_trace()

    def cache_stats(self):
        """Counter snapshots of every cache level, or ``None`` when
        caching is off.

        ``plan_cache`` and ``nav_memo`` are this mediator's; ``sql``
        lists the ``health()["cache"]`` fields of every source with a
        SQL result cache.
        """
        if self.cache is None:
            return None
        snapshot = self.cache.stats()
        healths = [source.health() for source in self.catalog.sources()]
        snapshot["sql"] = [h["cache"] for h in healths if "cache" in h]
        return snapshot

    def __repr__(self):
        return "Mediator(docs={})".format(self.catalog.document_ids())


def _clip_query(query_text, limit=160):
    """Whitespace-normalised query text, clipped for span attributes."""
    return " ".join(str(query_text).split())[:limit]
