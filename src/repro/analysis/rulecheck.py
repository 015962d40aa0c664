"""Static certification of rewrite rules (``check-rules``).

The PR-5 plan verifier checks *plans* after the fact; this pass
certifies the *rules* themselves, before they ever touch a user query.
Every registered rule is driven over a generated corpus of plan shapes
covering all 14 XMAS operators (hand-built minimal firing sites for
each Table-2 rule, plus every intermediate plan of the paper's
Fig. 13-21 worked example), and four analyses report through the shared
diagnostics framework:

``MIX-E012`` — schema contract
    At every (plan, node) site where the rule matches, the rule is
    applied and the root binding-list schema of the result (existing
    :func:`repro.analysis.infer_schema` inference) is compared against
    the rule's declared ``schema_contract`` (modulo the rename it
    returned); the rewritten plan must also stay verification-clean.
    Rules declaring contract ``"none"``, and firings at sites whose
    schema is statically unknown, fall through to the differential
    check below.

``MIX-E013`` — termination / confluence
    The rule alone, every pair it forms with another registered rule,
    and the full set are each run to a fixpoint over the corpus; the
    engine's alpha-invariant plan-fingerprint cycle detector
    (:func:`repro.algebra.plan.plan_fingerprint`) converts an infinite
    loop into a diagnostic naming the cycling rules.

``MIX-W007`` / ``MIX-W008`` — liveness / shadowing
    A rule that matches nowhere on the corpus is dead; a rule whose
    every match site is also matched by an earlier (higher-priority)
    rule can never fire first and is shadowed.

**Differential answer preservation** — any rule not provably
schema-safe is run on miniature customers/orders workloads
(:mod:`repro.workloads.customers`): the same queries are compiled with
and without the rule and the serialized answers must be identical; a
divergence is reported as ``MIX-E012``.

Surfaces: ``python -m repro check-rules`` (``--json``,
``--rules=module:attr``), and ``Mediator(extension_rules=...,
strict=True)``, which refuses extension rules that fail certification
(:class:`repro.errors.RuleCertificationError`).

The corpus is always generated with the library's own
:data:`~repro.rewriter.rules.DEFAULT_RULES` (the canon), never with the
rule set under test, so a broken candidate rule cannot corrupt the
yardstick it is measured against.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.algebra import operators as ops
from repro.algebra.conditions import Condition
from repro.algebra.plan import rename_vars, replace_operator
from repro.analysis.diagnostics import Diagnostic, sort_diagnostics
from repro.analysis.verifier import infer_schema, verify_plan
from repro.errors import MixError, RewriteError
from repro.rewriter.engine import Rewriter
from repro.rewriter.context import RewriteContext
from repro.rewriter.rule import (
    declared_contract,
    is_set_semantics,
    probed_at,
    rule_name,
    validate_rule,
)
from repro.rewriter.rules import DEFAULT_RULES
from repro.rewriter.sql_split import push_to_sources
from repro.xmltree.paths import Path

#: Step bound for the certification fixpoint runs — far above anything a
#: sane rule set needs on the ≤ 25-node corpus plans, so hitting it
#: means divergence, not a tight budget.
MAX_TERMINATION_STEPS = 300

#: Max diagnostics kept per (rule, code) pair; beyond it only the count
#: grows (one broken rule should not drown the report).
MAX_DIAGNOSTICS_PER_CODE = 3

#: Fig. 3 view (Q1) phrased against the wrapper documents, and Fig. 12
#: composed against it — the worked example whose rewrite trace seeds
#: the corpus, and (with the threshold below) the differential queries.
VIEW_QUERY = """
FOR $C IN source(root1)/customer
    $O IN document(root2)/order
WHERE $C/id/data() = $O/cid/data()
RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}
"""

COMPOSE_QUERY = """
FOR $R IN document(rootv)/CustRec
    $S IN $R/OrderInfo
WHERE $S/order/value/data() > 150
RETURN $R
"""

#: Stand-alone differential queries (run next to the composed pair).
DIFFERENTIAL_QUERIES = (
    """
    FOR $O IN document(root2)/order
    WHERE $O/value/data() > 150
    RETURN <Big> $O </Big>
    """,
    """
    FOR $C IN document(root1)/customer
        $O IN document(root2)/order
    WHERE $C/id/data() = $O/cid/data()
    RETURN <Rec> $C <Ord> $O </Ord> {$O} </Rec> {$C}
    """,
)


class CorpusPlan:
    """One named certification plan."""

    __slots__ = ("name", "plan")

    def __init__(self, name, plan):
        self.name = name
        self.plan = plan


def _label_path(*labels):
    return Path.of(*labels)


def _crelt_fixture():
    """``crElt`` building CustRec elements from a wrapped list — the
    target shape of Table-2 rows 1-4."""
    inner = ops.GetD(
        "$K", _label_path("customer"), "$W",
        ops.MkSrc("root1", "$K"),
    )
    return ops.CrElt("CustRec", "f", ("$W",), "$W", False, "$V", inner)


def _join_fixture():
    left = ops.GetD("$K", _label_path("a"), "$A", ops.MkSrc("root1", "$K"))
    right = ops.GetD("$L", _label_path("b"), "$B", ops.MkSrc("root2", "$L"))
    return ops.Join((Condition.var_var("$A", "=", "$B"),), left, right)


def _hand_shapes():
    """Minimal verification-clean firing sites, one per Table-2 rule
    family that the worked example does not already exercise."""
    shapes = []

    # empty-propagation: a getD over a provably empty input.
    shapes.append(CorpusPlan(
        "hand: getD over Empty",
        ops.GetD("$X", _label_path("a"), "$Y", ops.Empty(("$X",))),
    ))

    # rule 11: mksrc of a composed view over the view body's tD.
    body = ops.GetD(
        "$K", _label_path("customer"), "$1", ops.MkSrc("root1", "$K")
    )
    shapes.append(CorpusPlan(
        "hand: mksrc over tD (rule 11)",
        ops.MkSrc("rootv", "$X", ops.TD("$1", body, root_oid="rootv")),
    ))

    # rules 1-4: getD paths against the crElt fixture.
    shapes.append(CorpusPlan(
        "hand: getD through crElt (row 1)",
        ops.GetD("$V", _label_path("CustRec", "name"), "$S",
                 _crelt_fixture()),
    ))
    shapes.append(CorpusPlan(
        "hand: getD identifies crElt (row 2)",
        ops.GetD("$V", _label_path("CustRec"), "$R", _crelt_fixture()),
    ))
    shapes.append(CorpusPlan(
        "hand: getD misses crElt label (row 4)",
        ops.GetD("$V", _label_path("Mismatch", "name"), "$S",
                 _crelt_fixture()),
    ))

    # rules 5-8: getD over cat with statically resolvable operands.
    cat_input = ops.GetD(
        "$K", _label_path("b"), "$B",
        ops.GetD("$K", _label_path("a"), "$A", ops.MkSrc("root1", "$K")),
    )
    cat = ops.Cat("$A", True, "$B", True, "$Z", cat_input)
    shapes.append(CorpusPlan(
        "hand: getD through cat (rows 5-8)",
        ops.GetD("$Z", _label_path("list", "a", "val"), "$G", cat),
    ))

    # select-pushdown over a join + join→semijoin (dead right side).
    shapes.append(CorpusPlan(
        "hand: select over join, dead side",
        ops.Project(
            ("$A",),
            ops.Select(Condition.var_const("$A", ">", 5), _join_fixture()),
        ),
    ))

    # dead-operator-elimination: crElt whose output feeds nothing.
    dead_input = ops.GetD(
        "$K", _label_path("a"), "$A", ops.MkSrc("root1", "$K")
    )
    shapes.append(CorpusPlan(
        "hand: dead crElt",
        ops.Project(
            ("$A",),
            ops.CrElt("E", "f", ("$A",), "$A", True, "$E", dead_input),
        ),
    ))

    # A select no default rule can move (the getD below defines the
    # condition variable) — a stable site for rules that match bare
    # selects without being shadowed by select-pushdown.
    shapes.append(CorpusPlan(
        "hand: select pinned above getD",
        ops.Select(
            Condition.var_const("$A", ">", 1),
            ops.GetD("$K", _label_path("a"), "$A",
                     ops.MkSrc("root1", "$K")),
        ),
    ))

    # A project directly over an orderBy — again a shape no default
    # rule touches (the certifier's pair-cycle tests pivot on it).
    shapes.append(CorpusPlan(
        "hand: project over orderBy",
        ops.Project(
            ("$A",),
            ops.OrderBy(
                ("$A",),
                ops.GetD("$K", _label_path("a"), "$A",
                         ops.MkSrc("root1", "$K")),
            ),
        ),
    ))

    # Full-operator coverage: rQ / semijoin / select / gBy / apply /
    # nestedSrc / project / orderBy in one clean plan.
    rq_c = ops.RelQuery(
        "s1", "SELECT id, name FROM customer ORDER BY id",
        (ops.RQVar("$C", "customer", ((0, "id"), (1, "name")), (0,)),),
        order_vars=("$C",),
    )
    rq_o = ops.RelQuery(
        "s1", "SELECT orid, cid FROM orders",
        (ops.RQVar("$O", "order", ((0, "orid"), (1, "cid")), (0,)),),
    )
    semi = ops.SemiJoin(
        (Condition.var_var("$C", "=", "$O"),), rq_c, rq_o, keep="left"
    )
    sel = ops.Select(Condition.var_const("$C", "!=", "zzz"), semi)
    gby = ops.GroupBy(("$C",), "$P", sel)
    nested = ops.TD("$C", ops.NestedSrc("$P"))
    applied = ops.Apply(nested, "$P", "$R2", gby)
    shapes.append(CorpusPlan(
        "hand: full operator coverage",
        ops.OrderBy(("$C",), ops.Project(("$C", "$R2"), applied)),
    ))
    return shapes


def _worked_example_plans():
    """The naive Fig.-13 composition plan and every intermediate plan of
    its DEFAULT_RULES rewrite (the Fig. 13-21 walk)."""
    from repro.algebra.translator import Translator
    from repro.composer.compose import compose_at_root
    from repro.xquery.parser import parse_xquery

    view = Translator().translate(
        parse_xquery(VIEW_QUERY), root_oid="rootv"
    )
    query = Translator().translate(parse_xquery(COMPOSE_QUERY))
    naive = compose_at_root(view, query, "rootv")
    trace: List[Any] = []
    Rewriter(rules=DEFAULT_RULES).rewrite(naive, trace=trace)
    plans = [CorpusPlan("worked example: naive composition", naive)]
    for i, step in enumerate(trace, 1):
        plans.append(CorpusPlan(
            "worked example: after step {} ({})".format(i, step.rule_name),
            step.plan,
        ))
    return plans


_CORPUS: Optional[List[CorpusPlan]] = None


def generate_corpus():
    """The certification corpus (cached; treat the plans as read-only)."""
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = _hand_shapes() + _worked_example_plans()
    return list(_CORPUS)


class RuleReport:
    """Certification verdict for one rule."""

    __slots__ = (
        "name", "contract", "set_semantics", "sites", "unknown_sites",
        "differential_fired", "diagnostics",
    )

    def __init__(self, name, contract, set_semantics):
        self.name = name
        self.contract = contract
        self.set_semantics = set_semantics
        #: (plan index, node index) sites where the rule matches.
        self.sites = 0
        #: matching sites whose root schema is statically unknown.
        self.unknown_sites = 0
        #: whether the differential check saw the rule fire (``None``
        #: when the differential pass did not run for this rule).
        self.differential_fired: Optional[bool] = None
        self.diagnostics: List[Diagnostic] = []

    @property
    def certified(self):
        return not any(d.is_error for d in self.diagnostics)

    @property
    def warnings(self):
        return [d for d in self.diagnostics if not d.is_error]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "contract": self.contract,
            "set_semantics": self.set_semantics,
            "sites": self.sites,
            "unknown_sites": self.unknown_sites,
            "differential_fired": self.differential_fired,
            "certified": self.certified,
            "diagnostics": [
                d.to_dict() for d in sort_diagnostics(self.diagnostics)
            ],
        }


class RuleCheckReport:
    """The full certification report over one rule set."""

    def __init__(self, rules, corpus_size):
        self.rules: List[RuleReport] = list(rules)
        self.corpus_size = corpus_size

    @property
    def diagnostics(self):
        out = []
        for r in self.rules:
            out.extend(r.diagnostics)
        return sort_diagnostics(out)

    @property
    def ok(self):
        return all(r.certified for r in self.rules)

    @property
    def error_count(self):
        return sum(1 for d in self.diagnostics if d.is_error)

    @property
    def warning_count(self):
        return sum(1 for d in self.diagnostics if not d.is_error)

    def rule(self, name):
        """The :class:`RuleReport` for ``name`` (raises ``KeyError``)."""
        for r in self.rules:
            if r.name == name:
                return r
        raise KeyError(name)

    def render_text(self):
        lines = [
            "rule-certification: {} rules over {} corpus plans".format(
                len(self.rules), self.corpus_size
            )
        ]
        for r in self.rules:
            verdict = "ok  " if r.certified else "FAIL"
            lines.append(
                "  [{}] {:<34} contract={:<8} sites={}".format(
                    verdict, r.name, r.contract, r.sites
                )
            )
            for d in sort_diagnostics(r.diagnostics):
                lines.append("         " + d.render())
        lines.append(
            "summary: {} certified, {} failed, {} errors, "
            "{} warnings".format(
                sum(1 for r in self.rules if r.certified),
                sum(1 for r in self.rules if not r.certified),
                self.error_count,
                self.warning_count,
            )
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "corpus_plans": self.corpus_size,
            "rules": [r.to_dict() for r in self.rules],
            "errors": self.error_count,
            "warnings": self.warning_count,
            "ok": self.ok,
        }

    def render_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def certify_rules(rules=None, extension_rules=(), differential=True,
                  focus=None, corpus=None):
    """Certify a rule set; returns a :class:`RuleCheckReport`.

    Args:
        rules: the base priority-ordered rule set (default: the full
            Table-2 :data:`DEFAULT_RULES`).
        extension_rules: extra rules appended after the base set (the
            ``Mediator(extension_rules=...)`` position).
        differential: run the answer-preservation workload check for
            rules that are not provably schema-safe (contract
            ``"none"``, or firings at statically-unknown-schema sites).
        focus: iterable of rule *names* to certify (others still
            participate as shadowing candidates and termination
            partners); default: every rule.
        corpus: override the generated corpus (tests).

    Raises:
        RewriteError: a rule fails the registration contract itself
            (no name, unknown contract, duplicate name).
    """
    base = tuple(DEFAULT_RULES if rules is None else rules)
    all_rules = base + tuple(extension_rules)
    for r in all_rules:
        validate_rule(r)
    names = [rule_name(r) for r in all_rules]
    for i, n in enumerate(names):
        if n in names[:i]:
            raise RewriteError(
                "duplicate rule name {!r}: already registered".format(n)
            )
    focus_names = set(names if focus is None else focus)
    plans = generate_corpus() if corpus is None else list(corpus)

    reports = {
        n: RuleReport(n, declared_contract(r), is_set_semantics(r))
        for n, r in zip(names, all_rules)
    }
    counts: Dict[tuple, int] = {}

    def emit(name, code, message, stage):
        report = reports[name]
        key = (name, code, stage)
        counts[key] = counts.get(key, 0) + 1
        if counts[key] <= MAX_DIAGNOSTICS_PER_CODE:
            report.diagnostics.append(
                Diagnostic(code, message, stage=stage, source=name)
            )
        elif counts[key] == MAX_DIAGNOSTICS_PER_CODE + 1:
            report.diagnostics.append(Diagnostic(
                code,
                "further {} findings for rule {!r} suppressed".format(
                    code, name
                ),
                stage=stage, source=name,
            ))

    # -- phase 1: match sweep + per-site schema-contract check ---------
    sites: Dict[str, set] = {n: set() for n in names}
    for pi, entry in enumerate(plans):
        ctx = RewriteContext(entry.plan)
        for ni, node in enumerate(ctx.nodes):
            for name, rule in zip(names, all_rules):
                if not probed_at(rule, type(node)):
                    continue  # the engine never asks it here either
                focused = name in focus_names
                try:
                    result = rule.apply(node, ctx)
                except Exception as exc:  # noqa: BLE001 - third-party rules
                    if focused:
                        emit(
                            name, "MIX-E012",
                            "rule raised {}: {} at {!r} node {}".format(
                                type(exc).__name__, exc, entry.name, ni
                            ),
                            "schema",
                        )
                    continue
                if result is None:
                    continue
                sites[name].add((pi, ni))
                if focused:
                    _check_site(
                        reports[name], emit, entry, node, result
                    )

    for name in names:
        reports[name].sites = len(sites[name])

    # -- phase 2: liveness (W007) and shadowing (W008) -----------------
    for j, name in enumerate(names):
        if name not in focus_names:
            continue
        if not sites[name]:
            emit(
                name, "MIX-W007",
                "rule {!r} never fires on the {}-plan certification"
                " corpus".format(name, len(plans)),
                "liveness",
            )
            continue
        for i in range(j):
            if sites[name] <= sites[names[i]]:
                emit(
                    name, "MIX-W008",
                    "rule {!r} is shadowed by earlier rule {!r} at all"
                    " {} of its match sites".format(
                        name, names[i], len(sites[name])
                    ),
                    "shadow",
                )
                break

    # -- phase 3: termination (alone, in pairs, full set) --------------
    def run_termination(subset, label):
        subset_names = [rule_name(r) for r in subset]
        # Only plans where some subset rule matches at all can loop.
        relevant = [
            p for i, p in enumerate(plans)
            if any(site[0] == i for n in subset_names for site in sites[n])
        ]
        engine = Rewriter(rules=subset, max_steps=MAX_TERMINATION_STEPS)
        for p in relevant:
            try:
                engine.rewrite(p.plan)
                continue
            except RewriteError as exc:
                failure = exc
            except Exception:  # noqa: BLE001 - third-party rules
                # A rule that raises mid-fixpoint was already reported
                # as MIX-E012 by the phase-1 sweep; don't let it abort
                # the termination pass for the rest of the set.
                continue
            involved = []
            for step in failure.steps:
                if step.rule_name not in involved:
                    involved.append(step.rule_name)
            targets = [
                n for n in involved
                if n in focus_names and n in subset_names
            ] or [n for n in subset_names if n in focus_names]
            for n in targets:
                emit(
                    n, "MIX-E013",
                    "{} under rule set [{}] on {!r}: {}".format(
                        failure.kind or "non-termination",
                        ", ".join(subset_names), p.name, failure
                    ),
                    label,
                )
            return False
        return True

    for name, rule in zip(names, all_rules):
        if name in focus_names:
            run_termination((rule,), "termination")
    pair_seen = set()
    for j, (name, rule) in enumerate(zip(names, all_rules)):
        if name not in focus_names:
            continue
        for i, other in enumerate(all_rules):
            if i == j:
                continue
            key = frozenset((i, j))
            if key in pair_seen:
                continue
            pair_seen.add(key)
            pair = (all_rules[min(i, j)], all_rules[max(i, j)])
            run_termination(pair, "termination")
    run_termination(all_rules, "termination")

    # -- phase 4: differential answer preservation ---------------------
    if differential:
        for name, rule in zip(names, all_rules):
            if name not in focus_names:
                continue
            report = reports[name]
            if not report.certified:
                continue  # already broken; don't pile on
            if (declared_contract(rule) != "none"
                    and report.unknown_sites == 0):
                continue
            _differential_check(name, rule, base, all_rules, emit, reports)

    return RuleCheckReport(
        [reports[n] for n in names], len(plans)
    )


def _check_site(report, emit, entry, node, result):
    """Apply one match result and check the declared schema contract."""
    name = report.name
    try:
        new_plan = replace_operator(entry.plan, node, result.replacement)
        if result.rename:
            new_plan = rename_vars(new_plan, result.rename)
    except Exception as exc:  # noqa: BLE001 - third-party rules
        emit(
            name, "MIX-E012",
            "replacement failed ({}: {}) at {!r}".format(
                type(exc).__name__, exc, entry.name
            ),
            "schema",
        )
        return
    before = infer_schema(entry.plan)
    after = infer_schema(new_plan)
    if before is None or after is None:
        report.unknown_sites += 1
        return
    expected = frozenset(result.rename.get(v, v) for v in before)
    contract = report.contract
    ok = True
    if contract == "preserve":
        ok = after == expected
    elif contract == "widen":
        ok = after >= expected
    elif contract == "narrow":
        ok = after <= expected
    else:  # "none": no static promise — differential covers it.
        report.unknown_sites += 1
        return
    if not ok:
        emit(
            name, "MIX-E012",
            "declared contract {!r} broken at {!r}: schema {} -> {}"
            " (expected {} {})".format(
                contract, entry.name, sorted(expected), sorted(after),
                {"preserve": "==", "widen": ">=", "narrow": "<="}[
                    contract
                ],
                sorted(expected),
            ),
            "schema",
        )
        return
    new_errors = sum(1 for d in verify_plan(new_plan) if d.is_error)
    base_errors = sum(1 for d in verify_plan(entry.plan) if d.is_error)
    if new_errors > base_errors:
        first = next(d for d in verify_plan(new_plan) if d.is_error)
        emit(
            name, "MIX-E012",
            "rewritten plan fails verification at {!r}: {} {}".format(
                entry.name, first.code, first.message
            ),
            "schema",
        )


_DIFFERENTIAL_CATALOG = None
_DIFFERENTIAL_PLANS = None


def _differential_setup():
    """The miniature workload catalog + query plans (built once)."""
    global _DIFFERENTIAL_CATALOG, _DIFFERENTIAL_PLANS
    if _DIFFERENTIAL_CATALOG is None:
        from repro.algebra.translator import Translator
        from repro.composer.compose import compose_at_root
        from repro.sources import SourceCatalog
        from repro.workloads.customers import build_customers_orders
        from repro.xquery.parser import parse_xquery

        built = build_customers_orders(
            n_customers=4, orders_per_customer=2,
            value_mode="ladder", value_step=100,
        )
        catalog = SourceCatalog()
        catalog.register(built.wrapper)
        plans = []
        for text in DIFFERENTIAL_QUERIES:
            plans.append(
                Translator().translate(parse_xquery(text))
            )
        view = Translator().translate(
            parse_xquery(VIEW_QUERY), root_oid="rootv"
        )
        query = Translator().translate(parse_xquery(COMPOSE_QUERY))
        plans.append(compose_at_root(view, query, "rootv"))
        _DIFFERENTIAL_CATALOG = catalog
        _DIFFERENTIAL_PLANS = plans
    return _DIFFERENTIAL_CATALOG, _DIFFERENTIAL_PLANS


def _differential_answers(ruleset, catalog, plans):
    """Serialized answers of the workload queries under ``ruleset``.

    Returns ``(answers, fired_rule_names)``.
    """
    from repro.engine.eager import EagerEngine
    from repro.xmltree.serializer import serialize

    answers = []
    fired = set()
    engine = Rewriter(rules=ruleset, max_steps=MAX_TERMINATION_STEPS)
    for plan in plans:
        rewritten = engine.rewrite(plan)
        fired.update(engine.last_rule_names)
        exec_plan = push_to_sources(rewritten, catalog)
        root = EagerEngine(catalog).evaluate_tree(exec_plan)
        answers.append(serialize(root))
    return answers, fired


def _differential_check(name, rule, base, all_rules, emit, reports):
    """Compile+run the workloads with and without ``rule``; answers must
    be byte-identical."""
    catalog, plans = _differential_setup()
    with_rule = tuple(
        r for r in all_rules
        if rule_name(r) == name or rule_name(r) in {
            rule_name(b) for b in base
        }
    )
    without_rule = tuple(r for r in with_rule if rule_name(r) != name)
    try:
        baseline, __ = _differential_answers(without_rule, catalog, plans)
        candidate, fired = _differential_answers(
            with_rule, catalog, plans
        )
    except RewriteError:
        # Non-termination is phase 3's finding; nothing to add here.
        return
    except MixError as exc:
        emit(
            name, "MIX-E012",
            "rule {!r} broke the differential workload pipeline:"
            " {}".format(name, exc),
            "differential",
        )
        return
    reports[name].differential_fired = name in fired
    for i, (a, b) in enumerate(zip(baseline, candidate)):
        if a != b:
            emit(
                name, "MIX-E012",
                "answers diverge on differential workload query {}"
                " when rule {!r} is enabled".format(i, name),
                "differential",
            )
            return
