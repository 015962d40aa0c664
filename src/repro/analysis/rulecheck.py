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
    applied and the root binding-list schema of the result
    (:func:`repro.algebra.plan.defined_vars`) is compared against
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

**Differential answer preservation** — any extension rule not provably
schema-safe is run on a miniature customers/orders workload
(:mod:`repro.workloads.customers`): two eager oracle mediators, one
with the rule registered and one without, answer the same queries
through the mediator's own compile path, and the serialized answers
must be identical; a divergence is reported as ``MIX-E012``.  Phase 1
applies each match with the rewriter's own step
(:func:`repro.rewriter.engine.apply_result`).

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
from collections import namedtuple
from typing import Any, Dict, List, Optional

from repro.algebra import operators as ops
from repro.algebra.conditions import Condition
from repro.algebra.plan import defined_vars
from repro.analysis.diagnostics import Diagnostic, sort_diagnostics
from repro.analysis.verifier import verify_plan
from repro.errors import MixError, RewriteError
from repro.rewriter.engine import Rewriter, apply_result
from repro.rewriter.context import RewriteContext
from repro.rewriter.rule import (
    declared_contract,
    probed_at,
    rule_name,
    validate_rule,
)
from repro.rewriter.rules import DEFAULT_RULES
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
#: the corpus, and (the view defined as ``rootv``) the last differential
#: query.
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

#: Stand-alone differential queries (run before the composed one).
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


#: One named certification plan.
CorpusPlan = namedtuple("CorpusPlan", "name plan")


def _crelt_fixture():
    """``crElt`` building CustRec elements from a wrapped list — the
    target shape of Table-2 rows 1-4."""
    inner = ops.GetD(
        "$K", Path.of("customer"), "$W",
        ops.MkSrc("root1", "$K"),
    )
    return ops.CrElt("CustRec", "f", ("$W",), "$W", False, "$V", inner)


def _join_fixture():
    left = ops.GetD("$K", Path.of("a"), "$A", ops.MkSrc("root1", "$K"))
    right = ops.GetD("$L", Path.of("b"), "$B", ops.MkSrc("root2", "$L"))
    return ops.Join((Condition.var_var("$A", "=", "$B"),), left, right)


def _hand_shapes():
    """Minimal verification-clean firing sites, one per Table-2 rule
    family that the worked example does not already exercise."""
    shapes = []

    # empty-propagation: a getD over a provably empty input.
    shapes.append(CorpusPlan(
        "hand: getD over Empty",
        ops.GetD("$X", Path.of("a"), "$Y", ops.Empty(("$X",))),
    ))

    # rule 11: mksrc of a composed view over the view body's tD.
    body = ops.GetD(
        "$K", Path.of("customer"), "$1", ops.MkSrc("root1", "$K")
    )
    shapes.append(CorpusPlan(
        "hand: mksrc over tD (rule 11)",
        ops.MkSrc("rootv", "$X", ops.TD("$1", body, root_oid="rootv")),
    ))

    # rules 1-4: getD paths against the crElt fixture.
    shapes.append(CorpusPlan(
        "hand: getD through crElt (row 1)",
        ops.GetD("$V", Path.of("CustRec", "name"), "$S",
                 _crelt_fixture()),
    ))
    shapes.append(CorpusPlan(
        "hand: getD identifies crElt (row 2)",
        ops.GetD("$V", Path.of("CustRec"), "$R", _crelt_fixture()),
    ))
    shapes.append(CorpusPlan(
        "hand: getD misses crElt label (row 4)",
        ops.GetD("$V", Path.of("Mismatch", "name"), "$S",
                 _crelt_fixture()),
    ))

    # rules 5-8: getD over cat with statically resolvable operands.
    cat_input = ops.GetD(
        "$K", Path.of("b"), "$B",
        ops.GetD("$K", Path.of("a"), "$A", ops.MkSrc("root1", "$K")),
    )
    cat = ops.Cat("$A", True, "$B", True, "$Z", cat_input)
    shapes.append(CorpusPlan(
        "hand: getD through cat (rows 5-8)",
        ops.GetD("$Z", Path.of("list", "a", "val"), "$G", cat),
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
        "$K", Path.of("a"), "$A", ops.MkSrc("root1", "$K")
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
            ops.GetD("$K", Path.of("a"), "$A",
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
                ops.GetD("$K", Path.of("a"), "$A",
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
        "name", "contract", "sites", "unknown_sites",
        "differential_fired", "diagnostics",
    )

    def __init__(self, name, contract):
        self.name = name
        self.contract = contract
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

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "contract": self.contract,
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


def certify_rules(extension_rules=(), focus=None):
    """Certify :data:`DEFAULT_RULES` plus ``extension_rules``; returns a
    :class:`RuleCheckReport`.

    Args:
        extension_rules: extra rules appended after the Table-2 set (the
            ``Mediator(extension_rules=...)`` position).
        focus: iterable of rule *names* to certify (others still
            participate as shadowing candidates and termination
            partners); default: every rule.

    Raises:
        RewriteError: a rule fails the registration contract itself
            (no name, unknown contract, duplicate name).
    """
    extension_rules = tuple(extension_rules)
    all_rules = tuple(DEFAULT_RULES) + extension_rules
    for r in all_rules:
        validate_rule(r)
    names = [rule_name(r) for r in all_rules]
    for i, n in enumerate(names):
        if n in names[:i]:
            raise RewriteError(
                "duplicate rule name {!r}: already registered".format(n)
            )
    focus_names = set(names if focus is None else focus)
    plans = generate_corpus()

    reports = {
        n: RuleReport(n, declared_contract(r))
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
    # Every DEFAULT rule has a static contract and no unknown site
    # (tests/analysis/test_rulecheck.py), so only extension rules can
    # need the workloads.
    baseline = None
    for rule in extension_rules:
        name = rule_name(rule)
        report = reports[name]
        if name not in focus_names or not report.certified:
            continue  # unfocused, or already broken: don't pile on
        if report.contract != "none" and report.unknown_sites == 0:
            continue
        try:
            if baseline is None:
                baseline, __ = _oracle_answers(())
            candidate, fired = _oracle_answers((rule,))
        except RewriteError:
            continue  # non-termination is phase 3's finding
        except MixError as exc:
            emit(
                name, "MIX-E012",
                "rule {!r} broke the differential workload pipeline:"
                " {}".format(name, exc),
                "differential",
            )
            continue
        report.differential_fired = name in fired
        diverged = [
            i for i, (a, b) in enumerate(zip(baseline, candidate)) if a != b
        ]
        if diverged:
            emit(
                name, "MIX-E012",
                "answers diverge on differential workload query {}"
                " when rule {!r} is enabled".format(diverged[0], name),
                "differential",
            )

    return RuleCheckReport([reports[n] for n in names], len(plans))


def _check_site(report, emit, entry, node, result):
    """Apply one match result and check the declared schema contract."""
    name = report.name
    try:
        new_plan = apply_result(entry.plan, node, result)
    except Exception as exc:  # noqa: BLE001 - third-party rules
        emit(
            name, "MIX-E012",
            "replacement failed ({}: {}) at {!r}".format(
                type(exc).__name__, exc, entry.name
            ),
            "schema",
        )
        return
    before = defined_vars(entry.plan)
    after = defined_vars(new_plan)
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
    new_errors = [d for d in verify_plan(new_plan) if d.is_error]
    base_errors = [d for d in verify_plan(entry.plan) if d.is_error]
    if len(new_errors) > len(base_errors):
        emit(
            name, "MIX-E012",
            "rewritten plan fails verification at {!r}: {} {}".format(
                entry.name, new_errors[0].code, new_errors[0].message
            ),
            "schema",
        )


def _oracle_answers(extension_rules):
    """``(answers, fired rule names)`` of the differential queries on an
    eager, uncached, one-tuple-block mediator over the miniature
    customers/orders workload, with ``extension_rules`` after the
    Table-2 set and :data:`VIEW_QUERY` defined as ``rootv``."""
    from repro.qdom.mediator import Mediator
    from repro.workloads.customers import build_customers_orders
    from repro.xmltree.serializer import serialize

    built = build_customers_orders(
        n_customers=4, orders_per_customer=2,
        value_mode="ladder", value_step=100,
    )
    mediator = Mediator(
        lazy=False, cache=False, block_size=1,
        extension_rules=extension_rules,
    ).add_source(built.wrapper)
    mediator.define_view("rootv", VIEW_QUERY)
    answers, fired = [], set()
    for text in DIFFERENTIAL_QUERIES + (COMPOSE_QUERY,):
        answers.append(serialize(mediator.query(text).to_tree()))
        fired.update(mediator.last_rewrite_rules)
    return answers, fired
