"""The cheap-compile driver is the PR-9 driver, only cheaper.

Typed dispatch, once-per-plan context facts and the structural
fingerprint must not change *which rule fires where*.  The safety net:

* ``firing_sequences.json`` holds the ``(rule name, pre-order index)``
  sequences the parent driver (every rule probed at every node, facts
  recomputed per probe) produced for the Fig. 13-21 worked example, the
  compiles of one ``mixbench`` ``adhoc_compile`` session and of the
  ``bbq_served`` refinement, and the 31-plan ``rulecheck`` corpus, with
  ``resume_scan`` on and off; the driver must reproduce them exactly;
* the fingerprint must induce the equality classes of the rendered,
  regex-renamed text it replaced (kept below as the oracle);
* the context's facts must equal those of the implementation it
  replaced (kept below as the reference) at every node of every plan
  version those rewrites go through.
"""

import json
import os
import re

import pytest

from repro import Mediator
from repro.algebra import operators as ops
from repro.algebra.conditions import Condition
from repro.algebra.plan import (
    all_vars,
    iter_operators,
    plan_fingerprint,
    rename_vars,
)
from repro.algebra.printer import render_plan
from repro.algebra.translator import translate_query
from repro.analysis.rulecheck import generate_corpus
from repro.composer import compose_at_root
from repro.rewriter import Rewriter
from repro.rewriter.context import RewriteContext
from repro.workloads import build_customers_orders
from repro.xmltree.paths import Path, Step
from tests.conftest import Q1, Q12

with open(
    os.path.join(os.path.dirname(__file__), "firing_sequences.json")
) as handle:
    PARENT_SEQUENCES = json.load(handle)

#: ``bbq_served``'s refine compile made this many probes at the parent.
PARENT_REFINE_PROBES = 1491

JOIN_VIEW = (
    "FOR $C IN document(root1)/customer $O IN document(root2)/order "
    "WHERE $C/id/data() = $O/cid/data() "
    "RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}"
)


def _served_plans():
    """What reaches the rewriter in one ``adhoc_compile`` session and in
    ``bbq_served``'s view + refine, on mixbench's deployment."""
    built = build_customers_orders(n_customers=8, orders_per_customer=2)
    mediator = Mediator(
        stats=built.stats, cache=True, cache_size=128,
        cost_optimizer=True, block_size=64,
    ).add_source(built.wrapper)
    captured = []
    rewrite = mediator._rewriter.rewrite

    def recording(plan, trace=None):
        captured.append(plan)
        return rewrite(plan, trace=trace)

    mediator._rewriter.rewrite = recording
    base = 4000123
    root = mediator.query(
        "FOR $C IN document(root1)/customer "
        "$O IN document(root2)/order "
        "WHERE $C/id/data() = $O/cid/data() "
        "AND $O/orid/data() < {} "
        "RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {{$O}} "
        "</CustRec> {{$C}}".format(base)
    )
    record = root.d()
    root.q(
        "FOR $R IN document(root)/CustRec $S IN $R/OrderInfo "
        "WHERE $S/order/value/data() > 100 "
        "AND $S/order/orid/data() < {} RETURN $R".format(base + 1)
    )
    mediator.query(
        "FOR $O IN document(root2)/order "
        "WHERE $O/value/data() > 100 AND $O/orid/data() < {} "
        "RETURN <Big> $O </Big>".format(base + 2)
    )
    record.q(
        "FOR $O IN document(root)/OrderInfo "
        "WHERE $O/order/orid/data() < {} RETURN $O".format(base + 3)
    )
    mediator.query(JOIN_VIEW).q(
        "FOR $R IN document(root)/CustRec $S IN $R/OrderInfo "
        "WHERE $S/order/value/data() > 217 RETURN $R"
    )
    names = (
        "adhoc: filtered join query", "adhoc: root q",
        "adhoc: filter query", "adhoc: node q",
        "bbq: join view query", "bbq: refine q",
    )
    assert len(captured) == len(names)
    return list(zip(names, captured))


@pytest.fixture(scope="module")
def corpus():
    view = translate_query(Q1, root_oid="rootv")
    plans = [
        ("worked example", compose_at_root(view, translate_query(Q12)))
    ]
    plans += _served_plans()
    plans += [
        ("rulecheck: " + entry.name, entry.plan)
        for entry in generate_corpus()
    ]
    assert sorted(name for name, _ in plans) == sorted(PARENT_SEQUENCES)
    return plans


@pytest.fixture(scope="module")
def versions(corpus):
    """Every plan version the corpus' rewrites go through: the inputs
    and the plan after each step, under both scan modes."""
    plans = []
    for _, plan in corpus:
        plans.append(plan)
        for resume in (True, False):
            trace = []
            Rewriter(resume_scan=resume).rewrite(plan, trace=trace)
            plans += [step.plan for step in trace]
    return plans


# -- (i) firing order ---------------------------------------------------------------


@pytest.mark.parametrize("mode", ["resume", "restart"])
def test_fires_the_parents_rules_at_the_parents_positions(corpus, mode):
    rewriter = Rewriter(resume_scan=(mode == "resume"))
    for name, plan in corpus:
        trace = []
        rewriter.rewrite(plan, trace=trace)
        fired = [[step.rule_name, step.index] for step in trace]
        assert fired == PARENT_SEQUENCES[name][mode], name


# -- (ii) fingerprint classes ----------------------------------------------------------

_VAR_TOKEN = re.compile(r"\$[A-Za-z0-9_]+")


def canonical_plan_text(plan):
    """The parent's fingerprint input: the rendered plan with variables
    alpha-renamed by first occurrence."""
    mapping = {}

    def canon(match):
        return mapping.setdefault(
            match.group(0), "$g{}".format(len(mapping))
        )

    return _VAR_TOKEN.sub(canon, render_plan(plan))


def test_fingerprint_classes_are_those_of_the_rendered_text(versions):
    text_of = {}
    for plan in versions:
        text = canonical_plan_text(plan)
        known = text_of.setdefault(plan_fingerprint(plan), text)
        assert known == text, "one fingerprint, two canonical texts"
    assert len(text_of) == len({canonical_plan_text(p) for p in versions})
    assert len(text_of) > 100  # the corpus is not one class


def test_fingerprint_tells_structure_apart_and_names_not():
    def plan(source="root1", label="a", bound=1, view=True):
        below = ops.TD("$T", ops.MkSrc("v", "$T")) if view else None
        getd = ops.GetD(
            "$K", Path.of(label), "$A", ops.MkSrc(source, "$K", below)
        )
        return ops.Select(Condition.var_const("$A", ">", bound), getd)

    variants = (
        plan(), plan(source="root2"), plan(label="b"), plan(bound=2),
        plan(bound="1"), plan(view=False),
    )
    assert len({plan_fingerprint(p) for p in variants}) == len(variants)
    # An Empty keeps its variables sorted by name; renaming one past
    # the other must still not show.
    empty = ops.Join((), ops.Empty(["$a", "$b"]), ops.MkSrc("d", "$c"))
    renamed = rename_vars(empty, {"$a": "$z"})
    assert renamed.left.variables == ("$b", "$z")
    assert plan_fingerprint(empty) == plan_fingerprint(renamed)


# -- (iii) context facts --------------------------------------------------------------


class ReferenceContext:
    """The parent's ``RewriteContext``: every fact re-derived from the
    whole plan at every call."""

    def __init__(self, root):
        self.root = root

    def var_labels(self, var, scope=None):
        scope = scope if scope is not None else self.root
        labels = set()
        found = False
        for node in iter_operators(scope):
            if isinstance(node, ops.CrElt) and node.out_var == var:
                labels.add(node.label)
                found = True
            elif isinstance(node, ops.GetD) and node.out_var == var:
                steps = node.path.without_data().steps
                last = steps[-1] if steps else None
                labels.add(
                    last.label
                    if last is not None and last.kind == Step.LABEL
                    else None
                )
                found = True
            elif isinstance(node, ops.RelQuery):
                for entry in node.varmap:
                    if entry.var == var:
                        labels.add(entry.label)
                        found = True
            elif isinstance(node, ops.MkSrc) and node.var == var:
                labels.add(None)
                found = True
        if not found:
            labels.add(None)
        return labels

    def list_item_labels(self, var, scope=None):
        scope = scope if scope is not None else self.root
        for node in iter_operators(scope):
            if isinstance(node, ops.Cat) and node.out_var == var:
                out = set()
                for item_var, single in (
                    (node.x_var, node.x_single),
                    (node.y_var, node.y_single),
                ):
                    if single:
                        out |= self.var_labels(item_var, scope)
                    else:
                        out |= self.list_item_labels(item_var, scope)
                return out
            if isinstance(node, ops.Apply) and node.out_var == var:
                if isinstance(node.plan, ops.TD):
                    return self.var_labels(node.plan.var, node.plan)
                return {None}
        return {None}

    def used_above(self, target):
        used = set()
        if not self._collect_above(self.root, target, used):
            for node in iter_operators(self.root):
                used |= node.used_vars()
        return used

    def _collect_above(self, node, target, used):
        if node is target:
            return True
        subtrees = list(node.children)
        if isinstance(node, ops.Apply):
            subtrees.append(node.plan)
        hit = False
        for child in subtrees:
            if self._collect_above(child, target, used):
                hit = True
        if hit:
            used |= node.used_vars()
            for child in subtrees:
                if not any(n is target for n in iter_operators(child)):
                    for other in iter_operators(child):
                        used |= other.used_vars()
        return hit


def test_context_facts_equal_the_per_probe_implementation(versions):
    stray = ops.MkSrc("nowhere", "$STRAY")
    for plan in versions:
        ctx, reference = RewriteContext(plan), ReferenceContext(plan)
        for node in list(iter_operators(plan)) + [stray]:
            assert ctx.used_above(node) == reference.used_above(node)
        for var in sorted(all_vars(plan)) + ["$UNBOUND"]:
            assert ctx.var_labels(var) == reference.var_labels(var)
            assert (
                ctx.list_item_labels(var) == reference.list_item_labels(var)
            )


def test_used_above_on_a_shared_subtree():
    # Not a shape the rules build, but the parent handled it: a node
    # reachable twice is excluded at both places.
    shared = ops.GetD("$K", Path.of("a"), "$A", ops.MkSrc("d", "$K"))
    plan = ops.TD("$A", ops.Join(
        (Condition.var_var("$A", "=", "$A"),), shared, shared
    ))
    for node in iter_operators(plan):
        assert RewriteContext(plan).used_above(node) == (
            ReferenceContext(plan).used_above(node)
        )


def test_context_reads_do_not_disturb_each_other():
    plan = translate_query(Q1, root_oid="v")
    ctx = RewriteContext(plan)
    first = ctx.var_labels("$C")
    first.add("scribble")
    ctx.used_above(plan.input).add("$scribble")
    assert "scribble" not in ctx.var_labels("$C")
    assert "$scribble" not in ctx.used_above(plan.input)


# -- (iv) what a compile no longer does -------------------------------------------------


def test_refine_compile_probes_a_third_of_the_parents(corpus):
    rewriter = Rewriter()
    rewriter.rewrite(dict(corpus)["bbq: refine q"])
    assert len(rewriter.last_rule_names) == 19
    assert rewriter.last_probes * 3 <= PARENT_REFINE_PROBES


def test_untraced_rewrite_renders_nothing(corpus, monkeypatch):
    from repro.algebra import printer

    calls = []

    def counting(plan, *args, **kwargs):
        calls.append(plan)
        return "rendered"

    monkeypatch.setattr(printer, "render_plan", counting)
    for _, plan in corpus:
        Rewriter().rewrite(plan)
    assert calls == []


def test_rewrite_leaves_no_memo_on_the_plan_it_returns(corpus):
    # The plan cache keeps the result for as long as it likes; the
    # fingerprints' per-node scratch must not ride along.
    for _, plan in corpus:
        result = Rewriter().rewrite(plan)
        assert all(node._shape is None for node in iter_operators(result))
