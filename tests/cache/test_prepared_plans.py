"""Prepared plans: a query *shape* is compiled once, literals are bound.

The safety net is ``bind ≡ compile``: whatever text a caching mediator
answers by binding literals into the plan it compiled for the text's
shape, the bound executable plan — operators, pushed SQL, ``-- rewrite:``
provenance — is byte-identical to what ``cache=False`` compiles from the
same text with its literals inline (see :mod:`repro.cache.shapes`).
"""

from __future__ import annotations

import glob
import os
import re
import sys
import threading

import pytest

from repro import Database, Mediator, RelationalWrapper, render_plan
from repro.algebra import operators as ops
from repro.algebra.conditions import Condition, ParamOperand
from repro.algebra.plan import iter_operators
from repro.cache.shapes import assign_slots, bind_plan, lift_literals
from repro.errors import ParameterValueDemanded
from repro.obs import Instrument
from repro.rewriter.rule import Rule
from repro.relational.ast import bind_sql
from repro.server import LoopbackClient, MediatorService
from repro.xmltree import serialize
from repro.xquery.parser import lex_query, literal_spans, parse_xquery

from tests.conftest import Q1, Q12, make_paper_wrapper
from tests.test_lattice import SHAPES, VIEWS, literals

#: The lattice differential's queries and views.
CORPUS = [shape.text.format(**literals(0)) for shape in SHAPES] + VIEWS

EXAMPLES = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "queries", "*.xq"
)))

#: The four compile shapes of ``mixbench``'s ``adhoc_compile`` session
#: (``mixbench/workloads.py``): a filtered join as ``query``, a
#: refinement as ``q`` from its root, a filter as ``query``, and a
#: ``q`` from a non-root node (decontextualization).
ADHOC_JOIN = (
    "FOR $C IN document(root1)/customer $O IN document(root2)/order "
    "WHERE $C/id/data() = $O/cid/data() AND $O/orid/data() < {} "
    "RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {{$O}} "
    "</CustRec> {{$C}}"
)
ADHOC_ROOT_Q = (
    "FOR $R IN document(root)/CustRec $S IN $R/OrderInfo "
    "WHERE $S/order/value/data() > 100 "
    "AND $S/order/orid/data() < {} RETURN $R"
)
ADHOC_FILTER = (
    "FOR $O IN document(root2)/order "
    "WHERE $O/value/data() > 100 AND $O/orid/data() < {} "
    "RETURN <Big> $O </Big>"
)
ADHOC_NODE_Q = (
    "FOR $O IN document(root)/OrderInfo "
    "WHERE $O/order/orid/data() < {} RETURN $O"
)

FILTER = (
    "FOR $O IN document(root2)/order WHERE $O/value/data() > {} "
    "RETURN <Big> $O </Big>"
)
REFINE = (
    "FOR $R IN document(root)/Big $S IN $R/order "
    "WHERE $S/value/data() > {} RETURN $R"
)


def mediator_pair(**kwargs):
    """A caching mediator and the ``cache=False`` reference."""
    cached = Mediator(stats=Instrument(), cache=True, **kwargs)
    cold = Mediator(stats=Instrument(), **kwargs)
    for mediator in (cached, cold):
        mediator.add_source(make_paper_wrapper())
        mediator.define_view("rootv", Q1)
        mediator.define_view("vw", VIEWS[0])
    return cached, cold


def other_literals(text):
    """``text`` with every literal its shape key lifts changed (equal
    ones alike) and every other character kept: the key is the text's
    token sequence, so a re-rendered text (``source(`` printed as
    ``document(``) may be another shape."""
    starts = [0]
    for line in text.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    __, literals = lex_query(text)
    for value, span in reversed(list(zip(literals, literal_spans(text)))):
        start = starts[span.line - 1] + span.column - 1
        end = starts[span.end_line - 1] + span.end_column - 1
        if isinstance(value, str):
            other = text[start] + value + "x" + text[start]
        else:
            other = str(value + 7)
        text = text[:start] + other + text[end:]
    return text


def compiled(handle, mediator, any_root=False):
    """What EXPLAIN shows of the compile behind an answer handle.

    ``any_root`` blanks the number in the root id: every inline compile
    takes a fresh one, every text of a shape shares its shape's, so the
    two sides agree on it only while they compile in step.
    """
    plans = (
        render_plan(handle.view.exec_plan()),
        render_plan(handle.view.compose_plan()),
    )
    if any_root:
        plans = tuple(re.sub(r"view\d+", "view", plan) for plan in plans)
    return plans + (mediator.last_rewrite_rules,)


def plan_counts(mediator):
    stats = mediator.cache_stats()["plan_cache"]
    return stats["hits"], stats["misses"]


# -- bind ≡ compile -------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [open(path).read() for path in EXAMPLES] + CORPUS + [Q12],
)
def test_bound_plan_is_the_inline_compile(text):
    cached, cold = mediator_pair()
    cached.query(other_literals(text))  # compiles the shape
    hits, misses = plan_counts(cached)
    warm = compiled(cached.query(text), cached)
    assert plan_counts(cached) == (hits + 1, misses)  # bound, not compiled
    assert warm == compiled(cold.query(text), cold)


def adhoc_session(mediator, base):
    """The four compiles of an ``adhoc_compile`` session; what each
    compiled to, and the answers."""
    out = []
    root = mediator.query(ADHOC_JOIN.format(base))
    out.append(compiled(root, mediator))
    record = root.d()
    refined = root.q(ADHOC_ROOT_Q.format(base + 1))
    out.append(compiled(refined, mediator))
    big = mediator.query(ADHOC_FILTER.format(base + 2))
    out.append(compiled(big, mediator))
    inner = record.q(ADHOC_NODE_Q.format(base + 3))
    out.append(compiled(inner, mediator))
    answers = [
        serialize(handle.to_tree()) for handle in (root, refined, big, inner)
    ]
    return out, answers


def test_adhoc_compile_shapes_bind_to_the_inline_compile():
    cached, cold = mediator_pair()
    adhoc_session(cached, 5000000)
    hits, misses = plan_counts(cached)
    warm = adhoc_session(cached, 7000000)
    assert plan_counts(cached) == (hits + 4, misses)
    assert warm == adhoc_session(cold, 7000000)


def test_refinement_of_a_bound_view_binds_both_sets_of_literals():
    cached, cold = mediator_pair()
    cached.query(FILTER.format(1)).q(REFINE.format(2))
    hits, misses = plan_counts(cached)
    for view_value, refine_value in ((100, 20000), (20000, 100), (50, 50)):
        warm = cached.query(FILTER.format(view_value))
        ref = cold.query(FILTER.format(view_value))
        warm_q = warm.q(REFINE.format(refine_value))
        ref_q = ref.q(REFINE.format(refine_value))
        assert compiled(warm_q, cached) == compiled(ref_q, cold)
        assert serialize(warm_q.to_tree()) == serialize(ref_q.to_tree())
    # (50, 50) is another shape of q — its literal equals the view's.
    assert plan_counts(cached) == (hits + 5, misses + 1)


# -- the shape key --------------------------------------------------------------------


def test_equal_literals_share_a_parameter():
    cached, cold = mediator_pair()
    text = (
        "FOR $O IN document(root2)/order WHERE $O/value/data() > {} "
        "AND $O/orid/data() < {} RETURN $O"
    )
    same_key, same_values, _ = cached._plan_key(text.format(100, 100))
    apart_key, apart_values, _ = cached._plan_key(text.format(100, 200))
    assert same_values == (100,) and apart_values == (100, 200)
    assert same_key != apart_key  # which literals are equal is keyed
    cached.query(text.format(100, 100))
    __, prepared = cached.cache.lookup_plan(same_key, same_values)
    operands = [
        node.condition.right
        for node in iter_operators(prepared.compose_plan)
        if isinstance(node, ops.Select)
    ]
    # Condition.__eq__ sees what it saw with the constants inline.
    assert operands == [ParamOperand(0), ParamOperand(0)]
    for pair in ((100, 100), (100, 200), (300, 300)):
        assert serialize(cached.query(text.format(*pair)).to_tree()) == \
            serialize(cold.query(text.format(*pair)).to_tree())
    assert len(cached.cache.plan_cache) == 2


def test_literal_types_do_not_share_a_line():
    cached, cold = mediator_pair()
    for literal in ("100", "100.0", '"100"', "200", "2.5", '"a"'):
        text = FILTER.format(literal)
        assert compiled(cached.query(text), cached, any_root=True) == \
            compiled(cold.query(text), cold, any_root=True), literal
    assert plan_counts(cached) == (3, 3)
    assert cached.cache_stats()["plan_cache"]["shapes"] == 3


def test_slots_follow_how_a_literal_prints():
    assert assign_slots((100, 100.0, "100", 100)) == (
        (0, 1, 2, 0), (100, 100.0, "100")
    )
    assert assign_slots((0.0, -0.0))[0] == (0, 1)
    # Against a view's values: an equal literal reuses the view's slot.
    assert assign_slots((5, 7, 5), base=(7,)) == ((1, 0, 1), (7, 5))


def test_literal_spacing_is_data():
    """``normalize_query`` collapsed white space inside string literals:
    ``"a  b"`` and ``"a b"`` shared a plan line and a memo line."""
    db = Database("two", stats=Instrument())
    db.run("CREATE TABLE customer (id TEXT, name TEXT, PRIMARY KEY (id))")
    db.run("INSERT INTO customer VALUES ('C1', 'a  b'), ('C2', 'a b')")

    def mediator(cache):
        wrapper = RelationalWrapper(db).register_document(
            "root1", "customer"
        )
        return Mediator(stats=Instrument(), cache=cache).add_source(wrapper)

    text = (
        'FOR $C IN document(root1)/customer WHERE $C/name/data() = "{}" '
        "RETURN $C"
    )
    cached, cold = mediator(True), mediator(False)
    for name, oid in (("a  b", "C1"), ("a b", "C2"), ("a  b", "C1")):
        answer = serialize(cached.query(text.format(name)).to_tree())
        assert answer == serialize(cold.query(text.format(name)).to_tree())
        assert ">{}<".format(oid) in answer


def test_layout_outside_literals_is_not():
    cached, _ = mediator_pair()
    cached.query(FILTER.format(100))
    cached.query("  " + FILTER.format(300).replace(" ", "\n  ") + "\n")
    assert plan_counts(cached) == (1, 1)


# -- the fallback ---------------------------------------------------------------------


class ReadsTheValue(Rule):
    """Range reasoning: a rule that looks at a selection's constant."""

    name = "reads-the-value"
    matches = (ops.Select,)

    def __init__(self):
        self.seen = []

    def apply(self, node, ctx):
        if node.condition.is_var_const():
            self.seen.append(node.condition.right.value)
        return None


def test_parameter_value_is_not_known_at_compile_time():
    with pytest.raises(ParameterValueDemanded):
        ParamOperand(0).value


def test_a_rule_that_reads_a_value_compiles_the_text_inline():
    rule = ReadsTheValue()
    cached = Mediator(
        stats=Instrument(), cache=True, extension_rules=[rule]
    ).add_source(make_paper_wrapper())
    cold = Mediator(stats=Instrument()).add_source(make_paper_wrapper())
    for value in (100, 20000, 100):
        text = FILTER.format(value)
        assert serialize(cached.query(text).to_tree()) == \
            serialize(cold.query(text).to_tree())
        assert compiled(cached.query(text), cached, any_root=True) == \
            compiled(cold.query(text), cold, any_root=True)
    assert set(rule.seen) == {100, 20000}  # never a parameter
    stats = cached.cache_stats()["plan_cache"]
    assert stats["shapes"] == 0 and stats["bound_hits"] == 0
    # One count per request: two texts compiled, four repeats served.
    assert (stats["hits"], stats["misses"]) == (4, 2)
    # A shape no rule reads still binds on the same mediator.
    cached.query("FOR $C IN document(root1)/customer RETURN $C")
    assert cached.cache_stats()["plan_cache"]["shapes"] == 1


# -- the cache around the shapes ------------------------------------------------------------


def test_unique_texts_do_not_evict_the_shapes_they_hit():
    cached = Mediator(
        stats=Instrument(), cache=True, cache_size=4
    ).add_source(make_paper_wrapper())
    for number in range(100):
        cached.query(FILTER.format(number)).q(REFINE.format(1000 + number))
    stats = cached.cache_stats()["plan_cache"]
    assert (stats["hits"], stats["misses"]) == (198, 2)
    assert stats["evictions"] == 0 and stats["size"] == 2
    assert stats["shapes"] == 2 and stats["bound_hits"] == 198


def test_define_view_drops_the_shapes_over_it():
    cached, cold = mediator_pair()
    text = (
        "FOR $R IN document(vw)/Rec $O IN $R/order "
        "WHERE $O/value/data() > {} RETURN $R"
    )
    cached.query(text.format(100))
    for mediator in (cached, cold):
        mediator.define_view(
            "vw", "FOR $O IN document(root2)/order RETURN <Rec> $O </Rec>"
        )
    assert cached.cache_stats()["plan_cache"]["invalidations"] >= 1
    assert cached.cache_stats()["plan_cache"]["shapes"] == 0
    # Same shape, other literal: compiled again, over the new view.
    warm = cached.query(text.format(2000))
    assert compiled(warm, cached, any_root=True) == compiled(
        cold.query(text.format(2000)), cold, any_root=True
    )
    assert serialize(warm.to_tree()).count("<Rec>") == 3


def test_strict_verification_is_carried_by_the_shape():
    cached, _ = mediator_pair(strict=True)
    cached.prepare(Q12)
    stages = cached.last_verified_stages
    assert stages > 2
    cached.last_verified_stages = None
    __, __, status = cached.prepare(Q12.replace("20000", "5"))
    assert status == "hit"
    assert cached.last_verified_stages == stages


def test_memo_is_keyed_on_shape_and_values():
    cached, _ = mediator_pair()
    first = cached.query(FILTER.format(100))
    first.children()
    assert cached.query(FILTER.format(100)).node is first.node
    other = cached.query(FILTER.format(20000))
    assert other.node is not first.node
    memo = cached.cache_stats()["nav_memo"]
    assert (memo["hits"], memo["misses"], memo["size"]) == (1, 2, 2)


def test_an_exact_repeat_does_not_parse(monkeypatch):
    from repro.qdom import mediator as module

    parses = []

    def counting(text):
        parses.append(text)
        return parse_xquery(text)

    cached, _ = mediator_pair()
    monkeypatch.setattr(module, "parse_xquery", counting)
    root = cached.query(FILTER.format(100))
    root.q(REFINE.format(5))
    assert len(parses) == 2
    cached.query(FILTER.format(100)).q(REFINE.format(5))
    assert len(parses) == 2
    cached.query(FILTER.format(101))  # a new text of a known shape
    assert len(parses) == 2
    cached.query(FILTER.format('"101"'))  # a new shape
    assert len(parses) == 3


def test_an_ast_is_keyed_by_its_rendered_text():
    cached, cold = mediator_pair()
    cached.query(FILTER.format(100))
    hits, misses = plan_counts(cached)
    query = parse_xquery(FILTER.format(300))
    assert serialize(cached.query(query).to_tree()) == \
        serialize(cold.query(query).to_tree())
    assert plan_counts(cached) == (hits + 1, misses)
    # A literal its rendered text cannot carry (``%`` starts a comment)
    # is compiled without the cache.
    odd = lift_literals(parse_xquery(FILTER.format('"x"')),
                        lambda value: "50%")
    assert cached.prepare(odd)[2] == "off"
    assert serialize(cached.query(odd).to_tree()) == \
        serialize(cold.query(odd).to_tree())


def test_stats_report_shapes_and_bound_hits():
    cached, _ = mediator_pair()
    service = MediatorService(cached)
    for value in (1, 2, 3):
        cached.query(FILTER.format(value))
    cached.query(Q1)
    cached.query(Q1)  # a hit, but nothing to bind
    for report in (
        cached.cache_stats(),
        LoopbackClient(service).call("stats")["cache"],
    ):
        plans = report["plan_cache"]
        assert plans["shapes"] == 2 and plans["bound_hits"] == 2
        assert (plans["hits"], plans["misses"]) == (3, 2)


def test_sixteen_threads_two_shapes():
    cached, cold = mediator_pair()
    shapes = (FILTER, Q12.replace("20000", "{}"))
    values = (0, 100, 2400, 20000, 30000, 250000)
    expected = {
        (shape, value): serialize(
            cold.query(shape.format(value)).to_tree()
        )
        for shape in shapes for value in values
    }
    barrier = threading.Barrier(16)
    wrong = []

    def work(worker):
        try:
            barrier.wait(timeout=30)
            for step in range(30):
                shape = shapes[(worker + step) % 2]
                value = values[(worker * 7 + step) % len(values)]
                answer = serialize(
                    cached.query(shape.format(value)).to_tree()
                )
                if answer != expected[shape, value]:
                    wrong.append((worker, step, value))
        except Exception as exc:  # noqa: BLE001 - reported below
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(w,)) for w in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
    stats = cached.cache_stats()["plan_cache"]
    assert stats["hits"] + stats["misses"] == 16 * 30
    assert stats["shapes"] == 2


# -- the binder ------------------------------------------------------------------------


def test_binding_copies_only_what_mentions_a_parameter():
    cached, _ = mediator_pair()
    text = ADHOC_JOIN.format(5)
    key, values, _ = cached._plan_key(text)
    cached.query(text)
    __, prepared = cached.cache.lookup_plan(key, values)
    before = render_plan(prepared.exec_plan)
    assert "?0" in before
    bound = bind_plan(prepared.exec_plan, (9,))
    assert render_plan(prepared.exec_plan) == before  # the cache's copy
    assert "?0" not in render_plan(bound) and "< 9" in render_plan(bound)
    # The rQ and the spine above it are copies; what hangs off the
    # spine (the nested plans of its apply operators) is the shape's.
    template = list(iter_operators(prepared.exec_plan, include_nested=False))
    spine = list(iter_operators(bound, include_nested=False))
    assert all(new is not old for new, old in zip(spine, template))
    applies = [
        (new, old) for new, old in zip(spine, template)
        if isinstance(old, ops.Apply)
    ]
    assert applies and all(new.plan is old.plan for new, old in applies)
    assert bind_plan(prepared.exec_plan, ()) is prepared.exec_plan


def test_binding_reaches_join_conditions_on_either_side():
    left, right = ops.MkSrc("root1", "$A"), ops.MkSrc("root2", "$B")
    open_condition = Condition.var_const("$A", "<", ParamOperand(1))
    closed = Condition.var_var("$A", "=", "$B")
    for plan in (
        ops.Join((closed, open_condition.flipped()), left, right),
        ops.SemiJoin((open_condition, closed), left, right, "left"),
    ):
        bound = bind_plan(ops.TD("$A", plan), ("x", 7)).input
        assert type(bound) is type(plan) and bound is not plan
        assert (bound.left, bound.right) == (left, right)
        assert repr(bound).replace("7", "?1") == repr(plan)
        assert closed in bound.conditions


def test_bind_sql_fills_placeholders_outside_string_literals():
    sql = "SELECT c1.id FROM customer c1 WHERE c1.name = '?0 it''s ?1' " \
          "AND c1.id = ?1 AND c1.addr < ?0"
    assert bind_sql(sql, (5, "o'k")) == (
        "SELECT c1.id FROM customer c1 WHERE c1.name = '?0 it''s ?1' "
        "AND c1.id = 'o''k' AND c1.addr < 5"
    )
    assert bind_sql("SELECT 1", ()) == "SELECT 1"


def test_query_shape_reaches_nested_queries():
    text = """
    FOR $C IN document(root1)/customer
    WHERE $C/id/data() = "XYZ"
    RETURN <Rec> $C
        FOR $O IN document(root2)/order
        WHERE 100 < $O/value/data()
        RETURN $O
    </Rec>
    """
    shape_text, literals = lex_query(text)
    assert literals == ("XYZ", 100)
    assert shape_text.count("?") == 2 and "XYZ" not in shape_text
    cached, cold = mediator_pair()
    cached.query(other_literals(text))
    assert compiled(cached.query(text), cached) == \
        compiled(cold.query(text), cold)
