"""EXPLAIN's ``-- rewrite:`` rule-provenance footer.

A query whose compilation fires Table-2 rules grows one footer line per
fired rule (first-fired order, with fire counts); a query already in
normal form (the seed's Q1 golden) grows none.  The provenance is
cached with the plan, so a warm plan-cache hit — which skips the
rewrite entirely — still reports what the compile-time rewrite did.
"""

from __future__ import annotations

from tests.conftest import Q1, Q12, make_paper_wrapper

from repro import Mediator


def view_mediator(**kw):
    mediator = Mediator(**kw).add_source(make_paper_wrapper())
    mediator.define_view("rootv", Q1)
    return mediator


def rewrite_lines(text):
    return [
        line for line in text.splitlines()
        if line.startswith("-- rewrite:")
    ]


def test_composed_query_reports_fired_rules():
    text = view_mediator().explain(Q12, mask_times=True)
    lines = rewrite_lines(text)
    assert lines, "the composed Fig. 12 query must fire rewrites"
    assert any("rule 11" in line for line in lines)
    assert all(" steps=" in line for line in lines)
    # Footer ordering: rewrite provenance sits before the plan_cache
    # status line.
    footer = text.splitlines()
    assert footer.index(lines[0]) < footer.index(
        next(l for l in footer if l.startswith("-- plan_cache:"))
    )


def test_first_fired_order_matches_rewriter_trace():
    mediator = view_mediator()
    text = mediator.explain(Q12, mask_times=True)
    reported = [
        line.split("rule=", 1)[1].rsplit(" steps=", 1)[0]
        for line in rewrite_lines(text)
    ]
    seen = []
    for name in mediator.last_rewrite_rules:
        if name not in seen:
            seen.append(name)
    assert reported == seen


def test_footer_lists_the_rules_of_explains_own_compile(monkeypatch):
    # A served mediator compiles other sessions' queries while EXPLAIN
    # runs: a Q12 compile landing between EXPLAIN's prepare and its
    # footer must not lend Q12's fired rules to Q1's footer.
    mediator = view_mediator()
    prepare = mediator._prepare

    def racing_prepare(query_text, *args):
        prepared = prepare(query_text, *args)
        if query_text is not Q12:
            prepare(Q12)
        return prepared

    monkeypatch.setattr(mediator, "_prepare", racing_prepare)
    text = mediator.explain(Q1, mask_times=True)
    assert mediator.last_rewrite_rules  # Q12's compile did fire rules
    assert not rewrite_lines(text)
    assert text == view_mediator().explain(Q1, mask_times=True)


def test_normal_form_query_has_no_rewrite_footer():
    mediator = Mediator(block_size=1).add_source(make_paper_wrapper())
    text = mediator.explain(Q1, mask_times=True)
    assert not rewrite_lines(text)
    assert mediator.last_rewrite_rules == ()


def test_warm_plan_cache_hit_restores_provenance():
    mediator = view_mediator(cache=True)
    cold = mediator.explain(Q12, mask_times=True)
    assert "-- plan_cache: miss" in cold
    warm = mediator.explain(Q12, mask_times=True)
    assert "-- plan_cache: hit" in warm
    assert rewrite_lines(warm) == rewrite_lines(cold)
    assert rewrite_lines(warm)


def test_prepare_restores_provenance_from_cache():
    mediator = view_mediator(cache=True)
    mediator.prepare(Q12)
    fired = mediator.last_rewrite_rules
    assert fired
    # Wipe and re-prepare: the hit path must restore the tuple.
    mediator.last_rewrite_rules = ()
    __, __, status = mediator.prepare(Q12)
    assert status == "hit"
    assert mediator.last_rewrite_rules == fired


def test_optimize_off_reports_nothing():
    mediator = Mediator(optimize=False).add_source(make_paper_wrapper())
    text = mediator.explain(Q1, mask_times=True)
    assert not rewrite_lines(text)
    assert mediator.last_rewrite_rules == ()
