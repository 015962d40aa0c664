"""Every verifier diagnostic over the rule-check corpus, pinned.

For each node of each plan of :func:`repro.analysis.generate_corpus`
(nested plans included, in pre-order) three kinds of case are verified
and their ``(code, message)`` findings compared, in order, with
``verifier_diagnostics.json``:

* ``root`` — the node taken as a plan of its own (a node of a nested
  plan then reads a free ``nestedSrc``: MIX-E005);
* ``rename`` — the whole plan with one of the node's variables renamed
  to ``$ZZ`` in that node only;
* ``shadow`` — the whole plan with one variable the node introduces
  renamed to a variable its input already binds (MIX-E002): the first,
  by name, of its input's schema, or — below a ``nestedSrc``, where that
  schema comes from the enclosing ``apply`` — of the variables the node
  itself reads.

Regenerate the file with ``PYTHONPATH=src python -m
tests.analysis.test_verifier_golden`` — only for a change that is meant
to alter what the verifier reports.
"""

from __future__ import annotations

import json
import os

from repro.algebra.plan import defined_vars, iter_operators, replace_operator
from repro.analysis import generate_corpus, verify_plan

GOLDEN = os.path.join(os.path.dirname(__file__), "verifier_diagnostics.json")


def _findings(plan):
    return [[d.code, d.message] for d in verify_plan(plan)]


def _renamed(plan, node, old, new):
    return replace_operator(plan, node, node.rename_local({old: new}))


def _shadow_target(node, var):
    """A variable ``node``'s input already binds, other than ``var``."""
    schema = defined_vars(node.children[0])
    if schema is None:
        schema = node.used_vars()
    candidates = sorted(schema - {var})
    return candidates[0] if candidates else None


def diagnostic_cases():
    """Every case, in a fixed order, with its findings."""
    cases = []
    for p, entry in enumerate(generate_corpus()):
        plan = entry.plan
        for n, node in enumerate(iter_operators(plan)):
            where = {"plan": p, "node": n, "op": node.opname}
            cases.append(dict(where, kind="root",
                              diagnostics=_findings(node)))
            for var in sorted(node.used_vars() | node.local_defined_vars()):
                cases.append(dict(
                    where, kind="rename", var=var,
                    diagnostics=_findings(_renamed(plan, node, var, "$ZZ")),
                ))
            if not node.children:
                continue
            for var in sorted(node.local_defined_vars()):
                target = _shadow_target(node, var)
                if target is None:
                    continue
                cases.append(dict(
                    where, kind="shadow", var=var, to=target,
                    diagnostics=_findings(_renamed(plan, node, var, target)),
                ))
    return cases


def _dump(cases):
    return "[\n{}\n]\n".format(",\n".join(
        json.dumps(case, ensure_ascii=False, sort_keys=True)
        for case in cases
    ))


def test_every_verifier_diagnostic_matches_the_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        expected = json.load(handle)
    actual = json.loads(_dump(diagnostic_cases()))
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == want


def test_the_golden_covers_every_consumed_and_shadow_code():
    with open(GOLDEN, encoding="utf-8") as handle:
        cases = json.load(handle)
    codes = {code for case in cases for code, _ in case["diagnostics"]}
    assert {"MIX-E001", "MIX-E002", "MIX-E003", "MIX-E004", "MIX-E005",
            "MIX-E006", "MIX-E007", "MIX-E010"} <= codes


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write(_dump(diagnostic_cases()))
