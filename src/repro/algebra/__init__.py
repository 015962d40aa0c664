"""The XMAS algebra (Section 3 of the paper).

XMAS is tuple-oriented: operator inputs and outputs are *sets of binding
lists* (tuples of variable/value pairs), which is what lets the paper
build an iterator model on top — "much in the way that iterator models
were built on the relational algebra".

Submodules:

* :mod:`repro.algebra.values` — what a variable may be bound to: an XML
  element, a list of elements, or a nested set of binding lists; plus
  skolem oids for constructed elements.
* :mod:`repro.algebra.bindings` — binding tuples/sets and the Fig.-5 tree
  representation.
* :mod:`repro.algebra.conditions` — the condition language of select and
  join.
* :mod:`repro.algebra.operators` — the 14 operators as plan nodes.
* :mod:`repro.algebra.plan` — plan traversal, output schemas, renaming,
  structural equality (well-formedness is the verifier's,
  :mod:`repro.analysis.verifier`).
* :mod:`repro.algebra.translator` — XQuery (Fig. 4 subset) to XMAS plans.
* :mod:`repro.algebra.printer` — renders plans in the paper's figure style.
"""

from repro.algebra.values import VList, Skolem, value_kind
from repro.algebra.bindings import BindingTuple, BindingSet, bindings_to_tree
from repro.algebra.conditions import Condition, VarOperand, ConstOperand
from repro.algebra.operators import (
    Apply,
    Cat,
    CrElt,
    Empty,
    GetD,
    GroupBy,
    Join,
    MkSrc,
    NestedSrc,
    Operator,
    OrderBy,
    Project,
    RelQuery,
    RQVar,
    Select,
    SemiJoin,
    TD,
)
from repro.algebra.plan import (
    plan_equal,
    clone_plan,
    rename_vars,
    iter_operators,
    defined_vars,
)
from repro.algebra.printer import render_plan

__all__ = [
    "Apply",
    "BindingSet",
    "BindingTuple",
    "Cat",
    "Condition",
    "ConstOperand",
    "CrElt",
    "Empty",
    "GetD",
    "GroupBy",
    "Join",
    "MkSrc",
    "NestedSrc",
    "Operator",
    "OrderBy",
    "Project",
    "RQVar",
    "RelQuery",
    "Select",
    "SemiJoin",
    "Skolem",
    "TD",
    "VList",
    "VarOperand",
    "bindings_to_tree",
    "clone_plan",
    "defined_vars",
    "iter_operators",
    "plan_equal",
    "render_plan",
    "rename_vars",
    "value_kind",
]
