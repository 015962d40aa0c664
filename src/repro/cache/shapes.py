"""Query shapes: what the plan cache compiles, and how requests bind to it.

The traffic a browsing front end sends differs from its last request in
a constant far more often than in structure, so the unit of compilation
is the query **shape** — the query with the literals of its WHERE
clauses taken out:

* :func:`~repro.xquery.parser.lex_query` splits a query text into the
  shape's key — its token sequence with the literals lifted out — and
  the literals, in text order, without a parse;
* :func:`assign_slots` numbers the literals — equal ones (same type,
  same spelling) share a slot, so a compile step that compares two
  conditions sees what it would have seen with the constants inline —
  and the numbering is part of the plan key;
* :func:`lift_literals` rebuilds the query over
  :class:`~repro.algebra.conditions.ParamOperand` slots, which then
  travel through translate → compose → rewrite → SQL split as opaque
  operands (a pushed statement carries them as ``?<slot>``);
* :func:`bind_plan` puts one request's values into a copy of the few
  nodes that mention a slot — ``select``/``join`` conditions, and the
  ``rQ``, which keeps its slotted SQL and carries the values it names
  as ``params`` to the source — and shares every other node with the
  template.

A :class:`PreparedPlan` is what the plan cache stores; a
:class:`BoundPlan` is one request's view of it and what a
:class:`~repro.qdom.QdomNode` carries, so that ``q(query, p)`` composes
against the *unbound* view and keys its own shape on the view's
identity.

Not parametrised: the oids that pin an in-place query to its start node
(they stay part of the key), the constants of ``define_view`` bodies
(compiled once per definition), any text whose parse holds other
literals than its key lifted (``= 7AND`` parses the literal ``7``), and
any text whose compile reads a literal's value
(:class:`~repro.errors.ParameterValueDemanded`) — the mediator compiles
such a text with its literals inline and the entry is keyed on the
values as well.
"""

from __future__ import annotations

from repro.algebra import operators as ops
from repro.algebra.conditions import Condition, ConstOperand, ParamOperand
from repro.algebra.plan import with_subplans
from repro.xquery import ast


def lift_literals(query, replace):
    """A copy of ``query`` (sharing what it can) with the value of every
    WHERE literal, nested queries included, replaced by
    ``replace(value)``; literals are visited in text order."""

    def operand(item):
        if isinstance(item, ast.Literal):
            return ast.Literal(replace(item.value), span=item.span)
        return item

    conditions = [
        ast.Comparison(operand(c.left), c.op, operand(c.right), span=c.span)
        for c in query.conditions
    ]
    return ast.QueryExpr(
        query.for_bindings, conditions, _lift_content(query.ret, replace),
        span=query.span,
    )


def _lift_content(item, replace):
    """:func:`lift_literals` over a RETURN item.  A module function, not
    a self-recursive closure, so a compile leaves no reference cycle."""
    if isinstance(item, ast.QueryExpr):
        return lift_literals(item, replace)
    if isinstance(item, ast.ElemExpr):
        return ast.ElemExpr(
            item.label, [_lift_content(c, replace) for c in item.contents],
            item.group_by, span=item.span,
        )
    return item


def assign_slots(literals, base=()):
    """``(slots, values)``: the slot of every literal in ``values``,
    which is ``base`` (the values of the view an in-place query is
    issued against) followed by the literals not yet in it.

    Two literals share a slot when they print alike — ``100`` and
    ``100.0`` do not, nor do ``0.0`` and ``-0.0``: a bound plan must
    print what an inline compile prints.
    """
    values = list(base)
    slot_of = {repr(value): slot for slot, value in enumerate(values)}
    slots = []
    for literal in literals:
        slot = slot_of.setdefault(repr(literal), len(values))
        if slot == len(values):
            values.append(literal)
        slots.append(slot)
    return tuple(slots), tuple(values)


def request_shape(shape_text, literals, base=()):
    """``(shape, values)`` of a request: ``shape`` is what the plan key
    holds of it — the text, the slots, and the types of the values it
    adds to ``base`` — and ``values`` what its plan is bound to."""
    slots, values = assign_slots(literals, base)
    types = tuple([type(value) for value in values[len(base):]])
    return (shape_text, slots, types), values


def parametrise(query, slots):
    """``query`` over :class:`ParamOperand` slots (``slots`` as
    :func:`assign_slots` numbered its literals)."""
    numbers = iter(slots)
    return lift_literals(query, lambda value: ParamOperand(next(numbers)))


# -- binding -------------------------------------------------------------------------


def bind_plan(plan, values):
    """``plan`` with every parameter replaced by its value.

    Copies the nodes that mention a parameter and their ancestors;
    every other subtree is shared with ``plan``, which is left as it
    was (it is the cache's, and other sessions are binding it too).
    """
    if not values:
        return plan
    node = with_subplans(plan, bind_plan, values)
    if isinstance(plan, ops.Select):
        condition = _bind_condition(plan.condition, values)
        if condition is not plan.condition:
            node = node.replace(condition=condition)
    elif isinstance(plan, (ops.Join, ops.SemiJoin)):
        conditions = tuple(
            [_bind_condition(c, values) for c in plan.conditions]
        )
        if any(new is not old for new, old in zip(conditions,
                                                  plan.conditions)):
            node = node.replace(conditions=conditions)
    elif isinstance(plan, ops.RelQuery):
        node = plan.bound(values)
    return node


def _bind_condition(condition, values):
    left, right = condition.left, condition.right
    if isinstance(left, ParamOperand):
        left = ConstOperand(values[left.index])
    if isinstance(right, ParamOperand):
        right = ConstOperand(values[right.index])
    if left is condition.left and right is condition.right:
        return condition
    return Condition(left, condition.op, right, condition.mode)


# -- what the cache stores, what a request holds -----------------------------------------


class PreparedPlan:
    """One compiled query shape.

    Attributes:
        exec_plan, compose_plan: the executable plan and the rewritten
            plan before the SQL split (in-place queries compose against
            the latter), parameters unbound.
        verified_stages: the static verifier's stage count when the
            compile ran under ``Mediator(strict=True)``, else ``None``
            — hits reuse it instead of re-verifying.
        rewrite_rules: the rule names the compile fired, in order, so
            EXPLAIN's ``-- rewrite:`` provenance survives a hit.
        templated: ``False`` for a text compiled with its literals
            inline (cache off, or a compile that read a value).
        demand: the most root children navigation reached on an answer
            of this plan (capped at the block size; ``None`` before any
            was navigated): the first width of its next answer.
    """

    __slots__ = ("exec_plan", "compose_plan", "verified_stages",
                 "rewrite_rules", "templated", "demand")

    def __init__(self, exec_plan, compose_plan, verified_stages=None,
                 rewrite_rules=(), templated=False):
        self.exec_plan = exec_plan
        self.compose_plan = compose_plan
        self.verified_stages = verified_stages
        self.rewrite_rules = tuple(rewrite_rules)
        self.templated = templated
        self.demand = None

    def note_demand(self, reached):
        """Raise the demand to ``reached``; unlocked, as a lost update
        between sessions only leaves it lower than it could be."""
        if reached > (self.demand or 0):
            self.demand = reached


class BoundPlan:
    """A :class:`PreparedPlan` plus the values of one request."""

    __slots__ = ("prepared", "values")

    def __init__(self, prepared, values=()):
        self.prepared = prepared
        self.values = values

    def exec_plan(self):
        return bind_plan(self.prepared.exec_plan, self.values)

    def compose_plan(self):
        return bind_plan(self.prepared.compose_plan, self.values)


class DeferredView:
    """A :class:`BoundPlan` compiled on first use: the view of an
    in-place answer served from held nodes, whose composed plan only a
    further ``q`` (or a reader of its plans) needs.  ``prepare()``
    returns what the mediator's ``_prepare`` does."""

    __slots__ = ("_prepare", "_bound")

    def __init__(self, prepare):
        self._prepare = prepare
        self._bound = None

    def _view(self):
        if self._bound is None:
            self._bound = self._prepare()[0]
        return self._bound

    @property
    def prepared(self):
        return self._view().prepared

    @property
    def values(self):
        return self._view().values

    def exec_plan(self):
        return self._view().exec_plan()

    def compose_plan(self):
        return self._view().compose_plan()
