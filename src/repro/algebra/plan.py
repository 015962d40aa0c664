"""Plan-level utilities: traversal, schemas, renaming, equality."""

from __future__ import annotations

import hashlib
import itertools

from repro.algebra import operators as ops
from repro.algebra.conditions import Condition, ParamOperand, VarOperand
from repro.xmltree.paths import Path


def iter_operators(plan, include_nested=True):
    """Pre-order iterator over all operators of a plan.

    With ``include_nested`` the nested plans of ``apply`` operators are
    visited too.
    """
    stack = [plan]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))
        if include_nested:
            stack.extend(node.nested_plans)


def defined_vars(plan, env=None):
    """The variables bound in the plan's output tuples, by the
    :class:`~repro.algebra.operators.Output` rule of each operator.

    ``env`` maps a ``nestedSrc`` variable to the partition schema of the
    enclosing ``apply`` (:func:`nested_env`).  ``None`` when the set
    cannot be determined statically: a ``nestedSrc`` ``env`` does not
    resolve.  A plan rooted at ``tD`` defines no variables — its output
    is a tree.
    """
    return plan.output_vars(env)


def nested_env(apply, env=None):
    """The ``env`` of ``apply``'s nested plan: ``env`` with the apply's
    input variable mapped to the schema of the partitions it holds."""
    inner = dict(env or ())
    if apply.inp_var is not None:
        inner[apply.inp_var] = partition_schema(apply.input, apply.inp_var,
                                                env)
    return inner


def partition_schema(plan, var, env=None):
    """The schema of the partitions ``var`` is bound to in ``plan``'s
    output, ``None`` when it cannot be traced: the *input* schema of the
    ``groupBy`` binding ``var`` (paper op 10: a partition is a set of the
    grouped input's binding lists), found down the inputs whose tuples
    reach each output."""
    node = plan
    while not (isinstance(node, ops.GroupBy) and node.out_var == var):
        sides = node.output.inputs(node)
        if len(sides) > 1:
            sides = [s for s in sides if var in (defined_vars(s, env) or ())]
        if not sides or var in node.local_defined_vars():
            return None
        node = sides[0]
    return defined_vars(node.input, env)


def all_vars(plan):
    """Every variable mentioned anywhere in the plan (incl. nested)."""
    seen = set()
    for node in iter_operators(plan):
        seen |= node.local_defined_vars()
        seen |= node.used_vars()
    return seen


class VarFactory:
    """Fresh-variable generator avoiding every name used in given plans."""

    def __init__(self, *plans):
        self._taken = set()
        for plan in plans:
            if plan is not None:
                self._taken |= all_vars(plan)
        self._counter = itertools.count(1)

    def reserve(self, names):
        self._taken |= set(names)

    def fresh(self, stem="$v"):
        """A variable not used in any of the registered plans."""
        while True:
            candidate = "{}{}".format(stem, next(self._counter))
            if candidate not in self._taken:
                self._taken.add(candidate)
                return candidate


def rename_vars(plan, mapping):
    """A deep copy of ``plan`` with variables substituted per ``mapping``.

    Nested ``apply`` plans share the namespace of the partition tuples
    they run over (the paper's Fig. 6 nested plan mentions the outer
    ``$O``), so the mapping is applied uniformly everywhere.
    """
    return with_subplans(plan, rename_vars, mapping).rename_local(mapping)


def clone_plan(plan):
    """A deep structural copy (identity renaming)."""
    return rename_vars(plan, {})


def plan_equal(a, b):
    """Structural plan equality (signatures and shape, oids ignored)."""
    if a.signature() != b.signature():
        return False
    if len(a.children) != len(b.children):
        return False
    return all(
        plan_equal(x, y)
        for x, y in zip(a.nested_plans + a.children,
                        b.nested_plans + b.children)
    )


def find_operators(plan, op_type, include_nested=True):
    """All operators of a given type, in pre-order."""
    return [
        node
        for node in iter_operators(plan, include_nested)
        if isinstance(node, op_type)
    ]


def replace_operator(plan, target, replacement):
    """A copy of ``plan`` with the subtree ``target`` (matched by object
    identity) replaced by ``replacement``."""
    if plan is target:
        return replacement
    return with_subplans(plan, replace_operator, target, replacement)


def inline_nested(nested_body, inp_var, group_input):
    """A copy of ``nested_body`` with each ``nestedSrc(inp_var)`` leaf
    replaced by a copy of ``group_input``, the plan of the group."""
    body = clone_plan(nested_body)
    for node in list(iter_operators(body)):
        if isinstance(node, ops.NestedSrc) and node.var == inp_var:
            body = replace_operator(body, node, clone_plan(group_input))
    return body


def rename_shared(plan, mapping):
    """``plan`` with variables substituted per ``mapping``, like
    :func:`rename_vars`, but sharing with ``plan`` every subtree that
    mentions none of them — what one version of a plan may do with the
    next, and a renaming that costs what it touches."""
    node = with_subplans(plan, rename_shared, mapping)
    mentioned = plan.local_defined_vars() | plan.used_vars()
    if not mapping.keys().isdisjoint(mentioned):
        node = node.rename_local(mapping)
    return node


def with_subplans(plan, visit, *args):
    """``plan`` over ``visit(sub, *args)`` of each of its children and
    nested plans; ``plan`` itself when none of them changed."""
    node = plan
    children = plan.children
    new_children = tuple([visit(child, *args) for child in children])
    if any(n is not o for n, o in zip(new_children, children)):
        node = plan.with_children(new_children)
    nested = plan.nested_plans
    if nested:
        new_nested = tuple([visit(sub, *args) for sub in nested])
        if any(n is not o for n, o in zip(new_nested, nested)):
            node = node.with_nested_plans(new_nested)
    if node is not plan:
        node._shape = plan._shape  # same arity, same signature
    return node


def plan_fingerprint(plan):
    """A short stable fingerprint of a plan's structure.

    One pre-order pass over the operators' ``signature()``s with every
    variable replaced by the index of its first occurrence, so two plans
    that differ only in variable *names* (the same rule sequence
    replayed with a fresh :class:`VarFactory`) fingerprint alike and the
    rewrite engine's cycle detector is not fooled by rules that mint
    fresh names on every application; any structural difference
    survives.
    """
    return fingerprint_operators(iter_operators(plan))


def fingerprint_operators(nodes):
    """:func:`plan_fingerprint` of the plan whose pre-order is ``nodes``."""
    frames, names = [], []
    for node in nodes:
        frame, variables = node._shape or _shape(node)
        frames.append(frame)
        names += variables
    numbers = {}
    order = [numbers.setdefault(name, len(numbers)) for name in names]
    text = "".join(frames) + repr(order)
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:12]


def _shape(node):
    """``(frame, variables)``: the node's arity and signature with its
    variables blanked, flattened and spelled out, and those variables in
    order.  Memoised on the (immutable) node, which a local replacement
    shares with the next plan version.

    Variables are the ``$``-prefixed strings of a signature.  The
    variable list of an ``Empty`` is left out, as it is from the printed
    plan: it is kept sorted by name, an order no renaming preserves.
    """
    frame, variables = [len(node.children)], []
    if isinstance(node, ops.Empty):
        frame.append(node.opname)
    else:
        _flatten(node.signature(), frame, variables)
    node._shape = shape = (repr(frame), tuple(variables))
    return shape


def _flatten(value, out, variables):
    if isinstance(value, str):
        if value.startswith("$"):
            variables.append(value)
            value = ...  # no signature holds an Ellipsis of its own
        out.append(value)
    elif isinstance(value, tuple):
        out.append(len(value))
        for item in value:
            _flatten(item, out, variables)
    elif isinstance(value, Condition):
        out += (value.op, value.mode)
        for operand in (value.left, value.right):
            if isinstance(operand, VarOperand):
                _flatten(operand.var, out, variables)
            elif isinstance(operand, ParamOperand):
                out += ("param", operand.index)
            else:
                out += ("const", operand.value)
    elif isinstance(value, Path):
        out.append(len(value.steps))
        for step in value.steps:
            out += (step.kind, step.label)
    else:
        out.append(value)
