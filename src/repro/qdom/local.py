"""Answering an in-place ``q`` from the nodes a session already holds.

The paper answers ``q(query, p)`` by decontextualization or composition
(Sections 5-6), and both push a new statement.  But a client that has
forced the whole answer below ``p`` holds every record a *selection* of
it can return: rewriting-using-views, cut down to the one view the
client is standing in.  A selection is ::

    FOR $V IN document(root)/L  $W IN $U/path ...
    WHERE path op literal AND ...
    RETURN $V

— later ``FOR`` s range over label paths from bound variables, every
condition compares a label path (``data()`` allowed last) from a bound
variable with a literal, existentially, with the engine's atomization
and :func:`~repro.relational.executor.compare`, and the answer is the
``$V`` records with a witness, in document order.

The pushed plan returns a record once per witness wherever the rewriter
cannot turn the witness's join into a semijoin, so the held answer is
given only where each record has one witness or the rewriter collapses
them (EXPERIMENTS.md deviations 4 and 6):

* every step of every read reaches at most one node, except
* the first step of a read from ``$V`` when every read lies below one
  child label ``B`` of the record and the record's ``B`` children are
  one nested list of constructed elements (one skolem variable): the
  rule-9 join that reaches into them becomes a semijoin.

Anything else is pushed (:class:`_Spread`).  The evaluator reads the
held tree as the bulk readers do, through
:func:`~repro.xmltree.tree.held_children`, building nothing: a field
of an unread tuple object is its row pair, its value read off the row
with no node per field.  Whether the tree is complete and current is
the mediator's to check
(:meth:`repro.qdom.mediator.Mediator.query_from`).
"""

from __future__ import annotations

from repro.algebra.plan import all_vars
from repro.algebra.values import Skolem
from repro.relational.executor import compare
from repro.relational.types import FLIPPED
from repro.xmltree.paths import Step
from repro.xmltree.tree import Node, TupleObject, held_children
from repro.xquery import ast as q


class _Spread(Exception):
    """A read reached two nodes where the pushed plan may return the
    record once per node."""


def _kids(node, label=None):
    """A held node's children (those labeled ``label``, when given), as
    :func:`~repro.xmltree.tree.held_children` gives them: a field of an
    unread tuple object is its row pair ``(name, value)``, whose one
    child is its value leaf."""
    if node.__class__ is tuple:
        kids = (Node(None, node[1]),)
    else:
        kids = held_children(node)
    if label is None or not kids:
        return kids
    if kids[0].__class__ is tuple:
        return [kid for kid in kids if kid[0] == label]
    return [kid for kid in kids if kid.label == label]


def _atom(node):
    """``atomize``: the label of the node's ``data()`` leaf, or ``None``.
    A field's is its value, off its row pair."""
    if node.__class__ is tuple:
        return node[1]
    kids = held_children(node)
    if not kids:
        return node.label
    if len(kids) == 1 and not _kids(kids[0]):
        return kids[0].label
    return None


def _reach(node, labels, spread=False):
    """``getD`` on a held tree: the nodes the label path ``labels``
    reaches from ``node``, whose own label the path's first step (the
    binding label the translator prepends) has already matched.  Raises
    :class:`_Spread` where a step reaches two nodes, unless ``spread``
    allows it of the first one."""
    nodes = [node]
    for label in labels:
        reached = []
        for current in nodes:
            hits = _kids(current, label)
            if len(hits) > 1 and not spread:
                raise _Spread()
            reached += hits
        nodes, spread = reached, False
    return nodes


def _one_list(record, label):
    """Whether the record's ``label`` children are constructed elements
    of one skolem variable: one nested list."""
    names = {
        None if kid.__class__ is tuple else getattr(kid.oid, "var", None)
        for kid in _kids(record, label)
    }
    return None not in names and len(names) <= 1


def _holds(conditions, var, node, spread):
    """Whether ``node``, bound to ``var``, meets ``var``'s conditions.
    Each read is made in full: a spread anywhere pushes the query,
    whichever hit comes first."""
    return all([
        any([compare(_atom(hit), op, value)
             for hit in _reach(node, path, spread)])
        for path, op, value in conditions.get(var, ())
    ])


def _witness(fors, conditions, env, index, spread):
    """Whether the later ``FOR`` s from ``fors[index]`` on have a binding
    meeting their conditions, given ``env``; every binding is tried.
    ``spread`` allows a spread at the first step of a read from the
    record."""
    if index == len(fors):
        return True
    from_var, path, var, from_record = fors[index]
    found = False
    for node in _reach(env[from_var], path, spread and from_record):
        if _holds(conditions, var, node, False):
            env[var] = node
            found = _witness(fors, conditions, env, index + 1, spread) \
                or found
    return found


def selection(query):
    """``(label, branch, fors, conditions)`` of a selection of
    ``document(root)``, or ``None`` for any other query.

    ``branch`` is the one child label of the record every read lies
    below (``None``: none, or several), ``fors`` lists
    ``(from_var, labels, var, from_record)`` per later ``FOR`` (the last
    says ``from_var`` is the record's) and ``conditions`` maps
    a variable to its ``(labels, op, literal)`` comparisons.  ``FOR``
    paths are label sequences, so a bound node carries its path's last
    label.
    """
    first = query.for_bindings[0]
    root, steps = first.operand.root, first.operand.path.steps
    if not (isinstance(root, q.DocRoot) and root.is_query_root
            and len(steps) == 1 and steps[0].kind == Step.LABEL):
        return None
    if not (isinstance(query.ret, q.VarRef) and query.ret.var == first.var):
        return None
    below = {first.var: None}  # the child label each variable lies below
    fors = []
    for binding in query.for_bindings[1:]:
        operand = binding.operand
        path = operand.path.steps
        if (not isinstance(operand.root, q.VarRoot)
                or operand.root.var not in below or binding.var in below
                or not path
                or any(step.kind != Step.LABEL for step in path)):
            return None
        path = tuple(step.label for step in path)
        fors.append((operand.root.var, path, binding.var,
                     operand.root.var == first.var))
        below[binding.var] = below[operand.root.var] or path[0]
    labels = set(below.values())
    conditions = {}
    for comparison in query.conditions:
        left, op, right = comparison.left, comparison.op, comparison.right
        if isinstance(left, q.Literal):
            left, op, right = right, FLIPPED[op], left
        if not (isinstance(right, q.Literal)
                and isinstance(left, q.PathOperand)
                and isinstance(left.root, q.VarRoot)
                and left.root.var in below):
            return None
        path = left.path.without_data().steps
        if any(step.kind != Step.LABEL for step in path):
            return None
        # ``data()`` atomizes as a comparison does: it may go.
        path = tuple(step.label for step in path)
        conditions.setdefault(left.root.var, []).append(
            (path, op, right.value)
        )
        labels.add(below[left.root.var] or (path[0] if path else None))
    labels.discard(None)
    branch = labels.pop() if len(labels) == 1 else None
    return steps[0].label, branch, fors, conditions


def held_answer(query, start, view=None):
    """The held records answering ``query`` at the held node ``start``,
    or ``None`` where they might not be the records a pushed answer
    exports, oids and multiplicities included.

    At an answer's root (``view`` is its
    :class:`~repro.cache.shapes.BoundPlan`) the records keep the view's
    skolem oids unless the composition renames a view variable the
    query reuses, so such a query is pushed.  Below the root, the
    decontextualized plan may export a constructed record from a
    renamed copy of its branch (rule 9), so only source elements are
    answered there, and never from a tuple object, whose fields' oids
    are drawn when they are built.
    """
    shape = selection(query)
    if shape is None or isinstance(start, TupleObject):
        return None
    if view is not None and not all_vars(
        view.prepared.compose_plan
    ).isdisjoint(binding.var for binding in query.for_bindings):
        return None
    label, branch, fors, conditions = shape
    first = query.for_bindings[0].var
    records = []
    try:
        for record in _kids(start):
            if record.label != label:
                continue
            spread = branch is not None and _one_list(record, branch)
            if _holds(conditions, first, record, spread) and _witness(
                    fors, conditions, {first: record}, 0, spread):
                records.append(record)
    except _Spread:
        return None
    if view is None and any(isinstance(r.oid, Skolem) for r in records):
        return None
    return records
