"""The 14 XMAS operators as plan nodes (paper Section 3).

Plan nodes are *descriptions*: evaluation lives in
:mod:`repro.engine.eager` (full materialization) and
:mod:`repro.engine.lazy` (navigation-driven).  Every node knows

* its sub-plans (``children``),
* the variables it introduces (``local_defined_vars``) and consumes
  (``used_vars``),
* how to copy itself with substituted children (``with_children``) and
  renamed variables (``rename_local``), and
* a structural ``signature`` used for plan equality in tests and in the
  rewriter's pattern matcher.
"""

from __future__ import annotations

from repro.errors import PlanError
from repro.xmltree.paths import Path
from repro.algebra.conditions import Condition
from repro.relational.ast import bind_sql


class Operator:
    """Base class of all XMAS plan nodes."""

    #: short name used in signatures and the printer, set per subclass
    opname = "?"
    #: memo of the fingerprint's per-node part (:mod:`repro.algebra.plan`)
    #: while a rewrite is under way; safe because nodes are never
    #: modified once built
    _shape = None

    @property
    def children(self):
        """Sub-plans, left to right."""
        return ()

    def with_children(self, new_children):
        """A shallow copy with ``children`` replaced."""
        if new_children:
            raise PlanError(
                "{} takes no sub-plans".format(type(self).__name__)
            )
        return self

    def local_defined_vars(self):
        """Variables this node introduces into the output tuples."""
        return frozenset()

    def used_vars(self):
        """Variables this node reads from its input tuples."""
        return frozenset()

    def rename_local(self, mapping):
        """A copy of *this node only* with its variables renamed.

        Children are reattached unchanged; deep renaming is
        :func:`repro.algebra.plan.rename_vars`.
        """
        return self

    def signature(self):
        """Hashable structural identity of this node (children excluded)."""
        return (self.opname,)

    def __repr__(self):
        from repro.algebra.printer import render_operator

        return render_operator(self)


class MkSrc(Operator):
    """``mksrc_{&srcid, $X}`` — source access (paper op 1).

    Binds ``$X`` to each child of the document whose root id is
    ``srcid``, producing ``{[$X = e1], ..., [$X = en]}``.

    Normally a leaf.  During naive query composition (Section 6) "the
    mediator sets the input of the source operator as the plan p1": a
    ``mksrc`` may then carry a tree-producing (``tD``-rooted) input plan,
    which is exactly the configuration rewrite rule 11 eliminates.
    """

    opname = "mksrc"

    def __init__(self, source, var, input_plan=None):
        self.source = source
        self.var = var
        self.input = input_plan

    @property
    def children(self):
        return (self.input,) if self.input is not None else ()

    def with_children(self, new_children):
        if not new_children:
            return MkSrc(self.source, self.var)
        (inp,) = new_children
        return MkSrc(self.source, self.var, inp)

    def local_defined_vars(self):
        return frozenset([self.var])

    def rename_local(self, mapping):
        return MkSrc(
            self.source, mapping.get(self.var, self.var), self.input
        )

    def signature(self):
        return (self.opname, self.source, self.var)


class GetD(Operator):
    """``getD_{$A.r -> $X}`` — get descendants (paper op 2).

    For each input tuple, binds ``$X`` to every node reachable from the
    value of ``$A`` by a path matching ``path`` (the path includes the
    start node's label, per the paper's convention).
    """

    opname = "getD"

    def __init__(self, in_var, path, out_var, input_plan):
        if not isinstance(path, Path):
            raise PlanError("GetD needs a Path, got {!r}".format(path))
        self.in_var = in_var
        self.path = path
        self.out_var = out_var
        self.input = input_plan

    @property
    def children(self):
        return (self.input,)

    def with_children(self, new_children):
        (inp,) = new_children
        return GetD(self.in_var, self.path, self.out_var, inp)

    def local_defined_vars(self):
        return frozenset([self.out_var])

    def used_vars(self):
        return frozenset([self.in_var])

    def rename_local(self, mapping):
        return GetD(
            mapping.get(self.in_var, self.in_var),
            self.path,
            mapping.get(self.out_var, self.out_var),
            self.input,
        )

    def signature(self):
        return (self.opname, self.in_var, self.path, self.out_var)


class Select(Operator):
    """``select_c`` (paper op 3): keep tuples satisfying the condition."""

    opname = "select"

    def __init__(self, condition, input_plan):
        if not isinstance(condition, Condition):
            raise PlanError("Select needs a Condition")
        self.condition = condition
        self.input = input_plan

    @property
    def children(self):
        return (self.input,)

    def with_children(self, new_children):
        (inp,) = new_children
        return Select(self.condition, inp)

    def used_vars(self):
        return frozenset(self.condition.variables())

    def rename_local(self, mapping):
        return Select(self.condition.rename(mapping), self.input)

    def signature(self):
        return (self.opname, self.condition)


class Project(Operator):
    """``pi_{~v}`` (paper op 4): relational project *with duplicate
    elimination*."""

    opname = "project"

    def __init__(self, variables, input_plan):
        self.variables = tuple(variables)
        self.input = input_plan

    @property
    def children(self):
        return (self.input,)

    def with_children(self, new_children):
        (inp,) = new_children
        return Project(self.variables, inp)

    def used_vars(self):
        return frozenset(self.variables)

    def rename_local(self, mapping):
        return Project(
            tuple(mapping.get(v, v) for v in self.variables), self.input
        )

    def signature(self):
        return (self.opname, self.variables)


class Join(Operator):
    """``join_theta`` (paper op 5) over two binding sets.

    ``conditions`` is a conjunction (empty = cartesian product); variable
    sets of the two inputs must be disjoint.
    """

    opname = "join"

    def __init__(self, conditions, left, right):
        self.conditions = tuple(conditions)
        self.left = left
        self.right = right

    @property
    def children(self):
        return (self.left, self.right)

    def with_children(self, new_children):
        left, right = new_children
        return Join(self.conditions, left, right)

    def used_vars(self):
        out = set()
        for c in self.conditions:
            out |= c.variables()
        return frozenset(out)

    def rename_local(self, mapping):
        return Join(
            tuple(c.rename(mapping) for c in self.conditions),
            self.left,
            self.right,
        )

    def signature(self):
        return (self.opname, self.conditions)


class SemiJoin(Operator):
    """``lSemijoin`` / ``rSemijoin`` (paper op 6).

    Following the paper: ``rightSemijoin(I1, I2) = pi_V1(join(I1, I2))``
    keeps the *left* input's variables, ``leftSemijoin`` keeps the
    *right*'s.  ``keep`` names the surviving input (``"left"`` or
    ``"right"``); the printer maps ``keep="right"`` to the paper's
    ``Lsemijoin`` spelling.
    """

    opname = "semijoin"

    def __init__(self, conditions, left, right, keep):
        if keep not in ("left", "right"):
            raise PlanError("SemiJoin keep must be 'left' or 'right'")
        self.conditions = tuple(conditions)
        self.left = left
        self.right = right
        self.keep = keep

    @classmethod
    def left_semijoin(cls, conditions, left, right):
        """The paper's ``lSemijoin`` = ``pi_V2(join)``: keeps the right."""
        return cls(conditions, left, right, keep="right")

    @classmethod
    def right_semijoin(cls, conditions, left, right):
        """The paper's ``rSemijoin`` = ``pi_V1(join)``: keeps the left."""
        return cls(conditions, left, right, keep="left")

    @property
    def children(self):
        return (self.left, self.right)

    def with_children(self, new_children):
        left, right = new_children
        return SemiJoin(self.conditions, left, right, self.keep)

    def used_vars(self):
        out = set()
        for c in self.conditions:
            out |= c.variables()
        return frozenset(out)

    def rename_local(self, mapping):
        return SemiJoin(
            tuple(c.rename(mapping) for c in self.conditions),
            self.left,
            self.right,
            self.keep,
        )

    def signature(self):
        return (self.opname, self.conditions, self.keep)


class CrElt(Operator):
    """``crElt_{l, f(~g), $ch -> $name}`` (paper op 7): element creation.

    Creates, per input tuple, an element labeled ``label`` whose children
    are the items of the list bound to ``ch_var`` (or the single value of
    ``ch_var`` when ``ch_is_list`` — the figures' ``list($O)``
    qualifier), with skolem oid ``fn(skolem_args...)``.
    """

    opname = "crElt"

    def __init__(
        self, label, fn, skolem_args, ch_var, ch_is_list, out_var, input_plan
    ):
        self.label = label
        self.fn = fn
        self.skolem_args = tuple(skolem_args)
        self.ch_var = ch_var
        self.ch_is_list = bool(ch_is_list)
        self.out_var = out_var
        self.input = input_plan

    @property
    def children(self):
        return (self.input,)

    def with_children(self, new_children):
        (inp,) = new_children
        return CrElt(
            self.label,
            self.fn,
            self.skolem_args,
            self.ch_var,
            self.ch_is_list,
            self.out_var,
            inp,
        )

    def local_defined_vars(self):
        return frozenset([self.out_var])

    def used_vars(self):
        return frozenset([self.ch_var]) | frozenset(self.skolem_args)

    def rename_local(self, mapping):
        return CrElt(
            self.label,
            self.fn,
            tuple(mapping.get(v, v) for v in self.skolem_args),
            mapping.get(self.ch_var, self.ch_var),
            self.ch_is_list,
            mapping.get(self.out_var, self.out_var),
            self.input,
        )

    def signature(self):
        return (
            self.opname,
            self.label,
            self.fn,
            self.skolem_args,
            self.ch_var,
            self.ch_is_list,
            self.out_var,
        )


class Cat(Operator):
    """``cat_{$x, $y -> $z}`` (paper op 8): list concatenation.

    ``x_single`` / ``y_single`` correspond to the figures'
    ``list($x)`` qualifier: the value is first wrapped into a singleton
    list.
    """

    opname = "cat"

    def __init__(self, x_var, x_single, y_var, y_single, out_var, input_plan):
        self.x_var = x_var
        self.x_single = bool(x_single)
        self.y_var = y_var
        self.y_single = bool(y_single)
        self.out_var = out_var
        self.input = input_plan

    @property
    def children(self):
        return (self.input,)

    def with_children(self, new_children):
        (inp,) = new_children
        return Cat(
            self.x_var, self.x_single, self.y_var, self.y_single,
            self.out_var, inp,
        )

    def local_defined_vars(self):
        return frozenset([self.out_var])

    def used_vars(self):
        return frozenset([self.x_var, self.y_var])

    def rename_local(self, mapping):
        return Cat(
            mapping.get(self.x_var, self.x_var),
            self.x_single,
            mapping.get(self.y_var, self.y_var),
            self.y_single,
            mapping.get(self.out_var, self.out_var),
            self.input,
        )

    def signature(self):
        return (
            self.opname,
            self.x_var,
            self.x_single,
            self.y_var,
            self.y_single,
            self.out_var,
        )


class TD(Operator):
    """``tD_{$A[, rootid]}`` (paper op 9): tuple destroy.

    The final operator of every XMAS plan: strips the tuple structure and
    exports ``list[v1, ..., vn]`` — the DOM view clients expect.  The
    optional second argument names the root's oid.
    """

    opname = "tD"

    def __init__(self, var, input_plan, root_oid=None):
        self.var = var
        self.input = input_plan
        self.root_oid = root_oid

    @property
    def children(self):
        return (self.input,)

    def with_children(self, new_children):
        (inp,) = new_children
        return TD(self.var, inp, self.root_oid)

    def used_vars(self):
        return frozenset([self.var])

    def rename_local(self, mapping):
        return TD(mapping.get(self.var, self.var), self.input, self.root_oid)

    def signature(self):
        return (self.opname, self.var, self.root_oid)


class GroupBy(Operator):
    """``groupBy_{gl -> $name}`` (paper op 10).

    Partitions the input on the group-by variables; outputs one tuple per
    partition with the group variables plus ``$name`` bound to the
    partition (a nested set of binding lists).
    """

    opname = "gBy"

    def __init__(self, group_vars, out_var, input_plan):
        self.group_vars = tuple(group_vars)
        self.out_var = out_var
        self.input = input_plan

    @property
    def children(self):
        return (self.input,)

    def with_children(self, new_children):
        (inp,) = new_children
        return GroupBy(self.group_vars, self.out_var, inp)

    def local_defined_vars(self):
        return frozenset([self.out_var])

    def used_vars(self):
        return frozenset(self.group_vars)

    def rename_local(self, mapping):
        return GroupBy(
            tuple(mapping.get(v, v) for v in self.group_vars),
            mapping.get(self.out_var, self.out_var),
            self.input,
        )

    def signature(self):
        return (self.opname, self.group_vars, self.out_var)


class Apply(Operator):
    """``apply_{p, $inp -> $l}`` (paper op 11): run a nested plan.

    For each input tuple, evaluates plan ``p`` on the set bound to
    ``inp_var`` (reaching ``p`` through its ``nestedSrc`` leaf) and binds
    the result to ``out_var``.  ``inp_var`` may be ``None`` for nested
    plans that do not depend on the current tuple.
    """

    opname = "apply"

    def __init__(self, plan, inp_var, out_var, input_plan):
        self.plan = plan
        self.inp_var = inp_var
        self.out_var = out_var
        self.input = input_plan

    @property
    def children(self):
        return (self.input,)

    @property
    def nested_plans(self):
        return (self.plan,)

    def with_children(self, new_children):
        (inp,) = new_children
        return Apply(self.plan, self.inp_var, self.out_var, inp)

    def with_nested_plan(self, new_plan):
        return Apply(new_plan, self.inp_var, self.out_var, self.input)

    def local_defined_vars(self):
        return frozenset([self.out_var])

    def used_vars(self):
        if self.inp_var is None:
            return frozenset()
        return frozenset([self.inp_var])

    def rename_local(self, mapping):
        # The nested plan has its own scope *except* for its nestedSrc
        # leaf variable, which names the outer binding; deep renaming in
        # plan.rename_vars handles the recursion.
        return Apply(
            self.plan,
            mapping.get(self.inp_var, self.inp_var)
            if self.inp_var is not None
            else None,
            mapping.get(self.out_var, self.out_var),
            self.input,
        )

    def signature(self):
        return (self.opname, self.inp_var, self.out_var)


class NestedSrc(Operator):
    """``nestedSrc_{$x}`` (paper op 12): placeholder leaf of nested plans.

    Evaluates to the set of binding lists bound to ``$x`` in the current
    tuple of the enclosing ``apply``.
    """

    opname = "nSrc"

    def __init__(self, var):
        self.var = var

    def used_vars(self):
        return frozenset([self.var])

    def rename_local(self, mapping):
        return NestedSrc(mapping.get(self.var, self.var))

    def signature(self):
        return (self.opname, self.var)


class RQVar:
    """One entry of a ``rQ`` operator's map ``m``.

    Describes how a variable's value is assembled from SQL result
    columns.  ``kind`` selects the shape:

    * ``"element"`` — a whole tuple object: an element labeled ``label``
      (the exported element label of the source table) with one field
      child per ``(column position, field name)`` pair, its oid derived
      from the ``key_positions`` values (``&XYZ123``);
    * ``"field"`` — a single field element (``<id>XYZ</id>``), one
      column;
    * ``"leaf"`` — the bare value leaf (a path that ended in ``data()``).

    Positions are 0-based in code and printed 1-based like the paper.
    """

    __slots__ = ("var", "label", "columns", "key_positions", "kind")

    def __init__(self, var, label, columns, key_positions, kind="element"):
        if kind not in ("element", "field", "leaf"):
            raise PlanError("unknown RQVar kind {!r}".format(kind))
        self.var = var
        self.label = label
        self.columns = tuple(columns)
        self.key_positions = tuple(key_positions)
        self.kind = kind

    def signature(self):
        return (
            self.var, self.label, self.columns, self.key_positions, self.kind
        )

    def __repr__(self):
        positions = ",".join(str(pos + 1) for pos, _ in self.columns)
        return "{}={{{}}}".format(self.var, positions)


class RelQuery(Operator):
    """``rQ_{s, q, m}`` (paper op 13): relational source access.

    A leaf that sends SQL ``sql`` to server ``server`` and exports binding
    tuples assembled per the map ``varmap`` (a list of :class:`RQVar`).
    "The relational query operator is also responsible for creating the
    nodes corresponding to the tuple objects."

    A plan-cache template's ``sql`` has ``?0, ?1, ...`` placeholders;
    ``slots`` names the request slot each stands for, and :meth:`bound`
    gives one request's copy, whose ``params`` are the values the
    engines send along with the unchanged text.  :attr:`display_sql` is
    the statement with those values spelled in.
    """

    opname = "rQ"
    _display = None

    def __init__(self, server, sql, varmap, order_vars=(), slots=(),
                 params=()):
        self.server = server
        self.sql = sql
        self.varmap = tuple(varmap)
        #: variables whose bound elements arrive sorted (the SQL carries a
        #: matching ORDER BY, as in Fig. 22) — lets the engine pick the
        #: presorted stateless gBy of Table 1.
        self.order_vars = tuple(order_vars)
        self.slots = tuple(slots)
        self.params = tuple(params)

    def bound(self, values):
        """This rQ with ``params`` taken from one request's ``values``;
        ``self`` when the statement has no placeholder."""
        if not self.slots:
            return self
        return RelQuery(
            self.server, self.sql, self.varmap, self.order_vars, self.slots,
            [values[slot] for slot in self.slots],
        )

    @property
    def display_sql(self):
        """``sql`` with ``params`` spelled in: what EXPLAIN, traces and
        errors show (computed once per node)."""
        text = self._display
        if text is None:
            text = self._display = bind_sql(self.sql, self.params)
        return text

    def local_defined_vars(self):
        return frozenset(entry.var for entry in self.varmap)

    def rename_local(self, mapping):
        renamed = [
            RQVar(
                mapping.get(e.var, e.var), e.label, e.columns, e.key_positions
            )
            for e in self.varmap
        ]
        return RelQuery(
            self.server,
            self.sql,
            renamed,
            tuple(mapping.get(v, v) for v in self.order_vars),
            self.slots,
            self.params,
        )

    def signature(self):
        signature = (
            self.opname,
            self.server,
            self.sql,
            tuple(e.signature() for e in self.varmap),
        )
        if self.slots:
            signature += (self.slots, self.params)
        return signature


class Empty(Operator):
    """The empty set of binding tuples over a known variable set.

    Not one of the paper's 14 operators: it is the ``∅`` that rule 4 of
    Table 2 rewrites provably-unsatisfiable path conditions into, and it
    propagates upward through the emptiness rules of the rewriter.
    """

    opname = "empty"

    def __init__(self, variables=()):
        self.variables = tuple(sorted(variables))

    def local_defined_vars(self):
        return frozenset(self.variables)

    def rename_local(self, mapping):
        return Empty(mapping.get(v, v) for v in self.variables)

    def signature(self):
        return (self.opname, self.variables)


class OrderBy(Operator):
    """``orderBy_{[$V1, ..., $Vm]}`` (paper op 14).

    Sorts input tuples by the *ids* of the bound nodes — "XMAS does not
    have currently an order-by that is based on actual values".
    """

    opname = "orderBy"

    def __init__(self, variables, input_plan):
        self.variables = tuple(variables)
        self.input = input_plan

    @property
    def children(self):
        return (self.input,)

    def with_children(self, new_children):
        (inp,) = new_children
        return OrderBy(self.variables, inp)

    def used_vars(self):
        return frozenset(self.variables)

    def rename_local(self, mapping):
        return OrderBy(
            tuple(mapping.get(v, v) for v in self.variables), self.input
        )

    def signature(self):
        return (self.opname, self.variables)
