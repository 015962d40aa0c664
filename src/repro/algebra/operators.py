"""The 14 XMAS operators as plan nodes (paper Section 3).

Plan nodes are *descriptions*: evaluation lives in
:mod:`repro.engine.eager` (full materialization) and
:mod:`repro.engine.lazy` (navigation-driven).

Each operator class declares its constructor fields once, as annotated
class attributes, with the :class:`Role` each plays (plain data when
none is named).  From that declaration every node knows

* its sub-plans (``children``) and ``apply``'s nested plan
  (``nested_plans``),
* the variables it introduces (``local_defined_vars``) and consumes
  (``used_vars``),
* the variables its output tuples bind (``output_vars``, from the
  :class:`Output` rule the class names),
* how to copy itself with substituted children (``with_children``),
  nested plans (``with_nested_plans``), renamed variables
  (``rename_local``) or any fields (``replace``), and
* a structural ``signature`` used for plan equality in tests and in the
  rewriter's pattern matcher.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from repro.errors import PlanError
from repro.xmltree.paths import Path
from repro.algebra.conditions import Condition
from repro.relational.ast import bind_sql


class Role:
    """What an operator field holds, as the source the derived methods
    are compiled from.

    ``variables`` is an expression over the field's value ``{0}`` that,
    unpacked, lists the variables in it — which the node reads, or
    introduces when ``defines``; ``rename`` is the value renamed through
    ``mapping``.  Plans and plain data have neither.  A ``sequence``
    field is made a tuple by the constructor, so signatures compare and
    hash.
    """

    __slots__ = ("variables", "rename", "defines", "sequence")

    def __init__(self, variables=None, rename=None, defines=False,
                 sequence=False):
        self.variables = variables
        self.rename = rename
        self.defines = defines
        self.sequence = sequence


_RENAME_VAR = "mapping.get({0}, {0})"
_RENAME_VARS = "tuple([mapping.get(v, v) for v in {0}])"
_RENAME_ITEMS = "tuple([item.rename(mapping) for item in {0}])"

#: a sub-plan, one of ``children``; the sub-plans of a class are
#: consecutive fields, and one that is ``None`` is left out
PLAN = Role()
#: a nested plan, one of ``nested_plans``: a child in its own scope,
#: outside ``children`` and the signature
NESTED = Role()
#: anything else; part of the signature, untouched by renaming
DATA = Role()
#: a tuple of plain data
SEQUENCE = Role(sequence=True)
#: one variable the node reads (may be ``None``)
USE = Role("*(() if {0} is None else ({0},))", _RENAME_VAR)
#: one variable the node introduces
DEF = Role("{0}", _RENAME_VAR, defines=True)
#: a tuple of variables the node reads
USES = Role("*{0}", _RENAME_VARS, sequence=True)
#: a tuple of variables the node introduces
DEFS = Role("*{0}", _RENAME_VARS, defines=True, sequence=True)
#: one :class:`Condition`
COND = Role("*{0}.variables()", "{0}.rename(mapping)")
#: a conjunction of conditions
CONDS = Role("*[v for c in {0} for v in c.variables()]", _RENAME_ITEMS,
             sequence=True)
#: an ``rQ`` map: the :class:`RQVar` entries the node binds
MAP = Role("*[entry.var for entry in {0}]", _RENAME_ITEMS, defines=True,
           sequence=True)


class Output:
    """How a node's output schema — the variables its output tuples bind
    (paper Section 3, Fig. 5) — follows from its sub-plans' schemas.

    ``body`` is method source compiled per class into ``output_vars(env)``
    and ``output_vars_from(inputs, env)``: ``{0}``/``{1}`` are the first/
    second sub-plan's schema (``None``: unknown), ``{defined}`` is `` | ``
    the node's defined variables, ``env`` maps a ``nestedSrc`` variable
    to its partition schema.  ``inputs(node)`` are the sub-plans whose
    tuples reach the output.
    """

    __slots__ = ("body", "inputs")

    def __init__(self, body, inputs=lambda node: ()):
        self.body, self.inputs = body, inputs


#: the input's schema plus the node's DEF fields; the default, so an
#: undeclared subclass gets its first sub-plan's schema plus its defined
#: variables, or unknown for a leaf
EXTEND = Output(
    "schema = {0}\nreturn schema if schema is None else schema{defined}",
    lambda node: node.children[:1],
)
#: the node's own variable fields
NARROW = Output("return self.used_vars() | self.local_defined_vars()",
                EXTEND.inputs)
#: the node's DEF, DEFS and MAP fields
OWN = Output("return self.local_defined_vars()")
#: both inputs' schemas
UNION = Output(
    "left, right = {0}, {1}\n"
    "return None if left is None or right is None else left | right",
    lambda node: node.children,
)
#: the schema of the input named by ``keep``
KEPT = Output(
    "return {0} if self.keep == 'left' else {1}",
    lambda node: (node.left,) if node.keep == "left" else (node.right,),
)
#: no variables: the output is a tree
TREE = Output("return frozenset()")
#: the enclosing ``apply``'s partition schema, unknown outside one
CONTEXT = Output("return None if env is None else env.get(self.var)")

_NO_DEFAULT = object()


class _Field:
    """The value of a declared field's class attribute: its role and
    default."""

    __slots__ = ("role", "default")

    def __init__(self, role, default=_NO_DEFAULT):
        self.role = role
        self.default = default


#: The derived methods, compiled per class by :func:`_derive`.
_METHODS = """\
def __init__(self, {params}):
{init}
def with_children(self, new_children):
    if len(new_children) != len(self.children):
        raise _arity_error(self, new_children)
    return cls({with_children})
def with_nested_plans(self, new_plans):
    return cls({with_nested_plans})
def rename_local(self, mapping):
    return cls({rename_local})
def used_vars(self):
    return frozenset({used_vars})
def local_defined_vars(self):
    return frozenset({local_defined_vars})
def signature(self):
    return (self.opname, {signature})
def output_vars(self, env=None):
    {output_vars}
def output_vars_from(self, inputs, env=None):
    {output_vars_from}
"""


def _declare(cls):
    """``(name, role, default)`` of each field of ``cls``: its base's,
    then those it declares, taken off the class — an annotated
    attribute, its value a :class:`_Field`, a plain default (plain
    data) or none."""
    declared = {name: (name, role, d) for name, role, d in cls._fields}
    for name in cls.__dict__.get("__annotations__", {}):
        value = cls.__dict__.get(name, _NO_DEFAULT)
        if not isinstance(value, _Field):
            value = _Field(DATA, value)
        declared[name] = (name, value.role, value.default)
        if name in cls.__dict__:
            delattr(cls, name)
    return tuple(declared.values())


def _derive(cls, declared):
    """Compile the constructor and the derived methods of ``cls`` from
    its ``declared`` fields.

    As :mod:`dataclasses` compiles ``__init__``, each method is the
    source one would write by hand for these fields, compiled once per
    class, so it costs what a hand-written method costs.  A method the
    class or a base defines by hand is kept.
    """
    own = ["self." + name for name, _, _ in declared]

    def spliced(kind, new):
        """``own`` with the ``kind`` fields, consecutive, as ``*new``."""
        at = [i for i, (_, role, _) in enumerate(declared) if role is kind]
        if not at:
            return own
        if at[-1] - at[0] + 1 != len(at):
            raise TypeError(cls.__name__ + ": sub-plan fields apart")
        return own[:at[0]] + ["*" + new] + own[at[-1] + 1:]

    params, init, defaults = [], [], {}
    for name, role, default in declared:
        if default is _NO_DEFAULT:
            params.append(name)
        else:
            params.append("{0}=_default_{0}".format(name))
            defaults["_default_" + name] = default
        value = "tuple({})".format(name) if role.sequence else name
        init.append("self.{} = {}".format(name, value))
    plans = [(n, d) for n, role, d in declared if role is PLAN]
    if plans:
        children = "({})".format(
            "".join("self.{}, ".format(n) for n, _ in plans)
        )
        if any(d is None for _, d in plans):
            children = "tuple([p for p in {} if p is not None])".format(
                children
            )
        init.append("self.children = " + children)
    nested = [n for n, role, _ in declared if role is NESTED]
    if nested:
        init.append("self.nested_plans = ({},)".format(
            ", ".join("self." + n for n in nested)
        ))
    if hasattr(cls, "_finish"):
        init.append("self._finish()")

    def variables(defines):
        return [
            role.variables.format(value)
            for (_, role, _), value in zip(declared, own)
            if role.variables and role.defines is defines
        ]

    def iterable(parts):
        """``parts`` as one iterable: a lone unpacked field as itself."""
        if len(parts) == 1 and parts[0].startswith("*"):
            return parts[0][1:]
        return "({})".format("".join(part + ", " for part in parts))

    defines = variables(True)
    if plans:
        read = ["self.{}.output_vars(env)".format(n) for n, _ in plans]
        given = ["inputs[{}]".format(i) for i in range(len(plans))]
        defined = " | {{{}}}".format(", ".join(defines)) if defines else ""
    else:  # undeclared: its hand-written children and defined variables
        read = ["(self.children[0].output_vars(env) if self.children"
                " else None)"]
        given = ["(inputs[0] if inputs else None)"]
        defined = " | self.local_defined_vars()"
    output = cls.output.body.replace("\n", "\n    ")

    source = _METHODS.format(
        params=", ".join(params),
        init="".join("    {}\n".format(line) for line in init or ["pass"]),
        with_children=", ".join(spliced(PLAN, "new_children")),
        with_nested_plans=", ".join(spliced(NESTED, "new_plans")),
        rename_local=", ".join(
            role.rename.format(value) if role.rename else value
            for (_, role, _), value in zip(declared, own)
        ),
        used_vars=iterable(variables(False)),
        local_defined_vars=iterable(defines),
        signature="".join(
            value + ", " for (_, role, _), value in zip(declared, own)
            if role is not PLAN and role is not NESTED
        ),
        output_vars=output.format(*read, "None", "None", defined=defined),
        output_vars_from=output.format(
            *given, "None", "None", defined=defined
        ),
    )
    methods = {}
    code = compile(source, "<{} derived methods>".format(cls.__name__), "exec")
    exec(code, {"cls": cls, "_arity_error": _arity_error, **defaults}, methods)
    for name, method in methods.items():
        current = getattr(cls, name, None)
        if current in (None, object.__init__) or hasattr(current, "derived"):
            method.__qualname__ = "{}.{}".format(cls.__qualname__, name)
            method.derived = True
            setattr(cls, name, method)


def _arity_error(node, new_children):
    return PlanError("{} has {} sub-plans, got {}".format(
        type(node).__name__, len(node.children), len(new_children)
    ))


if TYPE_CHECKING:
    from typing import dataclass_transform
else:
    def dataclass_transform(**kwargs):
        return lambda cls: cls


@dataclass_transform(eq_default=False, field_specifiers=(_Field,))
class Operator:
    """Base class of all XMAS plan nodes.

    A subclass declares its constructor's fields once, as annotated class
    attributes (see :class:`Role`), and :func:`_derive` compiles from them
    its constructor, ``with_children``, ``with_nested_plans``,
    ``rename_local``, ``used_vars``, ``local_defined_vars`` and
    ``signature``, and from its ``output`` rule ``output_vars`` and
    ``output_vars_from``.  The constructor makes sequences tuples, sets
    ``children`` and ``nested_plans``, and last runs the class's
    ``_finish``, if it has one, to check or normalise a field.  Nodes
    compare by identity.  Copies go through the constructor, so a copy
    never shares a per-node memo — its observation token, ``_shape`` or
    ``rQ``'s ``_display`` — with the node it came from.
    """

    #: short name used in signatures and the printer, set per subclass
    opname = "?"
    #: memo of the fingerprint's per-node part (:mod:`repro.algebra.plan`)
    #: while a rewrite is under way; safe because nodes are never
    #: modified once built
    _shape = None
    #: sub-plans, left to right (set by the constructor)
    children = ()
    #: nested plans, run per input tuple (set by the constructor)
    nested_plans = ()
    #: ``(name, role, default)`` of each field, in constructor order
    _fields = ()
    #: how the output schema follows from the inputs' (:class:`Output`)
    output = EXTEND

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = _declare(cls)
        _derive(cls, cls._fields)

    def replace(self, **changes):
        """A copy of this node with the named fields changed."""
        return type(self)(*[
            changes[name] if name in changes else getattr(self, name)
            for name, _, _ in self._fields
        ])

    if TYPE_CHECKING:
        # Compiled per class by _derive; declared here for readers and
        # type checkers.
        def with_children(self, new_children: Sequence[Operator]) -> Operator:
            """A copy with ``children`` replaced, one for one."""

        def with_nested_plans(self, new_plans: Sequence[Operator]) -> Operator:
            """A copy with ``nested_plans`` replaced, one for one."""

        def rename_local(self, mapping: Mapping[str, str]) -> Operator:
            """A copy of *this node only* with its variables renamed;
            deep renaming is :func:`repro.algebra.plan.rename_vars`."""

        def used_vars(self) -> frozenset:
            """Variables this node reads from its input tuples."""

        def local_defined_vars(self) -> frozenset:
            """Variables this node introduces into the output tuples."""

        def signature(self) -> tuple:
            """Hashable structural identity of this node (sub-plans
            excluded)."""

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
    output = OWN
    source: str
    var: str = _Field(DEF)
    input: Operator | None = _Field(PLAN, default=None)


class GetD(Operator):
    """``getD_{$A.r -> $X}`` — get descendants (paper op 2).

    For each input tuple, binds ``$X`` to every node reachable from the
    value of ``$A`` by a path matching ``path`` (the path includes the
    start node's label, per the paper's convention).
    """

    opname = "getD"
    output = EXTEND
    in_var: str = _Field(USE)
    path: Path
    out_var: str = _Field(DEF)
    input: Operator = _Field(PLAN)

    def _finish(self):
        if not isinstance(self.path, Path):
            raise PlanError("GetD needs a Path, got {!r}".format(self.path))


class Select(Operator):
    """``select_c`` (paper op 3): keep tuples satisfying the condition."""

    opname = "select"
    output = EXTEND
    condition: Condition = _Field(COND)
    input: Operator = _Field(PLAN)

    def _finish(self):
        if not isinstance(self.condition, Condition):
            raise PlanError("Select needs a Condition")


class Project(Operator):
    """``pi_{~v}`` (paper op 4): relational project *with duplicate
    elimination*."""

    opname = "project"
    output = NARROW
    variables: Sequence[str] = _Field(USES)
    input: Operator = _Field(PLAN)


class Join(Operator):
    """``join_theta`` (paper op 5) over two binding sets.

    ``conditions`` is a conjunction (empty = cartesian product); variable
    sets of the two inputs must be disjoint.
    """

    opname = "join"
    output = UNION
    conditions: Sequence[Condition] = _Field(CONDS)
    left: Operator = _Field(PLAN)
    right: Operator = _Field(PLAN)


class SemiJoin(Operator):
    """``lSemijoin`` / ``rSemijoin`` (paper op 6).

    Following the paper: ``rightSemijoin(I1, I2) = pi_V1(join(I1, I2))``
    keeps the *left* input's variables, ``leftSemijoin`` keeps the
    *right*'s.  ``keep`` names the surviving input (``"left"`` or
    ``"right"``); the printer maps ``keep="right"`` to the paper's
    ``Lsemijoin`` spelling.
    """

    opname = "semijoin"
    output = KEPT
    conditions: Sequence[Condition] = _Field(CONDS)
    left: Operator = _Field(PLAN)
    right: Operator = _Field(PLAN)
    keep: str

    def _finish(self):
        if self.keep not in ("left", "right"):
            raise PlanError("SemiJoin keep must be 'left' or 'right'")

    @classmethod
    def left_semijoin(cls, conditions, left, right):
        """The paper's ``lSemijoin`` = ``pi_V2(join)``: keeps the right."""
        return cls(conditions, left, right, keep="right")

    @classmethod
    def right_semijoin(cls, conditions, left, right):
        """The paper's ``rSemijoin`` = ``pi_V1(join)``: keeps the left."""
        return cls(conditions, left, right, keep="left")


class CrElt(Operator):
    """``crElt_{l, f(~g), $ch -> $name}`` (paper op 7): element creation.

    Creates, per input tuple, an element labeled ``label`` whose children
    are the items of the list bound to ``ch_var`` (or the single value of
    ``ch_var`` when ``ch_is_list`` — the figures' ``list($O)``
    qualifier), with skolem oid ``fn(skolem_args...)``.
    """

    opname = "crElt"
    output = EXTEND
    label: str
    fn: str
    skolem_args: Sequence[str] = _Field(USES)
    ch_var: str = _Field(USE)
    ch_is_list: bool
    out_var: str = _Field(DEF)
    input: Operator = _Field(PLAN)


class Cat(Operator):
    """``cat_{$x, $y -> $z}`` (paper op 8): list concatenation.

    ``x_single`` / ``y_single`` correspond to the figures'
    ``list($x)`` qualifier: the value is first wrapped into a singleton
    list.
    """

    opname = "cat"
    output = EXTEND
    x_var: str = _Field(USE)
    x_single: bool
    y_var: str = _Field(USE)
    y_single: bool
    out_var: str = _Field(DEF)
    input: Operator = _Field(PLAN)


class TD(Operator):
    """``tD_{$A[, rootid]}`` (paper op 9): tuple destroy.

    The final operator of every XMAS plan: strips the tuple structure and
    exports ``list[v1, ..., vn]`` — the DOM view clients expect.  The
    optional second argument names the root's oid.
    """

    opname = "tD"
    output = TREE
    var: str = _Field(USE)
    input: Operator = _Field(PLAN)
    root_oid: str | None = None


class GroupBy(Operator):
    """``groupBy_{gl -> $name}`` (paper op 10).

    Partitions the input on the group-by variables; outputs one tuple per
    partition with the group variables plus ``$name`` bound to the
    partition (a nested set of binding lists).
    """

    opname = "gBy"
    output = NARROW
    group_vars: Sequence[str] = _Field(USES)
    out_var: str = _Field(DEF)
    input: Operator = _Field(PLAN)


class Apply(Operator):
    """``apply_{p, $inp -> $l}`` (paper op 11): run a nested plan.

    For each input tuple, evaluates plan ``p`` on the set bound to
    ``inp_var`` (reaching ``p`` through its ``nestedSrc`` leaf) and binds
    the result to ``out_var``.  ``inp_var`` may be ``None`` for nested
    plans that do not depend on the current tuple.  The nested plan has
    its own scope *except* for its ``nestedSrc`` variable, which names
    the outer binding, so :func:`repro.algebra.plan.rename_vars` renames
    it too.
    """

    opname = "apply"
    output = EXTEND
    plan: Operator = _Field(NESTED)
    inp_var: str | None = _Field(USE)
    out_var: str = _Field(DEF)
    input: Operator = _Field(PLAN)


class NestedSrc(Operator):
    """``nestedSrc_{$x}`` (paper op 12): placeholder leaf of nested plans.

    Evaluates to the set of binding lists bound to ``$x`` in the current
    tuple of the enclosing ``apply``.
    """

    opname = "nSrc"
    output = CONTEXT
    var: str = _Field(USE)


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

    def rename(self, mapping):
        """This entry with its variable substituted per ``mapping``."""
        return RQVar(
            mapping.get(self.var, self.var), self.label, self.columns,
            self.key_positions, self.kind,
        )

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

    ``order_vars`` are variables whose bound elements arrive sorted (the
    SQL carries a matching ORDER BY, as in Fig. 22) — they let the engine
    pick the presorted stateless gBy of Table 1.

    A plan-cache template's ``sql`` has ``?0, ?1, ...`` placeholders;
    ``slots`` names the request slot each stands for, and :meth:`bound`
    gives one request's copy, whose ``params`` are the values the
    engines send along with the unchanged text.  :attr:`display_sql` is
    the statement with those values spelled in.
    """

    opname = "rQ"
    output = OWN
    _display = None
    server: str
    sql: str
    varmap: Sequence[RQVar] = _Field(MAP)
    order_vars: Sequence[str] = _Field(DEFS, default=())
    slots: Sequence = _Field(SEQUENCE, default=())
    params: Sequence = _Field(SEQUENCE, default=())

    def bound(self, values):
        """This rQ with ``params`` taken from one request's ``values``;
        ``self`` when the statement has no placeholder."""
        if not self.slots:
            return self
        return self.replace(params=[values[slot] for slot in self.slots])

    @property
    def display_sql(self):
        """``sql`` with ``params`` spelled in: what EXPLAIN, traces and
        errors show (computed once per node)."""
        text = self._display
        if text is None:
            text = self._display = bind_sql(self.sql, self.params)
        return text

    def signature(self):
        # The map by its entries' signatures; ``order_vars`` follow from
        # the SQL; slots and params only on a slotted statement.
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
    output = OWN
    variables: Sequence[str] = _Field(DEFS, default=())

    def _finish(self):
        self.variables = tuple(sorted(self.variables))


class OrderBy(Operator):
    """``orderBy_{[$V1, ..., $Vm]}`` (paper op 14).

    Sorts input tuples by the *ids* of the bound nodes — "XMAS does not
    have currently an order-by that is based on actual values".
    """

    opname = "orderBy"
    output = EXTEND
    variables: Sequence[str] = _Field(USES)
    input: Operator = _Field(PLAN)
