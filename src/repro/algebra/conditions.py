"""The condition language of ``select`` and ``join``.

Conditions are ``$v op c`` or ``$v1 op $v2`` with ``op`` one of
``=, !=, <, <=, >, >=`` (paper Section 3, items 3 and 5).  A condition is
true for a tuple when the operand variables are bound to leaf nodes whose
values compare accordingly; we use XQuery ``data()`` atomization (a leaf,
or an element with a single leaf child), which subsumes the paper's
leaf-only rule — see :func:`repro.xmltree.tree.atomize`.

Two further comparison modes are required by Sections 5-6:

* ``oid`` — fix a variable to a specific object id (``$C = &XYZ123`` in
  Fig. 10, added during decontextualization);
* ``key`` — two variables are bound to *the same object* (equality of
  oids/keys rather than atomized values).  Rule 9 of Table 2 introduces
  joins whose condition is exactly this: the copied branch's group
  variable must denote the same element as the original's.
"""

from __future__ import annotations

from repro.errors import ParameterValueDemanded, PlanError
from repro.relational.executor import compare
from repro.relational.types import FLIPPED
from repro.xmltree.tree import Node, atomize
from repro.algebra.values import Skolem, value_key

_OPS = ("=", "!=", "<", "<=", ">", ">=")

#: Comparison modes.
VALUE = "value"
OID = "oid"
KEY = "key"


class VarOperand:
    """A variable reference in a condition."""

    __slots__ = ("var",)

    def __init__(self, var):
        self.var = var

    def __repr__(self):
        return self.var

    def __eq__(self, other):
        return isinstance(other, VarOperand) and self.var == other.var

    def __hash__(self):
        return hash(("v", self.var))


class ConstOperand:
    """A constant (int/float/str, or an oid string in ``oid`` mode)."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        if isinstance(self.value, str):
            return '"{}"'.format(self.value)
        return str(self.value)

    def __eq__(self, other):
        return isinstance(other, ConstOperand) and self.value == other.value

    def __hash__(self):
        return hash(("c", self.value))


class ParamOperand(ConstOperand):
    """A literal left open while a query *shape* is compiled.

    ``index`` is its slot in the values bound at evaluation time
    (:func:`repro.cache.shapes.bind_plan`); equal literals of one
    request share a slot, so two parameters are equal exactly when the
    constants they stand for are.  Every compile step that only moves
    or compares conditions treats it as the constant it is; one that
    reads ``value`` gets :class:`~repro.errors.ParameterValueDemanded`.
    """

    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index

    @property
    def value(self):
        raise ParameterValueDemanded(
            "the value of parameter {!r} is not known at compile "
            "time".format(self)
        )

    def __repr__(self):
        return "?{}".format(self.index)

    def __eq__(self, other):
        return isinstance(other, ParamOperand) and self.index == other.index

    def __hash__(self):
        return hash(("p", self.index))


class Condition:
    """``left op right`` over variables and constants.

    Args:
        left, right: :class:`VarOperand` or :class:`ConstOperand`.
        op: one of ``=, !=, <, <=, >, >=``.
        mode: ``"value"`` (atomized-value comparison, the paper's
            default), ``"oid"`` (pin a variable to an object id), or
            ``"key"`` (two variables denote the same object).
    """

    __slots__ = ("left", "op", "right", "mode")

    def __init__(self, left, op, right, mode=VALUE):
        if op not in _OPS:
            raise PlanError("unknown comparison operator {!r}".format(op))
        if mode not in (VALUE, OID, KEY):
            raise PlanError("unknown condition mode {!r}".format(mode))
        if mode in (OID, KEY) and op not in ("=", "!="):
            raise PlanError("{} conditions support only = and !=".format(mode))
        self.left = left
        self.op = op
        self.right = right
        self.mode = mode

    # -- constructors ----------------------------------------------------------

    @classmethod
    def var_const(cls, var, op, value):
        """``var op value``; ``value`` may be a ready-made operand (a
        :class:`ParamOperand` standing for a literal)."""
        if not isinstance(value, ConstOperand):
            value = ConstOperand(value)
        return cls(VarOperand(var), op, value)

    @classmethod
    def var_var(cls, left_var, op, right_var):
        return cls(VarOperand(left_var), op, VarOperand(right_var))

    @classmethod
    def oid_equals(cls, var, oid):
        """Pin ``var`` to the node with object id ``oid`` (Section 5)."""
        return cls(VarOperand(var), "=", ConstOperand(str(oid)), mode=OID)

    @classmethod
    def key_equals(cls, left_var, right_var):
        """``left_var`` and ``right_var`` denote the same object (rule 9)."""
        return cls(VarOperand(left_var), "=", VarOperand(right_var), mode=KEY)

    # -- inspection -------------------------------------------------------------

    def variables(self):
        out = set()
        for operand in (self.left, self.right):
            if isinstance(operand, VarOperand):
                out.add(operand.var)
        return out

    def is_var_const(self):
        return isinstance(self.left, VarOperand) and isinstance(
            self.right, ConstOperand
        )

    def is_var_var(self):
        return isinstance(self.left, VarOperand) and isinstance(
            self.right, VarOperand
        )

    def flipped(self):
        """The same condition with operands swapped (`$a < $b` -> `$b > $a`)."""
        return Condition(
            self.right, FLIPPED[self.op], self.left, mode=self.mode
        )

    def rename(self, mapping):
        """The condition with variables substituted per ``mapping``."""

        def sub(operand):
            if isinstance(operand, VarOperand):
                return VarOperand(mapping.get(operand.var, operand.var))
            return operand

        return Condition(sub(self.left), self.op, sub(self.right), self.mode)

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, binding_tuple, extra=None):
        """Truth of the condition on one tuple.

        ``extra`` optionally supplies a second tuple (join evaluation);
        variables are looked up in the first tuple, then the second.
        """

        def bound_value(operand):
            if binding_tuple.has(operand.var):
                return binding_tuple.get(operand.var)
            if extra is not None and extra.has(operand.var):
                return extra.get(operand.var)
            raise PlanError(
                "condition references unbound {}".format(operand.var)
            )

        if self.mode == OID:
            node = bound_value(self.left)
            oid = node.oid if isinstance(node, Node) else None
            result = oid is not None and str(oid) == str(self.right.value)
            return result if self.op == "=" else not result

        if self.mode == KEY:
            left = bound_value(self.left)
            right = bound_value(self.right)
            result = value_key(left) == value_key(right)
            return result if self.op == "=" else not result

        def atomized(operand):
            if isinstance(operand, ConstOperand):
                return operand.value
            bound = bound_value(operand)
            if isinstance(bound, Node):
                return atomize(bound)
            return None  # lists/sets never satisfy a value comparison

        return compare(atomized(self.left), self.op, atomized(self.right))

    # -- identity ---------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Condition)
            and self.left == other.left
            and self.op == other.op
            and self.right == other.right
            and self.mode == other.mode
        )

    def __hash__(self):
        return hash((self.left, self.op, self.right, self.mode))

    def __repr__(self):
        if self.mode == KEY:
            return "{!r} == {!r}".format(self.left, self.right)
        if self.mode == OID:
            return "{!r} = {}".format(self.left, self.right.value)
        return "{!r} {} {!r}".format(self.left, self.op, self.right)


def skolem_arg_of(value):
    """The key a value contributes to a skolem id.

    For wrapper elements the oid *is* the key (``&XYZ123``); for leaves
    the value itself; for constructed elements their skolem id.
    """
    if isinstance(value, Node):
        if isinstance(value.oid, Skolem):
            return value.oid
        if value.is_leaf:
            return value.label
        return value.oid
    raise PlanError("skolem arguments must be elements, got {!r}".format(value))
