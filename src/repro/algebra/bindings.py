"""Binding tuples and binding sets, with the Fig.-5 tree representation.

A *binding list* (we say binding tuple, to avoid clashing with Python
lists) is ``[$var1 = val1, ..., $vark = valk]``; a *set of binding lists*
is the input/output of most XMAS operators.  "For the purposes of
evaluating navigational commands, the output of each operator is also
viewed as a tree" — :func:`bindings_to_tree` builds exactly the paper's
Fig. 5 rendering.
"""

from __future__ import annotations

from repro.errors import MixError, PlanError
from repro.xmltree.tree import LazyPrefix, Node, OidGenerator
from repro.algebra.values import VList, value_key, values_equal


class BindingTuple:
    """An immutable tuple of variable/value bindings.

    Variables are strings that include the ``$`` sigil (``"$C"``), exactly
    as the paper writes them.
    """

    __slots__ = ("_bindings",)

    def __init__(self, bindings=()):
        self._bindings = dict(bindings)
        for var in self._bindings:
            _check_var(var)

    # -- access ---------------------------------------------------------------

    def get(self, var):
        """The value bound to ``var`` (raises :class:`PlanError` if absent)."""
        try:
            return self._bindings[var]
        except KeyError:
            raise PlanError(
                "no binding for {} in tuple over {}".format(
                    var, sorted(self._bindings)
                )
            )

    def has(self, var):
        return var in self._bindings

    def variables(self):
        """The set of variables bound in this tuple."""
        return frozenset(self._bindings)

    def items(self):
        return self._bindings.items()

    # -- construction -----------------------------------------------------------

    def extend(self, var, value):
        """The paper's ``b + ($v = w)``; ``var`` must not be bound yet."""
        _check_var(var)
        if var in self._bindings:
            raise PlanError("variable {} already bound".format(var))
        merged = dict(self._bindings)
        merged[var] = value
        return BindingTuple(merged)

    def merge(self, other):
        """The paper's ``b1 + b2``; variable sets must be disjoint."""
        overlap = self.variables() & other.variables()
        if overlap:
            raise PlanError(
                "cannot merge tuples sharing variables {}".format(
                    sorted(overlap)
                )
            )
        merged = dict(self._bindings)
        merged.update(other._bindings)
        return BindingTuple(merged)

    def project(self, variables):
        """Restrict to ``variables`` (all must be bound)."""
        return BindingTuple({v: self.get(v) for v in variables})

    def rename(self, mapping):
        """A copy with variables renamed per ``mapping`` (old -> new)."""
        renamed = {}
        for var, value in self._bindings.items():
            renamed[mapping.get(var, var)] = value
        return BindingTuple(renamed)

    # -- comparison ---------------------------------------------------------------

    def key(self, variables=None):
        """Hashable grouping/dedup key over ``variables`` (default: all)."""
        if variables is None:
            variables = sorted(self._bindings)
        return tuple((v, value_key(self.get(v))) for v in variables)

    def equals(self, other):
        if self.variables() != other.variables():
            return False
        return all(
            values_equal(self.get(v), other.get(v)) for v in self.variables()
        )

    def __repr__(self):
        inner = ", ".join(
            "{}={!r}".format(v, val) for v, val in sorted(self._bindings.items())
        )
        return "[{}]".format(inner)


class BindingSet(LazyPrefix):
    """An ordered collection of binding tuples.

    The paper calls it a set; order still matters because QDOM navigation
    walks it left to right, so we keep insertion order and do duplicate
    elimination only where an operator (``project``) requires it.

    A BindingSet is the eager engine's plain list: it is built whole
    (or by :meth:`append`).  The lazy engine's sets are its subclass
    :class:`~repro.engine.block.BlockSet`, whose tuples are pulled only
    as far as they are read.
    """

    __slots__ = ()

    def __init__(self, tuples=()):
        LazyPrefix.__init__(self, tuples)

    tuples = property(LazyPrefix._forced)
    tuple_at = LazyPrefix.item

    def __len__(self):
        return len(self.tuples)

    def __getitem__(self, index):
        return self.tuples[index]

    def append(self, binding_tuple):
        self._items.append(binding_tuple)

    def variables(self):
        """Variables common to the tuples (empty set when no tuples)."""
        first = self.tuple_at(0)
        if first is None:
            return frozenset()
        return first.variables()

    def __repr__(self):
        return "BindingSet({} tuples)".format(len(self._items))


def _check_var(var):
    if not isinstance(var, str) or not var.startswith("$"):
        raise MixError("variables must look like '$X', got {!r}".format(var))


def bindings_to_tree(binding_set, oids=None, root_label="list"):
    """The Fig.-5 tree representation of a set of binding lists.

    The root is labeled ``list``; its children are ``binding`` nodes; each
    binding node has one child per variable, labeled with the variable
    name, whose single child is the value subtree (a list value becomes a
    ``list``-labeled node, a nested set recurses).

    Every child list is a lazy tail, so the tree costs only what is read
    of it: the root pulls one binding tuple per child read, a binding
    builds its variable nodes as they are read, and a list or nested set
    value is pulled only as far as it is read.  Oids are drawn from
    ``oids`` as nodes are built, so their order follows the reads.
    """
    gen = oids or OidGenerator("b")
    return Node(gen.fresh(), root_label,
                lazy_tail=_binding_nodes(binding_set, gen))


class BindingNode(Node):
    """A ``binding`` node of the Fig.-5 tree (what ``f(p, $V)`` starts
    from)."""

    __slots__ = ()


def _binding_nodes(binding_set, gen):
    for binding_tuple in binding_set:
        yield BindingNode(gen.fresh(), "binding",
                          lazy_tail=_var_nodes(binding_tuple, gen))


def _var_nodes(binding_tuple, gen):
    for var in sorted(binding_tuple.variables()):
        value = binding_tuple.get(var)
        yield Node(gen.fresh(), var, (_value_to_tree(value, gen),))


def _value_to_tree(value, gen):
    if isinstance(value, Node):
        return value
    if isinstance(value, VList):
        return Node(gen.fresh(), "list",
                    lazy_tail=(_value_to_tree(item, gen) for item in value))
    if isinstance(value, BindingSet):
        return bindings_to_tree(value, gen, root_label="set")
    raise MixError("not a XMAS value: {!r}".format(value))
