"""Values a variable may be bound to, and skolem object ids.

The paper (Section 3): "Each value can either be a single element, a list
of elements or a set of binding lists."  Single elements are
:class:`repro.xmltree.Node`; lists are :class:`VList`; nested sets are
:class:`repro.algebra.bindings.BindingSet`.

Constructed elements (``crElt``) get a :class:`Skolem` oid ``f(~g)`` over
the grouping variables — "the constructed id's include all information
necessary for tracing the ancestry of an object", which is what
decontextualization (Section 5) decodes.
"""

from __future__ import annotations

from repro.errors import MixError
from repro.xmltree.tree import LazyPrefix, Node


class VList(LazyPrefix):
    """An ordered list of values (elements or nested sets).

    ``cat`` produces these; ``crElt`` consumes one as its child list; a
    ``tD`` plan nested under ``apply`` binds one.

    Like a :class:`~repro.xmltree.tree.Node`'s children, a VList is a
    :class:`~repro.xmltree.tree.LazyPrefix`: the lazy engine binds list
    values whose items are produced only as navigation demands;
    :meth:`item` forces only the requested prefix, ``items`` forces
    everything.
    """

    __slots__ = ()

    items = property(LazyPrefix._forced)

    def __len__(self):
        return len(self.items)

    def __getitem__(self, index):
        return self.items[index]

    def concat(self, other):
        return VList(self.items + list(other.items))

    def lazy_concat(self, other):
        """Concatenation without forcing either operand."""
        return CatList(self, other)

    def parts(self):
        """The lists whose items, in order, are this list's."""
        return (self,)

    def __repr__(self):
        if self._tail is not None:
            return "VList({}+ items, lazy)".format(len(self._items))
        return "VList({})".format(self._items)

    def __eq__(self, other):
        return isinstance(other, VList) and values_equal_list(
            self.items, other.items
        )


class CatList(VList):
    """``cat``'s list: the items of ``left``, then those of ``right``.

    It keeps its operands, so a constructed element over it holds them
    (:meth:`parts`) and pulls its children from them directly; read as
    a list, it pulls them through its own memoized prefix.
    """

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

        def tail():
            for value in left:
                yield value
            for value in right:
                yield value

        VList.__init__(self, (), lazy_tail=tail())

    def parts(self):
        return self.left.parts() + self.right.parts()


class Skolem:
    """A skolem object id ``(var, f(args...))``.

    The paper's Fig. 7 prints constructed ids as ``&($V, f(&XYZ123))``:
    the *variable* the element was bound to before ``tD`` plus the skolem
    function applied to the key values of the grouping variables.  Both
    parts are needed to issue a query from the node later (Section 5).
    """

    __slots__ = ("var", "fn", "args", "arg_vars")

    def __init__(self, var, fn, args, arg_vars=()):
        self.var = var
        self.fn = fn
        self.args = tuple(args)
        self.arg_vars = tuple(arg_vars)

    def fixed_bindings(self):
        """``{group var: key value}`` — the context this id pins down.

        This is the Section-5 information "about the values of the
        group-by attributes associated with the nodes that enclose the
        given node".
        """
        return dict(zip(self.arg_vars, self.args))

    def __repr__(self):
        rendered_args = ",".join(str(a) for a in self.args)
        return "&({},{}({}))".format(self.var, self.fn, rendered_args)

    def __eq__(self, other):
        return (
            isinstance(other, Skolem)
            and self.var == other.var
            and self.fn == other.fn
            and self.args == other.args
        )

    def __hash__(self):
        return hash((self.var, self.fn, self.args))


def value_kind(value):
    """One of ``"element"``, ``"list"``, ``"set"`` — the paper's three
    value kinds (raises on anything else)."""
    from repro.algebra.bindings import BindingSet

    if isinstance(value, Node):
        return "element"
    if isinstance(value, VList):
        return "list"
    if isinstance(value, BindingSet):
        return "set"
    raise MixError("not a XMAS value: {!r}".format(value))


def value_key(value):
    """A hashable identity for a value, used for grouping and duplicate
    elimination.

    Elements group by their oid (the paper: tuples "agree on the values of
    the variables" — for wrapper elements oids *are* the key values, and
    for constructed elements they are skolems of keys).  Lists and nested
    sets group recursively.
    """
    from repro.algebra.bindings import BindingSet

    if isinstance(value, Node):
        return ("e", _node_identity(value))
    if isinstance(value, VList):
        return ("l", tuple(value_key(v) for v in value.items))
    if isinstance(value, BindingSet):
        return (
            "s",
            tuple(tuple(sorted(
                (var, value_key(val)) for var, val in t.items()
            )) for t in value),
        )
    raise MixError("not a XMAS value: {!r}".format(value))


def _node_identity(node):
    oid = node.oid
    if isinstance(oid, Skolem):
        return ("sk", oid.var, oid.fn, oid.args)
    if node.is_leaf:
        # Leaves compare by value: two fetches of the same relational
        # field must group together even under surrogate oids.
        return ("leaf", node.label)
    return ("oid", oid)


def values_equal(a, b):
    """Deep structural equality of two values (oid-insensitive for plain
    nodes, skolem-sensitive for constructed ones)."""
    from repro.algebra.bindings import BindingSet
    from repro.xmltree.tree import deep_equals

    if isinstance(a, Node) and isinstance(b, Node):
        return deep_equals(a, b)
    if isinstance(a, VList) and isinstance(b, VList):
        return values_equal_list(a.items, b.items)
    if isinstance(a, BindingSet) and isinstance(b, BindingSet):
        if len(a) != len(b):
            return False
        return all(ta.equals(tb) for ta, tb in zip(a, b))
    return False


def values_equal_list(items_a, items_b):
    if len(items_a) != len(items_b):
        return False
    return all(values_equal(x, y) for x, y in zip(items_a, items_b))
