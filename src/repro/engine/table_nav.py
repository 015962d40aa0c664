"""Operator-level navigation: the six calls of Section 4.

"Each operator op of the engine is implemented by a Java class
supporting the six calls described below: getRoot(), r(p), d(p), fl(p),
fv(p), and f(p, $V)."  The paper views every operator's output as the
Fig.-5 binding-list tree; this module exposes exactly that interface
over the lazy engine's streams:

* ``getRoot()`` returns the ``list`` node at the root of the operator's
  exported table;
* ``d``/``r`` walk into binding nodes, variable nodes, and value
  subtrees, pulling tuples from the operator (and ultimately from the
  sources) only as navigation demands;
* ``f(p, $V)`` jumps from a binding node straight to the node of the
  value bound to ``$V`` — "to facilitate access to the attributes of
  the bindings".
"""

from __future__ import annotations

from repro.errors import NavigationError
from repro.xmltree.tree import Node
from repro.algebra.bindings import BindingSet
from repro.algebra.values import VList
from repro.obs.instrument import NULL_SPAN


class TableNode:
    """One node of an operator's exported binding-list tree.

    ``kind`` is one of ``root`` (the list node), ``binding``, ``var``
    (a variable node under a binding), or ``value`` (a node of the value
    subtree, including nested sets rendered as in Fig. 5).
    """

    __slots__ = ("kind", "_payload", "_parent", "_index", "obs")

    def __init__(self, kind, payload, parent=None, index=0, obs=None):
        self.kind = kind
        self._payload = payload
        self._parent = parent
        self._index = index
        self.obs = obs if obs is not None else (
            parent.obs if parent is not None else None
        )

    def _command(self, name):
        """Span of one Section-4 call arriving at this node (or a no-op)."""
        if self.obs is None:
            return NULL_SPAN
        return self.obs.command_span(
            name, kind="navigation", table_node=self.kind
        )

    # -- fetches --------------------------------------------------------------

    def fl(self):
        """Label fetch."""
        if self.kind == "root":
            return "list"
        if self.kind == "binding":
            return "binding"
        if self.kind == "var":
            return self._payload[0]  # the variable name
        return _value_label(self._payload)

    def fv(self):
        """Value fetch (leaves only)."""
        if self.kind == "value" and isinstance(self._payload, Node):
            if self._payload.is_leaf:
                return self._payload.label
        return None

    # -- navigation -------------------------------------------------------------

    def d(self):
        """First child."""
        with self._command("d"):
            children = self._child_source()
            return children(0)

    def r(self):
        """Right sibling."""
        with self._command("r"):
            if self._parent is None:
                return None
            siblings = self._parent._child_source()
            return siblings(self._index + 1)

    def f(self, var):
        """``f(p, $V)``: the value node of a binding's variable."""
        with self._command("f"):
            if self.kind != "binding":
                raise NavigationError(
                    "f(p, $V) is defined on binding nodes only"
                )
            binding_tuple = self._payload
            if not binding_tuple.has(var):
                raise NavigationError("no binding for {}".format(var))
            return TableNode("value", binding_tuple.get(var), self, 0)

    # -- child production ----------------------------------------------------------

    def _child_source(self):
        """A function index -> TableNode|None producing our children."""
        if self.kind == "root":
            stream = self._payload  # the operator's BindingSet

            def binding_at(i, parent=self):
                t = stream.tuple_at(i)
                if t is None:
                    return None
                return TableNode("binding", t, parent, i)

            return binding_at

        if self.kind == "binding":
            variables = sorted(self._payload.variables())

            def var_at(i, parent=self, names=variables):
                if i >= len(names):
                    return None
                return TableNode(
                    "var", (names[i], parent._payload.get(names[i])),
                    parent, i,
                )

            return var_at

        if self.kind == "var":
            value = self._payload[1]

            def value_at(i, parent=self, v=value):
                if i != 0:
                    return None
                return TableNode("value", v, parent, 0)

            return value_at

        # value nodes
        value = self._payload
        if isinstance(value, Node):

            def node_child_at(i, parent=self, v=value):
                child = v.child(i)
                if child is None:
                    return None
                return TableNode("value", child, parent, i)

            return node_child_at
        if isinstance(value, VList):

            def list_item_at(i, parent=self, v=value):
                item = v.item(i)
                if item is None:
                    return None
                return TableNode("value", item, parent, i)

            return list_item_at
        if isinstance(value, BindingSet):

            def nested_binding_at(i, parent=self, v=value):
                t = v.tuple_at(i)
                if t is None:
                    return None
                return TableNode("binding", t, parent, i)

            return nested_binding_at
        return lambda i: None

    def __repr__(self):
        return "TableNode({}, {})".format(self.kind, self.fl())


def _value_label(value):
    if isinstance(value, Node):
        return value.label
    if isinstance(value, VList):
        return "list"
    if isinstance(value, BindingSet):
        return "set"
    return "?"


class OperatorTable:
    """The Section-4 interface over one operator of a plan.

    Example::

        table = OperatorTable(LazyEngine(catalog), some_plan)
        root = table.get_root()          # the 'list' node
        binding = root.d()               # first binding tuple (lazy!)
        value = binding.f("$C")          # jump to $C's value node
    """

    def __init__(self, engine, plan, env=None):
        self._engine = engine
        self._plan = plan
        self._env = env or {}
        self._stream = None

    def get_root(self):
        """``getRoot()``: the list node of the operator's output table.

        "The getRoot() call always makes getRoot() calls to the
        operators that are the input" — here the stream graph below is
        built, but no tuple is pulled yet.
        """
        obs = getattr(self._engine, "stats", None)
        if obs is not None:
            with obs.command_span("getRoot", kind="navigation"):
                if self._stream is None:
                    self._stream = self._engine.stream(self._plan, self._env)
                return TableNode("root", self._stream, obs=obs)
        if self._stream is None:
            self._stream = self._engine.stream(self._plan, self._env)
        return TableNode("root", self._stream)
