"""Operator-level navigation: the six calls of Section 4.

"Each operator op of the engine is implemented by a Java class
supporting the six calls described below: getRoot(), r(p), d(p), fl(p),
fv(p), and f(p, $V)."  The paper views every operator's output as the
Fig.-5 binding-list tree; this module exposes exactly that interface
over the lazy engine's streams, with the navigation every answer uses:

* ``getRoot()`` returns a :class:`~repro.engine.vtree.VNode` on the
  ``list`` node at the root of the operator's exported table, a lazy
  :func:`~repro.algebra.bindings.bindings_to_tree` over its stream;
* ``d``/``r``/``fl``/``fv`` are that node's ``down``/``right``/
  ``label``/``value``: they walk into binding nodes, variable nodes, and
  value subtrees, pulling tuples from the operator (and ultimately from
  the sources) only as navigation demands;
* ``f(p, $V)`` (:func:`f`) jumps from a binding node straight to the
  node of the value bound to ``$V`` — "to facilitate access to the
  attributes of the bindings".
"""

from __future__ import annotations

from repro.errors import NavigationError
from repro.algebra.bindings import BindingNode, bindings_to_tree
from repro.engine.vtree import VNode, command_span


def f(binding, var):
    """``f(p, $V)``: the value node ``var`` is bound to under the
    binding node ``binding``, as one command."""
    node = binding.node
    with command_span(binding.obs, "f", node):
        if not isinstance(node, BindingNode):
            raise NavigationError("f(p, $V) is defined on binding nodes only")
        for index, var_node in enumerate(node):
            if var_node.label == var:
                var_vnode = binding._wrap_child(var_node, index)
                return var_vnode._wrap_child(var_node.child(0), 0)
        raise NavigationError("no binding for {}".format(var))


class OperatorTable:
    """The Section-4 interface over one operator of a plan.

    Example::

        table = OperatorTable(LazyEngine(catalog), some_plan)
        root = table.get_root()          # the 'list' node
        binding = root.down()            # first binding tuple (lazy!)
        value = f(binding, "$C")         # jump to $C's value node
    """

    def __init__(self, engine, plan, env=None):
        self._engine = engine
        self._plan = plan
        self._env = env or {}
        self._root = None

    def get_root(self):
        """``getRoot()``: the list node of the operator's output table.

        "The getRoot() call always makes getRoot() calls to the
        operators that are the input" — here the stream graph below is
        built once, on the first call, but no tuple is pulled yet.
        """
        obs = self._engine.stats
        if self._root is None:
            stream = self._engine.stream(self._plan, self._env)
            self._root = VNode(bindings_to_tree(stream), obs=obs)
        with command_span(obs, "getRoot", self._root.node):
            return self._root
