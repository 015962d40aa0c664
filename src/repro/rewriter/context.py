"""Shared analysis helpers for the rewrite rules.

The rules of Table 2 have side conditions that are not purely structural:
which label a variable's elements carry (to match a ``getD`` path against
a ``crElt``), which variables are still *live* above a node (to turn a
join into a semijoin), which labels a list variable's items can have (to
resolve a ``getD`` over a ``cat``).  :class:`RewriteContext` answers all
of these for one version of the whole plan.

A context is read-only and belongs to the plan it was built over: the
driver makes a new one after every firing (:meth:`successor`).  Each
fact is computed on first use, in one pass over the plan, and kept for
the context's life; nothing is left behind on the plan.
"""

from __future__ import annotations

from functools import cached_property

from repro.algebra import operators as ops
from repro.algebra.plan import (
    VarFactory,
    defined_vars,
    iter_operators,
    nested_env,
)
from repro.xmltree.paths import Step


class RewriteContext:
    """Analyses over the full plan a rule is being applied within."""

    def __init__(self, root, uses=None):
        self.root = root
        self._def_sites = {}
        #: ``{node: {var: how many operators of its subtree read it}}``,
        #: filled on demand; see :meth:`successor`.
        self._uses = {} if uses is None else uses

    def successor(self, root):
        """The context of the next version of the plan.

        What is known per subtree carries over: operators are immutable
        and :func:`~repro.algebra.plan.replace_operator` shares every
        untouched subtree between versions, so a firing recounts only
        the spine above its replacement.
        """
        return RewriteContext(root, self._uses)

    @cached_property
    def nodes(self):
        """The plan's operators in pre-order (nested plans included)."""
        return tuple(iter_operators(self.root))

    @cached_property
    def vars(self):
        """A :class:`VarFactory` avoiding every name in the plan."""
        return VarFactory(self.root)

    def defined_vars(self, node):
        """The output schema of ``node``, a ``nestedSrc`` below it
        resolved through the applies whose nested plans hold it."""
        schema = defined_vars(node)
        if schema is None:
            schema = defined_vars(node, self._envs.get(node))
        return schema

    @cached_property
    def _envs(self):
        """``{node: env}`` for every node of a nested plan."""
        envs = {}
        stack = [(self.root, None)]
        while stack:
            node, env = stack.pop()
            if env is not None:
                envs[node] = env
            stack.extend((child, env) for child in node.children)
            if node.nested_plans:
                inner = nested_env(node, env)
                stack.extend((plan, inner) for plan in node.nested_plans)
        return envs

    # -- labels ------------------------------------------------------------------

    def _defs(self, scope):
        """``(labels, lists)`` of ``scope``: the labels each variable's
        definition sites give its elements, and the first ``cat`` or
        ``apply`` (in pre-order) that binds each list variable."""
        index = self._def_sites.get(id(scope))
        if index is None:
            labels, lists = {}, {}
            nodes = self.nodes if scope is self.root else iter_operators(scope)
            for node in nodes:
                if isinstance(node, (ops.CrElt, ops.GetD)):
                    label = (
                        node.label if isinstance(node, ops.CrElt)
                        else _last_label(node.path)  # None: wildcard/data
                    )
                    labels.setdefault(node.out_var, set()).add(label)
                elif isinstance(node, ops.RelQuery):
                    for entry in node.varmap:
                        labels.setdefault(entry.var, set()).add(entry.label)
                elif isinstance(node, ops.MkSrc):
                    labels.setdefault(node.var, set()).add(None)
                elif isinstance(node, (ops.Cat, ops.Apply)):
                    lists.setdefault(node.out_var, node)
            index = self._def_sites[id(scope)] = (labels, lists)
        return index

    def var_labels(self, var, scope=None):
        """The set of labels elements bound to ``var`` may carry.

        ``None`` in the set means "unknown" (give up matching).
        """
        scope = scope if scope is not None else self.root
        return set(self._defs(scope)[0].get(var, (None,)))

    def list_item_labels(self, var, scope=None):
        """Possible labels of the items of the list bound to ``var``.

        Chases ``cat``/``apply``/``tD`` definitions; ``None`` in the set
        means unknown.
        """
        scope = scope if scope is not None else self.root
        node = self._defs(scope)[1].get(var)
        if isinstance(node, ops.Cat):
            out = set()
            for item_var, single in (
                (node.x_var, node.x_single),
                (node.y_var, node.y_single),
            ):
                if single:
                    out |= self.var_labels(item_var, scope)
                else:
                    out |= self.list_item_labels(item_var, scope)
            return out
        if isinstance(node, ops.Apply) and isinstance(node.plan, ops.TD):
            return self.var_labels(node.plan.var, node.plan)
        return {None}

    def labels_can_match(self, labels, path):
        """Can elements with one of ``labels`` match ``path``'s start?"""
        if None in labels:
            return True
        return any(path.starts_with_label(l) for l in labels)

    # -- liveness ------------------------------------------------------------------

    def used_above(self, target):
        """Variables consumed by operators strictly above ``target``.

        "Above" is every operator outside ``target``'s subtree: the
        path(s) from the root down to — but excluding — ``target``, plus
        all side branches hanging off that path (a join sibling may
        consume the variable too; not for well-formed joins, whose
        inputs are disjoint, but stay conservative).  A ``target`` that
        is not in the plan (already replaced) gets everything used
        anywhere.
        """
        everywhere = self._subtree_uses(self.root)
        times = self.nodes.count(target)  # operators compare by identity
        if not times:
            return set(everywhere)
        inside = self._subtree_uses(target)
        return {
            var for var, count in everywhere.items()
            if count > times * inside.get(var, 0)
        }

    def _subtree_uses(self, node):
        """How many operators of ``node``'s subtree (nested plans
        included) read each variable."""
        uses = self._uses.get(node)
        if uses is None:
            subtrees = node.children
            if isinstance(node, ops.Apply):
                subtrees += (node.plan,)
            uses = {}
            for child in subtrees:
                below = self._subtree_uses(child)
                if uses:
                    for var, count in below.items():
                        uses[var] = uses.get(var, 0) + count
                else:
                    uses = dict(below)
            for var in node.used_vars():
                uses[var] = uses.get(var, 0) + 1
            self._uses[node] = uses
        return uses


def _last_label(path):
    steps = path.without_data().steps
    if steps and steps[-1].kind == Step.LABEL:
        return steps[-1].label
    return None
