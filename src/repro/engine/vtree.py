"""The virtual result tree: QDOM navigation over lazy results (§2, §5).

A :class:`VNode` is the engine-side object behind each node id the
mediator exports.  It supports the paper's navigation commands —

* ``down()``  — ``d(p)``: first child,
* ``right()`` — ``r(p)``: right sibling,
* ``label()`` — ``fl(p)``: label fetch,
* ``value()`` — ``fv(p)``: value fetch (leaves only) —

and decodes the Section-5 id payload: the variable the node was bound to
before ``tD`` and the group-by key values of every enclosing constructed
element (read off the skolem oids of its parent chain).  That payload
is exactly what :mod:`repro.composer` decodes to decontextualize a query
issued from this node.
"""

from __future__ import annotations

from repro.errors import NavigationError
from repro.algebra.values import Skolem
from repro.obs.instrument import NULL_SPAN
from repro.stats import PREFETCH_HITS, QDOM_COMMANDS


def command_span(obs, name, node):
    """The span of one QDOM command ``name`` arriving at ``node``;
    counts the command on ``obs`` (``None``: no instrument)."""
    if obs is None:
        return NULL_SPAN
    obs.incr(QDOM_COMMANDS)
    return obs.command_span(name, kind="navigation", oid=str(node.oid))


def force_children(node, count, obs):
    """The engine half of ``d_many``: force the first ``count`` children
    of ``node`` (all when ``None``) and return how many of those are
    materialized.  Children an earlier command forced count as
    :data:`~repro.stats.PREFETCH_HITS`.  Wraps nothing: a bulk export
    reads :func:`~repro.xmltree.tree.held_children` afterwards, and a
    constructed object forced whole builds no child list."""
    already = node.materialized_child_count
    if count is None:
        if not node.fully_materialized:
            node.materialize()
        total = node.materialized_child_count
    else:
        node.prefetch_children(count, 0)
        total = min(count, node.materialized_child_count)
    if obs is not None and already:
        obs.incr(PREFETCH_HITS, min(already, total))
    return total


class Provenance:
    """What a node id tells the mediator about the node's origin.

    Attributes:
        var: the plan variable the node was bound to (``$V`` for a
            CustRec of Fig. 7, ``$C`` for the customer element inside
            it), or ``None`` when the node is not variable-addressable.
        fixed: ``{variable: key}`` — values of the group-by variables of
            every enclosing constructed element, decoded from skolem ids.
    """

    __slots__ = ("var", "fixed")

    def __init__(self, var, fixed):
        self.var = var
        self.fixed = dict(fixed)

    def __repr__(self):
        inner = ", ".join(
            "{}={}".format(v, k) for v, k in sorted(self.fixed.items())
        )
        return "Provenance({}; {})".format(self.var, inner)


class VNode:
    """A navigable handle on one node of a (possibly virtual) result tree.

    VNodes are cheap wrappers: the underlying :class:`Node` may have a
    lazy tail, and navigation forces exactly the prefix it visits.

    **Prefetch** (block execution): with ``prefetch=k > 1`` every
    ``d``/``r`` that must force the underlying tail forces up to ``k``
    children in one go (best-effort — a failure past the demanded child
    stays parked, see :meth:`Node.prefetch_children`); subsequent
    commands land on the materialized prefix and count
    :data:`~repro.stats.PREFETCH_HITS` instead of touching the engine.
    ``prefetch=1`` is the seed's one-hop-one-force behavior.

    **Demand**: a root given its answer's plan records on it how many
    children navigation reached, and with a prior demand forces
    ``min(max(demand, 4·index), prefetch)`` per step, as the engine's
    ramp pulls them.
    """

    __slots__ = ("node", "parent", "index", "obs", "prefetch", "plan",
                 "demand")

    def __init__(self, node, parent=None, index=0, obs=None, prefetch=1):
        self.node = node
        self.parent = parent
        self.index = index
        self.obs = obs
        self.prefetch = max(int(prefetch), 1)
        self.plan = None
        self.demand = None

    # -- construction -------------------------------------------------------------

    @classmethod
    def root(cls, node, obs=None, prefetch=1, plan=None):
        """Wrap a result root (the ``tD`` output).

        ``obs`` is the :class:`~repro.obs.Instrument` navigation commands
        report to; it — like ``prefetch`` — is inherited by every VNode
        reached from here.  ``plan`` is the answer's
        :class:`~repro.cache.shapes.PreparedPlan`, if it has one.
        """
        vnode = cls(node, obs=obs, prefetch=prefetch)
        vnode.plan = plan
        vnode.demand = None if plan is None else plan.demand
        return vnode

    def note_demand(self, reached):
        """Record ``reached`` root children on the plan (roots only)."""
        if self.plan is not None:
            self.plan.note_demand(min(reached, self.prefetch))

    def _wrap_child(self, child, index):
        return VNode(child, self, index, self.obs, self.prefetch)

    def _child_prefetched(self, index):
        """``node.child(index)``, forcing ``prefetch`` children at once.

        Reads of the already-materialized prefix never force (and never
        raise) — they are the prefetch hits the counters expose.
        """
        node = self.node
        self.note_demand(index + 1)
        if self.prefetch <= 1:
            return node.child(index)
        if node.materialized_child_count > index:
            if self.obs is not None:
                self.obs.incr(PREFETCH_HITS)
            return node.child(index)
        step = self.prefetch
        if self.demand is not None:
            step = min(max(self.demand, 4 * index), step)
        node.prefetch_children(index + 1, step - 1)
        return node.child(index)

    def _command(self, name):
        """The span of one QDOM command arriving at this node."""
        return command_span(self.obs, name, self.node)

    # -- the QDOM navigation commands (Section 2) -------------------------------------

    def down(self):
        """``d(p)``: the first child, or ``None`` on a leaf."""
        with self._command("d"):
            child = self._child_prefetched(0)
            if child is None:
                return None
            return self._wrap_child(child, 0)

    def right(self):
        """``r(p)``: the right sibling, or ``None`` at the end."""
        with self._command("r"):
            if self.parent is None:
                return None
            sibling = self.parent._child_prefetched(self.index + 1)
            if sibling is None:
                return None
            return self.parent._wrap_child(sibling, self.index + 1)

    def down_many(self, count=None):
        """``d_many(p, k)``: the first ``count`` children (all when
        ``None``) under **one** command span — the bulk-navigation
        command of block execution.  Children forced by an earlier
        prefetch are counted as hits (:func:`force_children`)."""
        with self._command("d_many"):
            self.note_demand(self.prefetch if count is None else count)
            node = self.node
            total = force_children(node, count, self.obs)
            return [
                self._wrap_child(node.child(i), i) for i in range(total)
            ]

    def label(self):
        """``fl(p)``: the node's label."""
        with self._command("fl"):
            return self.node.label

    def value(self):
        """``fv(p)``: the leaf's value, or ``None`` on a non-leaf."""
        with self._command("fv"):
            if not self.node.is_leaf:
                return None
            return self.node.label

    def children(self):
        """All children as VNodes (forces them — a test convenience, not
        a QDOM command)."""
        out = []
        child = self.down()
        while child is not None:
            out.append(child)
            child = child.right()
        return out

    # -- Section 5: the id's decodable payload ---------------------------------------

    def provenance(self):
        """The decontextualization payload of this node's id.

        Its ``fixed`` bindings fold the skolem oids' group values from
        the root's first-level node down to this one (the root itself
        excluded), a deeper binding winning.  Then:

        * a constructed node (skolem oid) is addressed by its skolem
          variable;
        * a source element equal to one of the fixed group values is
          addressed by that group variable (the customer ``&XYZ123``
          inside a CustRec created with skolem ``f(&XYZ123)``);
        * anything else has ``var=None`` and cannot root an in-place
          query (the paper requires group-by values forming a key).
        """
        skolems = []
        vnode = self
        while vnode.parent is not None:
            if isinstance(vnode.node.oid, Skolem):
                skolems.append(vnode.node.oid)
            vnode = vnode.parent
        fixed = {}
        for skolem in reversed(skolems):
            fixed.update(skolem.fixed_bindings())
        oid = self.node.oid
        if isinstance(oid, Skolem):
            return Provenance(oid.var, fixed)
        for var, key in fixed.items():
            if str(key) == str(oid):
                return Provenance(var, fixed)
        return Provenance(None, fixed)

    def require_query_root(self):
        """Validate this node can root an in-place query; returns its
        :class:`Provenance` (raises :class:`NavigationError`)."""
        if self.parent is None:
            return Provenance(None, {})
        prov = self.provenance()
        if prov.var is None:
            raise NavigationError(
                "node {} carries no variable provenance; queries may be "
                "issued from the result root, constructed elements, or "
                "group-key source elements".format(self.node.oid)
            )
        return prov

    def __repr__(self):
        return "{}({}:{})".format(
            type(self).__name__, self.node.oid, self.node.label
        )


def walk_fully(vnode):
    """Force the entire subtree below ``vnode`` via navigation commands
    only; returns the number of nodes visited.  Used by tests to prove
    the lazy engine materializes exactly what navigation touches."""
    count = 1
    child = vnode.down()
    while child is not None:
        count += walk_fully(child)
        child = child.right()
    return count


def vnode_to_tree(vnode):
    """Materialize the subtree at ``vnode`` into a plain Node tree.

    Materialization is a bulk export, not navigation: it forces the
    underlying nodes directly rather than replaying one instrumented
    QDOM command per child (``walk_fully`` does that).  Forcing still
    pays for any source work a lazy tail owes, but exporting an
    already-materialized answer — an eager result, or a navigation-memo
    hit — costs only the tree copy.  A root records full demand."""
    vnode.note_demand(vnode.prefetch)
    return vnode.node.copy_subtree()
