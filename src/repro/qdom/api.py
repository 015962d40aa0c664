"""The client-side QDOM node handle.

"In MIX's implementation the p_i's are really Java objects that are
resident on the client's memory ... a thin client-side library associates
with each p_i the object id of the corresponding object exported by the
mediator."  :class:`QdomNode` is that thin handle.  In process it *is*
the engine's :class:`~repro.engine.vtree.VNode` (whose structured ids do
the heavy lifting), extended with the mediator and the view plan the
node belongs to, so that ``q(query, p)`` can decontextualize: one object
per navigated node.
"""

from __future__ import annotations

import sys

from repro.engine.vtree import (
    VNode, command_span, force_children, vnode_to_tree,
)
from repro.xmltree.tree import held_children


class QdomNode(VNode):
    """A client handle on one node of a virtual query result.

    Navigation methods mirror the paper's command names: :meth:`d`
    (down), :meth:`r` (right), :meth:`fl` (label fetch), :meth:`fv`
    (value fetch), and :meth:`q` (query in place).  ``None`` plays the
    paper's ``⊥``.  Every node reached from a root carries the root's
    ``mediator`` and ``view``.
    """

    __slots__ = ("mediator", "view", "stamp")

    @classmethod
    def root(cls, node, obs=None, prefetch=1, plan=None, mediator=None,
             view=None, stamp=None):
        """The handle on an answer root; ``view`` is the
        :class:`~repro.cache.shapes.BoundPlan` of the view the answer
        belongs to.  Every node of an answer shares it: the literals an
        in-place query composes with ride here, not on the root.
        ``stamp`` is the catalog's data fingerprint and the mediator's
        failure epoch the answer was produced under (``None``: no ``q``
        is answered from its nodes)."""
        handle = super().root(node, obs=obs, prefetch=prefetch, plan=plan)
        handle.mediator = mediator
        handle.view = view
        handle.stamp = stamp
        return handle

    def _wrap_child(self, child, index):
        handle = QdomNode(child, self, index, self.obs, self.prefetch)
        handle.mediator = self.mediator
        handle.view = self.view
        return handle

    def answer_root(self):
        """The handle on the root of the answer this node belongs to."""
        handle = self
        while handle.parent is not None:
            handle = handle.parent
        return handle

    # -- navigation (Section 2) ----------------------------------------------------

    def d(self):
        """``d(p)``: the first child, or ``None`` on a leaf."""
        return self.down()

    def r(self):
        """``r(p)``: the right sibling, or ``None``."""
        return self.right()

    def fl(self):
        """``fl(p)``: the node's label."""
        return self.label()

    def fv(self):
        """``fv(p)``: the leaf's value, or ``None`` on a non-leaf."""
        return self.value()

    def q(self, query_text):
        """``q(query, p)``: run ``query`` with this node as its root.

        The query's ``document(root)`` refers to this node.  Returns the
        root :class:`QdomNode` of the new virtual answer.
        """
        return self.mediator.query_from(self, query_text)

    def d_many(self, count=None):
        """``d_many(p, k)``: the first ``count`` children (all when
        ``None``) in **one** bulk navigation command.

        This is block execution's bulk command: one command span, one
        engine descent, children forced prefetch-k at a time.  With
        ``block_size=1`` mediators it degrades to a single-step force
        per child but still costs only one command.
        """
        return self.down_many(count)

    # -- conveniences (not QDOM commands) --------------------------------------------

    @property
    def view_plan(self):
        """The ``tD``-rooted plan of the view this node belongs to (the
        one ``q`` composes with), or ``None`` outside a view."""
        if self.view is None:
            return None
        return self.view.compose_plan()

    @property
    def oid(self):
        """The node id the mediator exports for this node."""
        return self.node.oid

    def children(self):
        """All children (forces them).

        Under a block-mode mediator this rides the bulk ``d_many``
        command; in tuple mode (``block_size=1``) it replays the seed's
        one-command-per-hop ``d``/``r`` loop, keeping navigation
        transcripts and command counts seed-identical.
        """
        if self.prefetch > 1:
            return self.d_many()
        out = []
        child = self.d()
        while child is not None:
            out.append(child)
            child = child.r()
        return out

    def walk(self, budget=None):
        """Depth-first ``[depth, label]`` transcript below this node,
        optionally stopping after ``budget`` landings.

        Returns ``(steps, truncated)``.  The transcript is identical at
        every block size; block-mode mediators produce it via bulk
        ``d_many`` commands (labels ride the bulk reply — no per-child
        ``fl`` round trips), tuple mode via the seed's per-hop
        ``d``/``r``/``fl`` commands.  This is the deep lazy walk E-BLOCK
        measures, and what the server's ``walk`` op serves.
        """
        steps = []
        append = steps.append
        remaining = sys.maxsize if budget is None else budget
        obs = self.obs
        bulk = self.prefetch > 1
        self.note_demand(self.prefetch)

        def rec_bulk(node, depth):
            # A bulk reply ships whole blocks: subtrees that earlier
            # d_many replies already materialized are walked client-
            # locally, with no further commands.  Only nodes still owing
            # a lazy tail cost a command (and its span), which forces no
            # more children than the budget left can land on.
            nonlocal remaining
            if remaining <= 0:
                return
            if not node.fully_materialized:
                with command_span(obs, "d_many", node):
                    force_children(
                        node, None if budget is None else remaining, obs
                    )
            kids = held_children(node)
            if kids and kids[0].__class__ is tuple:
                # An unread tuple object's row pairs: each field's
                # name/value steps, within the budget.
                for name, value in kids:
                    if remaining < 2:
                        if remaining:
                            remaining = 0
                            append([depth, name])
                        return
                    remaining -= 2
                    append([depth, name])
                    append([depth + 1, value])
                return
            for child in kids:
                if remaining <= 0:
                    return
                remaining -= 1
                append([depth, child.label])
                rec_bulk(child, depth + 1)

        def rec_seed(node, depth):
            nonlocal remaining
            child = node.d()
            while child is not None and remaining > 0:
                remaining -= 1
                append([depth, child.fl()])
                rec_seed(child, depth + 1)
                if remaining <= 0:
                    return
                child = child.r()

        try:
            if bulk:
                rec_bulk(self.node, 0)
            else:
                rec_seed(self, 0)
        finally:
            # A recursive closure refers to itself: left alone, the pair
            # and everything it closes over wait for the cyclic
            # collector, however long ago the client let go of them.
            rec_bulk = rec_seed = None
        return steps, remaining <= 0

    def find(self, label):
        """First child with the given label, or ``None``."""
        child = self.d()
        while child is not None:
            if child.fl() == label:
                return child
            child = child.r()
        return None

    def to_tree(self):
        """Materialize the subtree into a plain Node tree."""
        return vnode_to_tree(self)

    def export_node(self):
        """The subtree's own lazy node, for a bulk export that forces it
        in place: ``serialize(node.export_node())`` is
        ``serialize(node.to_tree())`` without the copy.  Records full
        demand, as :meth:`to_tree` does."""
        self.note_demand(self.prefetch)
        return self.node

    def last_trace(self):
        """The trace of the most recent command on this node's mediator.

        Each navigation command (``d``/``r``/``fl``/``fv``) completes one
        trace; the returned :class:`~repro.obs.Span` links the command to
        the lazy-operator work (and SQL) it caused."""
        return self.mediator.stats.last_trace()
