"""A BBQ-style browsing session on top of QDOM.

The paper's front end is the BBQ GUI [14], "which blends querying and
browsing": the user walks into the view and may, at any time, issue a
query relative to the point the navigation has reached.  BBQ itself is a
thin client of QDOM; :class:`Session` is its programmatic analogue —
a cursor with breadcrumbs, label-directed navigation, and in-place
refinement, with every step recorded so an interaction can be replayed
or audited.
"""

from __future__ import annotations

from repro.errors import NavigationError


class Session:
    """An interactive cursor over mediator views.

    Example::

        session = Session(mediator)
        session.open(Q1)
        session.down()                   # into the first CustRec
        session.into("customer")         # first child labeled customer
        session.up()
        session.refine(Q3)               # in-place query from here
        print(session.breadcrumbs())     # where am I?
    """

    def __init__(self, mediator):
        self._mediator = mediator
        self._current = None
        self._view_stack = []   # roots of past views (refinement history)
        self._log = []

    # -- state ---------------------------------------------------------------------

    @property
    def current(self):
        """The :class:`~repro.qdom.api.QdomNode` the cursor is on."""
        if self._current is None:
            raise NavigationError("no view opened; call open() first")
        return self._current

    def label(self):
        return self.current.fl()

    def value(self):
        return self.current.fv()

    def log(self):
        """The recorded interaction, one ``(command, detail)`` per step."""
        return list(self._log)

    def _trail(self):
        """The nodes from the view root down to the current node."""
        trail, node = [], self.current
        while node is not None:
            trail.append(node)
            node = node.parent
        return trail[::-1]

    def breadcrumbs(self):
        """Labels from the view root down to the current node."""
        return [str(node.label()) for node in self._trail()]

    # -- opening and refining -------------------------------------------------------

    def open(self, query_text):
        """Run a query against the sources and move to its result root.

        Source failures follow the mediator's ``on_source_error``: a
        degrading mediator keeps browsing over partial results
        (``<mix:error>`` stubs mark the gaps).
        """
        self._current = self._mediator.query(query_text)
        self._view_stack = [self._current]
        self._record("open", query_text)
        return self

    def refine(self, query_text):
        """The paper's query-in-place: run ``query_text`` with the
        current node as its ``document(root)`` and move to the new
        result root."""
        self._current = self.current.q(query_text)
        self._view_stack.append(self._current)
        self._record("refine", query_text)
        return self

    def back_to_previous_view(self):
        """Return to the root of the view before the last refinement."""
        if len(self._view_stack) < 2:
            raise NavigationError("no previous view to return to")
        self._view_stack.pop()
        self._current = self._view_stack[-1]
        self._record("back", "previous view")
        return self

    # -- navigation -------------------------------------------------------------------

    def down(self):
        """``d``: move to the first child."""
        child = self.current.d()
        if child is None:
            raise NavigationError(
                "cannot go down from a leaf ({})".format(self.label())
            )
        self._current = child
        self._record("down", child.fl())
        return self

    def right(self):
        """``r``: move to the right sibling."""
        sibling = self.current.r()
        if sibling is None:
            raise NavigationError(
                "no right sibling of {}".format(self.label())
            )
        self._current = sibling
        self._record("right", sibling.fl())
        return self

    def up(self):
        """Move to the parent (a session convenience; the paper's QDOM
        subset has no up command — the session's breadcrumbs provide it)."""
        parent = self.current.parent
        if parent is None:
            raise NavigationError("already at the view root")
        self._current = parent
        self._record("up", parent.label())
        return self

    def into(self, label):
        """Move to the first child with the given label."""
        child = self.current.find(label)
        if child is None:
            raise NavigationError(
                "no child labeled {!r} under {}".format(label, self.label())
            )
        self._current = child
        self._record("into", label)
        return self

    def next_where(self, predicate):
        """Advance right until ``predicate(node)`` holds."""
        node = self.current
        while node is not None and not predicate(node):
            node = node.r()
        if node is None:
            raise NavigationError("no sibling satisfies the predicate")
        self._current = node
        self._record("next_where", node.fl())
        return self

    def _record(self, command, detail):
        self._log.append((command, str(detail)[:120]))
        self._mediator.stats.incr("session_commands")

    def last_trace(self):
        """The trace of the most recent command on this session's
        mediator bus (see :meth:`repro.obs.Instrument.last_trace`)."""
        return self._mediator.stats.last_trace()

    def __repr__(self):
        if self._current is None:
            return "Session(at <no view>)"
        # The held labels: unlike breadcrumbs(), a repr issues no
        # counted fl() command.
        return "Session(at {})".format(
            " / ".join(str(node.node.label) for node in self._trail())
        )
