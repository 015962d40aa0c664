"""The ``<mix:error>`` degradation stub and its contract.

When a mediator runs with ``on_source_error="degrade"``, a source
failure that reaches the engine (a
:class:`~repro.resilience.resilient.ResilientSource` raises once its
retry budget is spent) does not unwind the navigation stack.  Instead
the engine puts a *stub element* where data is missing::

    <mix:error>
      <source>s</source>
      <reason>injected transient fault on pull of 'root2' (position 1)</reason>
    </mix:error>

The engines are the only place a failure becomes a stub:
:func:`degraded_stub` records and builds one, and
:func:`degrade_children` is the one rule for a document scan's failed
pulls.

The stub contract (see docs/API.md, "Fault tolerance"):

* the stub's label is exactly :data:`ERROR_LABEL`, and its children are
  ``source`` and ``reason`` leaf-carrying elements (the data model has
  no attributes — attributes lift to child elements, as everywhere);
* path navigation (``getD``) treats a stub as *poison*: any path applied
  to a stub yields the stub itself, so the marker survives arbitrary
  navigation chains and lands in the result tree;
* conditions involving a stub are false (a stub never atomizes), so
  ``WHERE``-filtered and join-matched stubs drop out silently — the same
  convention SQL uses for NULL;
* for transient faults the stub is *inserted*: the element whose pull
  failed is still delivered by the next pull, so stripping the stubs
  from a degraded result yields exactly the fault-free result.
"""

from __future__ import annotations

from repro import stats as statnames
from repro.errors import CircuitOpenError, SourceError, TransientSourceError
from repro.xmltree.tree import Node, OidGenerator, held_children

#: Label of the degradation stub element.
ERROR_LABEL = "mix:error"

#: The ``on_source_error`` policies: propagate failures, or stub them.
RAISE = "raise"
DEGRADE = "degrade"

_STUB_OIDS = OidGenerator("err")


def degrades(policy):
    """Whether ``on_source_error=policy`` stubs failures; anything but
    ``"raise"``/``"degrade"`` is a :class:`ValueError`."""
    if policy not in (RAISE, DEGRADE):
        raise ValueError(
            "on_source_error must be 'raise' or 'degrade', "
            "got {!r}".format(policy)
        )
    return policy == DEGRADE


def make_error_stub(source=None, reason=None, oids=None):
    """Build a ``<mix:error>`` stub element.

    Args:
        source: the name/doc id of the source that failed.
        reason: a human-readable failure description (usually the
            exception message).
        oids: the :class:`OidGenerator` to draw vertex ids from; a
            module-level generator is used when omitted, so stubs are
            deterministic within a process.
    """
    gen = oids or _STUB_OIDS
    stub = Node(gen.fresh(), ERROR_LABEL)
    if source is not None:
        field = Node(gen.fresh(), "source")
        field.append(Node(gen.fresh(), str(source)))
        stub.append(field)
    if reason is not None:
        field = Node(gen.fresh(), "reason")
        field.append(Node(gen.fresh(), str(reason)))
        stub.append(field)
    return stub


def degraded_stub(exc, stats, oids=None, source=None):
    """Count, trace and build the stub standing in for what ``exc`` lost.

    The stub names the source that raised (``exc.source``), else the
    failed document, else ``source`` — what the failed operator read.
    ``stats`` gets one :data:`~repro.stats.DEGRADED_RESULTS` and one
    ``degraded`` event naming the same source.
    """
    name = getattr(exc, "source", None) or getattr(exc, "doc_id", None) \
        or source
    stats.incr(statnames.DEGRADED_RESULTS)
    stats.event("degraded", str(exc), source=str(name))
    return make_error_stub(source=name, reason=str(exc), oids=oids)


def degrade_children(open_children, stats, oids=None, source=None):
    """A document scan's children with a stub for every failed pull.

    ``open_children()`` opens the child iterator.  A pull that raises
    :class:`~repro.errors.SourceError` yields a stub, then:

    * a transient failure re-attempts the position — the element
      follows its stub, so stripping stubs gives the fault-free scan
      (the iterator's raise consumed nothing; a dead generator just
      ends at the next pull);
    * an open breaker ends the scan: the source is out of service;
    * any other failure abandons the position through the iterator's
      ``skip()``, or ends the scan when it has none.

    A scan that cannot even open is one stub.
    """
    try:
        children = iter(open_children())
    except SourceError as exc:
        yield degraded_stub(exc, stats, oids, source)
        return
    while True:
        try:
            child = next(children)
        except StopIteration:
            return
        except SourceError as exc:
            yield degraded_stub(exc, stats, oids, source)
            if isinstance(exc, TransientSourceError):
                continue
            skip = getattr(children, "skip", None)
            if skip is None or isinstance(exc, CircuitOpenError):
                return
            skip()
            continue
        yield child


def is_error_stub(node):
    """Whether ``node`` is a degradation stub."""
    return isinstance(node, Node) and node.label == ERROR_LABEL


def find_error_stubs(root):
    """All stub nodes in the tree rooted at ``root`` (forces it)."""
    return [n for n in root.iter_subtree() if is_error_stub(n)]


def prefix_has_error_stub(root):
    """Whether the *already materialized* part of ``root`` is poisoned:
    a ``<mix:error>`` stub, or a node whose lazy tail raised (broken).

    Walks only children that navigation has forced so far, as held
    (:func:`~repro.xmltree.tree.held_children`) — nothing is pulled or
    built, so this is safe on live lazy trees — and never into an
    unread tuple object's row pairs: no stub and no lazy tail live in
    one.  The navigation memo uses it as a poison check: a degraded or
    failure-truncated prefix disqualifies a cached result even if the
    damage happened after the entry was stored.
    """
    return PrefixPoisonWatch(root).poisoned()


class PrefixPoisonWatch:
    """Incremental :func:`prefix_has_error_stub` over a growing tree.

    The navigation memo re-checks an entry's tree on every hit, and a
    full re-scan is O(answer size) — it dominates a warm repeat.  But a
    clean prefix stays clean: labels never change, and new nodes can
    only appear past a node whose lazy tail was still open.  So a clean
    scan records that *frontier* — ``(node, children_seen)`` for every
    node not yet fully materialized — and the next scan resumes there,
    visiting only growth since last time.  Once the tree is fully
    materialized the frontier is empty and re-checks cost nothing.
    A clean scan with an empty frontier is also the first fence of an
    in-place ``q`` answered from held nodes (:meth:`complete`).

    Poison latches: a tree once poisoned never becomes clean again (a
    broken tail never resumes; a stub never changes label).
    """

    __slots__ = ("_root", "_frontier", "_poisoned")

    def __init__(self, root):
        self._root = root
        self._frontier = None          # None = never scanned
        self._poisoned = False

    def poisoned(self):
        """Whether the materialized prefix is poisoned (never forces)."""
        if self._poisoned:
            return True
        resume = self._frontier
        if resume is None:
            resume = ((self._root, 0),)
        frontier = []
        for node, seen in resume:
            if self._scan(node, seen, frontier):
                self._poisoned = True
                return True
        self._frontier = frontier
        return False

    @staticmethod
    def _scan(node, seen, frontier):
        """Scan ``node`` and its held subtrees past its first ``seen``
        children (:func:`~repro.xmltree.tree.held_children`); collects
        open-tailed nodes into ``frontier``.  True on poison.  A tuple
        object's row pairs hold no stub and no tail: the scan stops
        above them."""
        stack = [node]
        while stack:
            node = stack.pop()
            if node.label == ERROR_LABEL or node.is_broken:
                return True
            open_tail = not node.fully_materialized  # read before the kids
            kids = held_children(node)
            if open_tail:
                frontier.append((node, len(kids)))
            if kids and kids[0].__class__ is not tuple:
                stack.extend(kids[seen:] if seen else kids)
            seen = 0
        return False

    def complete(self):
        """Whether the tree is fully materialized and clean: no open
        lazy tail, no broken tail, no stub (never forces)."""
        return not self.poisoned() and not self._frontier


def strip_error_stubs(root):
    """A copy of the tree with every ``<mix:error>`` subtree removed.

    The root itself is returned unchanged if it is a stub (a client that
    degraded all the way to the root keeps the marker).
    """
    if is_error_stub(root) or root.is_leaf:
        return root
    kept = [
        strip_error_stubs(c) for c in root.children if not is_error_stub(c)
    ]
    return Node(root.oid, root.label, kept)
