"""The labeled ordered tree: the paper's Section 2 data model.

``T = (vertexId: O, label: D) | (vertexId: O, label: D, value: [T])``

* ``Node.oid`` — the vertex id, a string conventionally starting with
  ``&`` (``&root1``, ``&XYZ123``, or surrogate ids ``&n17``).  Oids may be
  random surrogates or may carry semantic meaning: the relational wrapper
  assigns tuple keys as oids, which is what makes decontextualization
  (Section 5) possible.
* ``Node.label`` — an element name for inner nodes; for leaves the label
  *is* the value (the paper: "the labels of leaf nodes will also be called
  values").  Labels of leaves may be ``str``, ``int`` or ``float``.
* ``Node.children`` — the ordered list of subtrees.
"""

from __future__ import annotations

import threading

from repro.errors import MixError

#: One process-wide re-entrant lock serializes the forcing of every lazy
#: prefix (:class:`LazyPrefix`): a node's children, a list value, a
#: nested binding set and a presorted gBy's column run.  The navigation
#: memo shares materialized answer prefixes across concurrent server
#: sessions, and two threads resuming one generator would race
#: (``ValueError: generator already executing``) or tear the prefix.
#: Forcing one prefix may pull the engine pipeline, which forces other
#: prefixes in turn (partitions, lists, *source* nodes' tails) — hence
#: re-entrant, and global rather than per-prefix (per-prefix locks could
#: deadlock on that nesting).  Already-materialized prefixes are read
#: without the lock.
_FORCE_LOCK = threading.RLock()


class LazyPrefix:
    """The memoized prefix of a lazy stream: what the paper's virtual
    answer materializes as navigation demands it (Section 4).

    ``_items`` holds what the ``_tail`` iterator produced so far; it is
    append-only, so reads of the prefix never take the lock, and the
    tail is resumed only under :data:`_FORCE_LOCK`.  A tail that raises
    is *dead* (a generator never resumes after an exception): the
    exception is latched in ``_broken`` and every later force that
    needs an item past the prefix re-raises that same exception — a
    partial stream is never presented as a complete one.  The dead
    tail stays in ``_tail``, so ``_tail is None`` alone means the
    prefix is complete.

    Subclasses keep a pulled item in their own form by overriding
    :meth:`_store` (a block as rows, or as columns and group heads).
    """

    __slots__ = ("_items", "_tail", "_broken")

    def __init__(self, items=(), lazy_tail=None):
        self._items = list(items)
        self._tail = lazy_tail
        self._broken = None

    def _store(self, item):
        self._items.append(item)

    def _pull(self):
        """Store the tail's next item; ``False`` at its end.  Re-raises a
        latched failure.  The caller holds :data:`_FORCE_LOCK`."""
        if self._broken is not None:
            raise self._broken
        if self._tail is None:
            return False
        try:
            item = next(self._tail)
        except StopIteration:
            self._tail = None
            return False
        except Exception as exc:
            self._broken = exc
            raise
        self._store(item)
        return True

    def _force(self, count):
        """Materialize the prefix up to ``count`` items (``None`` = all)."""
        if self._tail is None:
            return
        # acquire/release: half the cost of ``with`` on the hottest path
        _FORCE_LOCK.acquire()
        try:
            items = self._items
            while (count is None or len(items) < count) and self._pull():
                pass
        finally:
            _FORCE_LOCK.release()

    def _forced(self):
        """Every item (forces the whole tail)."""
        self._force(None)
        return self._items

    def prefetch(self, count, extra=0):
        """Force ``count`` items strictly, then up to ``extra`` more
        best-effort (block navigation's prefetch-k).

        The strict part raises like :meth:`item`.  The *extra* part must
        not — prefetching past the demanded position may run into a
        failure the client would only have met several commands later,
        and surfacing it early would change observable behavior.  The
        exception stays latched and re-raises exactly when navigation
        first asks past the materialized prefix.
        """
        self._force(count)
        if extra > 0 and self._tail is not None:
            try:
                self._force(count + extra)
            except Exception:
                pass  # latched in _broken; re-raised on genuine demand

    def item(self, index):
        """The ``index``-th item or ``None`` — forces only that prefix."""
        if index < 0:
            return None
        items = self._items
        if index >= len(items):
            self._force(index + 1)
            if index >= len(items):
                return None
        return items[index]

    def __iter__(self):
        items = self._items
        index = 0
        while True:
            if index >= len(items):
                self._force(index + 1)
                if index >= len(items):
                    return
            yield items[index]
            index += 1

    @property
    def materialized_count(self):
        """How many items have been produced so far (no forcing)."""
        return len(self._items)

    def materialized(self):
        """The items produced so far, as a list copy (no forcing)."""
        return list(self._items)

    @property
    def fully_materialized(self):
        return self._tail is None

    @property
    def is_broken(self):
        """Whether the tail raised: items past the prefix are lost."""
        return self._broken is not None


#: Types a leaf label (value) may have.  ``D`` in the paper is
#: "string-like"; we additionally admit numbers so that relational values
#: compare numerically, which the paper's examples rely on
#: (``$O/order/value < 500``).
VALUE_TYPES = (str, int, float)


class Node(LazyPrefix):
    """One vertex of a labeled ordered tree.

    Nodes are mutable only through :meth:`append`; most code builds them
    once via :func:`elem` / :func:`leaf` and treats them as frozen.

    **Lazy children.**  A node may be constructed with ``lazy_tail``, an
    iterator producing further children on demand: its children are a
    :class:`LazyPrefix`.  This is how the lazy engine exports virtual
    results: accessing ``children`` forces everything, but :meth:`child`
    — the navigation primitive — forces only the prefix up to the
    requested index, which is exactly the paper's navigation-driven
    evaluation contract.
    """

    __slots__ = ("oid", "label")

    #: The non-NULL ``(field, value)`` pairs of a :class:`TupleObject`
    #: whose field nodes are not built yet; ``None`` on every other node.
    row_fields = None
    #: The child bindings of a :class:`ConstructedObject` whose child
    #: list is not built yet — once it is complete, the flat tuple of
    #: its children; ``None`` on every other node.
    bindings = None

    def __init__(self, oid, label, children=(), lazy_tail=None):
        if not isinstance(label, VALUE_TYPES):
            raise MixError(
                "node label must be str/int/float, got {!r}".format(label)
            )
        self.oid = oid
        self.label = label
        self._items = list(children)
        self._tail = lazy_tail
        self._broken = None

    # -- structure ---------------------------------------------------------

    children = property(LazyPrefix._forced, doc="All children (forces any "
                        "lazy tail).")
    child = LazyPrefix.item
    prefetch_children = LazyPrefix.prefetch
    materialized_child_count = LazyPrefix.materialized_count
    materialized_children = LazyPrefix.materialized

    def materialize(self):
        """Force every child (the whole lazy tail) for a bulk reader,
        which then reads :func:`held_children`."""
        self._force(None)

    def copy_subtree(self):
        """A fully materialized deep copy of this subtree (forces it).

        Bulk-export primitive: slot-direct construction skips the label
        check ``__init__`` would redo on values that were validated when
        this tree was first built.
        """
        self._force(None)
        clone = Node.__new__(Node)
        clone.oid = self.oid
        clone.label = self.label
        clone._items = [c.copy_subtree() for c in self._items]
        clone._tail = None
        clone._broken = None
        return clone

    @property
    def is_leaf(self):
        """True when the node has no children (its label is its value)."""
        if self._items:
            return False
        self._force(1)
        return not self._items

    def append(self, child):
        """Append ``child`` as the new last child and return it.

        Only valid on fully materialized nodes (builder code).
        """
        if self._tail is not None:
            raise MixError("cannot append to a node with a lazy tail")
        self._items.append(child)
        return child

    def first_child(self):
        """The paper's ``d`` on a materialized node (``None`` on a leaf)."""
        return self.child(0)

    def children_labeled(self, label):
        """All children whose label equals ``label``."""
        return [c for c in self.children if c.label == label]

    def find(self, label):
        """First child labeled ``label`` or ``None``."""
        for c in self.children:
            if c.label == label:
                return c
        return None

    # -- value access --------------------------------------------------------

    @property
    def value(self):
        """The leaf value: the label when this node is a leaf, else ``None``.

        This is the paper's ``fv`` fetch: defined only on leaves.
        """
        return self.label if self.is_leaf else None

    def iter_subtree(self):
        """Pre-order iterator over this node and all descendants."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    # -- comparison / display -------------------------------------------------

    def __repr__(self):
        if self._tail is not None:
            return "Node({}:{}, {}+ children, lazy)".format(
                self.oid, self.label, len(self._items)
            )
        if self.is_leaf:
            return "Node({}={!r})".format(self.oid, self.label)
        return "Node({}:{}, {} children)".format(
            self.oid, self.label, self.materialized_child_count
        )

    def pretty(self, indent=0):
        """A multi-line indented rendering, used in doctests and debugging."""
        pad = "  " * indent
        if self.is_leaf:
            return "{}{} {!r}".format(pad, self.oid, self.label)
        lines = ["{}{} {}".format(pad, self.oid, self.label)]
        for c in self.children:
            lines.append(c.pretty(indent + 1))
        return "\n".join(lines)


class TupleObject(Node):
    """A relational tuple object (Fig. 2) that stays one node until
    something reads its fields.

    It keeps the row's non-NULL ``(field, value)`` pairs in
    :attr:`row_fields` and the first of the oid numbers reserved for
    them, and builds the ``field`` elements and their value leaves on
    the first read of its children — with the oids, in the order, that
    building them at once would have drawn: field, then its leaf,
    column by column.  To every reader it is already materialized
    (``fully_materialized``, ``materialized_child_count`` = its field
    count, ``is_leaf`` false); only the bulk readers, which read a
    held node through :func:`held_children`, get its fields as the
    row's pairs and skip the build.

    The build runs under :data:`_FORCE_LOCK` and publishes the built
    list once, so concurrent first readers get the same nodes.
    """

    __slots__ = ("row_fields", "_oids", "_first")

    def __init__(self, oid, label, fields, oids, first):
        self.oid = oid
        self.label = label
        # Extended in place by the build: a reader holding this list
        # (``LazyPrefix.item``) sees the fields after forcing.
        self._items = []
        self._tail = None
        self._broken = None
        self.row_fields = fields
        self._oids = oids
        self._first = first

    def _build(self):
        _FORCE_LOCK.acquire()
        try:
            fields = self.row_fields
            if fields is None:
                return
            oid = self._oids.oid
            number = self._first
            built = []
            for name, value in fields:
                value_leaf = Node(oid(number + 1), value)
                built.append(Node(oid(number), name, (value_leaf,)))
                number += 2
            self._items.extend(built)
            self.row_fields = self._oids = None
        finally:
            _FORCE_LOCK.release()

    def _force(self, count):
        if self.row_fields is not None:
            self._build()

    materialized_count = property(lambda self: len(held_children(self)))
    materialized_child_count = materialized_count

    def materialized(self):
        self._force(None)
        return list(self._items)

    materialized_children = materialized

    @property
    def is_leaf(self):
        return not self.row_fields and not self._items

    def append(self, child):
        self._force(None)
        return Node.append(self, child)


#: The lazy tail of a :class:`ConstructedObject` whose bindings still
#: owe children: never resumed — the build replaces it.
_OWED = iter(())


def _binding_prefix(bindings):
    """The children ``bindings`` hold so far, in order, forcing nothing.

    An element binding is one child; a list binding's items are
    children, an item that is itself a list expanded one level.  The
    prefix stops after the first list that is not complete: what a
    pull through the bindings has produced.
    """
    out = []
    for part in bindings:
        if isinstance(part, Node):
            out.append(part)
            continue
        for item in part._items:
            if isinstance(item, Node):
                out.append(item)
            else:
                out.extend(item._items)
                if item._tail is not None:
                    return out
        if part._tail is not None:
            return out
    return out


def _binding_children(bindings):
    """The children of ``bindings`` as a lazy stream, pulled as the
    bindings' lists are: the tail a built :class:`ConstructedObject`
    forces."""
    for part in bindings:
        if isinstance(part, Node):
            yield part
            continue
        for item in part:
            if isinstance(item, Node):
                yield item
            else:
                yield from item


def held_children(node):
    """The children ``node`` holds now, building and forcing nothing:
    the one reader of a held tree, shared by the bulk readers (``walk``,
    compact serialization, the memo's poison scan, the held ``q``).
    An unread :class:`TupleObject` gives its row's ``(name, value)``
    pairs, each a field element over one value leaf — the only children
    that are not nodes.  Read-only: a complete node gives its own
    container (a constructed object's flat tuple), not a copy.
    """
    fields = node.row_fields
    if fields is not None:
        return fields
    # The tail first: a constructed object publishes its flat tuple
    # before it clears its tail, so no tail means no bindings' lists.
    complete = node._tail is None
    bindings = node.bindings
    if bindings is None or not complete and node._broken is None:
        return node._items if complete else list(node._items)
    return bindings if complete else _binding_prefix(bindings)


class ConstructedObject(Node):
    """A ``crElt`` element that stays one node until something reads
    its children.

    It keeps its label, its skolem oid and the child *bindings* its
    tuple bound — elements (tuple objects, constructed objects,
    leaves) and lists (a ``cat``'s operands, an ``apply``'s lazy list)
    — and builds its child list on the first read through the
    :class:`Node` interface, under :data:`_FORCE_LOCK`, published once
    so concurrent first readers get the same list.  Until then:

    * :meth:`materialize` forces the bindings' lists and builds
      nothing: it replaces the bindings with the flat tuple of the
      children they hold, which :meth:`materialized_children` then
      returns as it is (an element over elements only is flat from
      the start) — the bulk readers (:func:`held_children`) use only
      these;
    * it reports what the element it stands for would: materialized
      while no binding owes a lazy tail and nothing is left to pull —
      an element over lists has pulled nothing before its first read
      or :meth:`materialize`; a failure raised while materializing is
      latched, and the children pulled before it stay its prefix.

    Every child is the binding's own node, so a build draws no oid and
    the children are the same objects before and after it.
    """

    __slots__ = ("bindings",)

    def __init__(self, oid, label, bindings):
        self.oid = oid
        self.label = label
        # No list until the build: every reader of ``_items`` builds
        # first (``_force``, :meth:`item`, :meth:`__iter__`).
        self._items = ()
        self._tail = None
        for part in bindings:
            if not isinstance(part, Node):
                self._tail = _OWED
                break
        self._broken = None
        self.bindings = tuple(bindings)

    def _build(self):
        _FORCE_LOCK.acquire()
        try:
            bindings = self.bindings
            if bindings is None:
                return
            if self._tail is None or self._broken is not None:
                self._items = _binding_prefix(bindings)
            else:
                self._items = []
                self._tail = _binding_children(bindings)
            self.bindings = None
        finally:
            _FORCE_LOCK.release()

    def _force(self, count):
        if self.bindings is not None:
            self._build()
        if self._tail is not None:
            LazyPrefix._force(self, count)

    def item(self, index):
        if self.bindings is not None:
            self._build()
        return LazyPrefix.item(self, index)

    child = item

    def __iter__(self):
        if self.bindings is not None:
            self._build()
        return LazyPrefix.__iter__(self)

    def materialize(self):
        if self._tail is None:
            return
        _FORCE_LOCK.acquire()
        try:
            bindings = self.bindings
            if bindings is None or self._tail is None:
                LazyPrefix._force(self, None)
                return
            if self._broken is not None:
                raise self._broken
            children = []
            try:
                for part in bindings:
                    if isinstance(part, Node):
                        children.append(part)
                        continue
                    # Pull by pull, forcing a list item whole before the
                    # next pull, as the built child stream would.
                    items = part._items
                    index = 0
                    while index < len(items) or part._pull():
                        if index < len(items):
                            item = items[index]
                            index += 1
                            if isinstance(item, Node):
                                children.append(item)
                            else:
                                children += item._forced()
            except Exception as exc:
                self._broken = exc
                raise
            # Published before the tail is cleared (see held_children).
            self.bindings = tuple(children)
            self._tail = None
        finally:
            _FORCE_LOCK.release()

    @property
    def materialized_count(self):
        if self._tail is not None and self._broken is None:
            return len(self._items)
        return len(held_children(self))

    materialized_child_count = materialized_count

    def materialized(self):
        held = held_children(self)
        return list(held) if held is self._items else held

    materialized_children = materialized

    def append(self, child):
        self._force(None)
        return Node.append(self, child)


def deep_equals(a, b, compare_oids=False):
    """Structural equality of two trees.

    Oids are ignored by default because surrogate ids differ between an
    eager and a lazy evaluation of the same plan; skolem-carrying oids can
    be compared by passing ``compare_oids=True``.
    """
    if a is None or b is None:
        return a is b
    if compare_oids and a.oid != b.oid:
        return False
    if a.label != b.label or len(a.children) != len(b.children):
        return False
    return all(
        deep_equals(x, y, compare_oids) for x, y in zip(a.children, b.children)
    )


def tree_size(node):
    """Number of vertices in the tree rooted at ``node``."""
    return sum(1 for _ in node.iter_subtree())


def atomize(node):
    """The comparable value of a node, or ``None`` when not comparable.

    The paper defines conditions only on variables "bound to a leaf node
    whose value is x"; XQuery's ``data()`` additionally atomizes an
    element with a single leaf child (``<id>XYZ</id>`` atomizes to
    ``"XYZ"``).  We implement the ``data()`` semantics, which subsumes the
    paper's leaf-only rule.
    """
    leaf_node = data_leaf(node)
    return None if leaf_node is None else leaf_node.label


def data_leaf(node):
    """The leaf carrying ``node``'s atomized value, or ``None``.

    Forces at most two children of a lazy element: a second child
    already rules the value out.
    """
    if node is None:
        return None
    if node.is_leaf:
        return node
    if node.materialized_child_count > 1 or node.child(1) is not None:
        return None
    only = node.child(0)
    return only if only.is_leaf else None


class OidGenerator:
    """Deterministic surrogate-oid factory (``&n1``, ``&n2``, ...).

    Each document/engine owns one generator so runs are reproducible; the
    paper allows ids to "be random surrogates or carry semantic meaning".
    """

    def __init__(self, prefix="n"):
        self._prefix = prefix
        self._next = 1
        self._lock = threading.Lock()

    def fresh(self):
        """The next unused surrogate oid."""
        return self.oid(self.reserve(1))

    def reserve(self, count):
        """Reserve ``count`` consecutive numbers at once and return the
        first; :meth:`oid` spells them.  No :meth:`fresh` of another
        thread lands inside the block."""
        with self._lock:
            first = self._next
            self._next = first + count
        return first

    def oid(self, number):
        """The oid of a number :meth:`reserve` handed out."""
        return "&{}{}".format(self._prefix, number)


_DEFAULT_OIDS = OidGenerator()


def leaf(value, oid=None):
    """Build a leaf node whose label is ``value``."""
    return Node(oid or _DEFAULT_OIDS.fresh(), value)


def elem(label, *children, oid=None):
    """Build an element node.

    String/number children are wrapped into leaves for convenience, so the
    paper's Fig. 2 database can be written as::

        elem("customer",
             elem("id", "XYZ"),
             elem("name", "XYZInc."),
             elem("addr", "LosAngeles"),
             oid="&XYZ123")
    """
    wrapped = []
    for c in children:
        if isinstance(c, Node):
            wrapped.append(c)
        elif isinstance(c, VALUE_TYPES):
            wrapped.append(leaf(c))
        else:
            raise MixError("invalid child for elem(): {!r}".format(c))
    return Node(oid or _DEFAULT_OIDS.fresh(), label, wrapped)
