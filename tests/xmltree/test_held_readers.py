"""Every bulk reader of a held tree agrees with a built copy.

A held tree mixes built nodes, unread tuple objects and unbuilt
constructed objects, and the bulk readers — ``walk``, compact
``serialize``, the memo's poison scan and the held ``q`` — read it
through one reader, :func:`~repro.xmltree.tree.held_children`, building
nothing.  Each drawn tree is built twice from one spec (the same oids,
the same faults): the readers run on one copy as it is held and on the
other once its objects are built, and must agree, while nothing of the
held copy is built.  A constructed object's bindings are elements,
lists and lists of lists; a list may be partly pulled, or break.
"""

from __future__ import annotations

from hypothesis import example, given, seed, settings, strategies as st

from repro.algebra.values import Skolem, VList
from repro.errors import TransientSourceError
from repro.qdom.api import QdomNode
from repro.qdom.local import held_answer
from repro.resilience.stub import PrefixPoisonWatch, make_error_stub
from repro.xmltree import serialize
from repro.xmltree.tree import (
    ConstructedObject,
    Node,
    OidGenerator,
    TupleObject,
    tree_size,
)
from repro.xquery import parse_xquery

from tests.conftest import MIX_SEED

LABELS = ("a", "b", "c")
FIELDS = ("a", "b", "x")
#: Leaf and field values; ``"a"``/``"b"`` also match a path step, so a
#: read can step from a field to its value leaf.
VALUES = st.sampled_from([0, 1, 2, 2.5, "a", "b", "x<&y"])
#: How many items of a lazy list or node are pulled before reading.
PULLED = st.integers(0, 3)
#: Where a list's tail raises (``None``: never; past its end: at the end).
BROKEN = st.one_of(st.none(), st.none(), st.integers(0, 3))


def _list_of(items):
    return st.tuples(st.just("list"), st.lists(items, max_size=3), PULLED,
                     BROKEN)


def _extend(children):
    node = st.tuples(st.just("node"), st.sampled_from(LABELS),
                     st.lists(children, max_size=3), st.integers(-1, 3))
    lists = _list_of(st.one_of(children, _list_of(children)))
    binding = st.one_of(children.map(lambda spec: ("elem", spec)), lists)
    constructed = st.tuples(
        st.just("crelt"), st.sampled_from(LABELS),
        st.sampled_from([None, "$V1", "$V2"]),
        st.lists(binding, max_size=3), st.booleans(),
    )
    return st.one_of(node, constructed)


SPECS = st.recursive(
    st.one_of(
        st.tuples(st.just("leaf"), VALUES),
        st.tuples(st.just("tuple"), st.sampled_from(LABELS), st.lists(
            st.tuples(st.sampled_from(FIELDS), st.one_of(st.none(), VALUES)),
            max_size=3)),
        st.just(("stub",)),
    ),
    _extend, max_leaves=10,
)
TREES = st.lists(SPECS, min_size=1, max_size=4)

#: ``FOR``/``WHERE`` selections of ``document(root)``, over drawn labels.
PATHS = st.lists(st.sampled_from(LABELS + FIELDS[2:]), min_size=1,
                 max_size=2).map("/".join)
CONDITIONS = st.tuples(
    PATHS, st.booleans(), st.sampled_from(["=", "!=", "<", ">="]),
    st.sampled_from(['"a"', '"b"', "0", "1", "2"]),
)
QUERIES = st.lists(st.tuples(
    st.sampled_from(LABELS), st.one_of(st.none(), PATHS),
    st.lists(CONDITIONS, max_size=2),
), min_size=1, max_size=4)


class Build:
    """One copy of a spec: oids and fault messages from counters, so
    two builds are equal oid for oid and fault for fault."""

    def __init__(self):
        self.count = 0
        self.oids = OidGenerator("t")
        self.stubs = OidGenerator("err")
        #: Every tuple and constructed object, to check none is built.
        self.objects = []

    def oid(self):
        self.count += 1
        return "&n{}".format(self.count)

    def node(self, spec):
        kind = spec[0]
        if kind == "leaf":
            return Node(self.oid(), spec[1])
        if kind == "stub":
            return make_error_stub("s", "lost", self.stubs)
        if kind == "tuple":
            row = tuple((name, value) for name, value in spec[2]
                        if value is not None)
            obj = TupleObject(self.oid(), spec[1], row, self.oids,
                              self.oids.reserve(2 * len(row)))
            self.objects.append(obj)
            return obj
        if kind == "node":
            __, label, kids, pulled = spec
            kids = [self.node(kid) for kid in kids]
            if pulled < 0:
                return Node(self.oid(), label, kids)
            node = Node(self.oid(), label, lazy_tail=iter(kids))
            node.child(pulled - 1)
            return node
        __, label, var, bindings, forced = spec
        parts = tuple(
            self.node(b[1]) if b[0] == "elem" else self.list(b)
            for b in bindings
        )
        oid = self.oid()
        obj = ConstructedObject(
            oid if var is None else Skolem(var, "f", [oid]), label, parts)
        self.objects.append(obj)
        if forced:
            try:
                obj.materialize()
            except TransientSourceError:
                pass
        return obj

    def list(self, spec):
        __, items, pulled, broken = spec
        items = [self.list(item) if item[0] == "list" else self.node(item)
                 for item in items]
        fault = TransientSourceError(
            "fault {}".format(self.oid()), source="s")

        def tail():
            for index in range(len(items) + 1):
                if index == broken:
                    raise fault
                if index < len(items):
                    yield items[index]

        lst = VList((), lazy_tail=tail())
        try:
            lst.item(pulled - 1)
        except TransientSourceError:
            pass
        return lst


def build(specs):
    copy = Build()
    return Node("&root", "list", [copy.node(spec) for spec in specs]), copy


def build_in_place(node):
    """Build every held object of ``node``'s materialized prefix,
    forcing nothing: the built copy the unforced readers compare with."""
    if isinstance(node, (TupleObject, ConstructedObject)):
        node._build()
    for kid in node.materialized_children():
        build_in_place(kid)


def scan(watch):
    """The poison verdict of a scan and, when clean, the frontier it
    records."""
    if watch.poisoned():
        return True, None
    return False, sorted(
        (str(held.oid), seen) for held, seen in watch._frontier
    )


def poison(node):
    """The verdict and frontier of a first scan of ``node``."""
    return scan(PrefixPoisonWatch(node))


def walk(node, budget):
    return QdomNode.root(node, prefetch=64).walk(budget)


def outcome(read):
    """What ``read()`` returns, or the fault it raises."""
    try:
        return read()
    except TransientSourceError as exc:
        return ("raised", str(exc))


def selection(label, path, conditions):
    fors = "FOR $V IN document(root)/{}".format(label)
    if path is not None:
        fors += " $W IN $V/{}".format(path)
    where = " AND ".join(
        "{}/{}{} {} {}".format("$W" if on_w and path else "$V", steps,
                               "/data()" if op != "=" else "", op, literal)
        for steps, on_w, op, literal in conditions
    )
    return parse_xquery(
        fors + (" WHERE " + where if where else "") + " RETURN $V")


def records(query, start):
    answer = held_answer(query, start)
    return None if answer is None else [str(r.oid) for r in answer]


@seed(MIX_SEED)
@settings(max_examples=300, deadline=None)
@given(TREES, QUERIES)
@example(  # an empty row reads as a leaf; a read steps past a field
    [("node", "a", [("tuple", "b", [("x", None)]),
                    ("tuple", "c", [("x", "a")])], -1)],
    [("a", None, [("b", False, "=", '"b"')]),
     ("a", None, [("c/x/a", False, "=", '"a"')])],
)
def test_every_reader_agrees_with_a_built_copy(specs, queries):
    held, copy = build(specs)
    built, twin = build(specs)
    build_in_place(built)
    watch = PrefixPoisonWatch(held)  # resumed from its frontier below
    assert poison(held) == poison(built) == scan(watch)
    # Every other constructed object completes: the watch resumes over
    # what grew.
    for ours, theirs in list(zip(copy.objects, twin.objects))[::2]:
        if isinstance(ours, ConstructedObject):
            assert outcome(ours.materialize) == outcome(theirs.materialize)
    assert poison(held) == poison(built) == scan(watch)

    reference = outcome(built.copy_subtree)
    first = outcome(lambda: walk(held, None))
    if isinstance(reference, tuple):  # a list broke: both raise it
        assert first == reference
        assert poison(held) == poison(built) == (True, None)
        assert outcome(lambda: serialize(held)) == reference
    else:
        assert first == walk(reference, None)
        for budget in range(tree_size(reference) + 2):
            assert walk(held, budget) == walk(reference, budget), budget
        assert serialize(held) == serialize(reference)
        assert poison(held) == poison(reference) == scan(watch)
        for query in queries:
            query = selection(*query)
            assert records(query, held) == records(query, reference)
    assert not [obj for obj in copy.objects
                if obj.row_fields is None and obj.bindings is None]
