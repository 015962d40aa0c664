"""Row-backed tuple objects against plain-``Node`` references.

A tuple object (Fig. 2) keeps its row until something reads its fields.
Every check here compares one with a reference built in the test from
plain :class:`Node` s — not through ``assemble``, which is what is under
test — on both SQL back ends, one and sixty-four columns wide, keyed
and keyless.
"""

import sys
import threading

import pytest

from repro import Database, Instrument, RelationalWrapper
from repro.algebra import RQVar
from repro.errors import MixError
from repro.qdom.api import QdomNode
from repro.sources import SqliteWrapper
from repro.sources.relational import assemble
from repro.xmltree import serialize
from repro.xmltree.tree import (
    Node,
    OidGenerator,
    TupleObject,
    atomize,
    tree_size,
)

#: Each back end's surrogate-oid prefix.
BACKENDS = {
    "memory": (lambda: RelationalWrapper(Database("t", stats=Instrument())),
               "w"),
    "sqlite": (lambda: SqliteWrapper(stats=Instrument()), "q"),
}
#: Cycled over the columns: ``(SQL type, value of row r)``; the text
#: needs escaping in XML.
KINDS = (
    ("TEXT", lambda r: "v<{}>&amp;".format(r)),
    ("INT", lambda r: 10 * r + 7),
    ("REAL", lambda r: r + 0.5),
)
ROWS = 3


def sql_literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'{}'".format(value)
    return repr(value)


def table_rows(width, keyed):
    """Row values; row 1 has its last column NULL unless that is the
    key (a keyless width-1 row is then a tuple object without fields)."""
    rows = []
    for r in range(ROWS):
        row = [KINDS[c % 3][1](r) for c in range(width)]
        if width == 1:
            row[0] = "k{}".format(r)
        if r == 1 and not (keyed and width == 1):
            row[-1] = None
        rows.append(row)
    return rows


def load(backend, width, keyed):
    """A wrapper exporting a ``width``-column table as ``doc``."""
    build, prefix = BACKENDS[backend]
    wrapper = build()
    columns = [
        "c{} {}".format(c, KINDS[c % 3][0] if width > 1 else "TEXT")
        for c in range(width)
    ]
    key = ", PRIMARY KEY (c0)" if keyed else ""
    rows = table_rows(width, keyed)
    statements = [
        "CREATE TABLE t ({}{})".format(", ".join(columns), key),
        "INSERT INTO t VALUES {}".format(", ".join(
            "({})".format(", ".join(sql_literal(v) for v in row))
            for row in rows
        )),
    ]
    run = wrapper.run if backend == "sqlite" else wrapper.database.run
    for sql in statements:
        run(sql)
    wrapper.register_document("doc", "t", element_label="row")
    return wrapper, prefix, rows


def reference(rows, prefix, keyed):
    """The scan's tuple objects built from plain nodes, drawing oids as
    field, then its leaf, column by column, keyless row oid last."""
    oids = OidGenerator(prefix)
    out = []
    for row in rows:
        fields = []
        for c, value in enumerate(row):
            if value is not None:
                field = Node(oids.fresh(), "c{}".format(c))
                field.append(Node(oids.fresh(), value))
                fields.append(field)
        oid = "&{}".format(row[0]) if keyed else oids.fresh()
        out.append(Node(oid, "row", fields))
    return out


def shape(node):
    """``(oid, label, [children])`` of a whole subtree."""
    return (node.oid, node.label, [shape(c) for c in node.children])


def walk(node, budget):
    return QdomNode.root(node, prefetch=64).walk(budget)


CASES = [
    pytest.param((backend, width, keyed), id="{}-w{}-{}".format(
        backend, width, "keyed" if keyed else "keyless"))
    for backend in sorted(BACKENDS)
    for width in (1, 64)
    for keyed in (True, False)
]


@pytest.fixture(params=CASES)
def case(request):
    backend, width, keyed = request.param
    wrapper, prefix, rows = load(backend, width, keyed)
    return wrapper, reference(rows, prefix, keyed), rows


def scan(wrapper):
    return list(wrapper.iter_document_children("doc"))


def unbuilt(node):
    return node.row_fields is not None


class TestEquivalence:
    def test_oids_labels_and_structure_after_a_build(self, case):
        wrapper, expected, rows = case
        objects = scan(wrapper)
        assert [o.materialized_child_count for o in objects] == [
            len(e.children) for e in expected
        ]
        assert [shape(o) for o in objects] == [shape(e) for e in expected]
        assert not any(unbuilt(o) for o in objects)

    def test_readers_see_a_materialized_element(self, case):
        wrapper, expected, rows = case
        for obj, ref in zip(scan(wrapper), expected):
            assert obj.fully_materialized and not obj.is_broken
            assert obj.is_leaf == ref.is_leaf
            assert obj.materialized_child_count == len(ref.children)
            if unbuilt(obj):
                first = obj.child(0)
                assert (first.oid, first.label) == (
                    ref.children[0].oid, ref.children[0].label)
                assert obj.child(len(ref.children)) is None
                assert shape(obj.copy_subtree()) == shape(ref)

    def test_walk_at_every_budget(self, case):
        wrapper, expected, rows = case
        # The copy builds the first scan's tuple objects; the second
        # scan's stay unread.
        copy = Node("&r", "list", scan(wrapper)).copy_subtree()
        objects = scan(wrapper)
        container = Node("&r", "list", objects)
        for budget in range(tree_size(copy) + 2):
            assert walk(container, budget) == walk(copy, budget), budget
            for obj, ref in zip(objects, expected):
                assert walk(obj, budget) == walk(ref, budget), budget
        assert walk(container, None) == walk(copy, None)
        assert all(unbuilt(o) for o in objects if isinstance(o, TupleObject))

    @pytest.mark.parametrize("indent", [None, 2])
    @pytest.mark.parametrize("show_oids", [False, True])
    def test_serialize(self, case, indent, show_oids):
        wrapper, expected, rows = case
        objects = scan(wrapper)
        got = serialize(Node("&r", "list", objects), indent, show_oids)
        want = serialize(Node("&r", "list", expected), indent, show_oids)
        assert got == want
        for obj, ref in zip(objects, expected):
            assert serialize(obj, indent, show_oids) == serialize(
                ref, indent, show_oids)
        if indent is None and not show_oids:
            assert all(unbuilt(o) for o in objects
                       if isinstance(o, TupleObject))

    def test_a_null_field_is_absent(self, case):
        wrapper, expected, rows = case
        for obj, row in zip(scan(wrapper), rows):
            labels = [c.label for c in obj.children]
            assert labels == [
                "c{}".format(c) for c, v in enumerate(row) if v is not None
            ]
        assert None in rows[1] or len(rows[1]) == 1

    def test_a_bytes_value_raises_at_assembly(self, case):
        wrapper, expected, rows = case
        width = len(rows[0])
        entry = RQVar("$T", "row", list(enumerate(
            "c{}".format(c) for c in range(width))), [0])
        row = list(rows[0])
        row[-1] = b"\x00"
        with pytest.raises(MixError):
            assemble(entry, row, OidGenerator())


def test_a_sqlite_blob_raises_when_its_row_is_scanned():
    wrapper = SqliteWrapper(stats=Instrument())
    wrapper.run("CREATE TABLE t (k TEXT, b BLOB, PRIMARY KEY (k))")
    wrapper.run("INSERT INTO t VALUES ('a', X'00')")
    wrapper.register_document("doc", "t")
    with pytest.raises(MixError):
        scan(wrapper)


def test_fields_and_a_keyless_oid_come_from_one_reserved_block():
    oids = OidGenerator("z")
    entry = RQVar("$T", "row", [(0, "a"), (1, "b")], [])
    assert oids.fresh() == "&z1"
    obj = assemble(entry, ("x", 2), oids)
    assert oids.fresh() == "&z7"
    assert obj.oid == "&z6"
    assert isinstance(obj, TupleObject)
    assert [(f.oid, f.children[0].oid) for f in obj.children] == [
        ("&z2", "&z3"), ("&z4", "&z5")]


def test_append_lands_after_the_fields():
    entry = RQVar("$T", "row", [(0, "a"), (1, "b")], [0])
    obj = assemble(entry, ("k", 2), OidGenerator())
    extra = obj.append(Node("&x", "extra"))
    assert [c.label for c in obj.children] == ["a", "b", "extra"]
    assert obj.child(2) is extra


def run_all(threads):
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)


class TestThreads:
    @pytest.fixture(autouse=True)
    def often_switching(self):
        """Switch threads as often as the interpreter allows, so races
        show up within a few hundred draws."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(interval)

    def test_concurrent_first_readers_get_the_same_nodes(self):
        entry = RQVar("$T", "row", [(c, "c{}".format(c)) for c in range(64)],
                      [0])
        obj = assemble(entry, list(range(64)), OidGenerator())
        barrier = threading.Barrier(8, timeout=10)
        seen = [None] * 8

        def read(slot):
            barrier.wait()
            if slot % 2:
                seen[slot] = [obj.child(i) for i in range(64)]
            else:
                seen[slot] = obj.children

        threads = [threading.Thread(target=read, args=(slot,))
                   for slot in range(8)]
        run_all(threads)
        assert len(seen[0]) == 64
        for nodes in seen[1:]:
            assert len(nodes) == 64
            assert all(a is b for a, b in zip(nodes, seen[0]))

    def test_reserve_and_fresh_never_share_a_number(self):
        oids = OidGenerator("t")
        barrier = threading.Barrier(8, timeout=10)
        taken = [[] for _ in range(8)]

        def draw(slot):
            barrier.wait()
            for _ in range(300):
                if slot % 2:
                    first = oids.reserve(slot)
                    taken[slot].extend(range(first, first + slot))
                else:
                    taken[slot].append(int(oids.fresh()[2:]))

        threads = [threading.Thread(target=draw, args=(slot,))
                   for slot in range(8)]
        run_all(threads)
        numbers = [n for block in taken for n in block]
        assert sorted(numbers) == list(range(1, len(numbers) + 1))
        assert oids.fresh() == "&t{}".format(len(numbers) + 1)


class _CountingTail:
    """A lazy tail that counts the children it produced."""

    def __init__(self, count):
        self.pulled = 0
        self._count = count

    def __iter__(self):
        return self

    def __next__(self):
        if self.pulled >= self._count:
            raise StopIteration
        self.pulled += 1
        return Node("&c{}".format(self.pulled), "v{}".format(self.pulled))


def test_atomizing_a_lazy_element_forces_at_most_two_children():
    tail = _CountingTail(50)
    assert atomize(Node("&e", "many", lazy_tail=tail)) is None
    assert tail.pulled == 2
    tail = _CountingTail(1)
    assert atomize(Node("&e", "one", lazy_tail=tail)) == "v1"
    assert tail.pulled == 1
