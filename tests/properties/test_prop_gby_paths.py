"""Property tests: group-by implementations and path algebra."""

from hypothesis import given, settings, strategies as st

from repro.xmltree import Path, leaf
from repro.xmltree.paths import Step
from repro.engine.block import Block, rows
from repro.engine.gby import presorted_gby_blocks, stateful_gby_blocks


# -- group-by -------------------------------------------------------------------

group_keys = st.lists(
    st.integers(0, 6), min_size=0, max_size=30
).map(sorted)  # sorted input, arbitrary group sizes


widths = st.integers(1, 8)


def to_blocks(keys, per_block=1):
    """Column blocks of ``per_block`` rows, one row per key."""
    return [
        Block({
            "$G": [leaf("k{}".format(k)) for k in keys[lo:lo + per_block]],
            "$P": [leaf(i) for i in range(lo, min(lo + per_block,
                                                  len(keys)))],
        }, len(keys[lo:lo + per_block]))
        for lo in range(0, len(keys), per_block)
    ]


def presorted(keys, per_block=1, size=1):
    return list(rows(presorted_gby_blocks(
        iter(to_blocks(keys, per_block)), ("$G",), "$X", size)))


def stateful(keys, per_block=1):
    return list(rows(stateful_gby_blocks(
        iter(to_blocks(keys, per_block)), ("$G",), "$X")))


@given(group_keys, widths, widths)
@settings(max_examples=100, deadline=None)
def test_presorted_equals_stateful_on_sorted_input(keys, per_block, size):
    by_run = presorted(keys, per_block, size)
    by_key = stateful(keys, per_block)
    assert len(by_run) == len(by_key)
    for a, b in zip(by_run, by_key):
        assert a.get("$G").label == b.get("$G").label
        assert [t.get("$P").label for t in a.get("$X")] == [
            t.get("$P").label for t in b.get("$X")
        ]


@given(group_keys)
@settings(max_examples=100, deadline=None)
def test_groups_partition_the_input(keys):
    groups = stateful(keys)
    # Every input tuple appears in exactly one partition.
    recovered = sorted(
        t.get("$P").label for g in groups for t in g.get("$X")
    )
    assert recovered == list(range(len(keys)))
    # Group keys are distinct.
    labels = [g.get("$G").label for g in groups]
    assert len(labels) == len(set(labels))


@given(st.lists(st.integers(0, 6), min_size=0, max_size=30))
@settings(max_examples=100, deadline=None)
def test_stateful_handles_unsorted_input(keys):
    groups = stateful(keys)
    assert len(groups) == len(set(keys))


# -- path algebra ------------------------------------------------------------------

label_st = st.from_regex(r"[a-z][a-z0-9]{0,5}", fullmatch=True)
paths = st.lists(label_st, min_size=1, max_size=5).map(
    lambda ls: Path.of(*ls)
)


@given(paths)
@settings(max_examples=100, deadline=None)
def test_parse_repr_roundtrip(path):
    assert Path.parse(repr(path)) == path


@given(paths, label_st)
@settings(max_examples=100, deadline=None)
def test_prepend_then_residual_is_identity(path, label):
    extended = path.prepend(label)
    assert extended.starts_with_label(label)
    assert extended.residual() == path


@given(paths)
@settings(max_examples=100, deadline=None)
def test_first_labels_consistent_with_starts_with(path):
    (first,) = path.first_labels()
    if first is not None:
        assert path.starts_with_label(first)
        assert not path.starts_with_label(first + "x")


@given(paths, paths)
@settings(max_examples=100, deadline=None)
def test_concat_length(p, q):
    assert len(p.concat(q)) == len(p) + len(q)


@given(paths)
@settings(max_examples=50, deadline=None)
def test_evaluation_via_matching_chain(path):
    """Build a chain matching the path exactly; evaluation finds the end."""
    from repro.xmltree import elem

    labels = [s.label for s in path.steps]
    node = elem(labels[-1], "v")
    for label in reversed(labels[:-1]):
        node = elem(label, node)
    matches = path.evaluate(node)
    assert len(matches) == 1
    assert matches[0].label == labels[-1]
