"""T1/E-GBY: the presorted stateless gBy of Table 1 vs. the stateful one.

The paper: "The stateless gBy assumes that its input is sorted along the
group-by variables.  The stateful gBy makes no such assumptions, and
hence needs buffers to store the input stream."

We measure the buffering behaviour and the latency to the *first group*
over an input-size sweep: the presorted implementation buffers nothing
and emits the first group after one input tuple; the stateful one
buffers everything before emitting anything.
"""

from __future__ import annotations

import pytest

from repro import stats as statnames
from repro.obs import Instrument
from repro.xmltree import leaf
from repro.engine.block import Block, rows as row_views
from repro.engine.gby import presorted_gby_blocks, stateful_gby_blocks
from benchmarks.conftest import print_series


def sorted_tuples(n_groups, per_group, counter=None):
    """One-row column blocks sorted on ``$G`` (the width-1 input)."""
    for g in range(n_groups):
        for i in range(per_group):
            if counter is not None:
                counter[0] += 1
            yield Block(
                {"$G": [leaf("g{:06d}".format(g))], "$P": [leaf(i)]}, 1
            )


def presorted_groups(blocks, group_vars, out_var, stats=None):
    """The presorted gBy's group rows (it buffers nothing to count)."""
    return row_views(presorted_gby_blocks(blocks, group_vars, out_var, 1))


def stateful_groups(blocks, group_vars, out_var, stats=None):
    return row_views(stateful_gby_blocks(blocks, group_vars, out_var, stats))


def test_first_group_latency():
    rows = []
    for n_groups in (10, 100, 1000):
        per_group = 10
        pulled_presorted = [0]
        stream = presorted_groups(
            sorted_tuples(n_groups, per_group, pulled_presorted),
            ("$G",),
            "$X",
        )
        next(stream)
        pulled_stateful = [0]
        stream2 = stateful_groups(
            sorted_tuples(n_groups, per_group, pulled_stateful),
            ("$G",),
            "$X",
        )
        next(stream2)
        rows.append(
            (n_groups * per_group, pulled_presorted[0], pulled_stateful[0])
        )
        assert pulled_presorted[0] == 1
        assert pulled_stateful[0] == n_groups * per_group
    print_series(
        "E-GBY: input tuples pulled before the first group is available",
        ("input size", "presorted (Table 1)", "stateful"),
        rows,
    )


def test_buffering_sweep():
    rows = []
    for n_groups in (10, 100, 500):
        per_group = 10
        stats_presorted = Instrument()
        list(
            presorted_groups(
                sorted_tuples(n_groups, per_group),
                ("$G",),
                "$X",
                stats=stats_presorted,
            )
        )
        stats_stateful = Instrument()
        list(
            stateful_groups(
                sorted_tuples(n_groups, per_group),
                ("$G",),
                "$X",
                stats=stats_stateful,
            )
        )
        rows.append(
            (
                n_groups * per_group,
                stats_presorted.get(statnames.BUFFERED_TUPLES),
                stats_stateful.get(statnames.BUFFERED_TUPLES),
            )
        )
        # Table 1's implementation needs no operator-owned buffer at all.
        assert stats_presorted.get(statnames.BUFFERED_TUPLES) == 0
        assert (
            stats_stateful.get(statnames.BUFFERED_TUPLES)
            == n_groups * per_group
        )
    print_series(
        "E-GBY: operator-buffered tuples (full consumption)",
        ("input size", "presorted (Table 1)", "stateful"),
        rows,
    )


def test_results_agree_on_sorted_input():
    for n_groups, per_group in ((5, 3), (50, 1), (1, 40)):
        a = list(
            presorted_groups(
                sorted_tuples(n_groups, per_group), ("$G",), "$X"
            )
        )
        b = list(
            stateful_groups(
                sorted_tuples(n_groups, per_group), ("$G",), "$X"
            )
        )
        assert len(a) == len(b) == n_groups
        for x, y in zip(a, b):
            assert x.get("$G").label == y.get("$G").label
            assert len(x.get("$X")) == len(y.get("$X")) == per_group


@pytest.mark.parametrize("variant", ["presorted", "stateful"])
def test_bench_gby_full_consumption(benchmark, variant):
    n_groups, per_group = 200, 10
    fn = (
        presorted_groups if variant == "presorted"
        else stateful_groups
    )

    def run():
        groups = list(
            fn(sorted_tuples(n_groups, per_group), ("$G",), "$X")
        )
        # Touch every partition so both variants do the same total work.
        return sum(len(g.get("$X")) for g in groups)

    assert benchmark(run) == n_groups * per_group


@pytest.mark.parametrize("variant", ["presorted", "stateful"])
def test_bench_gby_first_group_only(benchmark, variant):
    n_groups, per_group = 200, 10
    fn = (
        presorted_groups if variant == "presorted"
        else stateful_groups
    )

    def run():
        stream = fn(
            sorted_tuples(n_groups, per_group), ("$G",), "$X"
        )
        return len(next(stream).get("$X"))

    assert benchmark(run) == per_group
