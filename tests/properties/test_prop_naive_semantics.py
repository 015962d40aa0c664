"""Property test: the naive pipeline answers with the algebra's set semantics.

The mediator answers with the rewritten plan's records, as a set (the
paper's XMAS algebra is set-based; EXPERIMENTS.md deviation 4).
``Mediator(optimize=False)`` runs the Fig. 12 plan as drawn, which may
repeat a record once per witness, so its answers are compared with the
default mediator's and the eager oracle's as sets of serialized
top-level records — for the query, the ``q`` from its root and the
``q`` from each of its records.
"""

from hypothesis import given, seed, settings, strategies as st

from repro import Mediator
from repro.workloads import CustomersOrdersSpec, build_customers_orders
from repro.xmltree import serialize
from tests.conftest import MIX_SEED, Q1, make_paper_wrapper
from tests.test_lattice import SHAPES, VALUES, VIEWS, literals, records

#: The three answers compared: naive, rewritten, and the eager oracle
#: the lattice uses.
CONFIGS = (
    dict(optimize=False),
    dict(),
    dict(lazy=False, cache=False, block_size=1),
)

#: Q1's view refined as in the paper's Fig. 12.
FIG12_REFINEMENT = (
    "FOR $R IN document(root)/CustRec $S IN $R/OrderInfo "
    "WHERE $S/order/value/data() > 50 RETURN $R"
)


def answer_set(node):
    """The serialized top-level records of ``node``'s subtree, as a set."""
    return frozenset(records(serialize(node.to_tree())))


def observe(mediator, query, root_q, node_q):
    """``{read: set of records}`` for one query and its refinements.
    The node ``q`` runs from every record of the answer and is keyed
    by that record, since the naive plan may order them differently."""
    root = mediator.query(query)
    seen = {"query": answer_set(root)}
    if root_q is not None:
        seen["root q"] = answer_set(root.q(root_q))
    if node_q is not None:
        seen["node q"] = frozenset(
            (serialize(child.to_tree()), answer_set(child.q(node_q)))
            for child in root.children()
        )
    return seen


@seed(MIX_SEED)
@settings(max_examples=30, deadline=None)
@given(
    size=st.tuples(st.integers(1, 5), st.integers(1, 3)),
    shape=st.sampled_from(SHAPES),
    values=st.tuples(*[st.integers(0, len(VALUES) - 1)] * 3),
    view=st.sampled_from(VIEWS),
)
def test_naive_answers_equal_rewritten_as_sets(size, shape, values, view):
    spec = CustomersOrdersSpec(
        n_customers=size[0], orders_per_customer=size[1],
        value_mode="uniform", tiers=30, seed=MIX_SEED,
    )
    query, root_at, node_at = values
    texts = (
        shape.text.format(**literals(query)),
        shape.root_q.format(**literals(root_at)),
        shape.node_q and shape.node_q.format(**literals(node_at)),
    )
    answers = []
    for config in CONFIGS:
        mediator = Mediator(**config).add_source(
            build_customers_orders(spec).wrapper
        )
        mediator.define_view("vw", view)
        answers.append(observe(mediator, *texts))
    naive, rewritten, oracle = answers
    assert naive == rewritten == oracle


def test_fig12_refinement_repeats_a_record_per_witness():
    """Deviation 4 on the Fig. 2 database: the naive plan answers XYZ
    once per qualifying order, the rewritten one once."""
    answers = []
    for config in CONFIGS:
        mediator = Mediator(**config).add_source(make_paper_wrapper())
        answer = mediator.query(Q1).q(FIG12_REFINEMENT)
        answers.append(records(serialize(answer.to_tree())))
    naive, rewritten, oracle = answers
    assert len(naive) == 4
    assert len(rewritten) == len(oracle) == 3
    assert sum("<id>XYZ</id>" in r for r in naive) == 2
    assert set(naive) == set(rewritten) == set(oracle)
