"""Property test: random QDOM navigation walks never corrupt state.

For any sequence of navigation commands, a :class:`Session` either
performs the move or raises :class:`NavigationError` — and in both
cases the cursor stays on a valid node whose breadcrumbs match the
actual ancestor chain.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import NavigationError
from repro.qdom import Mediator, Session
from tests.conftest import Q1, make_paper_wrapper

COMMANDS = ("down", "right", "up", "into_customer", "into_orderinfo")

command_sequences = st.lists(
    st.sampled_from(COMMANDS), min_size=0, max_size=25
)


def apply_command(session, command):
    if command == "down":
        session.down()
    elif command == "right":
        session.right()
    elif command == "up":
        session.up()
    elif command == "into_customer":
        session.into("customer")
    elif command == "into_orderinfo":
        session.into("OrderInfo")


@given(command_sequences)
@settings(max_examples=60, deadline=None)
def test_random_walks_keep_state_consistent(commands):
    session = Session(
        Mediator().add_source(make_paper_wrapper())
    ).open(Q1)
    for command in commands:
        try:
            apply_command(session, command)
        except NavigationError:
            continue
        # Invariants after every successful move:
        crumbs = session.breadcrumbs()
        assert crumbs[0] == "list"
        assert crumbs[-1] == str(session.label())
        # Breadcrumbs match the node's ancestor chain exactly.
        depth = 0
        node = session.current
        while node is not None:
            depth += 1
            node = node.parent
        assert depth == len(crumbs)


@given(command_sequences)
@settings(max_examples=40, deadline=None)
def test_log_length_counts_successful_moves(commands):
    session = Session(
        Mediator().add_source(make_paper_wrapper())
    ).open(Q1)
    successes = 1  # the open()
    for command in commands:
        try:
            apply_command(session, command)
            successes += 1
        except NavigationError:
            pass
    assert len(session.log()) == successes
