"""Stable identity tokens for plan nodes.

The seed profiler keyed per-operator counts on ``id(plan_node)``.  CPython
reuses ids after garbage collection, so two plans profiled in one process
could silently alias each other's counts.  A *token* is a process-unique
string stamped onto the node itself the first time it is observed
(``"join#17"``), so the key lives exactly as long as the node and can
never be recycled onto a different operator.  Engine operator spans are
keyed on it, and the optimizer's estimates are too.
"""

from __future__ import annotations

import itertools

_TOKEN_ATTR = "_obs_token"
_counter = itertools.count(1)


def node_token(node):
    """The stable token of ``node`` (typically an XMAS plan operator),
    minting one on first sight."""
    token = getattr(node, _TOKEN_ATTR, None)
    if token is None:
        token = "{}#{}".format(
            getattr(node, "opname", type(node).__name__), next(_counter)
        )
        setattr(node, _TOKEN_ATTR, token)
    return token
