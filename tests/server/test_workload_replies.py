"""Reply bytes of every benchmark workload stay what they were.

The first slice of each ``mixbench`` workload's seed-7 script is
replayed in-process through :meth:`MediatorService.handle_line` against
a fresh deployment of that workload, and the sha256 of each session's
reply lines is compared with ``workload_replies.json``.  The digests
were recorded before constructed elements became one node until read,
so any change to what a served session sees — labels, oids, handles,
transcripts, serialized XML, counters in ``stats`` — fails here.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from mixbench.launcher import build_service
from mixbench.workloads import WORKLOADS

GOLDEN = os.path.join(os.path.dirname(__file__), "workload_replies.json")
SEED = 7
#: Sessions per slice of a 12-second run (``sessions_per_slice``).
PER_SLICE = {
    "bbq_served": 8, "bbq_churn": 8, "adhoc_compile": 12, "deep_walk": 6,
}


def replay_digests(name, per_slice=None):
    """The sha256 of each session's reply lines, first slice of the
    seed-7 script of workload ``name``."""
    workload = WORKLOADS[name]
    service, _ = build_service(workload)
    sessions = workload.script(SEED, 1, per_slice or PER_SLICE[name])[0]
    request_id = 0
    digests = []
    for session in sessions:
        digest = hashlib.sha256()
        regs = {}
        sid = None
        for step in session:
            request_id += 1
            frame = {"id": request_id, "op": step.op}
            if sid is not None:
                frame["session"] = sid
            if step.node is not None:
                frame["node"] = (
                    regs[step.node[0]][step.node[1]]
                    if isinstance(step.node, tuple) else regs[step.node]
                )
            frame.update(step.args)
            line = service.handle_line(json.dumps(frame).encode("utf-8"))
            digest.update(line)
            reply = json.loads(line)
            assert reply["ok"], reply
            result = reply["result"]
            if step.op == "open":
                sid = result["session"]
            if step.save is not None:
                regs[step.save] = (
                    [kid["node"] for kid in result["children"]]
                    if step.op == "children" else result["node"]
                )
        digests.append(digest.hexdigest())
    return digests


@pytest.mark.parametrize("name", sorted(PER_SLICE))
def test_replies_match_the_recorded_digests(name):
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    assert replay_digests(name) == golden[name]
