"""Expected answers from the repo's independent oracle.

The oracle is an in-process ``Mediator(lazy=False, cache=False,
block_size=1)`` over its own copy of the workload's database: the eager
engine, tuple mode, no cache, no server, no wire.  It runs the *same*
scripts as the driver, symbolically: a register holds a location
``(root key, path)`` instead of a wire handle, and each distinct
``(data state, location, op)`` is evaluated once and memoised, so a
thousand sessions over eleven distinct answers cost eleven evaluations.
Query texts that differ only by a jittered literal share a memo line
through their step's ``canon`` key; if that equivalence were wrong the
served answer of the second text would simply fail its check.

:func:`answer_of_reply` and :meth:`Oracle._answer` reduce a served reply
and an oracle node to the same comparable value.
"""

import hashlib
import json
import re

from mixbench import require_repro


#: One match per node of a compact serialisation: every start tag is an
#: element, every run of text after a tag is a leaf.
_TREE_NODES = re.compile(r"<[^/]|>[^<]")


def _digest(value):
    return hashlib.sha1(
        json.dumps(value, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


#: Oids the engines mint for nodes without a key ("ids may be random
#: surrogates"): the lazy engine counts ``&L1..``, the eager oracle
#: ``&e1..``.  Key-derived and skolem oids are compared literally.
_SURROGATE = re.compile(r"&[Le]\d+$")


def _describe(label, oid):
    return [label, "&*" if _SURROGATE.match(oid) else oid]


def answer_of_reply(op, result):
    """The comparable value of one ``ok`` reply, and the number of
    answer nodes it delivered."""
    if op in ("d", "r"):
        if result["node"] is None:
            return None, 0
        return _describe(result["label"], result["oid"]), 1
    if op in ("query", "q"):
        # A root's oid counts the views the mediator has compiled so
        # far, which the oracle's history does not share.
        return result["label"], 1
    if op == "fl":
        return result["label"], 0
    if op == "fv":
        return result["value"], 0
    if op == "children":
        kids = result["children"]
        return _digest(
            [_describe(k["label"], k["oid"]) for k in kids]
        ), len(kids)
    if op == "walk":
        return _digest(result["steps"]), len(result["steps"])
    if op == "tree":
        xml = result["xml"]
        return _digest(xml), len(_TREE_NODES.findall(xml))
    if op == "sql":
        return [r["affected"] for r in result["results"]], 0
    raise ValueError("script op {!r} has no answer form".format(op))


class Oracle:
    """Symbolic replay of session scripts against the eager mediator."""

    def __init__(self, workload):
        require_repro()
        from repro import Mediator
        from repro.workloads import build_customers_orders

        built = build_customers_orders(
            n_customers=workload.customers,
            orders_per_customer=workload.orders,
        )
        self._database = built.database
        self._mediator = Mediator(
            stats=built.stats, lazy=False, cache=False, block_size=1
        ).add_source(built.wrapper)
        self._state = None  # the value churn last wrote to order 0
        self._nodes = {}
        self._answers = {}

    def expected(self, session):
        """The answer the served path must give to each step of
        ``session`` (``None`` entries for open/close)."""
        regs = {}
        out = []
        for step in session:
            op = step.op
            if op in ("open", "close"):
                out.append(None)
                continue
            if op == "sql":
                out.append([
                    self._database.run(sql) for sql in step.args["statements"]
                ])
                self._state = step.canon
                continue
            if op == "query":
                here = (("query", step.canon), ())
            else:
                name = step.node
                here = (
                    regs[name[0]][name[1]] if isinstance(name, tuple)
                    else regs[name]
                )
            key = (self._state, here, op, step.canon)
            if key not in self._answers:
                self._answers[key] = self._answer(here, step)
            value, landed = self._answers[key]
            out.append(value)
            if step.save is not None:
                regs[step.save] = landed
        return out

    def _node(self, location, text=None):
        """The oracle's QdomNode at a symbolic location."""
        key = (self._state, location)
        node = self._nodes.get(key)
        if node is not None:
            return node
        root, path = location
        if path:
            parent = self._node((root, path[:-1]))
            hop = path[-1]
            if hop == "d":
                node = parent.d()
            elif hop == "r":
                node = parent.r()
            else:
                node = parent.children()[hop]
        elif root[0] == "query":
            node = self._mediator.query(text)
        else:
            node = self._node(root[1]).q(text)
        self._nodes[key] = node
        return node

    def _answer(self, here, step):
        """``(comparable value, location(s) the step lands on)``."""
        op = step.op
        root, path = here
        if op == "query":
            return self._node(here, step.args["query"]).fl(), here
        if op == "q":
            landed = (("q", here, step.canon), ())
            return self._node(landed, step.args["query"]).fl(), landed
        node = self._node(here)
        if op in ("d", "r"):
            landed = (root, path + (op,))
            target = self._node(landed)
            if target is None:
                return None, landed
            return _describe(target.fl(), str(target.oid)), landed
        if op == "fl":
            return node.fl(), None
        if op == "fv":
            return node.fv(), None
        if op == "children":
            kids = node.children()
            return (
                _digest([_describe(k.fl(), str(k.oid)) for k in kids]),
                [(root, path + (index,)) for index in range(len(kids))],
            )
        if op == "walk":
            steps, _ = node.walk(step.args.get("budget"))
            return _digest(steps), None
        if op == "tree":
            from repro.xmltree import serialize

            return _digest(serialize(node.to_tree())), None
        raise ValueError("script op {!r} has no oracle".format(op))
