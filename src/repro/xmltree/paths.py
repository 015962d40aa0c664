"""Path expressions over labeled ordered trees.

The paper's ``getD`` operator binds "nodes reachable from the node v by a
path p such that the labels on this path satisfy the regular expression r
(the path contains the labels of both the start and finish node)".  The
XQuery subset of Fig. 4 only ever produces *label sequences*, so ``Path``
is a sequence of steps where each step is

* a label (matches a node with exactly that label),
* ``*`` (:data:`WILDCARD`, matches any label), or
* ``data()`` (:data:`DATA_STEP`, the final atomization step: descends to
  the single value leaf).

The rewrite rules of Table 2 need two pieces of path algebra: ``first(p)``
(the set of labels the path may start with) and the residual ``q = p / r``
(the path with a matched first label removed).  Both live here.
"""

from __future__ import annotations

from repro.errors import MixError, ParseError
from repro.xmltree.tree import data_leaf


class Step:
    """One step of a path: a label match, the wildcard, or ``data()``."""

    __slots__ = ("kind", "label")

    LABEL = "label"
    WILD = "wild"
    DATA = "data"

    def __init__(self, kind, label=None):
        self.kind = kind
        self.label = label

    def matches(self, node_label):
        """Does this step admit a node with label ``node_label``?"""
        if self.kind == Step.WILD:
            return True
        if self.kind == Step.LABEL:
            return self.label == node_label
        return False  # data() is handled specially by the evaluator

    def __eq__(self, other):
        return (
            isinstance(other, Step)
            and self.kind == other.kind
            and self.label == other.label
        )

    def __hash__(self):
        return hash((self.kind, self.label))

    def __repr__(self):
        if self.kind == Step.LABEL:
            return str(self.label)
        if self.kind == Step.WILD:
            return "*"
        return "data()"


WILDCARD = Step(Step.WILD)
DATA_STEP = Step(Step.DATA)


def _label_step(label):
    return Step(Step.LABEL, label)


class Path:
    """An immutable sequence of :class:`Step`.

    The textual form uses ``.`` as the separator (the paper's figures write
    ``$C.customer.id``); :meth:`parse` also accepts ``/``.
    """

    __slots__ = ("steps",)

    def __init__(self, steps):
        steps = tuple(steps)
        for i, s in enumerate(steps):
            if not isinstance(s, Step):
                raise MixError("path steps must be Step, got {!r}".format(s))
            if s.kind == Step.DATA and i != len(steps) - 1:
                raise MixError("data() may only be the final path step")
        self.steps = steps

    # -- construction -------------------------------------------------------

    @classmethod
    def of(cls, *labels):
        """Path from plain labels: ``Path.of("customer", "id")``."""
        return cls([_label_step(l) for l in labels])

    @classmethod
    def parse(cls, text):
        """Parse ``"customer.id.data()"`` (``/`` also accepted)."""
        text = text.strip()
        if not text:
            return cls(())
        parts = text.replace("/", ".").split(".")
        steps = []
        for part in parts:
            part = part.strip()
            if not part:
                raise ParseError("empty path step in {!r}".format(text), text)
            if part == "data()":
                steps.append(DATA_STEP)
            elif part == "*":
                steps.append(WILDCARD)
            else:
                steps.append(_label_step(part))
        return cls(steps)

    # -- algebra used by the rewriter (Table 2) ------------------------------

    def __len__(self):
        return len(self.steps)

    def is_empty(self):
        return not self.steps

    def first_labels(self):
        """``first(p)``: labels the path may start with.

        ``None`` in the returned set means "any label" (a wildcard start).
        """
        if not self.steps:
            return set()
        head = self.steps[0]
        if head.kind == Step.WILD:
            return {None}
        if head.kind == Step.LABEL:
            return {head.label}
        return set()

    def starts_with_label(self, label):
        """``label in first(p)`` (wildcards admit every label)."""
        if not self.steps:
            return False
        head = self.steps[0]
        return head.kind == Step.WILD or (
            head.kind == Step.LABEL and head.label == label
        )

    def residual(self):
        """``p / r``: the path minus its first step (rule 1/5 of Table 2)."""
        if not self.steps:
            raise MixError("residual of the empty path")
        return Path(self.steps[1:])

    def prepend(self, label):
        """A path starting with ``label`` followed by this path."""
        return Path((_label_step(label),) + self.steps)

    def concat(self, other):
        """This path followed by ``other``."""
        return Path(self.steps + other.steps)

    def ends_with_data(self):
        return bool(self.steps) and self.steps[-1].kind == Step.DATA

    def without_data(self):
        """The path with a trailing ``data()`` step removed, if any."""
        if self.ends_with_data():
            return Path(self.steps[:-1])
        return self

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, node):
        """All nodes reachable from ``node`` via this path.

        Matches the paper's convention that the path includes the label of
        the *start* node: ``Path.of("customer")`` evaluated on a node
        yields that node itself iff it is labeled ``customer``.

        A trailing ``data()`` steps to the node's atomized value leaf.
        """
        if not self.steps:
            return [node]
        return list(self._walk(node, 0))

    def _walk(self, node, index):
        step = self.steps[index]
        if step.kind == Step.DATA:
            target = data_leaf(node)
            if target is not None:
                yield target
            return
        if not step.matches(node.label):
            return
        if index == len(self.steps) - 1:
            yield node
            return
        next_step = self.steps[index + 1]
        if next_step.kind == Step.DATA:
            target = data_leaf(node)
            if target is not None:
                yield target
            return
        for child in node.children:
            for match in self._walk(child, index + 1):
                yield match

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Path) and self.steps == other.steps

    def __hash__(self):
        return hash(self.steps)

    def __repr__(self):
        return ".".join(repr(s) for s in self.steps) or "<empty-path>"

