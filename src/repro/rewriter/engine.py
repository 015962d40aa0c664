"""The rewrite driver: applies the rule set to a fixpoint, with a trace.

"The changes made by a single rewriting step to the structure of a plan
are local ... the only change made in the rest of the plan by a rewriting
rule application is the possible renaming of variables."  The driver
walks the plan, applies the first matching (rule, node) pair, performs
the local replacement plus the global renaming, records the step, and
repeats until no rule matches.

Rules are first-class registrable objects (:mod:`repro.rewriter.rule`):
:meth:`Rewriter.register` appends a validated rule to the priority
order, rejecting duplicate names.

Three engine-level behaviors matter for cost and debuggability:

* **Resume scan** — after a rule fires at pre-order position ``i``, the
  next scan resumes at ``i`` instead of restarting from the root
  (replacements are local, so positions before ``i`` keep their nodes).
  A fire can *enable* a match at an earlier position (a child collapsed
  to ``Empty``, a rename identified two variables), so a clean tail is
  confirmed by one full pass from the root before the fixpoint is
  declared — the result is always a true fixpoint of the rule set.
* **Typed dispatch** — a rule that declares ``matches`` is probed only
  at nodes of those operator types; the per-type rule tuples are built
  when a rule is registered, in priority order, so which rule fires
  where is what probing every rule everywhere would give.
* **Cycle detection** — every step's plan is fingerprinted
  (:func:`repro.algebra.plan.plan_fingerprint`, alpha-renaming
  invariant); a recurring fingerprint raises
  :class:`~repro.errors.RewriteError` with ``code="MIX-E013"`` and the
  last-k steps attached, naming the cycling rules instead of spinning
  until ``max_steps``.

The recorded :class:`RewriteStep` sequence is what regenerates the
paper's Figures 13-21 (each step shows the rule fired and the plan after
it).
"""

from __future__ import annotations

from collections import deque

from repro.errors import RewriteError
from repro.algebra import operators as ops
from repro.algebra.plan import (
    fingerprint_operators,
    rename_shared,
    replace_operator,
)
from repro.rewriter.context import RewriteContext
from repro.rewriter.rule import (
    probed_at,
    rule_name,
    validate_rule,
)
from repro.rewriter.rules import DEFAULT_RULES

#: How many trailing steps a non-terminating rewrite attaches to its
#: :class:`~repro.errors.RewriteError`.
KEEP_STEPS = 8


class RewriteStep:
    """One recorded rule application: the rule, the pre-order index of
    the node it fired at, and the plan after it."""

    __slots__ = ("rule_name", "plan", "fingerprint", "index")

    def __init__(self, rule_name, plan, fingerprint=None, index=None):
        self.rule_name = rule_name
        self.plan = plan
        self.fingerprint = fingerprint
        self.index = index


def _operator_types():
    """Every operator class defined so far, subclasses included."""
    found, queue = [], [ops.Operator]
    while queue:
        for cls in queue.pop().__subclasses__():
            found.append(cls)
            queue.append(cls)
    return found


class Rewriter:
    """Applies a registered rule set to composed plans, to a fixpoint.

    Args:
        rules: the initial rule objects, registered in order (default:
            the full Table-2 set).  Registration order is application
            priority: at each step the first matching (node, rule) pair
            in (pre-order position, registration order) wins.
        max_steps: safety bound on rule applications.
        resume_scan: resume scanning near the last replacement instead
            of restarting from the root after every fire (see module
            docstring).  ``False`` reproduces the seed's
            O(steps·nodes·rules) restart behavior; the fixpoints are
            identical either way.

    One rewriter serves every session of a mediator: :meth:`rewrite`
    keeps its working state in locals, and the rule tables change only
    in :meth:`register`, by replacement.
    """

    def __init__(self, rules=None, max_steps=2000, resume_scan=True):
        self.max_steps = max_steps
        self.resume_scan = resume_scan
        self.rules = ()
        self._dispatch = {}
        #: Rule names fired by the most recent :meth:`rewrite` to
        #: finish, in order — a convenience for single-threaded callers;
        #: concurrent ones read the ``trace`` they passed in.
        self.last_rule_names = ()
        #: ``rule.apply`` probe count of that rewrite (the resume-scan
        #: tests assert this drops against restart mode).
        self.last_probes = 0
        if rules is None:
            rules = DEFAULT_RULES
        for rule in rules:
            self.register(rule)

    def register(self, rule):
        """Append ``rule`` to the priority order; returns ``self``.

        Validates the registration contract
        (:func:`repro.rewriter.rule.validate_rule`) and rejects
        duplicate names — rule names are the provenance key in EXPLAIN
        and the per-stage verifier, so they must be unambiguous within
        one rewriter.
        """
        validate_rule(rule)
        name = rule_name(rule)
        if any(rule_name(r) == name for r in self.rules):
            raise RewriteError(
                "duplicate rule name {!r}: already registered".format(name)
            )
        self.rules = self.rules + (rule,)
        self._dispatch = {
            op_type: self._rules_for(op_type)
            for op_type in _operator_types()
        }
        return self

    def _rules_for(self, op_type):
        """The rules probed at ``op_type`` nodes, in priority order."""
        return tuple(r for r in self.rules if probed_at(r, op_type))

    def rewrite(self, plan, trace=None):
        """Rewrite ``plan`` to a fixpoint; returns the optimized plan.

        Pass a list as ``trace`` to collect :class:`RewriteStep`\\ s.
        Raises :class:`~repro.errors.RewriteError` (``code="MIX-E013"``,
        last-k steps attached) when the rule set cycles or exceeds
        ``max_steps``.
        """
        steps = start = probes = 0
        ctx = RewriteContext(plan)
        seen = {fingerprint_operators(ctx.nodes): 0}
        recent = deque(maxlen=KEEP_STEPS)
        fired_names = []
        while True:
            fired, tried = self._apply_one(ctx, start)
            probes += tried
            if fired is None:
                if start == 0:
                    break
                # Clean tail under resume scan: confirm the fixpoint
                # with one full pass (a fire may have enabled a match
                # at an earlier pre-order position).
                start = 0
                continue
            plan, name, index = fired
            start = index if self.resume_scan else 0
            steps += 1
            ctx = ctx.successor(plan)
            fingerprint = fingerprint_operators(ctx.nodes)
            step = RewriteStep(name, plan, fingerprint, index)
            recent.append(step)
            fired_names.append(name)
            if trace is not None:
                trace.append(step)
            previous = seen.get(fingerprint)
            if previous is not None:
                # Attach only the cycle segment (steps after the first
                # occurrence of the recurring fingerprint): steps fired
                # before the loop closed are innocent bystanders and
                # must not be blamed by the certifier.
                first_kept = steps - len(recent) + 1
                cycle = [
                    s for i, s in enumerate(recent)
                    if first_kept + i > previous
                ] or list(recent)
                raise self._nontermination(
                    "rule cycle: plan fingerprint {} recurred at step {} "
                    "(first seen at step {})".format(
                        fingerprint, steps, previous
                    ),
                    cycle, kind="cycle",
                )
            seen[fingerprint] = steps
            if steps > self.max_steps:
                raise self._nontermination(
                    "rewriting did not converge within {} steps".format(
                        self.max_steps
                    ),
                    recent, kind="divergence",
                )
        for node in ctx.nodes:
            node._shape = None  # the fingerprints' scratch, not the plan's
        self.last_rule_names = tuple(fired_names)
        self.last_probes = probes
        return plan

    def _nontermination(self, reason, recent, kind):
        return RewriteError(
            "MIX-E013 {} [last {} steps: {}]".format(
                reason,
                len(recent),
                " -> ".join(
                    "{}#{}".format(s.rule_name, s.fingerprint)
                    for s in recent
                ) or "-",
            ),
            steps=list(recent),
            code="MIX-E013",
            kind=kind,
        )

    def _apply_one(self, ctx, start):
        """The first (node, rule) match at pre-order position >= ``start``
        of ``ctx``'s plan.

        Returns ``((new_plan, rule_name, index) or None, probes made)``.
        Positions are stable across a local replacement — every node
        before the fired index keeps its pre-order slot — so the driver
        can resume where it left off.  A node is shown only to the rules
        that declare its type (or none) in ``matches``.
        """
        nodes = ctx.nodes
        dispatch = self._dispatch
        probes = 0
        for index in range(start, len(nodes)):
            node = nodes[index]
            rules = dispatch.get(type(node))
            if rules is None:  # an operator class newer than the rules
                rules = self._rules_for(type(node))
            for rule in rules:
                probes += 1
                result = rule.apply(node, ctx)
                if result is None:
                    continue
                new_plan = apply_result(ctx.root, node, result)
                return (new_plan, rule_name(rule), index), probes
        return None, probes


def apply_result(plan, node, result):
    """One rewrite step: ``plan`` with the subtree ``node`` replaced by
    ``result.replacement``, then ``result.rename`` applied plan-wide —
    the paper's local replacement plus global renaming, and the step the
    rule certifier checks."""
    new_plan = replace_operator(plan, node, result.replacement)
    if result.rename:
        new_plan = rename_shared(new_plan, result.rename)
    return new_plan


def rewrite_plan(plan, trace=None):
    """Convenience wrapper around :class:`Rewriter`."""
    return Rewriter().rewrite(plan, trace=trace)
