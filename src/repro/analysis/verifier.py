"""The static plan verifier: binding-schema dataflow over XMAS plans.

Every XMAS operator maps an input binding schema (the set of variables
bound in each tuple) to an output schema — paper Section 3, Fig. 5 —
by the :class:`~repro.algebra.operators.Output` rule its class declares,
which :func:`~repro.algebra.plan.defined_vars` follows too.  The
verifier walks a plan bottom-up, and from the schemas of each node's
inputs checks that

* every variable the node consumes (``used_vars``) is bound: MIX-E001,
  or by class MIX-E003 (``crElt``/``cat`` arguments), MIX-E004
  (``groupBy`` keys), MIX-E006 (the ``tD`` export), MIX-E007
  (``project``/``orderBy`` lists), MIX-E010 (join/semijoin conditions);
* a node that extends its input's schema introduces no variable its
  input already binds, and join inputs are disjoint (MIX-E002).

It keeps the checks that are not schema: ``project``, ``groupBy`` and
``empty`` list no variable twice (MIX-E002); a ``nestedSrc`` leaf names
an enclosing ``apply``'s input variable, which is how decontextualized
plans (Section 7) are proven context-free (MIX-E005); ``rQ`` orders
only on exported variables (MIX-E007) and exports each once (MIX-E008);
with a catalog, ``mksrc``/``rQ`` leaves resolve (MIX-E009).

Schemas are ``frozenset`` of variable names, or ``None`` when statically
unknown (a ``nestedSrc`` whose partition schema cannot be traced);
``None`` suppresses membership checks but still propagates, so partial
knowledge never produces false positives.
"""

from __future__ import annotations

from typing import List

from repro.algebra import operators as ops
from repro.algebra.operators import EXTEND
from repro.algebra.plan import nested_env
from repro.analysis.diagnostics import Diagnostic
from repro.errors import PlanVerificationError


def verify_plan(plan, catalog=None, stage=None, source=None):
    """Verify one plan; returns the list of :class:`Diagnostic` findings.

    ``catalog`` (a :class:`repro.sources.SourceCatalog`) enables the
    source-resolution check (MIX-E009); without it, plans with virtual
    roots — pre-composition views, the query root — verify cleanly.
    ``stage``/``source`` are attached to every finding for reporting.
    """
    verifier = _Verifier(catalog=catalog, stage=stage, source=source)
    verifier.visit(plan, {})
    return verifier.diagnostics


def assert_plan_verifies(plan, catalog=None, stage=None, source=None,
                         rule=None):
    """Like :func:`verify_plan` but raises on errors.

    Raises :class:`repro.errors.PlanVerificationError` carrying the
    diagnostics when any finding has severity ``error``; returns the
    (possibly empty) diagnostics list otherwise.  ``rule`` names the
    rewrite rule whose output is being checked (rewrite stages only);
    it travels on the raised error for provenance.
    """
    diagnostics = verify_plan(
        plan, catalog=catalog, stage=stage, source=source
    )
    return raise_on_errors(diagnostics, stage, rule)


def raise_on_errors(diagnostics, stage=None, rule=None):
    """Raise :class:`repro.errors.PlanVerificationError` naming the
    first error among ``diagnostics``, the ``stage`` they were found
    after and the rewrite ``rule`` blamed for it; return
    ``diagnostics`` when none is an error."""
    errors = [d for d in diagnostics if d.is_error]
    if errors:
        first = errors[0]
        where = " after stage {!r}".format(stage) if stage else ""
        blame = " (rule {!r})".format(rule) if rule else ""
        raise PlanVerificationError(
            "plan verification failed{}{}: {} {}".format(
                where, blame, first.code, first.message
            ),
            diagnostics=diagnostics,
            stage=stage,
            rule=rule,
        )
    return diagnostics


class _Verifier:
    """One walk over a plan with a diagnostics sink.  ``env`` maps a
    ``nestedSrc`` variable to the partition schema of the enclosing
    ``apply`` (:func:`~repro.algebra.plan.nested_env`), threaded into
    nested plans only, as the paper's ``apply`` scopes them.
    """

    def __init__(self, catalog=None, stage=None, source=None):
        self.catalog = catalog
        self.stage = stage
        self.source = source
        self.diagnostics: List[Diagnostic] = []

    def report(self, code, message):
        self.diagnostics.append(
            Diagnostic(code, message, stage=self.stage, source=self.source)
        )

    def visit(self, plan, env):
        """Check ``plan`` after its sub-plans, before its nested plans;
        returns its output schema."""
        inputs = []
        for child in plan.children:
            inputs.append(self.visit(child, env))
        cls = type(plan)
        check = _CHECKS.get(cls)
        if check is not None:
            check(self, plan, inputs, env)
        if inputs and None not in inputs:
            schema = inputs[0]
            if len(inputs) > 1:  # a join's inputs are disjoint
                overlap = sorted(schema & inputs[1])
                if overlap:
                    self.report("MIX-E002", "{} inputs both bind {}".format(
                        plan.opname, ", ".join(overlap)
                    ))
                schema = schema | inputs[1]
            if not plan.used_vars() <= schema:
                self.report(
                    _CONSUMED.get(cls, "MIX-E001"),
                    _UNBOUND[len(inputs) > 1].format(
                        plan.opname,
                        ", ".join(sorted(plan.used_vars() - schema)),
                        _fmt(schema),
                    ),
                )
            shadowed = cls.output is EXTEND and plan.local_defined_vars()
            if shadowed and not shadowed.isdisjoint(schema):
                for var in sorted(shadowed & schema):
                    self.report("MIX-E002", "{} introduces {} which its"
                                " input already binds".format(plan.opname,
                                                              var))
        if plan.nested_plans:
            inner = nested_env(plan, env)
            for nested in plan.nested_plans:
                self.visit(nested, inner)
        return plan.output_vars_from(inputs, env)

    # -- the checks that are not schema ----------------------------------

    def _listed_twice(self, variables, message, code="MIX-E002"):
        seen = set()
        for var in variables:
            if var in seen:
                self.report(code, message.format(var))
            seen.add(var)
        return seen

    def _check_project(self, plan, inputs, env):
        self._listed_twice(plan.variables, "project lists {} twice")

    def _check_groupby(self, plan, inputs, env):
        keys = self._listed_twice(
            plan.group_vars, "gBy lists group variable {} twice"
        )
        if plan.out_var in keys:
            self.report("MIX-E002", "gBy output {} collides with a group"
                        " variable".format(plan.out_var))

    def _check_empty(self, plan, inputs, env):
        if len(set(plan.variables)) != len(plan.variables):
            self.report("MIX-E002", "empty lists a variable twice: {}".format(
                ", ".join(plan.variables)
            ))

    def _check_nestedsrc(self, plan, inputs, env):
        if plan.var not in env:
            self.report("MIX-E005", "nestedSrc references {} which no"
                        " enclosing apply binds (free context variable)"
                        .format(plan.var))

    def _check_mksrc(self, plan, inputs, env):
        # With an input (naive composition, Section 6) the source
        # operator reads the tree built by a tD-rooted view plan, so the
        # source id is virtual and never in the catalog.
        if (plan.input is None and self.catalog is not None
                and not self.catalog.has_document(plan.source)):
            self.report("MIX-E009", "mksrc references unknown document {!r}"
                        " (known: {})".format(
                            plan.source,
                            ", ".join(self.catalog.document_ids()) or "none",
                        ))

    def _check_relquery(self, plan, inputs, env):
        exported = self._listed_twice(
            [entry.var for entry in plan.varmap], "rQ exports {} twice",
            "MIX-E008",
        )
        missing = sorted(set(plan.order_vars) - exported)
        if missing:
            self.report("MIX-E007", "rQ orders on {} which it does not"
                        " export".format(", ".join(missing)))
        if self.catalog is not None:
            try:
                self.catalog.server(plan.server)
            except Exception:
                self.report("MIX-E009", "rQ references unknown server"
                            " {!r}".format(plan.server))


#: A consumed variable its input does not bind, by the number of inputs.
_UNBOUND = (
    "{} consumes {} not bound by its input (schema: {})",
    "{} condition references {} bound by neither input (schema: {})",
)

#: The code of a consumed variable its inputs do not bind, where it is
#: not MIX-E001.
_CONSUMED = {
    ops.CrElt: "MIX-E003", ops.Cat: "MIX-E003", ops.GroupBy: "MIX-E004",
    ops.TD: "MIX-E006", ops.Project: "MIX-E007", ops.OrderBy: "MIX-E007",
    ops.Join: "MIX-E010", ops.SemiJoin: "MIX-E010",
}

#: The checks that are not schema, by class.
_CHECKS = {
    ops.Project: _Verifier._check_project,
    ops.GroupBy: _Verifier._check_groupby,
    ops.Empty: _Verifier._check_empty,
    ops.NestedSrc: _Verifier._check_nestedsrc,
    ops.MkSrc: _Verifier._check_mksrc,
    ops.RelQuery: _Verifier._check_relquery,
}


def _fmt(schema):
    return ", ".join(sorted(schema)) or "<empty>"
