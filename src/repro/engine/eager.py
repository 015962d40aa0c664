"""The eager (full-materialization) evaluator.

This is the semantics reference: every operator is implemented exactly as
its set-level definition in Section 3 of the paper, with no laziness.  It
doubles as the baseline the paper argues against — "evaluating the full
result unnecessarily overloads the mediator and the sources" — and the
benchmarks compare the lazy engine's source traffic against it.
"""

from __future__ import annotations

from functools import partial

from repro import stats as statnames
from repro.errors import EvaluationError, PlanError, SourceError
from repro.resilience.stub import (
    RAISE,
    degrade_children,
    degraded_stub,
    degrades,
)
from repro.xmltree.tree import Node, OidGenerator
from repro.algebra import operators as ops
from repro.algebra.bindings import BindingSet, BindingTuple
from repro.algebra.conditions import skolem_arg_of
from repro.algebra.values import Skolem, VList, value_key
from repro.engine.pathvals import eval_path_on_value
from repro.obs.instrument import Instrument
from repro.obs.tokens import node_token
from repro.sources.relational import assemble


class EagerEngine:
    """Evaluates XMAS plans by full materialization.

    ``on_source_error="degrade"`` substitutes ``<mix:error>`` stubs for
    failed source reads (by the lazy engine's rule,
    :func:`~repro.resilience.stub.degrade_children`), instead of raising.
    """

    def __init__(self, catalog, stats=None, oids=None,
                 on_source_error=RAISE):
        self._degrade = degrades(on_source_error)
        self.catalog = catalog
        self.stats = stats or Instrument()
        self.oids = oids or OidGenerator("e")

    # -- entry points ---------------------------------------------------------

    def evaluate(self, plan):
        """Evaluate ``plan``.

        A ``tD``-rooted plan yields the result tree (:class:`Node`);
        any other root yields a :class:`BindingSet`.
        """
        return self._eval(plan, {})

    def evaluate_tree(self, plan):
        """Evaluate a plan expected to produce a tree."""
        result = self.evaluate(plan)
        if not isinstance(result, Node):
            raise EvaluationError(
                "plan root {} produced tuples, not a tree".format(
                    type(plan).__name__
                )
            )
        return result

    # -- dispatch ---------------------------------------------------------------

    def _eval(self, plan, nested_env):
        handler = self._HANDLERS.get(type(plan))
        if handler is None:
            raise PlanError("no eager handler for {}".format(type(plan).__name__))
        token = node_token(plan)
        name = getattr(plan, "opname", type(plan).__name__)
        attrs = (
            {"server": plan.server, "sql": plan.display_sql}
            if isinstance(plan, ops.RelQuery)
            else {}
        )
        with self.stats.operator_span(name, key=token, **attrs) as span:
            result = handler(self, plan, nested_env)
            if span is not None and isinstance(result, BindingSet):
                span.rows += len(result)
        return result

    def _tuples(self, plan, nested_env):
        result = self._eval(plan, nested_env)
        if isinstance(result, Node):
            raise EvaluationError(
                "expected tuples from {}, got a tree".format(
                    type(plan).__name__
                )
            )
        return result

    def _count(self, binding_set):
        self.stats.incr(statnames.OPERATOR_TUPLES, len(binding_set))
        return binding_set

    # -- source access ------------------------------------------------------------

    def _eval_mksrc(self, plan, nested_env):
        if plan.input is not None:
            root = self._eval(plan.input, nested_env)
            if not isinstance(root, Node):
                raise EvaluationError(
                    "mksrc over a sub-plan requires a tree-producing plan"
                )
            children = root.children
        elif self._degrade:
            # The degradation rule is per pulled child.
            children = degrade_children(
                partial(self.catalog.iter_children, plan.source),
                self.stats, self.oids, plan.source,
            )
        else:
            children = self.catalog.iter_children(plan.source)
        return self._count(
            BindingSet(BindingTuple({plan.var: child}) for child in children)
        )

    def _eval_relquery(self, plan, nested_env):
        try:
            server = self.catalog.server(plan.server)
            self.stats.incr(statnames.RQ_STATEMENTS)
            self.stats.event("sql", plan.display_sql, server=plan.server)
            cursor = server.execute_sql(plan.sql, plan.params)
        except SourceError as exc:
            if not self._degrade:
                raise
            stub = degraded_stub(exc, self.stats, self.oids, plan.server)
            return self._count(
                BindingSet(
                    [BindingTuple({e.var: stub for e in plan.varmap})]
                )
            )
        out = BindingSet()
        while True:
            try:
                row = cursor.fetchone()
            except SourceError as exc:
                # Mid-stream failure (a dead shard member, say): stub
                # the lost slice and keep fetching the survivors.
                if not self._degrade:
                    raise
                stub = degraded_stub(exc, self.stats, self.oids, plan.server)
                out.append(
                    BindingTuple({e.var: stub for e in plan.varmap})
                )
                continue
            if row is None:
                break
            bindings = {}
            for entry in plan.varmap:
                value = assemble(entry, row, self.oids)
                if value is None:  # NULL field: the binding would not exist
                    bindings = None
                    break
                bindings[entry.var] = value
            if bindings is not None:
                out.append(BindingTuple(bindings))
        return self._count(out)

    # -- tuple operators -------------------------------------------------------------

    def _eval_getd(self, plan, nested_env):
        out = BindingSet()
        for t in self._tuples(plan.input, nested_env):
            for match in eval_path_on_value(t.get(plan.in_var), plan.path):
                out.append(t.extend(plan.out_var, match))
        return self._count(out)

    def _eval_select(self, plan, nested_env):
        out = BindingSet(
            t
            for t in self._tuples(plan.input, nested_env)
            if plan.condition.evaluate(t)
        )
        return self._count(out)

    def _eval_project(self, plan, nested_env):
        out = BindingSet()
        seen = set()
        for t in self._tuples(plan.input, nested_env):
            projected = t.project(plan.variables)
            key = projected.key(plan.variables)
            if key not in seen:
                seen.add(key)
                out.append(projected)
        return self._count(out)

    def _eval_join(self, plan, nested_env):
        left = self._tuples(plan.left, nested_env)
        right = list(self._tuples(plan.right, nested_env))
        out = BindingSet()
        for lt in left:
            for rt in right:
                if all(c.evaluate(lt, extra=rt) for c in plan.conditions):
                    out.append(lt.merge(rt))
        return self._count(out)

    def _eval_semijoin(self, plan, nested_env):
        left = self._tuples(plan.left, nested_env)
        right = list(self._tuples(plan.right, nested_env))
        if plan.keep == "left":
            keep, probe = left, right
        else:
            keep, probe = right, list(left)

        def matches(kept_tuple, probe_tuple):
            if plan.keep == "left":
                return all(
                    c.evaluate(kept_tuple, extra=probe_tuple)
                    for c in plan.conditions
                )
            return all(
                c.evaluate(probe_tuple, extra=kept_tuple)
                for c in plan.conditions
            )

        out = BindingSet()
        seen = set()
        for kt in keep:
            if any(matches(kt, pt) for pt in probe):
                key = kt.key()
                if key not in seen:
                    seen.add(key)
                    out.append(kt)
        return self._count(out)

    def _eval_crelt(self, plan, nested_env):
        out = BindingSet()
        for t in self._tuples(plan.input, nested_env):
            out.append(t.extend(plan.out_var, self._build_element(plan, t)))
        return self._count(out)

    def _build_element(self, plan, binding_tuple):
        ch_value = binding_tuple.get(plan.ch_var)
        if plan.ch_is_list:
            children = [ch_value]
        elif isinstance(ch_value, VList):
            children = list(ch_value)
        elif isinstance(ch_value, Node):
            # Tolerate a single element where a list is expected.
            children = [ch_value]
        else:
            raise EvaluationError(
                "crElt child variable {} is bound to {!r}".format(
                    plan.ch_var, ch_value
                )
            )
        args = [
            skolem_arg_of(binding_tuple.get(v)) for v in plan.skolem_args
        ]
        oid = Skolem(plan.out_var, plan.fn, args, arg_vars=plan.skolem_args)
        self.stats.incr(statnames.ELEMENTS_BUILT)
        flattened = []
        for child in children:
            if isinstance(child, VList):
                flattened.extend(child)
            else:
                flattened.append(child)
        return Node(oid, plan.label, flattened)

    def _eval_cat(self, plan, nested_env):
        out = BindingSet()
        for t in self._tuples(plan.input, nested_env):
            x = _as_list(t.get(plan.x_var), plan.x_single, plan.x_var)
            y = _as_list(t.get(plan.y_var), plan.y_single, plan.y_var)
            out.append(t.extend(plan.out_var, x.concat(y)))
        return self._count(out)

    def _eval_td(self, plan, nested_env):
        root_oid = plan.root_oid
        root = Node(
            "&{}".format(root_oid) if root_oid and not str(root_oid).startswith("&")
            else (root_oid or self.oids.fresh()),
            "list",
        )
        try:
            for t in self._tuples(plan.input, nested_env):
                value = t.get(plan.var)
                if isinstance(value, Node):
                    root.append(value)
                elif isinstance(value, VList):
                    for item in value:
                        if not isinstance(item, Node):
                            raise EvaluationError(
                                "tD cannot export nested sets"
                            )
                        root.append(item)
                else:
                    raise EvaluationError(
                        "tD variable {} bound to a nested set".format(
                            plan.var
                        )
                    )
        except SourceError as exc:
            # The outermost degradation net, mirroring the lazy tD.
            if not self._degrade:
                raise
            root.append(degraded_stub(exc, self.stats, self.oids))
        return root

    def _eval_groupby(self, plan, nested_env):
        partitions = []
        index = {}
        for t in self._tuples(plan.input, nested_env):
            key = t.key(plan.group_vars)
            if key not in index:
                index[key] = len(partitions)
                partitions.append((t, BindingSet()))
            partitions[index[key]][1].append(t)
        out = BindingSet()
        for first_tuple, partition in partitions:
            bindings = {v: first_tuple.get(v) for v in plan.group_vars}
            bindings[plan.out_var] = partition
            out.append(BindingTuple(bindings))
        return self._count(out)

    def _eval_apply(self, plan, nested_env):
        out = BindingSet()
        for t in self._tuples(plan.input, nested_env):
            env = dict(nested_env)
            if plan.inp_var is not None:
                env[plan.inp_var] = t.get(plan.inp_var)
            result = self._eval(plan.plan, env)
            if isinstance(result, Node):
                # A tD-rooted nested plan exports a list tree; the outer
                # plan consumes it as a list value (Fig. 6's $Z).
                result = VList(result.children)
            out.append(t.extend(plan.out_var, result))
        return self._count(out)

    def _eval_nestedsrc(self, plan, nested_env):
        if plan.var not in nested_env:
            raise EvaluationError(
                "nestedSrc({}) evaluated outside an apply".format(plan.var)
            )
        value = nested_env[plan.var]
        if not isinstance(value, BindingSet):
            raise EvaluationError(
                "nestedSrc({}) expects a set of binding lists".format(plan.var)
            )
        return value

    def _eval_orderby(self, plan, nested_env):
        tuples = list(self._tuples(plan.input, nested_env))
        tuples.sort(
            key=lambda t: tuple(
                _order_key(t.get(v)) for v in plan.variables
            )
        )
        return self._count(BindingSet(tuples))

    def _eval_empty(self, plan, nested_env):
        return BindingSet()

    _HANDLERS = {}


def _order_key(value):
    """Order by node ids, per the paper's orderBy semantics."""
    return _stable_repr(value_key(value))


def _stable_repr(key):
    # value_key returns nested tuples of strings/numbers; normalise to a
    # single comparable string.
    return repr(key)


def _as_list(value, single, var):
    if single:
        return VList([value])
    if isinstance(value, VList):
        return value
    if isinstance(value, Node):
        return VList([value])
    raise EvaluationError(
        "cat expects {} to be a list (or use the list() qualifier)".format(var)
    )


EagerEngine._HANDLERS = {
    ops.MkSrc: EagerEngine._eval_mksrc,
    ops.RelQuery: EagerEngine._eval_relquery,
    ops.GetD: EagerEngine._eval_getd,
    ops.Select: EagerEngine._eval_select,
    ops.Project: EagerEngine._eval_project,
    ops.Join: EagerEngine._eval_join,
    ops.SemiJoin: EagerEngine._eval_semijoin,
    ops.CrElt: EagerEngine._eval_crelt,
    ops.Cat: EagerEngine._eval_cat,
    ops.TD: EagerEngine._eval_td,
    ops.GroupBy: EagerEngine._eval_groupby,
    ops.Apply: EagerEngine._eval_apply,
    ops.NestedSrc: EagerEngine._eval_nestedsrc,
    ops.OrderBy: EagerEngine._eval_orderby,
    ops.Empty: EagerEngine._eval_empty,
}


def evaluate_eager(plan, catalog, stats=None):
    """Convenience wrapper: evaluate ``plan`` eagerly over ``catalog``."""
    return EagerEngine(catalog, stats=stats).evaluate(plan)
