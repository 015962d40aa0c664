"""The first-class rewrite-rule contract (sycamore-style plugin rules).

A rule is any object with a ``name`` and an ``apply(node, ctx)`` method
returning a :class:`RuleResult` or ``None``; subclassing :class:`Rule`
is the convenient way to get the metadata defaults.  Beyond the
callable itself, a rule *declares* two facts the engine and the
certifier (:mod:`repro.analysis.rulecheck`) key on.  Every rule must
be sound under the algebra's set semantics: the paper's XMAS algebra is
set-based, and the mediator answers with the rewritten plan's records,
compared as a set.

``schema_contract``
    What the rule promises about the root binding-list schema of any
    plan it fires on, modulo the rename it returns:

    * ``"preserve"`` — the schema is unchanged (most Table-2 rules);
    * ``"widen"`` — every pre-existing binding survives, new ones may
      appear (rule 11 exposes the view body's variables, rule 9 adds a
      renamed copy branch);
    * ``"narrow"`` — bindings may be dropped but never invented
      (join→semijoin, dead-operator elimination);
    * ``"none"`` — no static promise; the certifier falls back to the
      differential answer-preservation check exclusively.

``matches``
    The operator types a match can be rooted at (``(ops.GetD,)``): the
    engine probes the rule only at nodes of those types.  A rule that
    declares none is probed at every node.

:func:`validate_rule` enforces the *registration* contract (callable
``apply``, non-empty name, known contract string) — duck-typed rules
with missing metadata are accepted with the defaults.
:func:`is_certifiable` is the stricter test a ``Mediator(strict=True)``
applies to extension rules: the schema contract must be declared
explicitly.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import RewriteError

#: The declared schema contracts, in decreasing strength.
SCHEMA_CONTRACTS = ("preserve", "widen", "narrow", "none")


class RuleResult:
    """A successful rule application: the replacement subtree plus an
    optional *global* variable renaming ("the only change made in the
    rest of the plan by a rewriting rule application is the possible
    renaming of variables")."""

    __slots__ = ("replacement", "rename")

    def __init__(self, replacement, rename=None):
        self.replacement = replacement
        self.rename = rename or {}


class Rule:
    """Base class for rewrite rules; subclasses override :meth:`apply`.

    Attributes:
        name: unique registration name (application priority is the
            registration order, so the name is also what EXPLAIN's
            ``-- rewrite: rule=...`` provenance and the per-stage
            verifier's ``rewrite[...]`` stages show).
        schema_contract: the declared root-schema promise (see module
            docstring); checked per firing by the certifier.
        matches: operator types ``apply`` can return a result for, or
            ``None`` for "any"; ``apply`` must return ``None`` at every
            other node, because the engine no longer asks.
    """

    name = ""
    schema_contract = "preserve"
    matches: Optional[Tuple[type, ...]] = None

    def apply(self, node, ctx):
        """Return a :class:`RuleResult`, or ``None`` when the rule does
        not match at ``node``."""
        raise NotImplementedError

    def __repr__(self):
        return "<rule {!r}>".format(self.name or type(self).__name__)


def rule_name(rule):
    """The rule's registration name (may be empty for invalid rules)."""
    name = getattr(rule, "name", None)
    return name if isinstance(name, str) else ""


def declared_contract(rule):
    """The rule's schema contract; defaults to ``"preserve"``."""
    return getattr(rule, "schema_contract", "preserve")


def probed_at(rule, op_type):
    """Whether the engine probes ``rule`` at nodes of type ``op_type``."""
    matches = getattr(rule, "matches", None)
    return matches is None or issubclass(op_type, matches)


def validate_rule(rule):
    """Enforce the registration contract; raises :class:`RewriteError`.

    Accepts duck-typed rules (no :class:`Rule` base needed): only a
    callable ``apply`` and a non-empty string ``name`` are mandatory,
    and a *declared* ``schema_contract`` must be one of
    :data:`SCHEMA_CONTRACTS`.
    """
    if not callable(getattr(rule, "apply", None)):
        raise RewriteError(
            "rule {!r} has no callable apply(node, ctx)".format(rule)
        )
    name = getattr(rule, "name", None)
    if not isinstance(name, str) or not name:
        raise RewriteError(
            "rule {!r} must declare a non-empty string name".format(rule)
        )
    contract = declared_contract(rule)
    if contract not in SCHEMA_CONTRACTS:
        raise RewriteError(
            "rule {!r} declares unknown schema_contract {!r} "
            "(expected one of {})".format(
                name, contract, ", ".join(SCHEMA_CONTRACTS)
            )
        )
    return rule


def is_certifiable(rule):
    """Whether the rule passes :func:`validate_rule` and declares its
    ``schema_contract`` explicitly, as a strict mediator demands of
    extension rules (no default assumed)."""
    try:
        validate_rule(rule)
    except RewriteError:
        return False
    return hasattr(rule, "schema_contract")
