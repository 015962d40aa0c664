"""The mediator-side caches: compiled plans and navigable results.

One :class:`CacheManager` per :class:`~repro.qdom.Mediator` owns:

* the **plan cache** — query *shape* (:mod:`repro.cache.shapes`) +
  catalog/view fingerprint to the
  :class:`~repro.cache.shapes.PreparedPlan` that
  parse → translate → rewrite → SQL-split produced, literals unbound.
  The shape is keyed from the text's tokens
  (:func:`~repro.xquery.parser.lex_query`), so a hit, a new text of a
  known shape included, binds without a parse; only a miss parses.
  Plans carry no data, so a plan entry is valid until the catalog's
  shape or the view definitions change (both are part of the key;
  ``define_view`` additionally clears the caches so redefinitions are
  counted as invalidations, not silent key churn).  In front of it,
  ``text_shapes`` remembers the lexer's result for the texts seen
  last, so an exact repeat does not even scan its text;
* the **navigation memo** — the same key plus the request's literal
  values and the catalog's *data* fingerprint to the root
  :class:`~repro.xmltree.tree.Node` of a previous answer.  Because
  lazy results memoize materialized prefixes in place, a memo hit
  shares every child list one session already forced with the next
  session over the same view — repeated queries ship zero tuples.

The memo is the correctness-critical one, so it is fenced three ways:

* entries are stored and served only under ``on_source_error="raise"``
  — degraded runs can substitute ``<mix:error>`` stubs lazily, and a
  stub must never be served from cache (the resilience contract);
* entries die when the data fingerprint moves (any write to any
  registered source) or cannot be computed (an unversioned source).
  The first lookup or store that sees the move drops *every* entry
  stamped with an older value, so no dead answer's suspended pipeline
  keeps a superseded table version alive until its key comes back;
* entries die when the mediator has observed *any* source failure,
  timeout, or degradation since the entry was stored (the failure
  epoch), and as a final belt a hit re-scans the already-materialized
  prefix for stubs before serving.

Block execution stores nothing new: prefetch-k just makes memo entries
carry *longer* materialized prefixes (children a bulk command forced
that no client ever navigated to).  The fences above cover those
prefixes unchanged — in particular a stub materialized mid-prefetch
disqualifies the entry exactly like one the client navigated onto, and
a served hit counts :data:`~repro.stats.PREFETCH_HITS` when navigation
lands on the shared prefix.

Both levels are safe under concurrent server sessions: the LRU maps
lock internally (validation runs inside the lock), shared memoized
trees serialize lazy-tail forcing through the
:mod:`repro.xmltree.tree` forcing lock, and the version fingerprints
they validate against are snapshotted under the database write lock.
"""

from __future__ import annotations

import threading

from repro.cache.keys import data_fingerprint, failure_epoch
from repro.cache.lru import LRUCache
from repro.resilience.stub import PrefixPoisonWatch


#: Stored under a shape's key when its compile read a literal's value:
#: the shape's texts are compiled one by one, keyed on the values too.
_PER_TEXT = object()


class _MemoEntry:
    """A memoized answer plus everything needed to prove it still valid."""

    __slots__ = ("root", "view", "fingerprint", "fail_epoch",
                 "poison_watch")

    def __init__(self, root, view, fingerprint, fail_epoch):
        self.root = root
        self.view = view
        self.fingerprint = fingerprint
        self.fail_epoch = fail_epoch
        # Incremental poison check: re-validating a hit only scans tree
        # growth since the last clean scan, not the whole answer.
        self.poison_watch = PrefixPoisonWatch(root)


class CacheManager:
    """Plan cache + navigation memo for one mediator."""

    def __init__(self, maxsize=128, obs=None):
        self.obs = obs
        self.plan_cache = LRUCache(maxsize, obs=obs, prefix="plan_cache")
        self.nav_memo = LRUCache(maxsize, obs=obs, prefix="nav_memo")
        #: query text -> ``(shape key, literals, request shape against
        #: no view)``, the lexer's result for an exact repeat; not a
        #: plan level, so it counts nothing.
        self.text_shapes = LRUCache(maxsize)
        #: Plan hits that bound at least one literal into a shape.
        self.bound_hits = 0
        self._bound_lock = threading.Lock()
        #: ``(data fingerprint, failure epoch)`` the memo last saw.
        self._stamp = None

    # -- plan cache --------------------------------------------------------------------

    def lookup_plan(self, key, values=()):
        """``(hit, PreparedPlan)`` for a request of shape ``key`` with
        literal ``values``; one hit or one miss per request."""
        if self.plan_cache.peek(key) is _PER_TEXT:
            key = (key, values)
        hit, prepared = self.plan_cache.lookup(key)
        if hit and values and prepared.templated:
            with self._bound_lock:
                self.bound_hits += 1
        return hit, prepared

    def store_plan(self, key, prepared, values=()):
        """Store what a miss compiled.  A plan that is not
        ``templated`` answers this shape for ``values`` only."""
        if not prepared.templated:
            self.plan_cache.store(key, _PER_TEXT)
            key = (key, values)
        self.plan_cache.store(key, prepared)

    # -- navigation memo --------------------------------------------------------------

    def _sweep(self, fingerprint, epoch):
        """On a new fingerprint or epoch, drop every entry stamped with
        another one (each counts as an invalidation): none can be served
        again."""
        stamp = (fingerprint, epoch)
        if stamp != self._stamp:
            self._stamp = stamp
            self.nav_memo.discard_if(
                lambda e: (e.fingerprint, e.fail_epoch) != stamp
            )

    def lookup_result(self, key, catalog):
        """A still-valid :class:`_MemoEntry` for ``key``, or ``None``."""
        fingerprint = data_fingerprint(catalog)
        epoch = failure_epoch(self.obs)
        self._sweep(fingerprint, epoch)

        def validate(entry):
            return (
                fingerprint is not None
                and entry.fingerprint == fingerprint
                and entry.fail_epoch == epoch
                and not entry.poison_watch.poisoned()
            )

        hit, entry = self.nav_memo.lookup(key, validate=validate)
        return entry if hit else None

    def store_result(self, key, root, view, fingerprint):
        """Memoize an answer root and the
        :class:`~repro.cache.shapes.BoundPlan` it is a view of, under
        the catalog's data ``fingerprint`` taken before the answer was
        evaluated; silently refused when that is ``None`` (an
        unversioned source)."""
        epoch = failure_epoch(self.obs)
        self._sweep(fingerprint, epoch)
        if fingerprint is None:
            return False
        self.nav_memo.store(
            key, _MemoEntry(root, view, fingerprint, epoch)
        )
        return True

    def memo_roots(self):
        """The memoized result roots (test/poison inspection)."""
        return [entry.root for entry in self.nav_memo.values()]

    # -- maintenance -------------------------------------------------------------------

    def clear(self):
        """Drop everything (each entry counts as one invalidation)."""
        return self.plan_cache.clear() + self.nav_memo.clear()

    def stats(self):
        plans = self.plan_cache.stats()
        entries = [e for e in self.plan_cache.values() if e is not _PER_TEXT]
        plans["shapes"] = sum(1 for e in entries if e.templated)
        plans["demand_recorded"] = sum(
            1 for e in entries if e.demand is not None
        )
        plans["bound_hits"] = self.bound_hits
        return {"plan_cache": plans, "nav_memo": self.nav_memo.stats()}

    def __repr__(self):
        return "CacheManager(plan={!r}, nav={!r})".format(
            self.plan_cache, self.nav_memo
        )
