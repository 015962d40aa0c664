"""A bounded LRU map with observable hit/miss/eviction/invalidation counts.

All three caches of the subsystem (the mediator's plan cache and
navigation memo, and the wrapper's pushed-SQL result cache) share this
one implementation, so their counters mean the same thing everywhere:

* **hit** — a lookup returned a live entry (the entry moves to the MRU
  end);
* **miss** — a lookup found nothing servable;
* **eviction** — a ``store`` pushed the least-recently-used entry out to
  respect ``maxsize`` (a capacity event, not a correctness event);
* **invalidation** — a lookup found an entry whose ``validate`` check
  failed (stale versions, poisoned content) and dropped it, or an
  explicit :meth:`invalidate`/:meth:`discard_if`/:meth:`clear` removed
  live entries.

When an :class:`~repro.obs.Instrument` is attached the four counts are
mirrored onto it as ``<prefix>_hits`` / ``_misses`` / ``_evictions`` /
``_invalidations``, which is how they reach explain footers, JSON
traces, and the benchmarks.

``maxsize=0`` disables the cache: every lookup misses without counting,
every store is dropped.  ``maxsize=None`` means unbounded.

The cache is **thread-safe**: every operation (and every counter update
it implies) runs under one internal lock, because the server layer
(:mod:`repro.server`) multiplexes hundreds of concurrent sessions over
shared plan/result/memo caches.  ``validate`` callbacks run inside the
lock, so they must not re-enter the cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

_MISSING = object()


class LRUCache:
    """An ordered bounded map; least-recently-*looked-up* entries evict
    first.

    Example::

        cache = LRUCache(maxsize=2, obs=stats, prefix="plan_cache")
        cache.store("a", 1)
        hit, value = cache.lookup("a")        # True, 1
        hit, value = cache.lookup("b")        # False, None (one miss)
    """

    def __init__(self, maxsize=128, obs=None, prefix="cache"):
        if maxsize is not None and maxsize < 0:
            raise ValueError(
                "maxsize must be >= 0 or None, got {!r}".format(maxsize)
            )
        self.maxsize = maxsize
        self._data = OrderedDict()
        # Re-entrant: obs mirroring may run arbitrary listener code, and
        # nested cache use from a validate callback should fail loudly in
        # tests rather than deadlock a server thread.
        self._lock = threading.RLock()
        self._obs = obs
        self._prefix = prefix
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def enabled(self):
        return self.maxsize is None or self.maxsize > 0

    def _count(self, what, amount=1):
        setattr(self, what, getattr(self, what) + amount)
        if self._obs is not None:
            self._obs.incr("{}_{}".format(self._prefix, what), amount)

    # -- the cache protocol ---------------------------------------------------------

    def lookup(self, key, validate=None):
        """``(hit, value)`` for ``key``; a hit refreshes LRU order.

        ``validate(value)`` — when given — is applied to a found entry
        first; a falsy verdict drops the entry (counted as one
        invalidation) and the lookup misses.
        """
        if not self.enabled:
            return False, None
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is not _MISSING and validate is not None:
                if not validate(value):
                    del self._data[key]
                    self._count("invalidations")
                    value = _MISSING
            if value is _MISSING:
                self._count("misses")
                return False, None
            self._data.move_to_end(key)
            self._count("hits")
            return True, value

    def store(self, key, value):
        """Insert (or refresh) ``key``; evicts the LRU entry when full."""
        if not self.enabled:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while (self.maxsize is not None
                   and len(self._data) > self.maxsize):
                self._data.popitem(last=False)
                self._count("evictions")

    def invalidate(self, key):
        """Drop ``key`` if present (counted); returns whether it was."""
        with self._lock:
            if key in self._data:
                del self._data[key]
                self._count("invalidations")
                return True
            return False

    def discard_if(self, dead):
        """Drop every entry whose value ``dead`` accepts; each counts as
        one invalidation.  Returns how many went."""
        with self._lock:
            keys = [k for k, v in self._data.items() if dead(v)]
            for k in keys:
                del self._data[k]
            if keys:
                self._count("invalidations", len(keys))
            return len(keys)

    def clear(self):
        """Drop every entry; each counts as one invalidation."""
        with self._lock:
            dropped = len(self._data)
            if dropped:
                self._count("invalidations", dropped)
            self._data.clear()
            return dropped

    # -- inspection -----------------------------------------------------------------

    def keys(self):
        """Current keys, LRU first (no counter effect)."""
        with self._lock:
            return list(self._data)

    def values(self):
        """Current values, LRU first (no counter effect)."""
        with self._lock:
            return list(self._data.values())

    def peek(self, key):
        """The value for ``key`` without counters or LRU movement."""
        with self._lock:
            return self._data.get(key)

    def stats(self):
        """The counter snapshot plus occupancy (one consistent view)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "size": len(self._data),
                "maxsize": self.maxsize,
            }

    def __len__(self):
        return len(self._data)

    def __contains__(self, key):
        return key in self._data

    def __repr__(self):
        return "LRUCache({}/{}, hits={}, misses={})".format(
            len(self._data), self.maxsize, self.hits, self.misses
        )
