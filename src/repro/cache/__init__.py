"""repro.cache — the multi-level query cache.

Three caches, one invalidation philosophy (version-based, never
time-based; partial or degraded work is never committed):

* :class:`~repro.cache.manager.CacheManager` — the mediator's plan
  cache and navigation memo (see :mod:`repro.cache.manager`); plans are
  compiled per query *shape* and bound to a request's literals (see
  :mod:`repro.cache.shapes`);
* :class:`~repro.cache.sqlcache.SqlResultCache` — the pushed-SQL result
  cache a :class:`~repro.sources.RelationalWrapper` consults before
  shipping rows (see :mod:`repro.cache.sqlcache`);
* :class:`~repro.cache.lru.LRUCache` — the shared bounded-LRU substrate
  whose hit/miss/eviction/invalidation counters feed :mod:`repro.obs`.

Enable from the client layer::

    mediator = Mediator(cache=True, cache_size=128)
    wrapper.enable_sql_cache(128)

and read the counters back via ``mediator.cache_stats()`` or the
``-- plan_cache`` / ``-- cache[...]`` footer of ``Mediator.explain``.
"""

from repro.cache.keys import (
    catalog_shape,
    data_fingerprint,
    normalize_sql,
)
from repro.cache.lru import LRUCache
from repro.cache.manager import CacheManager
from repro.cache.sqlcache import SqlResultCache

__all__ = [
    "CacheManager",
    "LRUCache",
    "SqlResultCache",
    "catalog_shape",
    "data_fingerprint",
    "normalize_sql",
]
