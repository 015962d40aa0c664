"""Names of the instrumentation counters shared by the sources and the engine.

The paper's claims are about *how much work reaches the sources*: how many
SQL queries are issued, how many tuples cross the wrapper boundary, and how
much the mediator materializes.  Every experiment in ``benchmarks/`` reads
these counters off a :class:`repro.obs.Instrument`::

    stats = Instrument()
    stats.incr(SQL_QUERIES)
    stats.incr(TUPLES_SHIPPED, 42)
    snapshot = stats.snapshot()
"""

#: Counter names used across the library, centralised so experiments and
#: sources agree on spelling.
SQL_QUERIES = "sql_queries"            # SQL statements executed by a source
TUPLES_SHIPPED = "tuples_shipped"      # rows fetched through a cursor
ROWS_SCANNED = "rows_scanned"          # base-table rows touched by the executor
SOURCE_NAVIGATIONS = "source_navigations"  # d/r commands sent to a source
OPERATOR_TUPLES = "operator_tuples"    # tuples produced by mediator operators
ELEMENTS_BUILT = "elements_built"      # XML elements constructed (crElt)
BUFFERED_TUPLES = "buffered_tuples"    # peak tuples buffered by stateful ops
INDEX_LOOKUPS = "index_lookups"        # secondary-index probes in the DB
RQ_STATEMENTS = "rq_statements"        # SQL pushed by rQ plan operators
QDOM_COMMANDS = "qdom_commands"        # navigation commands entering the mediator
SOURCE_RETRIES = "source_retries"      # retried source calls/pulls (resilience)
SOURCE_TIMEOUTS = "source_timeouts"    # source calls over their latency budget
SOURCE_FAILURES = "source_failures"    # failed source calls/pulls (pre-retry)
BREAKER_TRANSITIONS = "breaker_transitions"  # circuit-breaker state changes
DEGRADED_RESULTS = "degraded_results"  # <mix:error> stubs substituted
FAULTS_INJECTED = "faults_injected"    # faults fired by FaultInjectingSource
TUPLES_FROM_CACHE = "tuples_from_cache"  # rows replayed by the SQL result cache
JOIN_TUPLES = "join_tuples"            # tuples flowing through executor joins
TABLES_ANALYZED = "tables_analyzed"    # tables profiled by ANALYZE
BLOCKS_SHIPPED = "blocks_shipped"      # row batches fetched block-at-a-time
PREFETCH_HITS = "prefetch_hits"        # d/r commands served from a prefetched prefix
DEMAND_SIZED = "demand_sized"          # evaluations whose first pull started below block_size
Q_ANSWERED_LOCALLY = "q_answered_locally"  # in-place q answered from held nodes

# Sharding counters (see repro.sources.shard).  A pushed SQL statement
# scatters to the shard members its predicates cannot rule out; pruned
# members are never contacted, failed members degrade to partial answers.
SHARDS_SCATTERED = "shards_scattered"  # member streams opened by scatter-gather
SHARDS_PRUNED = "shards_pruned"        # members skipped by per-shard min/max stats
SHARDS_FAILED = "shards_failed"        # member streams that failed mid-gather

# Server admission counters (see repro.server).  Requests are counted
# at the service boundary; rejected = typed-error replies for limits,
# backpressure, protocol violations, and unknown sessions/handles.
SERVE_REQUESTS = "serve_requests"          # frames dispatched to the service
SERVE_ACCEPTED = "serve_accepted"          # requests admitted past limits
SERVE_REJECTED = "serve_rejected"          # typed rejections (MIX-E-*)
SERVE_ERRORS = "serve_errors"              # accepted requests that failed
SERVE_SESSIONS_OPENED = "serve_sessions_opened"
SERVE_SESSIONS_CLOSED = "serve_sessions_closed"
SERVE_ACTIVE_SESSIONS = "serve_active_sessions"  # opened - closed (gauge)

# Cache counters (see repro.cache).  Each cache mirrors its LRU counts
# onto the instrument under "<prefix>_<event>"; the prefixes are:
PLAN_CACHE = "plan_cache"              # compiled-plan cache (Mediator)
NAV_MEMO = "nav_memo"                  # navigation memo (Mediator)
SQL_CACHE = "sql_cache"                # pushed-SQL result cache (wrapper)
PLAN_CACHE_HITS = "plan_cache_hits"
PLAN_CACHE_MISSES = "plan_cache_misses"
PLAN_CACHE_EVICTIONS = "plan_cache_evictions"
PLAN_CACHE_INVALIDATIONS = "plan_cache_invalidations"
NAV_MEMO_HITS = "nav_memo_hits"
NAV_MEMO_MISSES = "nav_memo_misses"
NAV_MEMO_EVICTIONS = "nav_memo_evictions"
NAV_MEMO_INVALIDATIONS = "nav_memo_invalidations"
SQL_CACHE_HITS = "sql_cache_hits"
SQL_CACHE_MISSES = "sql_cache_misses"
SQL_CACHE_EVICTIONS = "sql_cache_evictions"
SQL_CACHE_INVALIDATIONS = "sql_cache_invalidations"
