"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``demo``     — run the paper's Example 2.1 interactively-ish, printing
  every QDOM command and what it returned;
* ``figures``  — regenerate the paper's figure artifacts (plans, result
  trees, the rewriting trace, and the Fig. 22 SQL) to stdout;
* ``bench``    — print the quantitative experiment series without
  needing pytest;
* ``explain``  — EXPLAIN ANALYZE the paper's Q1 (or a query read from a
  file with ``explain <path>``) against the Fig. 2 database; ``--json``
  additionally prints the JSON trace of a single ``d`` navigation, and
  ``--analyze`` collects source statistics first so every estimable
  operator shows ``est=… act=…``;
* ``sql``      — run SQL statements (including ``ANALYZE``) against the
  paper database: each quoted argument is one statement, or statements
  are read from stdin one per line;
* ``lint``     — static schema-aware analysis of XQuery files against
  the paper catalog (dead paths, unsatisfiable predicates, unused
  variables; see :mod:`repro.analysis`); with no files, lints the
  built-in Q1.  ``--json`` switches to the machine-readable report,
  ``--analyze`` collects statistics first so range checks can fire,
  ``--strict`` exits nonzero on warnings too;
* ``check-plan`` — compile a query (default: the golden Fig. 22 Q1)
  through translate → Table-2 rewrites → SQL split and run the static
  plan verifier after every stage, printing a per-stage verdict;
* ``check-rules`` — statically certify the rewrite rule set against the
  generated plan corpus (schema contracts, termination/confluence,
  liveness/shadowing, differential answer preservation; see
  :mod:`repro.analysis.rulecheck`).  ``--rules=module:attr`` appends
  extension rules loaded from an importable module to the Table-2 set,
  ``--json`` switches to the machine-readable report; exit status 1
  means at least one rule failed certification;
* ``serve``    — run the concurrent mediator server (JSON-lines over
  TCP, see :mod:`repro.server`) over the paper database;
  ``--host``/``--port`` bind the endpoint (default 127.0.0.1:4617),
  ``--max-sessions``/``--max-inflight`` set the admission limits;
* ``bench-serve`` — drive a scaled workload server with N closed-loop
  zipf clients and print throughput + p50/p95/p99 latency;
  ``--bench-json[=DIR]`` additionally writes ``BENCH_SERVE.json``
  (PR-4 bench-json format) to DIR (default: the current directory).

``demo`` and ``explain`` accept ``--fault-profile=NAME`` (with optional
``--fault-seed=N``), which interposes a seeded
:class:`~repro.resilience.FaultInjectingSource` plus a
:class:`~repro.resilience.ResilientSource` between the mediator and the
Fig. 2 wrapper, and switches the mediator to partial-result degradation:

* ``transient`` — random transient pull/SQL faults, absorbed by retry;
* ``slow``      — slow pulls against a latency budget (timeouts);
* ``outage``    — a permanent failure that trips the circuit breaker.

All profile timing runs on a manual clock: no real sleeps.

The multi-level query cache (plan / pushed-SQL / navigation, see
:mod:`repro.cache`) is **on** for CLI runs; ``--no-cache`` switches it
off and ``--cache-size=N`` bounds each level (``0`` also disables).
Statistics-driven cost-based planning (:mod:`repro.optimizer`) is also
on by default; ``--no-optimizer`` falls back to the seed's syntactic
plans.

Block-at-a-time execution (:mod:`repro.engine.block`) is on by default;
``--block-size=N`` tunes the vector width for ``demo``, ``explain``,
``serve``, and ``bench-serve`` — ``--block-size=1`` runs one-tuple
blocks, the seed's pull order (and its byte-identical EXPLAIN output).

``demo`` and ``explain`` also accept ``--shards=K``, which replaces the
single Fig. 2 wrapper by a :class:`~repro.sources.shard.ShardedSource`
over K members — ``orders`` hash-partitioned on ``cid``, ``customer``
replicated — so pushed SQL scatters to all live members in parallel and
``explain`` grows a ``-- shard:`` footer.  ``--shards`` cannot be
combined with ``--fault-profile`` (the profiles script a single
source's pull schedule).
"""

from __future__ import annotations

import sys

FAULT_PROFILES = ("transient", "slow", "outage")


def _paper_database(stats=None):
    from repro import Database, Instrument

    db = Database("paper", stats=stats or Instrument())
    db.run("CREATE TABLE customer (id TEXT, name TEXT, addr TEXT,"
           " PRIMARY KEY (id))")
    db.run("CREATE TABLE orders (orid INT, cid TEXT, value INT,"
           " PRIMARY KEY (orid))")
    db.run("INSERT INTO customer VALUES ('XYZ', 'XYZInc.', 'LosAngeles'),"
           " ('DEF', 'DEFCorp.', 'NewYork'), ('ABC', 'ABCInc.', 'SanDiego')")
    db.run("INSERT INTO orders VALUES (28904, 'XYZ', 2400),"
           " (87456, 'ABC', 200000), (111, 'XYZ', 100), (222, 'DEF', 30000)")
    return db


def _paper_mediator(fault_profile=None, fault_seed=0, cache=True,
                    cache_size=128, cost_optimizer=True, block_size=None,
                    shards=None):
    from repro import Instrument, Mediator, RelationalWrapper

    if shards is not None and fault_profile is not None:
        raise SystemExit(
            "--shards cannot be combined with --fault-profile: the fault "
            "profiles script a single source's pull schedule (wrap shard "
            "members with repro.resilience.shard_resilience instead)"
        )
    stats = Instrument()
    if shards is not None:
        wrapper = _sharded_paper_source(shards, stats)
        mediator = Mediator(stats=stats, cache=cache, cache_size=cache_size,
                            cost_optimizer=cost_optimizer,
                            block_size=block_size)
        return stats, mediator.add_source(wrapper)
    db = _paper_database(stats)
    wrapper = (
        RelationalWrapper(db)
        .register_document("root1", "customer")
        .register_document("root2", "orders", element_label="order")
    )
    if fault_profile is None:
        mediator = Mediator(stats=stats, cache=cache, cache_size=cache_size,
                            cost_optimizer=cost_optimizer,
                            block_size=block_size)
        return stats, mediator.add_source(wrapper)
    source = _faulty_source(wrapper, fault_profile, fault_seed, stats)
    # SQL push-down off: the demo should *navigate* the faulty source,
    # so the injected pull faults (and their recovery) actually fire.
    # The cache stays on when asked: the degrade policy automatically
    # keeps poisoned answers out of the navigation memo.
    # Fault profiles default to tuple mode: their schedules fire by pull
    # position, and block prefetching reorders pulls — the profile
    # narratives (which fault fires where, when the breaker trips) are
    # written against the seed's demand order.  An explicit
    # ``--block-size`` still wins.
    mediator = Mediator(
        stats=stats, push_sql=False, on_source_error="degrade",
        cache=cache, cache_size=cache_size, cost_optimizer=cost_optimizer,
        block_size=1 if block_size is None else block_size,
    )
    return stats, mediator.add_source(source)


_PAPER_CUSTOMERS = (
    ("XYZ", "XYZInc.", "LosAngeles"),
    ("DEF", "DEFCorp.", "NewYork"),
    ("ABC", "ABCInc.", "SanDiego"),
)

_PAPER_ORDERS = (
    (28904, "XYZ", 2400),
    (87456, "ABC", 200000),
    (111, "XYZ", 100),
    (222, "DEF", 30000),
)


def _sharded_paper_source(shards, stats):
    """The Fig. 2 database as ``shards`` hash-partitioned members.

    ``orders`` is hash-partitioned on ``cid`` (each customer's orders
    land together, so the pushed Q1 join stays member-local);
    ``customer`` replicates to every member.
    """
    from repro import Database, RelationalWrapper
    from repro.sources import Partition, ShardedSource, hash_shard

    members = []
    for index in range(shards):
        db = Database("paper{}".format(index), stats=stats)
        db.run("CREATE TABLE customer (id TEXT, name TEXT, addr TEXT,"
               " PRIMARY KEY (id))")
        db.run("CREATE TABLE orders (orid INT, cid TEXT, value INT,"
               " PRIMARY KEY (orid))")
        for cid, name, addr in _PAPER_CUSTOMERS:
            db.run("INSERT INTO customer VALUES ('{}', '{}', '{}')".format(
                cid, name, addr))
        for orid, cid, value in _PAPER_ORDERS:
            if hash_shard(cid, shards) == index:
                db.run("INSERT INTO orders VALUES ({}, '{}', {})".format(
                    orid, cid, value))
        members.append(
            RelationalWrapper(db, server_name="paper{}".format(index))
            .register_document("root1", "customer")
            .register_document("root2", "orders", element_label="order")
        )
    return ShardedSource(
        members,
        Partition("orders", "cid", "hash"),
        replicated=("customer",),
        server_name="paper",
        obs=stats,
    )


def _faulty_source(wrapper, profile, seed, stats):
    """Wrap the paper wrapper per a named fault profile (seeded)."""
    from repro.resilience import (
        CircuitBreaker,
        FaultInjectingSource,
        ManualClock,
        ResilientSource,
        RetryPolicy,
        Timeout,
    )

    clock = ManualClock()
    faulty = FaultInjectingSource(
        wrapper, clock=clock, seed=seed, obs=stats
    )
    retry = RetryPolicy(attempts=3, base_delay=0.05, sleep=clock.sleep)
    if profile == "transient":
        faulty.fail_pulls_randomly("root1", 0.4)
        faulty.fail_pulls_randomly("root2", 0.4)
        faulty.fail_sql(times=1)
        return ResilientSource(
            faulty, retry=retry, on_error="degrade", obs=stats
        )
    if profile == "slow":
        faulty.slow_pull("root1", 0, delay=0.5, times=1)
        faulty.slow_pull("root2", 1, delay=0.5, times=1)
        return ResilientSource(
            faulty, retry=retry, timeout=Timeout(0.25, clock=clock),
            on_error="degrade", obs=stats,
        )
    if profile == "outage":
        # Two consecutive permanent failures trip the breaker (threshold
        # 2): the rest of root2 is circuit-rejected and the stream ends
        # with a terminal stub.
        faulty.fail_pull("root2", 0, kind="permanent")
        faulty.fail_pull("root2", 1, kind="permanent")
        faulty.fail_sql(kind="permanent", match="orders")
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown=5.0, clock=clock
        )
        return ResilientSource(
            faulty, retry=retry, breaker=breaker,
            on_error="degrade", obs=stats,
        )
    raise ValueError(
        "unknown fault profile {!r} (choose from {})".format(
            profile, "/".join(FAULT_PROFILES)
        )
    )


def _pop_option(args, name):
    """Extract ``--name=value`` from an argument list."""
    value = None
    rest = []
    for arg in args:
        if arg.startswith(name + "="):
            value = arg.split("=", 1)[1]
        else:
            rest.append(arg)
    return value, rest


def _fault_options(args):
    profile, args = _pop_option(args, "--fault-profile")
    seed, args = _pop_option(args, "--fault-seed")
    if profile is not None and profile not in FAULT_PROFILES:
        raise SystemExit(
            "unknown fault profile {!r} (choose from {})".format(
                profile, "/".join(FAULT_PROFILES)
            )
        )
    return profile, int(seed or 0), args


def _optimizer_options(args):
    """Extract ``--no-optimizer`` (CLI default: cost-based planning on)."""
    cost = "--no-optimizer" not in args
    args = [arg for arg in args if arg != "--no-optimizer"]
    return cost, args


def _block_options(args):
    """Extract ``--block-size=N`` (default: the mediator's own default,
    :data:`repro.engine.block.DEFAULT_BLOCK_SIZE`; ``1`` is a one-tuple
    block, the seed's pull order)."""
    size, args = _pop_option(args, "--block-size")
    if size is None:
        return None, args
    try:
        size = int(size)
    except ValueError:
        raise SystemExit("--block-size expects an integer, got {!r}".format(
            size))
    if size < 1:
        raise SystemExit("--block-size must be >= 1, got {}".format(size))
    return size, args


def _shard_options(args):
    """Extract ``--shards=K`` (default: the single unsharded source)."""
    shards, args = _pop_option(args, "--shards")
    if shards is None:
        return None, args
    try:
        shards = int(shards)
    except ValueError:
        raise SystemExit("--shards expects an integer, got {!r}".format(
            shards))
    if shards < 1:
        raise SystemExit("--shards must be >= 1, got {}".format(shards))
    return shards, args


def _cache_options(args):
    """Extract ``--no-cache`` / ``--cache-size=N`` (CLI default: on)."""
    cache = "--no-cache" not in args
    args = [arg for arg in args if arg != "--no-cache"]
    size, args = _pop_option(args, "--cache-size")
    try:
        size = 128 if size is None else int(size)
    except ValueError:
        raise SystemExit("--cache-size expects an integer, got {!r}".format(
            size))
    if size < 0:
        raise SystemExit("--cache-size must be >= 0, got {}".format(size))
    return cache, size, args


Q1 = """
FOR $C IN source(root1)/customer
    $O IN document(root2)/order
WHERE $C/id/data() = $O/cid/data()
RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}
"""


def cmd_demo(args=()):
    """Example 2.1, command for command, with traffic counters."""
    profile, seed, args = _fault_options(list(args))
    cache, cache_size, args = _cache_options(args)
    cost, args = _optimizer_options(args)
    block_size, args = _block_options(args)
    shards, args = _shard_options(args)
    stats, mediator = _paper_mediator(
        fault_profile=profile, fault_seed=seed,
        cache=cache, cache_size=cache_size, cost_optimizer=cost,
        block_size=block_size, shards=shards,
    )
    if profile is not None:
        # The scripted Example 2.1 walk assumes every step lands on a
        # node; under injected faults parts of the view may be missing,
        # so the faulty demo walks whatever survived instead.
        return _demo_faulty(stats, mediator, profile, seed)

    def say(command, node):
        label = node.fl() if node is not None else "⊥"
        oid = node.oid if node is not None else "-"
        print("  {:22s} -> {:10s} {}   [shipped={}]".format(
            command, str(label), oid, stats.get("tuples_shipped")))

    print("Example 2.1 (paper Section 2) against the Fig. 2 database:\n")
    p0 = mediator.query(Q1)
    say("p0 = q(Q1)", p0)
    p1 = p0.d()
    say("p1 = d(p0)", p1)
    p2 = p1.r()
    say("p2 = r(p1)", p2)
    p3 = p1.d()
    say("p3 = d(p1)", p3)
    print()
    p4 = p0.q(
        'FOR $P IN document(root)/CustRec'
        ' WHERE $P/customer/name/data() < "B" RETURN $P'
    )
    say("p4 = q(Q2, p0)", p4)
    p5 = p4.d()
    say("p5 = d(p4)", p5)
    p6 = p5.d()
    say("p6 = d(p5)", p6)
    p7 = p6.r()
    say("p7 = r(p6)", p7)
    print()
    p9 = p5.q(
        "FOR $O IN document(root)/OrderInfo"
        " WHERE $O/order/value/data() < 500 RETURN $O"
    )
    say("p9 = q(Q3, p5)", p9)
    first = p9.d()
    say("d(p9)", first)
    return 0


def _demo_faulty(stats, mediator, profile, seed):
    """Walk Q1's degraded result and report what the faults cost."""
    from repro.resilience import ERROR_LABEL

    print("Example 2.1 under fault profile {!r} (seed {}):\n".format(
        profile, seed))
    totals = {"nodes": 0, "stubs": 0}

    def walk(node, depth):
        while node is not None:
            label = str(node.fl())
            totals["nodes"] += 1
            if label == ERROR_LABEL:
                totals["stubs"] += 1
            print("  {}{}".format("  " * depth, label))
            walk(node.d(), depth + 1)
            node = node.r()

    walk(mediator.query(Q1).d(), 0)
    print("\n  nodes={} degraded_stubs={}".format(
        totals["nodes"], totals["stubs"]))
    print("  faults_injected={} source_retries={} source_timeouts={} "
          "degraded_results={} breaker_transitions={}".format(
              stats.get("faults_injected"), stats.get("source_retries"),
              stats.get("source_timeouts"), stats.get("degraded_results"),
              stats.get("breaker_transitions")))
    for source in mediator.catalog.sources():
        health = getattr(source, "resilience_health", None)
        if callable(health):
            print("  health: {}".format(health()))
    return 0


def cmd_figures(args=()):
    """Regenerate the paper's artifacts to stdout."""
    import subprocess

    return subprocess.call(
        [sys.executable, "-m", "pytest",
         "benchmarks/test_figures.py", "-q", "-s"]
    )


def cmd_bench(args=()):
    """Print the experiment series (no pytest-benchmark timings)."""
    import subprocess

    return subprocess.call(
        [sys.executable, "-m", "pytest", "benchmarks/", "-q", "-s",
         "--benchmark-disable", "--ignore=benchmarks/test_figures.py"]
    )


def cmd_explain(args=()):
    """EXPLAIN ANALYZE a query against the paper's Fig. 2 database."""
    from repro.errors import MixError
    from repro.obs import trace_to_json

    args = list(args)
    as_json = "--json" in args
    while "--json" in args:
        args.remove("--json")
    analyze_first = "--analyze" in args
    while "--analyze" in args:
        args.remove("--analyze")
    profile, seed, args = _fault_options(args)
    cache, cache_size, args = _cache_options(args)
    cost, args = _optimizer_options(args)
    block_size, args = _block_options(args)
    shards, args = _shard_options(args)
    query = Q1
    if args:
        try:
            with open(args[0], "r", encoding="utf-8") as handle:
                query = handle.read()
        except OSError as exc:
            print("explain: cannot read {}: {}".format(args[0], exc),
                  file=sys.stderr)
            return 1
    __, mediator = _paper_mediator(
        fault_profile=profile, fault_seed=seed,
        cache=cache, cache_size=cache_size, cost_optimizer=cost,
        block_size=block_size, shards=shards,
    )
    if analyze_first:
        analyzed = mediator.analyze_sources()
        for server, count in sorted(analyzed.items()):
            print("-- analyzed[{}]: {} tables".format(server, count))
    try:
        print(mediator.explain(query))
    except MixError as exc:
        print("explain: {}".format(exc), file=sys.stderr)
        return 1
    if as_json:
        # One navigation into the (fresh) virtual result: its trace links
        # the d command to the operator pulls and the SQL they caused.
        root = mediator.query(query)
        root.d()
        print()
        print(trace_to_json(root.last_trace()))
    return 0


def cmd_lint(args=()):
    """Schema-aware static analysis of XQuery text (no execution).

    With file arguments, lints each file against the paper catalog;
    without, lints the built-in Q1.  Exit status 1 means at least one
    error-severity diagnostic (parse failures included); ``--strict``
    extends that to warnings, for CI gates over example corpora.
    """
    from repro.analysis import has_errors, render_json, render_text
    from repro.errors import MixError

    args = list(args)
    as_json = "--json" in args
    while "--json" in args:
        args.remove("--json")
    strict = "--strict" in args
    while "--strict" in args:
        args.remove("--strict")
    analyze_first = "--analyze" in args
    while "--analyze" in args:
        args.remove("--analyze")
    __, mediator = _paper_mediator()
    if analyze_first:
        mediator.analyze_sources()
    inputs = []
    if args:
        for path in args:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    inputs.append((path, handle.read()))
            except OSError as exc:
                print("lint: cannot read {}: {}".format(path, exc),
                      file=sys.stderr)
                return 1
    else:
        inputs.append(("<Q1>", Q1))
    status = 0
    for name, text in inputs:
        try:
            diagnostics = mediator.lint(text)
        except MixError as exc:
            print("lint: {}: {}".format(name, exc), file=sys.stderr)
            status = 1
            continue
        for diag in diagnostics:
            diag.source = name
        if as_json:
            print(render_json(diagnostics))
        elif diagnostics:
            print(render_text(diagnostics))
        else:
            print("{}: clean".format(name))
        if has_errors(diagnostics):
            status = 1
        elif strict and diagnostics:
            status = 1
    return status


def cmd_check_plan(args=()):
    """Verify a query's plan after every compilation stage.

    Compiles the query (default: the built-in Q1) through
    translate → Table-2 rewrites → SQL split against the paper catalog
    and runs the static plan verifier after each stage; the first
    violated dataflow invariant fails the command, naming the stage and
    diagnostic code.
    """
    from repro.errors import MixError

    args = list(args)
    cost, args = _optimizer_options(args)
    query = Q1
    if args:
        try:
            with open(args[0], "r", encoding="utf-8") as handle:
                query = handle.read()
        except OSError as exc:
            print("check-plan: cannot read {}: {}".format(args[0], exc),
                  file=sys.stderr)
            return 1
    __, mediator = _paper_mediator(cost_optimizer=cost)
    try:
        report = mediator.verify_query(query)
    except MixError as exc:
        print("check-plan: {}".format(exc), file=sys.stderr)
        return 1
    for stage in report.stages:
        print("  {:40s} {}".format(
            stage.name, "ok" if stage.ok else "FAILED"))
        for diag in stage.diagnostics:
            print("    " + diag.render())
    print("-- verified: {} stages{}".format(
        report.stage_count, "" if report.ok else " (FAILED)"))
    return 0 if report.ok else 1


def cmd_check_rules(args=()):
    """Certify the rewrite rule set against the generated plan corpus.

    Runs :func:`repro.analysis.certify_rules` over the Table-2
    ``DEFAULT_RULES`` plus any ``--rules=module:attr`` extension set
    (the attribute must be an iterable of rule objects, e.g.
    ``--rules=repro.analysis.defect_rules:DEFECT_RULES``).  Prints the
    per-rule verdicts (``--json`` for the machine-readable report) and
    exits 1 when any rule fails certification, 2 on unusable arguments.
    """
    import importlib

    from repro.analysis import certify_rules
    from repro.errors import MixError

    args = list(args)
    as_json = "--json" in args
    while "--json" in args:
        args.remove("--json")
    rules_spec, args = _pop_option(args, "--rules")
    if args:
        print("check-rules: unexpected argument {!r}".format(args[0]),
              file=sys.stderr)
        return 2
    extension = ()
    if rules_spec is not None:
        module_name, sep, attr = rules_spec.partition(":")
        if not sep or not module_name or not attr:
            print("check-rules: --rules expects module:attr, got "
                  "{!r}".format(rules_spec), file=sys.stderr)
            return 2
        try:
            module = importlib.import_module(module_name)
            extension = tuple(getattr(module, attr))
        except (ImportError, AttributeError, TypeError) as exc:
            print("check-rules: cannot load {!r}: {}".format(
                rules_spec, exc), file=sys.stderr)
            return 2
    try:
        report = certify_rules(extension_rules=extension)
    except MixError as exc:
        print("check-rules: {}".format(exc), file=sys.stderr)
        return 1
    print(report.render_json() if as_json else report.render_text())
    return 0 if report.error_count == 0 else 1


def cmd_sql(args=()):
    """A tiny SQL shell against the paper's Fig. 2 database.

    Each quoted command-line argument is one statement; with none,
    statements are read from stdin (one per line).  ``ANALYZE`` works
    here exactly as in any source database: it (re)collects the
    optimizer statistics that cost-based planning and ``est=``
    estimates feed on.
    """
    from repro.errors import MixError

    statements = [a for a in args if a.strip()]
    if not statements:
        statements = [line for line in sys.stdin if line.strip()]
    db = _paper_database()
    for sql in statements:
        sql = sql.strip().rstrip(";").strip()
        if not sql or sql.startswith("--"):
            continue
        print("sql> {}".format(sql))
        try:
            if sql.upper().startswith("SELECT"):
                cursor = db.execute(sql)
                count = 0
                for row in cursor:
                    print("  " + " | ".join(str(v) for v in row))
                    count += 1
                print("-- {} rows".format(count))
            elif sql.upper().startswith("ANALYZE"):
                print("-- {} tables analyzed".format(db.run(sql)))
            else:
                print("-- {} rows affected".format(db.run(sql)))
        except MixError as exc:
            print("sql: {}".format(exc), file=sys.stderr)
            return 1
    return 0


def _int_option(args, name, default):
    """Extract ``--name=N`` as an int with a usage error on junk."""
    value, args = _pop_option(args, name)
    if value is None:
        return default, args
    try:
        return int(value), args
    except ValueError:
        raise SystemExit("{} expects an integer, got {!r}".format(
            name, value))


def cmd_serve(args=()):
    """Run the concurrent mediator server over the paper database.

    Serves QDOM navigation, query-in-place, the SQL shell, and EXPLAIN
    over the JSON-lines protocol until interrupted.  The multi-level
    cache is on (all sessions share it); ``--no-cache`` switches it
    off.
    """
    from repro.server import MediatorService, MixServer, ServerLimits

    args = list(args)
    cache, cache_size, args = _cache_options(args)
    cost, args = _optimizer_options(args)
    block_size, args = _block_options(args)
    host, args = _pop_option(args, "--host")
    port, args = _int_option(args, "--port", 4617)
    max_sessions, args = _int_option(args, "--max-sessions", 512)
    max_inflight, args = _int_option(args, "--max-inflight", 64)
    from repro import Instrument, Mediator, RelationalWrapper

    stats = Instrument()
    db = _paper_database(stats)
    wrapper = (
        RelationalWrapper(db)
        .register_document("root1", "customer")
        .register_document("root2", "orders", element_label="order")
    )
    mediator = Mediator(stats=stats, cache=cache, cache_size=cache_size,
                        cost_optimizer=cost,
                        block_size=block_size).add_source(wrapper)
    service = MediatorService(
        mediator,
        limits=ServerLimits(max_sessions=max_sessions,
                            max_inflight=max_inflight),
        database=db,
    )
    server = MixServer(service, (host or "127.0.0.1", port))
    bound_host, bound_port = server.address
    print("repro.server listening on {}:{} "
          "(max_sessions={}, max_inflight={}); Ctrl-C stops".format(
              bound_host, bound_port, max_sessions, max_inflight))
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        print("\nserved {} requests ({} rejected), "
              "{} sessions opened".format(
                  stats.get("serve_requests"),
                  stats.get("serve_rejected"),
                  stats.get("serve_sessions_opened")))
    return 0


def cmd_bench_serve(args=()):
    """E-SERVE: closed-loop load against an in-process server.

    N concurrent client sessions (default 120 — the acceptance floor
    is 100) issue zipf-distributed queries plus navigation walks over a
    scaled customers/orders workload through the full wire path, and
    the measured throughput and latency percentiles are printed (and,
    with ``--bench-json``, recorded as ``BENCH_SERVE.json``).
    """
    from repro import Instrument, Mediator
    from repro.server import (
        MediatorService, ServerLimits, run_load, write_bench_json,
    )
    from repro.workloads import build_customers_orders

    args = list(args)
    cache, cache_size, args = _cache_options(args)
    cost, args = _optimizer_options(args)
    block_size, args = _block_options(args)
    clients, args = _int_option(args, "--clients", 120)
    interactions, args = _int_option(args, "--interactions", 8)
    seed, args = _int_option(args, "--seed", 0)
    customers, args = _int_option(args, "--customers", 40)
    orders, args = _int_option(args, "--orders", 3)
    think, args = _pop_option(args, "--think")
    zipf, args = _pop_option(args, "--zipf")
    bench_dir = None
    if "--bench-json" in args:
        bench_dir = "."
        args = [a for a in args if a != "--bench-json"]
    explicit_dir, args = _pop_option(args, "--bench-json")
    if explicit_dir is not None:
        bench_dir = explicit_dir
    built = build_customers_orders(
        n_customers=customers, orders_per_customer=orders,
    )
    mediator = Mediator(
        stats=built.stats, cache=cache, cache_size=cache_size,
        cost_optimizer=cost, block_size=block_size,
    ).add_source(built.wrapper)
    service = MediatorService(
        mediator,
        limits=ServerLimits(max_sessions=clients + 8,
                            max_inflight=clients + 8),
        database=built.database,
    )
    report = run_load(
        service, clients=clients, interactions=interactions,
        think_time=float(think or 0.0), zipf_s=float(zipf or 1.1),
        seed=seed,
    )
    counters = report.counters()
    print("== E-SERVE: {} concurrent sessions, {} interactions each "
          "==".format(clients, interactions))
    print("  requests={requests} errors={errors} rejected={rejected}"
          .format(**counters))
    print("  throughput={throughput_rps} req/s  p50={p50_ms}ms  "
          "p95={p95_ms}ms  p99={p99_ms}ms".format(**counters))
    print("  plan_cache={} nav_memo={}".format(
        built.stats.get("plan_cache_hits"),
        built.stats.get("nav_memo_hits")))
    if report.errors:
        print("bench-serve: {} requests failed".format(report.errors),
              file=sys.stderr)
        return 1
    if bench_dir is not None:
        path = write_bench_json(bench_dir, [("serve", report)])
        print("  wrote {}".format(path))
    return 0


def main(argv=None):
    argv = argv if argv is not None else sys.argv[1:]
    commands = {
        "demo": cmd_demo,
        "figures": cmd_figures,
        "bench": cmd_bench,
        "explain": cmd_explain,
        "sql": cmd_sql,
        "lint": cmd_lint,
        "check-plan": cmd_check_plan,
        "check-rules": cmd_check_rules,
        "serve": cmd_serve,
        "bench-serve": cmd_bench_serve,
    }
    if not argv or argv[0] not in commands:
        print(__doc__)
        print("usage: python -m repro"
              " {demo|figures|bench|explain|sql|lint|check-plan"
              "|check-rules|serve|bench-serve}"
              " [--fault-profile=" + "|".join(FAULT_PROFILES) +
              "] [--fault-seed=N] [--no-cache] [--cache-size=N]"
              " [--no-optimizer] [--block-size=N] [--shards=K] [--analyze]"
              " [--json] [--strict] [--rules=module:attr]"
              " [--host=H] [--port=N] [--clients=N] [--bench-json[=DIR]]")
        return 2
    return commands[argv[0]](argv[1:])


if __name__ == "__main__":
    sys.exit(main())
