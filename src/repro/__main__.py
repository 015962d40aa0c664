"""Command-line entry point: ``python -m repro <command> [options] [args]``.

Each command is a ``cmd_*`` function taking ``(options, args)``.  The
options it accepts are its ``_ACCEPTS`` row of the ``_OPTIONS`` table,
and the usage text is generated from both tables, so a new flag is one
table entry; any other ``--`` argument is a usage error (status 2).
"""

from __future__ import annotations

import sys

FAULT_PROFILES = ("transient", "slow", "outage")


def _int(low=None):
    """The parser of an integer option, optionally bounded below."""

    def parse(flag, text):
        try:
            value = int(text)
        except ValueError:
            raise SystemExit("{} expects an integer, got {!r}".format(
                flag, text))
        if low is not None and value < low:
            raise SystemExit("{} must be >= {}, got {}".format(
                flag, low, value))
        return value

    return parse


def _fault_profile(flag, text):
    if text not in FAULT_PROFILES:
        raise SystemExit("unknown fault profile {!r} (choose from {})".format(
            text, "/".join(FAULT_PROFILES)))
    return text


def _text(flag, text):
    return text


_SWITCH = (None, None, False)

#: ``--flag`` -> ``(metavar, parse, default)``.  ``parse(flag, text)``
#: turns ``--flag=text`` into the value stored under the flag's key
#: (``--block-size`` -> ``block_size``); a switch has no metavar or
#: parser and is ``True`` when given.
_OPTIONS = {
    "--json": _SWITCH,
    "--analyze": _SWITCH,
    "--strict": _SWITCH,
    "--no-cache": _SWITCH,
    "--cache-size": ("N", _int(0), 128),
    "--no-optimizer": _SWITCH,
    "--block-size": ("N", _int(1), None),
    "--shards": ("K", _int(1), None),
    "--fault-profile": ("|".join(FAULT_PROFILES), _fault_profile, None),
    "--fault-seed": ("N", _int(), 0),
    "--rules": ("module:attr", _text, None),
    "--host": ("HOST", _text, "127.0.0.1"),
    "--port": ("N", _int(), 4617),
    "--max-sessions": ("N", _int(), 512),
    "--max-inflight": ("N", _int(), 64),
}

_MEDIATOR = ("--no-cache", "--cache-size", "--no-optimizer", "--block-size")
_DEPLOYMENT = ("--shards", "--fault-profile", "--fault-seed")

#: The options each command takes, in usage order.
_ACCEPTS = {
    "demo": _MEDIATOR + _DEPLOYMENT,
    "figures": (),
    "bench": (),
    "explain": ("--json", "--analyze") + _MEDIATOR + _DEPLOYMENT,
    "sql": (),
    "lint": ("--json", "--strict", "--analyze"),
    "check-plan": ("--no-optimizer",),
    "check-rules": ("--json", "--rules"),
    "serve": _MEDIATOR + (
        "--host", "--port", "--max-sessions", "--max-inflight"),
}


class _UsageError(Exception):
    """An argument the command's ``_ACCEPTS`` row does not allow."""


def _key(flag):
    return flag[2:].replace("-", "_")


def _parse(command, args):
    """``(options, positional args)`` of one command's argument list.

    ``options`` holds every ``_OPTIONS`` key, at its default unless
    given.  An argument is an option when it starts with ``--`` and a
    letter (``sql "-- note"`` stays a statement).  An option outside the
    command's row, a valued option without its value and a switch with
    one raise :class:`_UsageError`.
    """
    options = {_key(flag): spec[2] for flag, spec in _OPTIONS.items()}
    positional = []
    for arg in args:
        if not (arg.startswith("--") and arg[2:3].isalpha()):
            positional.append(arg)
            continue
        flag, has_value, text = arg.partition("=")
        if flag not in _ACCEPTS[command]:
            raise _UsageError("unknown option {!r}".format(arg))
        metavar, parse, __ = _OPTIONS[flag]
        if parse is None:
            if has_value:
                raise _UsageError("option {} takes no value".format(flag))
            value = True
        elif has_value:
            value = parse(flag, text)
        else:
            raise _UsageError("option {} needs a value ({}={})".format(
                flag, flag, metavar))
        options[_key(flag)] = value
    return options, positional


def _command(command):
    """The ``cmd_*`` function that runs ``command``."""
    return globals()["cmd_" + command.replace("-", "_")]


def _usage():
    """Each command's options (from the tables) and docstring summary."""
    lines = ["usage: python -m repro <command> [options] [args]"]
    for command, flags in _ACCEPTS.items():
        words = ["  " + command]
        for flag in flags:
            metavar = _OPTIONS[flag][0]
            value = "" if metavar is None else "=" + metavar
            words.append("[{}{}]".format(flag, value))
        lines.append(" ".join(words))
        lines.append("      " + _command(command).__doc__.splitlines()[0])
    return "\n".join(lines)


_CUSTOMERS = (
    ("XYZ", "XYZInc.", "LosAngeles"),
    ("DEF", "DEFCorp.", "NewYork"),
    ("ABC", "ABCInc.", "SanDiego"),
)

_ORDERS = (
    (28904, "XYZ", 2400),
    (87456, "ABC", 200000),
    (111, "XYZ", 100),
    (222, "DEF", 30000),
)


def _paper_database(stats=None, member=None, shards=1):
    """The Fig. 2 database, or member ``member`` of a ``shards`` fleet.

    A member holds the orders whose ``cid`` hashes to it (each
    customer's orders land together, so the pushed Q1 join stays
    member-local) and a replica of ``customer``.
    """
    from repro import Database, Instrument
    from repro.sources import hash_shard

    name = "paper" if member is None else "paper{}".format(member)
    db = Database(name, stats=stats or Instrument())
    db.run("CREATE TABLE customer (id TEXT, name TEXT, addr TEXT,"
           " PRIMARY KEY (id))")
    db.run("CREATE TABLE orders (orid INT, cid TEXT, value INT,"
           " PRIMARY KEY (orid))")
    db.table("customer").insert_many(_CUSTOMERS)
    db.table("orders").insert_many(
        row for row in _ORDERS
        if member is None or hash_shard(row[1], shards) == member
    )
    return db


def _paper_wrapper(stats, member=None, shards=1):
    from repro import RelationalWrapper

    db = _paper_database(stats, member, shards)
    return (
        RelationalWrapper(db, server_name="s" if member is None else db.name)
        .register_document("root1", "customer")
        .register_document("root2", "orders", element_label="order")
    )


def _paper_mediator(options):
    """A mediator over the Fig. 2 deployment the options describe: one
    wrapper, a ``--shards`` fleet, or a ``--fault-profile`` source."""
    from repro import Instrument, Mediator
    from repro.sources import Partition, ShardedSource

    shards, profile = options["shards"], options["fault_profile"]
    if shards is not None and profile is not None:
        raise SystemExit(
            "--shards cannot be combined with --fault-profile: the fault "
            "profiles script a single source's pull schedule (wrap shard "
            "members with repro.resilience.shard_resilience instead)"
        )
    stats = Instrument()
    settings = {
        "stats": stats,
        "cache": not options["no_cache"],
        "cache_size": options["cache_size"],
        "cost_optimizer": not options["no_optimizer"],
        "block_size": options["block_size"],
    }
    if shards is not None:
        fleet = ShardedSource(
            [_paper_wrapper(stats, index, shards) for index in range(shards)],
            Partition("orders", "cid", "hash"),
            replicated=("customer",),
            server_name="paper",
            obs=stats,
        )
        return Mediator(**settings).add_source(fleet)
    wrapper = _paper_wrapper(stats)
    if profile is None:
        return Mediator(**settings).add_source(wrapper)
    # SQL push-down off: the demo should *navigate* the faulty source,
    # so the injected pull faults (and their recovery) actually fire.
    # The cache stays on when asked: the degrade policy automatically
    # keeps poisoned answers out of the navigation memo.
    # Fault profiles default to width 1.  Their pull faults are keyed on
    # a child's position and SQL faults on the statement count, so the
    # width moves neither; but the outage breaker is shared by every
    # document of the source, so the width moves *when* it opens.  At
    # width >= 4 all customers are fetched before root2's failures open
    # it, and the join drops every order stub: an empty answer instead
    # of one CustRec with four stubs.  An explicit --block-size wins.
    if settings["block_size"] is None:
        settings["block_size"] = 1
    source = _faulty_source(wrapper, profile, options["fault_seed"], stats)
    return Mediator(
        push_sql=False, on_source_error="degrade", **settings
    ).add_source(source)


def _faulty_source(wrapper, profile, seed, stats):
    """Wrap the paper wrapper per a named fault profile (seeded, on a
    manual clock: no real sleeps)."""
    from repro.resilience import (
        CircuitBreaker, FaultInjectingSource, ManualClock, ResilientSource,
        RetryPolicy, Timeout,
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
        return ResilientSource(faulty, retry=retry, obs=stats)
    if profile == "slow":
        faulty.slow_pull("root1", 0, delay=0.5, times=1)
        faulty.slow_pull("root2", 1, delay=0.5, times=1)
        return ResilientSource(
            faulty, retry=retry, timeout=Timeout(0.25, clock=clock),
            obs=stats,
        )
    # "outage": two consecutive permanent failures trip the breaker
    # (threshold 2): the rest of root2 is circuit-rejected and the
    # stream ends with a terminal stub.
    faulty.fail_pull("root2", 0, kind="permanent")
    faulty.fail_pull("root2", 1, kind="permanent")
    faulty.fail_sql(kind="permanent", match="orders")
    breaker = CircuitBreaker(
        failure_threshold=2, cooldown=5.0, clock=clock
    )
    return ResilientSource(faulty, retry=retry, breaker=breaker, obs=stats)


def _read(command, path):
    """The text of ``path``, or ``None`` after reporting why not."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        print("{}: cannot read {}: {}".format(command, path, exc),
              file=sys.stderr)
        return None


Q1 = """
FOR $C IN source(root1)/customer
    $O IN document(root2)/order
WHERE $C/id/data() = $O/cid/data()
RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}
"""


def cmd_demo(options, args):
    """Example 2.1, command for command, with traffic counters."""
    mediator = _paper_mediator(options)
    stats = mediator.stats
    if options["fault_profile"] is not None:
        # The scripted Example 2.1 walk assumes every step lands on a
        # node; under injected faults parts of the view may be missing,
        # so the faulty demo walks whatever survived instead.
        return _demo_faulty(
            mediator, options["fault_profile"], options["fault_seed"]
        )

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


def _demo_faulty(mediator, profile, seed):
    """Walk Q1's degraded result and report what the faults cost."""
    from repro.resilience import ERROR_LABEL

    stats = mediator.stats
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
        health = source.health().get("resilience")
        if health is not None:
            print("  health: {}".format(health))
    return 0


def cmd_figures(options, args):
    """Regenerate the paper's artifacts to stdout."""
    import subprocess

    return subprocess.call(
        [sys.executable, "-m", "pytest",
         "benchmarks/test_figures.py", "-q", "-s"]
    )


def cmd_bench(options, args):
    """Print the experiment series (no pytest-benchmark timings)."""
    import subprocess

    return subprocess.call(
        [sys.executable, "-m", "pytest", "benchmarks/", "-q", "-s",
         "--benchmark-disable", "--ignore=benchmarks/test_figures.py"]
    )


def cmd_explain(options, args):
    """EXPLAIN ANALYZE a query against the paper's Fig. 2 database."""
    from repro.errors import MixError
    from repro.obs import trace_to_json

    query = _read("explain", args[0]) if args else Q1
    if query is None:
        return 1
    mediator = _paper_mediator(options)
    if options["analyze"]:
        analyzed = mediator.analyze_sources()
        for server, count in sorted(analyzed.items()):
            print("-- analyzed[{}]: {} tables".format(server, count))
    try:
        print(mediator.explain(query))
    except MixError as exc:
        print("explain: {}".format(exc), file=sys.stderr)
        return 1
    if options["json"]:
        # One navigation into the (fresh) virtual result: its trace links
        # the d command to the operator pulls and the SQL they caused.
        root = mediator.query(query)
        root.d()
        print()
        print(trace_to_json(root.last_trace()))
    return 0


def cmd_lint(options, args):
    """Schema-aware static analysis of XQuery text (no execution).

    With file arguments, lints each file against the paper catalog;
    without, lints the built-in Q1.  Exit status 1 means at least one
    error-severity diagnostic (parse failures included); ``--strict``
    extends that to warnings, for CI gates over example corpora.
    """
    from repro.analysis import has_errors, render_json, render_text
    from repro.errors import MixError

    mediator = _paper_mediator(options)
    if options["analyze"]:
        mediator.analyze_sources()
    inputs = [("<Q1>", Q1)] if not args else []
    for path in args:
        text = _read("lint", path)
        if text is None:
            return 1
        inputs.append((path, text))
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
        if options["json"]:
            print(render_json(diagnostics))
        elif diagnostics:
            print(render_text(diagnostics))
        else:
            print("{}: clean".format(name))
        if has_errors(diagnostics) or (options["strict"] and diagnostics):
            status = 1
    return status


def cmd_check_plan(options, args):
    """Verify a query's plan after every compilation stage.

    Compiles the query (default: the built-in Q1) through
    translate → Table-2 rewrites → SQL split against the paper catalog
    and runs the static plan verifier after each stage; the first
    violated dataflow invariant fails the command, naming the stage and
    diagnostic code.
    """
    from repro.errors import MixError

    query = _read("check-plan", args[0]) if args else Q1
    if query is None:
        return 1
    mediator = _paper_mediator(options)
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


def cmd_check_rules(options, args):
    """Certify the rewrite rule set against the generated plan corpus.

    Runs :func:`repro.analysis.certify_rules` over the Table-2
    ``DEFAULT_RULES`` plus any ``--rules=module:attr`` extension set
    (the attribute must be an iterable of rule objects, e.g.
    ``--rules=tests.analysis.defect_rules:DEFECT_RULES`` from the
    repository root).  Prints the
    per-rule verdicts (``--json`` for the machine-readable report) and
    exits 1 when any rule fails certification, 2 on unusable arguments.
    """
    import importlib

    from repro.analysis import certify_rules
    from repro.errors import MixError

    if args:
        print("check-rules: unexpected argument {!r}".format(args[0]),
              file=sys.stderr)
        return 2
    rules_spec = options["rules"]
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
    print(report.render_json() if options["json"] else report.render_text())
    return 0 if report.error_count == 0 else 1


def cmd_sql(options, args):
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
                rows = list(db.execute(sql))
                for row in rows:
                    print("  " + " | ".join(str(v) for v in row))
                print("-- {} rows".format(len(rows)))
            elif sql.upper().startswith("ANALYZE"):
                print("-- {} tables analyzed".format(db.run(sql)))
            else:
                print("-- {} rows affected".format(db.run(sql)))
        except MixError as exc:
            print("sql: {}".format(exc), file=sys.stderr)
            return 1
    return 0


def cmd_serve(options, args):
    """Run the concurrent mediator server over the paper database.

    Serves QDOM navigation, query-in-place, the SQL shell, and EXPLAIN
    over the JSON-lines protocol until interrupted.  The multi-level
    cache is on (all sessions share it); ``--no-cache`` switches it
    off.
    """
    from repro.server import MediatorService, MixServer, ServerLimits

    mediator = _paper_mediator(options)
    stats = mediator.stats
    service = MediatorService(
        mediator,
        limits=ServerLimits(max_sessions=options["max_sessions"],
                            max_inflight=options["max_inflight"]),
        database=mediator.catalog.server("s").database,
    )
    server = MixServer(service, (options["host"], options["port"]))
    bound_host, bound_port = server.address
    print("repro.server listening on {}:{} "
          "(max_sessions={}, max_inflight={}); Ctrl-C stops".format(
              bound_host, bound_port, options["max_sessions"],
              options["max_inflight"]))
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


def main(argv=None):
    argv = argv if argv is not None else sys.argv[1:]
    if not argv or argv[0] not in _ACCEPTS:
        print(_usage())
        return 2
    command = argv[0]
    try:
        options, args = _parse(command, argv[1:])
    except _UsageError as exc:
        print("{}: {}".format(command, exc), file=sys.stderr)
        return 2
    return _command(command)(options, args)


if __name__ == "__main__":
    sys.exit(main())
