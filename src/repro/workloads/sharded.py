"""The customers/orders workload, horizontally partitioned.

Generates the *same logical rows* as
:func:`repro.workloads.customers.build_customers_orders` (same spec →
same answers), but places the ``orders`` table across k shard members —
hash- or range-partitioned on a chosen key — while ``customer``
replicates to every member so pushed joins stay member-local.  The
members sit behind one :class:`~repro.sources.shard.ShardedSource`
under the same server name (``s``) and documents (``root1``/``root2``)
as the unsharded builder, so any query, view, or mediator configuration
runs unchanged over either layout — which is exactly what the
lattice differential's shard deployments lean on.

Partition keys:

* ``"orid"`` (default) — range partitioning by order id reproduces the
  unsharded document order exactly under the ordered gather;
* ``"value"`` — range partitioning by order value gives each member a
  narrow ``[min, max]`` value band, the layout where per-shard
  ``ANALYZE`` statistics prune most of the fleet for a ``value``
  predicate (the E-SHARD pruning experiment);
* ``"cid"`` — hash partitioning by customer spreads each customer's
  orders over members.
"""

from __future__ import annotations

from repro.errors import MixError
from repro.obs import Instrument
from repro.relational import Database
from repro.sources import (
    Partition,
    RelationalWrapper,
    ShardedSource,
    SqliteWrapper,
    hash_shard,
)
from repro.sources.shard import HASH, RANGE
from repro.workloads.customers import (
    CustomersOrdersSpec,
    generate_rows,
    load_database,
)

_ORDER_COLUMNS = ("orid", "cid", "value")


class ShardedWorkload:
    """A generated sharded instance.

    Attributes:
        spec: the :class:`CustomersOrdersSpec` shape.
        sharded: the :class:`ShardedSource` fronting the members.
        members: the member wrappers, in shard order (the *raw*
            wrappers — when ``member_wrapper`` decorated them, these
            are the decorated ones handed to the sharded source).
        stats: the shared instrument every member counts on.
    """

    def __init__(self, spec, sharded, members, stats):
        self.spec = spec
        self.sharded = sharded
        self.members = members
        self.stats = stats

    def mediator(self, **kwargs):
        """A fresh mediator over the sharded source."""
        from repro.qdom import Mediator

        return Mediator(stats=self.stats, **kwargs).add_source(
            self.sharded
        )


def build_sharded_customers_orders(shards=4, spec=None, stats=None,
                                   scheme=HASH, partition_key="cid",
                                   backend="memory", member_wrapper=None,
                                   **spec_kwargs):
    """Generate a k-sharded customers/orders instance.

    Args:
        shards: member count k.
        scheme: ``"hash"`` (placement by :func:`hash_shard` of the
            key) or ``"range"`` (orders sorted by the key and split
            into k contiguous runs, members in ascending key order).
        partition_key: ``orid``/``cid``/``value``.
        backend: ``"memory"`` (in-process :class:`Database` members) or
            ``"sqlite"`` (one ``sqlite3`` connection per member).
        member_wrapper: optional callable applied to the raw member
            list before the sharded source is built — e.g.
            ``lambda ms: shard_resilience(ms, retry=RetryPolicy())``.
    """
    if spec is None:
        spec = CustomersOrdersSpec(**spec_kwargs)
    elif spec_kwargs:
        raise MixError("pass either a spec or keyword knobs, not both")
    if shards < 1:
        raise MixError("shards must be >= 1")
    if partition_key not in _ORDER_COLUMNS:
        raise MixError(
            "partition_key must be one of {}".format(_ORDER_COLUMNS)
        )
    stats = stats or Instrument()

    customers, orders = generate_rows(spec)
    placements = _place(orders, shards, scheme, partition_key)

    members = []
    for index in range(shards):
        member_orders = placements[index]
        if backend == "sqlite":
            members.append(
                _sqlite_member(index, customers, member_orders, stats)
            )
        elif backend == "memory":
            members.append(
                _memory_member(index, customers, member_orders, stats)
            )
        else:
            raise MixError(
                "backend must be 'memory' or 'sqlite', got {!r}".format(
                    backend
                )
            )
    if member_wrapper is not None:
        members = list(member_wrapper(members))
    sharded = ShardedSource(
        members,
        Partition("orders", partition_key, scheme),
        replicated=("customer",),
        server_name="s",
        obs=stats,
    )
    return ShardedWorkload(spec, sharded, members, stats)


def _place(orders, shards, scheme, partition_key):
    """Member index -> that member's order rows, in placement order."""
    key_pos = _ORDER_COLUMNS.index(partition_key)
    placements = {index: [] for index in range(shards)}
    if scheme == HASH:
        for row in orders:
            placements[hash_shard(row[key_pos], shards)].append(row)
        return placements
    if scheme != RANGE:
        raise MixError(
            "scheme must be 'hash' or 'range', got {!r}".format(scheme)
        )
    # Contiguous runs of the key-sorted rows, near-equal sizes; member
    # order == ascending key order, which the ordered gather preserves.
    ranked = sorted(orders, key=lambda row: row[key_pos])
    n = len(ranked)
    for index in range(shards):
        lo = index * n // shards
        hi = (index + 1) * n // shards
        placements[index] = ranked[lo:hi]
    return placements


def _memory_member(index, customers, member_orders, stats):
    db = Database("shard{}".format(index), stats=stats)
    wrapper = RelationalWrapper(db, server_name="s{}".format(index))
    return load_database(wrapper, customers, member_orders)


def _sqlite_member(index, customers, member_orders, stats):
    wrapper = SqliteWrapper(
        server_name="s{}".format(index), stats=stats
    )
    wrapper.run(
        "CREATE TABLE customer (id TEXT PRIMARY KEY, name TEXT,"
        " addr TEXT)"
    )
    wrapper.run(
        "CREATE TABLE orders (orid INTEGER PRIMARY KEY, cid TEXT,"
        " value INTEGER)"
    )
    wrapper.run_many("INSERT INTO customer VALUES (?, ?, ?)", customers)
    wrapper.run_many(
        "INSERT INTO orders VALUES (?, ?, ?)", member_orders
    )
    wrapper.register_document("root1", "customer")
    wrapper.register_document("root2", "orders", element_label="order")
    return wrapper
