"""The running-example workload: customers and their orders.

The shape knobs map directly to the experiments' axes:

* ``n_customers`` / ``orders_per_customer`` — scale (E-LAZY, E-SQL);
* ``value_mode`` — how order values are assigned, which controls the
  selectivity of ``value > V`` predicates:

  - ``"ladder"``: customer's j-th order is worth ``value_step * (j+1)``
    (every customer qualifies for any threshold below the top rung);
  - ``"tiered"``: all of customer i's orders are worth
    ``value_step * ((i % tiers) + 1)`` (a threshold keeps an exact
    fraction of customers — the E-COMP sweep);
  - ``"uniform"``: independent uniform values in
    ``[value_step, value_step * tiers]``.

* ``city_skew`` — fraction of customers packed into ``City0`` (the
  leading block of the customer range); the rest round-robin over the
  ``n_cities`` as before.  A high skew makes ``addr`` a low-NDV hot
  column: joining through it first explodes the intermediate result,
  which is exactly the adversarial join order the E-OPT experiment
  feeds the optimizer.
"""

from __future__ import annotations

import random

from repro.errors import MixError
from repro.relational import Database
from repro.sources import RelationalWrapper
from repro.obs import Instrument

_VALUE_MODES = ("ladder", "tiered", "uniform")


class CustomersOrdersSpec:
    """Parameters of a customers/orders instance."""

    def __init__(self, n_customers=100, orders_per_customer=5,
                 value_mode="ladder", value_step=100, tiers=10,
                 n_cities=7, city_skew=None, seed=2002):
        if value_mode not in _VALUE_MODES:
            raise MixError(
                "value_mode must be one of {}".format(_VALUE_MODES)
            )
        if city_skew is not None and not 0.0 <= city_skew <= 1.0:
            raise MixError("city_skew must be in [0, 1] or None")
        self.n_customers = n_customers
        self.orders_per_customer = orders_per_customer
        self.value_mode = value_mode
        self.value_step = value_step
        self.tiers = tiers
        self.n_cities = n_cities
        self.city_skew = city_skew
        self.seed = seed

    @property
    def n_orders(self):
        return self.n_customers * self.orders_per_customer

    def city(self, customer_index):
        """The customer's city index (``city_skew`` packs the leading
        fraction of customers into the hot city 0)."""
        if (
            self.city_skew
            and customer_index < self.city_skew * self.n_customers
        ):
            return 0
        return customer_index % self.n_cities

    def order_value(self, customer_index, order_index, rng):
        if self.value_mode == "ladder":
            return self.value_step * (order_index + 1)
        if self.value_mode == "tiered":
            return self.value_step * ((customer_index % self.tiers) + 1)
        return rng.randrange(
            self.value_step, self.value_step * self.tiers + 1
        )

    def __repr__(self):
        return ("CustomersOrdersSpec({} customers x {} orders, {})"
                .format(self.n_customers, self.orders_per_customer,
                        self.value_mode))


class BuiltWorkload:
    """A generated instance: database, wrapper, stats, and the spec."""

    def __init__(self, spec, database, wrapper, stats):
        self.spec = spec
        self.database = database
        self.wrapper = wrapper
        self.stats = stats

    def mediator(self, **kwargs):
        """A fresh mediator over this workload's wrapper."""
        from repro.qdom import Mediator

        return Mediator(stats=self.stats, **kwargs).add_source(self.wrapper)


def build_customers_orders(spec=None, stats=None, **spec_kwargs):
    """Generate a customers/orders instance per ``spec``.

    Returns a :class:`BuiltWorkload`; documents are registered as
    ``root1`` (customer) and ``root2`` (order elements), matching the
    paper's running example.
    """
    if spec is None:
        spec = CustomersOrdersSpec(**spec_kwargs)
    elif spec_kwargs:
        raise MixError("pass either a spec or keyword knobs, not both")
    stats = stats or Instrument()
    db = Database("customers_orders", stats=stats)
    wrapper = load_database(RelationalWrapper(db), *generate_rows(spec))
    return BuiltWorkload(spec, db, wrapper, stats)


def generate_rows(spec):
    """The workload's logical rows, ``(customers, orders)``.

    Every builder — unsharded or sharded, any back end — loads these
    rows, which is what makes the same spec give the same answers over
    every layout.
    """
    rng = random.Random(spec.seed)
    customers, orders = [], []
    for i in range(spec.n_customers):
        cid = "C{:06d}".format(i)
        customers.append(
            (cid, "Name{}".format(i), "City{}".format(spec.city(i)))
        )
        for j in range(spec.orders_per_customer):
            orders.append((len(orders), cid, spec.order_value(i, j, rng)))
    return customers, orders


def load_database(wrapper, customers, orders):
    """Create, fill (one ``INSERT`` per row) and export the two
    tables of an in-process :class:`RelationalWrapper`."""
    db = wrapper.database
    db.run(
        "CREATE TABLE customer (id TEXT, name TEXT, addr TEXT,"
        " PRIMARY KEY (id))"
    )
    db.run(
        "CREATE TABLE orders (orid INT, cid TEXT, value INT,"
        " PRIMARY KEY (orid))"
    )
    for row in customers:
        db.run("INSERT INTO customer VALUES ('{}', '{}', '{}')".format(*row))
    for row in orders:
        db.run("INSERT INTO orders VALUES ({}, '{}', {})".format(*row))
    return (
        wrapper
        .register_document("root1", "customer")
        .register_document("root2", "orders", element_label="order")
    )
