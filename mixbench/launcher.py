"""The server child process: ``python -m mixbench.launcher WORKLOAD``.

Builds the workload's database, configures the mediator the way
``python -m repro serve`` does (cache on unless the workload says
otherwise, block 64, cost optimizer on, strict off), binds port 0,
prints ``PORT <n>`` and serves until terminated.
:func:`build_service` is also what the traced run calls in-process, so
both runs measure one deployment.
"""

import sys

from mixbench import require_repro
from mixbench.workloads import WORKLOADS


def build_service(workload):
    """``(service, instrument)`` of a fresh deployment of ``workload``."""
    require_repro()
    from repro import Mediator
    from repro.server import MediatorService
    from repro.workloads import build_customers_orders

    built = build_customers_orders(
        n_customers=workload.customers,
        orders_per_customer=workload.orders,
    )
    mediator = Mediator(
        stats=built.stats, cache=workload.cache, cache_size=128,
        cost_optimizer=True, block_size=64,
    ).add_source(built.wrapper)
    service = MediatorService(mediator, database=built.database)
    return service, built.stats


def main(argv):
    service, _ = build_service(WORKLOADS[argv[0]])
    from repro.server import MixServer

    server = MixServer(service, ("127.0.0.1", 0))
    print("PORT {}".format(server.address[1]), flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main(sys.argv[1:])
