"""A fault-free run's cyclic garbage does not grow with its operations.

What a finished operation leaves behind is freed by reference counting
the moment its last reader lets go: a finished CPU job or transfer, its
``done`` event and the event's callbacks hold no reference back to one
another.  What is left for the cyclic collector is built once per run
(the world, its processes), not once per operation.

The run is the canned ``metro`` world with its clients issuing more
operations over a longer day.  With the collector disabled during the
run, ``gc.collect()`` afterwards frees what the run left in cycles; a
run of twice the operations must leave about as much.  When every job
was its ``done`` event's value, each job and event formed a cycle, and
the run issuing twice the operations left some 25,000 more objects
behind.
"""

import dataclasses
import gc

from repro.scenarios import canned_spec, run_scenario


def metro_spec(n_ops):
    """The canned ``metro`` world, each client issuing *n_ops* operations
    over a day long enough to issue them."""
    spec = canned_spec("metro")
    return dataclasses.replace(
        spec, duration_s=30.0 * n_ops,
        clients=tuple(
            dataclasses.replace(client, arrivals=dataclasses.replace(
                client.arrivals, n_ops=n_ops))
            for client in spec.clients))


def cyclic_garbage(spec):
    """The run's report and the objects the cyclic collector frees after
    it, the collector disabled while it ran."""
    gc.collect()
    gc.disable()
    try:
        report = run_scenario(spec)
        return report, gc.collect()
    finally:
        gc.enable()


def test_cyclic_garbage_does_not_grow_with_operations():
    # A first run leaves the one-off garbage of first use (caches,
    # imports) behind, so the two measured runs compare like with like.
    cyclic_garbage(metro_spec(3))
    short, short_freed = cyclic_garbage(metro_spec(6))
    long, long_freed = cyclic_garbage(metro_spec(12))
    added_ops = len(long.ops) - len(short.ops)
    assert added_ops >= len(short.ops) // 2 > 0
    assert short_freed > 0
    assert long_freed - short_freed < 0.1 * added_ops
