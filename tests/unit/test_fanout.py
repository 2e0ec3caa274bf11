"""Unit tests for :func:`repro._fanout.fan_out`.

The one fan-out behind figure cells and scenario sweeps returns
``[fn(item) for item in items]`` whatever the worker count: in item
order, with a worker's exception raised in the caller, in-process when
there is nothing to fan out, and with *fn* inherited by the forked
workers rather than pickled.
"""

import multiprocessing
import os
import pickle
import threading
import time

import pytest

from repro._fanout import fan_out


class ItemError(RuntimeError):
    """Raised by one item of a fan-out."""


def test_results_come_back_in_item_order_when_items_finish_out_of_order(
        cpus, tmp_path):
    cpus(2)
    marker = tmp_path / "item-1-done"

    def work(item):
        if item == 1:
            marker.touch()
            return "1"
        # item 0 finishes only after item 1 has finished
        for _ in range(1000):
            if marker.exists():
                return "0 after 1"
            time.sleep(0.01)
        raise TimeoutError("item 1 never finished")

    assert fan_out(work, [0, 1]) == ["0 after 1", "1"]
    assert multiprocessing.active_children() == []


def test_a_worker_exception_reaches_the_caller_with_its_type(cpus):
    cpus(2)

    def work(item):
        if item == 2:
            raise ItemError(f"item {item}")
        return os.getpid()

    with pytest.raises(ItemError, match="item 2"):
        fan_out(work, range(4))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("count,items", [(2, [0]), (1, [0, 1, 2])])
def test_nothing_to_fan_out_runs_in_process(cpus, count, items):
    cpus(count)
    assert fan_out(lambda _item: os.getpid(), items) == \
        [os.getpid()] * len(items)


def test_a_closure_over_unpicklable_state_runs_on_two_cpus(cpus):
    cpus(2)
    lock = threading.Lock()
    with pytest.raises(TypeError, match="pickle"):
        pickle.dumps(lock)

    def work(item):
        with lock:
            return 3 * item, os.getpid()

    results = fan_out(work, [1, 2, 3])
    assert [value for value, _pid in results] == [3, 6, 9]
    assert os.getpid() not in {pid for _value, pid in results}
