"""Integration tests: a figure's cells on forked workers.

:func:`~repro.experiments.runner.measure_cells` measures every (scenario,
input) cell of a figure from one trained world through
:func:`~repro._fanout.fan_out`: a ``fork`` pool with one worker per
available CPU.  These tests hold it to its contract:

* the result does not depend on the worker count — one worker and two
  give every float with the same ``repr``, for each experiment and for
  a stateful solver;
* a cell's exception reaches the caller with its own type, and leaves
  no worker behind;
* a world a clone would refuse is refused before any worker starts.
"""

import multiprocessing
import os

import pytest

from repro.experiments import (
    run_latex_experiment,
    run_pangloss_experiment,
    run_parallel_experiment,
    run_speech_experiment,
    speech,
)
from repro.experiments.runner import measure_cells
from repro.solver import HeuristicSolver


class CellError(RuntimeError):
    """Raised by one cell of a sweep."""


@pytest.fixture(scope="module")
def trained_speech():
    return speech._train()


#: experiment -> a sweep over a small set of its cells
SWEEPS = {
    "speech": lambda: run_speech_experiment(
        scenarios=("baseline", "cpu", "filecache")),
    "latex": lambda: run_latex_experiment(
        scenarios=("baseline", "reintegrate", "energy"),
        documents=("small",)),
    "pangloss": lambda: run_pangloss_experiment(
        scenarios=("baseline", "cpu"), sentences=[4, 18]),
    "parallel": lambda: run_parallel_experiment(sentences=(8, 18, 27)),
}


def _one_and_two_workers(cpus, sweep):
    """repr of *sweep*'s result with one worker and with two."""
    outcomes = []
    for count in (1, 2):
        cpus(count)
        outcomes.append(repr(sweep()))
    return outcomes


@pytest.mark.parametrize("name", list(SWEEPS))
def test_worker_count_moves_no_float(cpus, name):
    in_process, forked = _one_and_two_workers(cpus, SWEEPS[name])
    assert forked == in_process


def test_a_stateful_solver_gives_every_cell_the_trained_state(cpus):
    """A passed ``HeuristicSolver`` seeds its restarts from its solve
    index; each cell copies it as training left it, so no cell depends
    on the cells measured before it in the same process."""
    in_process, forked = _one_and_two_workers(
        cpus, lambda: run_pangloss_experiment(
            scenarios=("baseline", "filecache", "cpu"), sentences=[7, 18],
            solver=HeuristicSolver()))
    assert forked == in_process


def test_two_cpus_run_the_cells_in_other_processes(cpus, trained_speech):
    cpus(2)
    cells = [(index,) for index in range(4)]
    pids = measure_cells(trained_speech, cells,
                         lambda _trained, _index: os.getpid())
    assert list(pids) == cells
    assert os.getpid() not in pids.values()
    assert multiprocessing.active_children() == []


def test_results_merge_in_cell_order(cpus, trained_speech):
    cpus(2)
    cells = [(index,) for index in (3, 1, 2, 0)]
    results = measure_cells(trained_speech, cells,
                            lambda _trained, index: index * index)
    assert list(results.items()) == [((3,), 9), ((1,), 1), ((2,), 4),
                                      ((0,), 0)]


@pytest.mark.parametrize("count", [1, 2])
def test_a_cell_exception_reaches_the_caller(cpus, trained_speech, count):
    cpus(count)

    def measure(_trained, index):
        if index == 2:
            raise CellError(f"cell {index}")
        return index

    with pytest.raises(CellError, match="cell 2"):
        measure_cells(trained_speech, [(i,) for i in range(4)], measure)
    assert multiprocessing.active_children() == []


def test_a_world_with_a_queued_callback_is_refused_before_forking(
        cpus, monkeypatch):
    cpus(2)
    world, app = speech._train()
    world.sim.call_in(1.0, lambda: None)

    def no_pool(_method):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    with pytest.raises(ValueError, match="queued"):
        measure_cells((world, app), [(1,), (2,)],
                      lambda _trained, index: index)
