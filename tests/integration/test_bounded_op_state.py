"""Per-operation state is held once and released when the operation ends.

After a drained run:

* no host's CPU ledger holds a finished operation's owner: it holds
  only owners with jobs in flight, external (background) owners, and
  the Spectra daemon's own ``"spectra"`` owner;
* every Coda client's access log is empty, with no mark left open;
* the built-in demand models that observed one logged sample hold one
  feature row object between them, and a model without features holds
  no rows at all;
* the models of one sample stream (one predictor, data-object scope and
  bin) that saw the same samples read one demand window, which holds at
  most one row beyond its limit;
* the logged samples of one operation that measured the same resources
  share one ``usage_names`` tuple, and equal file-access sets, equal
  input parameters and equal feature rows are one object each;
* a usage log holds no sample object between operations, only its
  columns; every built-in model keeps its values in an ``array('d')``;
  and no model or predictor object carries a ``__dict__``;
* each Coda client keeps at most one conflict per path, and counts
  every conflict it detected;
* the report's records hold no dict, and operations that made the same
  choice hold one ``Alternative`` object between them;
* the report keeps its operations as per-client columns of at most 32
  bytes an operation, and builds no ``OpRecord`` until ``ops`` is read;
* during the measured phase the only live random generators are the
  think-time generators of exponential thinkers, the workload generators
  of apps that draw from one, and the retry policy's when a timeline
  arms it.

The runs are the benchmark's two scenario workloads in their
``small=True`` shape (``bench/workloads.py``): the Latex crowd's server
outages, RPC retries and failover on a shared medium, and the metro
cells' null operations.  A ``clone_world`` copy of a trained Latex world
must hold the same, before and after it runs an operation, and so must
a Pangloss world whose parallel engines share the one server left up.
"""

import dataclasses
import gc
import importlib.util
import pathlib
import random
import types
from array import array

import pytest

from repro.experiments import latex
from repro.experiments.parallel import PARALLEL_APP
from repro.experiments.runner import clone_world
from repro.predictors.logs import UsageSample
from repro.scenarios import ADAPTERS, OpRecord, compile_scenario, runner
from repro.scenarios.library import thinkpad_testbed
from repro.telemetry.names import SPECTRA_FAILOVERS

WORKLOADS = pathlib.Path(__file__).resolve().parents[2] / "bench" / "workloads.py"

#: the owner ``SpectraClient.register_fidelity`` charges: the daemon's
#: own, not an operation's
DAEMON_OWNER = "spectra"

#: per Coda client, the reintegration conflicts the small seed-1 Latex
#: crowd detects, as counted when every conflict was kept in the list
LATEX_CROWD_CONFLICTS = {
    "server-a": 66, "server-b": 68,
    "latex-0": 10, "latex-1": 12, "latex-2": 12, "latex-3": 12,
    "latex-4": 12, "latex-5": 12, "latex-6": 12, "latex-7": 12,
    "latex-8": 6, "latex-9": 12, "latex-10": 6, "latex-11": 12,
    "latex-12": 12, "latex-13": 12, "latex-14": 12, "latex-15": 8,
}


def _live(kind):
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is kind)


def _drained_workload_world(monkeypatch, workload):
    """The drained world of a small seed-1 workload run, its report, and
    the number of random generators alive at its first measured
    operation's end that were not alive before the run (such as the
    ``random`` module's own)."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    worlds, generators = [], []
    compile_scenario = runner.compile_scenario

    def capture(*args, **kwargs):
        worlds.append(compile_scenario(*args, **kwargs))
        return worlds[-1]

    def count_generators(_report):
        if not generators:
            generators.append(_live(random.Random) - before)

    monkeypatch.setattr(runner, "compile_scenario", capture)
    before = _live(random.Random)
    report = runner.run_scenario(
        workloads.scenario_spec(workload, seed=1, small=True),
        on_op=count_generators)
    (world,) = worlds
    assert not world.sim.pending
    return world, report, generators[0]


def drawing_generators(spec):
    """The generators a measured phase of *spec* may hold: one per
    exponential thinker, one per client of an app that draws, and the
    retry policy's when a timeline arms it."""
    return (sum(client.think.kind == "exponential" for client in spec.clients)
            + sum(ADAPTERS[client.app].draws for client in spec.clients)
            + bool(spec.timeline))


def assert_ops_columnar(report):
    """No record exists until ``ops`` is read; the columns hold at most
    32 bytes an operation."""
    assert _live(OpRecord) == 0
    columns = report.ops.clients.values()
    held = sum(len(ops.issued_at_s) * ops.issued_at_s.itemsize
               + len(ops.elapsed_s) * ops.elapsed_s.itemsize
               + len(ops.choice) * ops.choice.itemsize
               + len(ops.failed_over)
               for ops in columns)
    assert all(type(ops.failed_over) is bytearray for ops in columns)
    assert held <= 32 * len(report.ops)
    records = list(report.ops)
    assert _live(OpRecord) == len(records) > 0


def assert_ledgers_bounded(world):
    for node in world.nodes.values():
        cpu = node.host.cpu
        allowed = ({job.owner for job in cpu._resource.jobs}
                   | cpu._external_owners
                   | {DAEMON_OWNER})
        assert set(cpu._finished_cycles) <= allowed, node.name


def assert_access_logs_empty(world):
    for node in world.nodes.values():
        assert node.coda._access_log == [], node.name
        assert node.coda._open_marks == {}, node.name


def _last_sample_rows(predictor):
    """The newest row of every built-in model that observed the
    predictor's newest logged sample."""
    sample = predictor.log.samples()[-1]
    rows = []
    for resource, _value in sample.usage:
        if sample.concurrent and resource.startswith("energy"):
            continue  # energy models skip concurrent samples
        model = predictor._models[resource]
        binned = [model._general]
        per_object = model._per_object or {}
        if sample.data_object in per_object:
            binned.append(per_object[sample.data_object])
        for models in binned:
            rows.append(models._generic.rows[-1])
            rows.append(models._bins[sample.discrete].rows[-1])
    return sample, rows


def _streams(predictor):
    """(scope, bin key or None for the generic model) -> the linear
    models of every resource on that stream."""
    streams = {}
    for model in predictor._models.values():
        scopes = [(None, model._general),
                  *(model._per_object or {}).items()]
        for scope, binned in scopes:
            streams.setdefault((scope, None), []).append(binned._generic)
            for key, linear in binned._bins.items():
                streams.setdefault((scope, key), []).append(linear)
    return streams


def _linear_models(predictor):
    for models in _streams(predictor).values():
        yield from models


def assert_rows_shared(world):
    checked = 0
    for compiled in world.clients:
        for registered in compiled.client._operations.values():
            predictor = registered.predictor
            if not predictor.feature_names:
                assert all(model.rows == [] and model.n_samples
                           for model in _linear_models(predictor))
                checked += 1
                continue
            sample, rows = _last_sample_rows(predictor)
            assert len(rows) >= 4
            assert all(row is rows[0] for row in rows)
            assert rows[0] == tuple(dict(sample.continuous)[name]
                                    for name in predictor.feature_names)
            # Every row any model keeps is one sample's row: at most one
            # row object per logged sample.
            held = {id(row) for model in _linear_models(predictor)
                    for row in model.rows}
            assert len(held) <= len(predictor.log)
            checked += 1
    assert checked


def assert_windows_shared(world):
    """Models of one stream that hold the same rows read one window."""
    shared = 0
    for compiled in world.clients:
        for registered in compiled.client._operations.values():
            predictor = registered.predictor
            if not predictor.feature_names:
                continue
            for models in _streams(predictor).values():
                by_rows = {}
                for model in models:
                    window = model._shared
                    assert model in window.members
                    assert len(window.rows) <= window.limit + 1
                    rows = tuple(map(id, model.rows))
                    assert by_rows.setdefault(rows, window) is window
                shared += len(models) - len(by_rows)
    return shared


def _by_value(parts):
    """Group *parts* by value, telling 0 from 0.0 and 0.0 from -0.0."""
    groups = {}
    for part in parts:
        groups.setdefault(repr(part), []).append(part)
    return groups.values()


def assert_sample_parts_shared(world):
    """Equal file-access sets, (path, size) pairs, input parameters and
    feature rows are one object each, within one operation's log."""
    repeated = 0
    for compiled in world.clients:
        for registered in compiled.client._operations.values():
            predictor = registered.predictor
            samples = list(predictor.log)
            parts = [
                [sample.file_accesses for sample in samples],
                [pair for sample in samples for pair in sample.file_accesses],
                [sample.continuous for sample in samples],
                [pair for sample in samples for pair in sample.continuous],
                [row for model in _linear_models(predictor)
                 for row in model.rows],
            ]
            for group in (group for kind in parts for group in _by_value(kind)):
                assert all(part is group[0] for part in group), group[0]
                repeated += len(group) - 1
    return repeated


def _held_by(root):
    """Every object *root* holds, through containers and instance
    state, not descending into classes, modules or functions."""
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType,
                                               types.FunctionType)):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return seen.values()


def assert_history_is_columnar(world):
    """Logs hold no sample objects and models hold their values as
    doubles; models and predictors carry no instance dict."""
    checked = 0
    for compiled in world.clients:
        for registered in compiled.client._operations.values():
            predictor = registered.predictor
            log = predictor.log
            assert len(log)
            assert not any(type(obj) is UsageSample for obj in _held_by(log))
            assert type(log._values) is array and log._values.typecode == "d"
            for model in _linear_models(predictor):
                assert type(model._ys) is array and model._ys.typecode == "d"
                assert not hasattr(model, "__dict__")
                checked += 1
            for model in predictor._models.values():
                scopes = [model, model._general,
                          *(model._per_object or {}).values()]
                assert not any(hasattr(obj, "__dict__") for obj in scopes)
    assert checked


def assert_conflicts_bounded(world, totals):
    for name, node in world.nodes.items():
        coda = node.coda
        paths = [conflict.path for conflict in coda.conflicts]
        assert len(paths) == len(set(paths)), name
        assert coda.conflicts_total == totals.get(name, 0), name
        assert (coda.conflicts_total > 0) == bool(coda.conflicts), name


def assert_usage_names_shared(world):
    for compiled in world.clients:
        for registered in compiled.client._operations.values():
            by_names = {}
            for sample in registered.predictor.log:
                first = by_names.setdefault(sample.usage_names,
                                            sample.usage_names)
                assert sample.usage_names is first
            assert by_names


def assert_records_share_choices(report):
    by_choice = {}
    for op in report.ops:
        for field in dataclasses.fields(op):
            assert not isinstance(getattr(op, field.name), dict), field.name
        if op.alternative is None:
            assert not op.completed
            assert (op.plan, op.server, op.fidelity) == ("", None, ())
            continue
        first = by_choice.setdefault(op.alternative, op.alternative)
        assert op.alternative is first
    # Many more operations than choices: the records share them.
    assert len(by_choice) < sum(1 for op in report.ops if op.completed)


def test_drained_latex_crowd_holds_no_finished_operation(monkeypatch):
    world, report, generators = _drained_workload_world(monkeypatch,
                                                        "latex-crowd")
    assert generators == drawing_generators(world.spec) == 17
    assert_ops_columnar(report)
    assert report.counters[SPECTRA_FAILOVERS] > 0
    assert_ledgers_bounded(world)
    assert_access_logs_empty(world)
    assert_rows_shared(world)
    assert assert_windows_shared(world) > 0
    assert_usage_names_shared(world)
    assert assert_sample_parts_shared(world) > 0
    assert_conflicts_bounded(world, LATEX_CROWD_CONFLICTS)
    assert_records_share_choices(report)
    assert_history_is_columnar(world)


def test_drained_metro_holds_no_finished_operation(monkeypatch):
    world, report, generators = _drained_workload_world(monkeypatch, "metro")
    assert generators == drawing_generators(world.spec) == 0
    assert_ops_columnar(report)
    assert_ledgers_bounded(world)
    assert_access_logs_empty(world)
    assert_rows_shared(world)
    assert_usage_names_shared(world)
    assert_sample_parts_shared(world)
    assert_conflicts_bounded(world, {})
    assert_records_share_choices(report)
    assert_history_is_columnar(world)


def test_parallel_engines_on_one_server_hold_no_finished_operation():
    # With server-b down, the parallel-engines plan runs EBMT and the
    # glossary on server-a at once: two overlapping requests of one
    # operation, sharing one CPU owner there.
    world = compile_scenario(thinkpad_testbed(PARALLEL_APP))
    app, client = world.clients[0].app, world.clients[0].client
    world.nodes["server-b"].server.available = False
    world.sim.run_process(client.poll_servers())
    assert client.known_servers() == ["server-a"]
    full = {"ebmt": "on", "glossary": "on", "dictionary": "on"}
    (parallel,) = [a for a in app.spec.alternatives(["server-a"])
                   if a.plan.parallelism > 1 and a.fidelity_dict() == full]

    server = world.nodes["server-a"]
    submitted = []
    run = server.host.cpu.run

    def spy(cycles, owner, **kwargs):
        submitted.append(cycles)
        return run(cycles, owner=owner, **kwargs)

    server.host.cpu.run = spy
    report = world.sim.run_process(app.translate(18, force=parallel))
    world.sim.run()
    # Each request reports at least its own service cycles (its window
    # may also hold the other's): everything server-a ran but the two
    # dispatch overheads.
    services = sum(submitted) - 2 * server.server.overhead.rpc_server_cycles
    assert services > 0
    assert report.usage["cpu:remote"] >= services
    assert_ledgers_bounded(world)
    assert_access_logs_empty(world)


@pytest.fixture(scope="module")
def trained_latex():
    return latex._train()


def test_clone_of_a_trained_world_holds_no_finished_operation(trained_latex):
    clone = clone_world(trained_latex)
    for world, _app in (trained_latex, clone):
        assert_ledgers_bounded(world)
        assert_access_logs_empty(world)
        assert_rows_shared(world)
        assert_windows_shared(world)
    world, app = clone
    world.sim.run_process(app.format("large"))
    world.sim.run()
    assert_ledgers_bounded(world)
    assert_access_logs_empty(world)
    assert_rows_shared(world)
    assert_windows_shared(world)
