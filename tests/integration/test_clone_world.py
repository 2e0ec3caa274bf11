"""Integration tests: train once, measure every alternative on a clone.

The figure experiments train one compiled world per call and run each
measurement on a :func:`~repro.experiments.runner.clone_world` copy of
it.  These tests hold that to the old methodology:

* equivalence — a clone of the trained world with the scenario applied
  measures exactly what a freshly built ``_build(scenario)`` world
  measures (forced alternative and Spectra's own choice);
* isolation — the clone shares no mutable object with the trained world
  except what the caller asked to share, and running it leaves the
  trained world untouched;
* sharing — the clone does share the trained world's frozen log
  records, and its own logs and models grow without touching the
  original's;
* the guards — worlds a deep copy cannot reproduce exactly are refused.
"""

import dataclasses
import enum
import re
import types
from collections import deque

import pytest

from repro.apps import SpeechWorkload
from repro.experiments import latex, pangloss, speech
from repro.experiments.runner import clone_world
from repro.network import TransferRecord
from repro.solver import HeuristicSolver
from repro.telemetry import SpanTracer, Telemetry
from tests.unit.test_monitors import count_fits

LATEX_DOCUMENT = "small"
PANGLOSS_WORDS = 10


def _speech_op(app, force=None):
    return app.recognize(SpeechWorkload().probes(1)[0], force=force)


def _latex_op(app, force=None):
    return app.format(LATEX_DOCUMENT, force=force)


def _pangloss_op(app, force=None):
    return app.translate(PANGLOSS_WORDS, force=force)


#: experiment -> (module, op factory, client host name, servers,
#: apply_scenario(world, app, scenario))
EXPERIMENTS = {
    "speech": (speech, _speech_op, "itsy", ["t20"],
               lambda world, _app, s: speech._apply_scenario(world, s)),
    "latex": (latex, _latex_op, "560x", ["server-a", "server-b"],
              latex._apply_scenario),
    "pangloss": (pangloss, _pangloss_op, "560x",
                 ["server-a", "server-b"],
                 lambda world, _app, s: pangloss._apply_scenario(world, s)),
}

#: experiment -> measure(trained world): one scenario's full set of
#: measurements, every one on a clone of *trained*
MEASURE_ONE_SCENARIO = {
    "speech": lambda trained: speech._measure_scenario(
        trained, "network", None, None),
    "latex": lambda trained: latex._measure_cell(
        trained, "reintegrate", LATEX_DOCUMENT, None),
    "pangloss": lambda trained: pangloss._measure_cell(
        trained, "cpu", PANGLOSS_WORDS, None),
}

CASES = [(name, scenario)
         for name, (module, *_rest) in EXPERIMENTS.items()
         for scenario in module.SCENARIOS]

_trained_cache = {}


def _trained(name):
    if name not in _trained_cache:
        _trained_cache[name] = EXPERIMENTS[name][0]._train()
    return _trained_cache[name]


def _outcome(name, world, force=None):
    """(time, client energy, choice) of one operation on *world*."""
    _module, op, host_name, _servers, _apply = EXPERIMENTS[name]
    compiled, app = world
    host = compiled.nodes[host_name].host
    e0 = host.energy_consumed_joules()
    report = compiled.sim.run_process(op(app, force=force))
    return (report.elapsed_s, host.energy_consumed_joules() - e0,
            report.alternative)


def _clone_with_scenario(name, scenario):
    apply = EXPERIMENTS[name][4]
    world, app = clone_world(_trained(name))
    apply(world, app, scenario)
    return world, app


class TestEquivalence:
    @pytest.mark.parametrize("name,scenario", CASES)
    def test_clone_measures_like_a_fresh_build(self, name, scenario):
        module, _op, _host, servers, _apply = EXPERIMENTS[name]
        fresh = module._build(scenario)
        cloned = _clone_with_scenario(name, scenario)
        # A local alternative is feasible in every scenario.
        forced = fresh[1].spec.alternatives(servers)[0]
        assert forced.plan.name == "local"
        assert (_outcome(name, fresh, force=forced)
                == _outcome(name, cloned, force=forced))
        assert _outcome(name, fresh) == _outcome(name, cloned)


# -- isolation --------------------------------------------------------------------


#: Types whose instances never change, so sharing them is harmless.
_IMMUTABLE = (type(None), bool, int, float, complex, str, bytes, range,
              tuple, frozenset, enum.Enum, re.Pattern, type,
              types.ModuleType, types.FunctionType,
              types.BuiltinFunctionType, types.CodeType,
              type(Ellipsis), type(NotImplemented))


def _immutable(obj):
    """Is *obj* itself unchangeable?  A frozen dataclass instance counts;
    :func:`_reachable` still walks into its fields, so a mutable field
    value it shares is still reported on its own."""
    if isinstance(obj, _IMMUTABLE):
        return True
    params = getattr(obj, "__dataclass_params__", None)
    return (dataclasses.is_dataclass(obj) and not isinstance(obj, type)
            and params.frozen)


def _children(obj):
    """Objects *obj* refers to, not descending into modules, classes,
    code objects or function globals."""
    if isinstance(obj, (types.ModuleType, type, types.CodeType)):
        return
    if isinstance(obj, dict):
        yield from obj.keys()
        yield from obj.values()
    elif isinstance(obj, (list, tuple, set, frozenset, deque)):
        yield from obj
    if isinstance(obj, types.FunctionType):
        for cell in obj.__closure__ or ():
            try:
                yield cell.cell_contents
            except ValueError:  # empty cell
                pass
        yield from obj.__defaults__ or ()
        yield from (obj.__kwdefaults__ or {}).values()
        return
    if isinstance(obj, types.MethodType):
        yield obj.__self__
        yield obj.__func__
        return
    attrs = getattr(obj, "__dict__", None)
    if isinstance(attrs, dict):
        yield from attrs.values()
    for klass in type(obj).__mro__:
        slots = klass.__dict__.get("__slots__", ())
        for slot in (slots,) if isinstance(slots, str) else slots:
            if slot in ("__dict__", "__weakref__"):
                continue
            try:
                yield getattr(obj, slot)
            except AttributeError:  # unset slot
                pass


def _reachable(root, stop=()):
    """id -> object for everything reachable from *root*, not walking
    into the objects in *stop*."""
    stop_ids = {id(o) for o in stop}
    seen = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if id(obj) in stop_ids:
            continue
        stack.extend(_children(obj))
    return seen


class TestIsolation:
    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_clone_shares_only_immutables_and_shared(self, name):
        solver = HeuristicSolver()
        trained = EXPERIMENTS[name][0]._train(solver=solver)
        clone = clone_world(trained, shared=(solver,))
        original = _reachable(trained, stop=(solver,))
        assert len(original) > 1000  # the walk really saw the world
        offenders = sorted({
            type(obj).__qualname__
            for key, obj in _reachable(clone, stop=(solver,)).items()
            if key in original and obj is not solver
            and not _immutable(obj)
        })
        assert offenders == []

    def test_a_frozen_record_with_a_mutable_field_is_still_reported(self):
        @dataclasses.dataclass(frozen=True)
        class Box:
            items: list

        box = Box([1])
        assert _immutable(box) and not _immutable(box.items)
        assert id(box.items) in _reachable(box)

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_running_a_clone_leaves_the_trained_world_unchanged(self, name):
        trained = _trained(name)
        world, app = trained
        client = world.nodes[EXPERIMENTS[name][2]].client
        predictor = client.operation(app.spec.name).predictor
        log = world.network.log

        def state():
            return (world.sim.now, world.sim.events_processed,
                    len(predictor.log), len(log),
                    log.transfers, log.bytes,
                    client.host.energy_consumed_joules())

        before = state()
        result = MEASURE_ONE_SCENARIO[name](trained)

        assert len(result.measurements) > 1
        assert state() == before
        assert world.sim.pending == 0

    def test_shared_solver_is_kept_by_reference(self):
        solver = HeuristicSolver()
        trained = speech._train(solver=solver)
        clone, _app = clone_world(trained, shared=(solver,))
        assert clone.nodes["itsy"].client.solver is solver
        assert trained[0].nodes["itsy"].client.solver is solver
        # Without sharing, the solver is copied like everything else.
        unshared, _app = clone_world(trained)
        assert unshared.nodes["itsy"].client.solver is not solver


def _predictor(world, app, name):
    client = world.nodes[EXPERIMENTS[name][2]].client
    return client.operation(app.spec.name).predictor


class TestSharing:
    """A clone shares the trained world's frozen records and copies only
    the lists that hold them."""

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_clone_shares_the_logged_records(self, name):
        _module, _op, host, servers, _apply = EXPERIMENTS[name]
        original, app = _trained(name)
        clone, clone_app = clone_world((original, app))
        windows = [dict(host=host)] + [dict(endpoint=(host, server))
                                       for server in servers]
        for window in windows:
            records = original.network.log.recent(0.0, **window)
            cloned = clone.network.log.recent(0.0, **window)
            assert len(cloned) == len(records)
            assert all(a is b for a, b in zip(cloned, records))
        assert original.network.log.recent(0.0, host=host)

        samples = list(_predictor(original, app, name).log)
        cloned = list(_predictor(clone, clone_app, name).log)
        assert samples and len(cloned) == len(samples)
        assert all(a is b for a, b in zip(cloned, samples))

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_appending_to_a_clone_leaves_the_original_unchanged(self, name):
        _module, _op, host, servers, _apply = EXPERIMENTS[name]
        original, app = _trained(name)
        clone, clone_app = clone_world((original, app))
        sample = _predictor(original, app, name).log.samples()[-1]

        def state(world, world_app):
            log = world.network.log
            predictor = _predictor(world, world_app, name)
            models = predictor._models
            return (len(log), log.transfers, log.bytes,
                    log.recent(0.0, host=host), list(predictor.log),
                    {resource: (model._general.n_samples, model.predict(
                        sample.discrete_dict(), sample.continuous_dict(),
                        data_object=sample.data_object))
                     for resource, model in models.items()})

        before = state(original, app)
        assert state(clone, clone_app) == before

        now = clone.sim.now
        clone.network.log.append(
            TransferRecord(host, servers[0], 12_345, now, now + 1.0))
        predictor = _predictor(clone, clone_app, name)
        for _ in range(5):
            predictor.observe_operation(
                now, sample.discrete_dict(), sample.continuous_dict(),
                {resource: 10.0 * value + 1.0
                 for resource, value in sample.usage},
                data_object=sample.data_object)

        changed = state(clone, clone_app)
        assert all(a != b for a, b in zip(changed, before))
        assert state(original, app) == before


class TestGuards:
    def test_refuses_a_world_with_queued_callbacks(self):
        world, app = speech._train()
        world.sim.call_in(1.0, lambda: None)
        assert world.sim.pending == 1
        with pytest.raises(ValueError, match="queued"):
            clone_world((world, app))
        world.sim.run()
        assert world.sim.pending == 0
        clone_world((world, app))

    def test_refuses_a_world_with_enabled_telemetry(self):
        tracer = SpanTracer(lambda record: None)
        world = speech._train(telemetry=Telemetry(tracer=tracer))
        assert world[0].sim.pending == 0
        with pytest.raises(ValueError, match="telemetry"):
            clone_world(world)

    def test_clones_a_world_with_metrics_only_telemetry(self):
        telemetry = Telemetry()
        trained = speech._train(telemetry=telemetry)
        before = telemetry.metrics.to_dict()
        assert before["spectra.ops.begun"]["value"] > 0

        clone, app = clone_world(trained)
        cloned = clone.sim.telemetry
        assert cloned is not telemetry
        assert cloned.metrics is not telemetry.metrics
        assert cloned.metrics.to_dict() == before
        clone.sim.run_process(_speech_op(app))
        # The clone counted its operation into its own registry only.
        assert (cloned.metrics.counter("spectra.ops.begun").value
                == before["spectra.ops.begun"]["value"] + 1)
        assert telemetry.metrics.to_dict() == before

    def test_refuses_a_running_simulator(self):
        world, app = speech._train()
        errors = []

        def attempt():
            try:
                clone_world((world, app))
            except ValueError as exc:
                errors.append(exc)

        world.sim.call_in(1.0, attempt)
        world.sim.run()
        assert len(errors) == 1 and "running=True" in str(errors[0])


class TestNetworkFitMemo:
    def test_clone_and_original_estimate_alike(self):
        servers = EXPERIMENTS["latex"][3]
        original, app = latex._train()
        monitor = original.nodes["560x"].client.network_monitor
        now = original.sim.now
        expected = [monitor.estimate_to(server, now) for server in servers]
        assert monitor._fits  # the trained world has fitted windows

        clone, clone_app = clone_world((original, app))
        clone_monitor = clone.nodes["560x"].client.network_monitor
        fits = count_fits(clone_monitor)
        # The clone shares the trained world's frozen log records, so the
        # memo's records are the clone's own and the unchanged windows are
        # not refitted.
        assert [clone_monitor.estimate_to(s, now) for s in servers] == expected
        assert fits == []

        for world, world_app in ((original, app), (clone, clone_app)):
            world.sim.run_process(_latex_op(world_app))
        assert clone.sim.now == original.sim.now
        later = original.sim.now
        assert fits  # the operation's traffic changed the windows
        assert ([clone_monitor.estimate_to(s, later) for s in servers]
                == [monitor.estimate_to(s, later) for s in servers])
