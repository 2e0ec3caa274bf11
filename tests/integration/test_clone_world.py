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
* the guards — worlds a deep copy cannot reproduce exactly are refused.
"""

import enum
import re
import types
from collections import deque

import pytest

from repro.apps import SpeechWorkload
from repro.experiments import latex, pangloss, speech
from repro.experiments.runner import clone_world
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
    def test_clone_shares_only_immutables_and_shared(self):
        solver = HeuristicSolver()
        trained = pangloss._train(solver=solver)
        clone = clone_world(trained, shared=(solver,))
        original = _reachable(trained, stop=(solver,))
        assert len(original) > 1000  # the walk really saw the world
        offenders = sorted({
            type(obj).__qualname__
            for key, obj in _reachable(clone, stop=(solver,)).items()
            if key in original and obj is not solver
            and not isinstance(obj, _IMMUTABLE)
        })
        assert offenders == []

    def test_running_a_clone_leaves_the_trained_world_unchanged(self):
        trained = _trained("pangloss")
        world, app = trained
        client = world.nodes["560x"].client
        predictor = client.operation(app.spec.name).predictor
        before = (world.sim.now, world.sim.events_processed,
                  len(predictor.log), client.host.energy_consumed_joules())

        result = pangloss._measure_cell(trained, "cpu", PANGLOSS_WORDS, None)

        assert len(result.measurements) > 1
        after = (world.sim.now, world.sim.events_processed,
                 len(predictor.log), client.host.energy_consumed_joules())
        assert after == before
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
        # The memo was copied onto the clone's own log records, so the
        # unchanged windows are not refitted.
        assert [clone_monitor.estimate_to(s, now) for s in servers] == expected
        assert fits == []

        for world, world_app in ((original, app), (clone, clone_app)):
            world.sim.run_process(_latex_op(world_app))
        assert clone.sim.now == original.sim.now
        later = original.sim.now
        assert fits  # the operation's traffic changed the windows
        assert ([clone_monitor.estimate_to(s, later) for s in servers]
                == [monitor.estimate_to(s, later) for s in servers])
