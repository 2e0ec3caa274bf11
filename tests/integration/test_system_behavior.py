"""Integration tests for cross-cutting system behaviour:

* data consistency through Coda under remote execution,
* self-tuning convergence (predictions improve with executions),
* goal-directed adaptation driving decisions end-to-end,
* the heuristic solver's quality against the exhaustive oracle,
* baseline-policy comparison.
"""

import pytest

from repro.apps import SMALL_DOCUMENT, SpeechWorkload
from repro.experiments.baselines import run_policy_comparison, summarize
from repro.experiments.latex import _build as build_latex
from repro.experiments.speech import _build as build_speech
from repro.solver import ExhaustiveSolver


class TestDataConsistency:
    def test_remote_execution_sees_client_modifications(self, sim=None):
        """Spectra must reintegrate the edited input before running
        remotely: the service on the server reads the *new* version."""
        world, app = build_latex("reintegrate")
        coda = world.nodes["560x"].coda
        main = SMALL_DOCUMENT.main_input
        assert coda.has_pending_store(main)
        version_before = world.fileserver.lookup(main).version

        # Force remote execution; begin_fidelity_op must reintegrate.
        remote_b = next(
            a for a in app.spec.alternatives(["server-a", "server-b"])
            if a.server == "server-b"
        )
        world.sim.run_process(app.format("small", force=remote_b))
        # The buffered store committed: version bumped, CML drained.
        assert world.fileserver.lookup(main).version > version_before
        assert not coda.has_pending_store(main)

    def test_local_execution_leaves_cml_untouched(self):
        world, app = build_latex("reintegrate")
        local = app.spec.alternatives([])[0]
        pending_before = world.nodes["560x"].coda.cml.total_pending_bytes()
        world.sim.run_process(app.format("small", force=local))
        # Local run adds its own dirty outputs; nothing was flushed.
        assert (world.nodes["560x"].coda.cml.total_pending_bytes()
                >= pending_before)


class TestSelfTuning:
    def test_prediction_error_shrinks_with_training(self):
        """'the more an operation is executed, the more accurately its
        resource usage is predicted.'"""
        world, app = build_speech("baseline")
        client = world.nodes["itsy"].client
        probe = SpeechWorkload().probes(1)[0]

        def predicted_vs_actual():
            box = {}

            def op():
                handle = yield from client.begin_fidelity_op(
                    app.spec.name,
                    params={"utterance_length": probe},
                )
                box["handle"] = handle
                vocab = handle.fidelity["vocab"]
                rpc_params = {"utterance_length": probe, "vocab": vocab}
                if handle.plan_name == "local":
                    yield from client.do_local_op(handle, "janus", "full",
                                                  params=rpc_params)
                elif handle.plan_name == "remote":
                    yield from client.do_remote_op(
                        handle, "janus", "full",
                        indata_bytes=int(16_000 * probe), params=rpc_params)
                else:
                    response = yield from client.do_local_op(
                        handle, "janus", "frontend", params=rpc_params)
                    yield from client.do_remote_op(
                        handle, "janus", "recognize",
                        indata_bytes=response.outdata_bytes,
                        params=rpc_params)
                return (yield from client.end_fidelity_op(handle))

            report = world.sim.run_process(op())
            prediction = box["handle"].prediction
            if prediction is None:
                return None
            return abs(prediction.total_time_s - report.elapsed_s) / (
                report.elapsed_s
            )

        errors = [e for e in (predicted_vs_actual() for _ in range(6))
                  if e is not None]
        assert errors, "solver never produced predictions"
        # Late predictions at least as good as the first one.
        assert errors[-1] <= errors[0] + 0.05
        # And genuinely accurate in absolute terms.
        assert errors[-1] < 0.15


class TestGoalDirectedAdaptationEndToEnd:
    def test_rising_importance_flips_speech_to_remote(self):
        """Drive c with the real controller instead of pinning: heavy
        drain against an ambitious goal pushes decisions to the
        energy-frugal remote plan."""
        world, app = build_speech("baseline")
        probe = SpeechWorkload().probes(1)[0]
        report = world.sim.run_process(app.recognize(probe))
        assert report.alternative.plan.name == "hybrid"  # c == 0 baseline

        # An "ambitious battery lifetime goal": the Itsy battery cannot
        # possibly last 10 hours under load, so c climbs.
        world.nodes["itsy"].host.set_lifetime_goal(10 * 3600.0)
        world.nodes["itsy"].host.start_background_load(1)  # drain hard
        world.sim.advance(120.0)
        world.nodes["itsy"].host.stop_background_load()
        assert world.nodes["itsy"].client.host.energy_importance > 0.05
        world.sim.advance(30.0)
        world.poll()
        report = world.sim.run_process(app.recognize(probe))
        # Energy matters now: hybrid (which burns client CPU) loses.
        assert report.alternative.plan.name == "remote"


class TestSolverQualityEndToEnd:
    def test_heuristic_matches_exhaustive_choice_on_speech(self):
        heuristic = build_speech("baseline")
        exhaustive = build_speech("baseline", solver=ExhaustiveSolver())
        probe = SpeechWorkload().probes(1)[0]
        r1 = heuristic[0].sim.run_process(heuristic[1].recognize(probe))
        r2 = exhaustive[0].sim.run_process(exhaustive[1].recognize(probe))
        assert r1.alternative == r2.alternative


class TestPolicyComparison:
    @pytest.fixture(scope="class")
    def outcomes(self):
        return run_policy_comparison(scenarios=("baseline", "filecache"))

    def test_spectra_beats_static_policies_on_average(self, outcomes):
        means = summarize(outcomes)
        assert means["spectra"] > means["always-local"]
        assert means["spectra"] > means["always-remote"]
        assert means["spectra"] >= means["rpf"] - 0.05

    def test_static_policies_break_somewhere(self, outcomes):
        """Each static policy has at least one scenario where it loses
        badly — the motivation for dynamic placement."""
        worst = {}
        for outcome in outcomes:
            worst[outcome.policy] = min(
                worst.get(outcome.policy, 1.0), outcome.relative_utility
            )
        assert worst["always-local"] < 0.7
        assert worst["spectra"] > 0.85
