"""Unit tests for the experiment runner helpers and renderers."""

from types import SimpleNamespace

import pytest

from repro.core import OperationSpec, local_plan, remote_plan
from repro.core.plans import Alternative
from repro.experiments.contention import _contention_spec
from repro.experiments.report import (
    render_bar_figure,
    render_overhead_table,
    render_rank_figure,
)
from repro.experiments.overhead import OverheadRow
from repro.experiments.runner import (
    AltMeasurement,
    ScenarioResult,
    SpectraMeasurement,
    best_measurement,
    measure_forced,
    rank_percentile,
    relative_utility,
    score_measurement,
    train_world,
    utility_of,
)
from repro.odyssey import FidelitySpec
from repro.rpc import ServiceUnavailableError
from repro.sim import Simulator


@pytest.fixture
def spec():
    return OperationSpec(
        "op", (local_plan(), remote_plan()),
        FidelitySpec.single("q", ("hi", "lo")),
        fidelity_desirability=lambda p: 1.0 if p["q"] == "hi" else 0.5,
    )


def measurement(spec, plan="local", server=None, q="hi",
                time_s=1.0, energy_j=1.0, feasible=True):
    alternative = Alternative.build(spec.plan(plan), server, {"q": q})
    return AltMeasurement(alternative=alternative, time_s=time_s,
                          energy_j=energy_j, feasible=feasible)


class TestScoring:
    def test_utility_of_matches_default_utility(self, spec):
        m = measurement(spec, time_s=2.0)
        # c=0: utility = (1/T) * fidelity
        assert utility_of(spec, 0.0, 2.0, 1.0, m.alternative) == (
            pytest.approx(0.5)
        )

    def test_infeasible_scores_minus_inf(self, spec):
        m = measurement(spec, feasible=False)
        assert score_measurement(spec, 0.0, m) == float("-inf")

    def test_best_measurement_prefers_high_utility(self, spec):
        slow = measurement(spec, time_s=10.0)
        fast = measurement(spec, plan="remote", server="s", time_s=1.0)
        best, score = best_measurement(spec, 0.0, [slow, fast])
        assert best is fast
        assert score == pytest.approx(1.0)

    def test_best_measurement_requires_feasible(self, spec):
        with pytest.raises(ValueError):
            best_measurement(spec, 0.0, [measurement(spec, feasible=False)])


class TestRanking:
    def test_percentile_of_best_is_99(self, spec):
        best = measurement(spec, plan="remote", server="s", time_s=1.0)
        worst = measurement(spec, time_s=10.0)
        pct = rank_percentile(spec, 0.0, [best, worst], best.alternative)
        assert pct == pytest.approx(99.0)

    def test_percentile_of_worst_is_half(self, spec):
        best = measurement(spec, plan="remote", server="s", time_s=1.0)
        worst = measurement(spec, time_s=10.0)
        pct = rank_percentile(spec, 0.0, [best, worst], worst.alternative)
        assert pct == pytest.approx(49.5)

    def test_unmeasured_choice_rejected(self, spec):
        m = measurement(spec)
        ghost = Alternative.build(spec.plan("remote"), "s", {"q": "lo"})
        with pytest.raises(ValueError):
            rank_percentile(spec, 0.0, [m], ghost)

    def test_relative_utility_with_overhead(self, spec):
        best = measurement(spec, plan="remote", server="s", time_s=1.0)
        worst = measurement(spec, time_s=10.0)
        # Spectra chose best but paid 25% overhead.
        spectra = SpectraMeasurement(choice=best.alternative,
                                     time_s=1.25, energy_j=1.0)
        rel = relative_utility(spec, 0.0, [best, worst], spectra)
        assert rel == pytest.approx(0.8)


class TestScenarioResult:
    def make_result(self, spec):
        best = measurement(spec, plan="remote", server="s", time_s=1.0)
        worst = measurement(spec, time_s=4.0)
        spectra = SpectraMeasurement(choice=best.alternative,
                                     time_s=1.05, energy_j=1.0)
        return ScenarioResult(
            scenario="test", measurements=[best, worst], spectra=spectra,
        )

    def test_accessors(self, spec):
        result = self.make_result(spec)
        assert "remote@s" in result.best_label(spec)
        assert result.percentile(spec) == pytest.approx(99.0)
        assert result.relative_utility(spec) == pytest.approx(1 / 1.05,
                                                              rel=1e-6)


class TestMeasureForced:
    @staticmethod
    def world():
        meter = SimpleNamespace(energy_consumed_joules=lambda: 0.0)
        return SimpleNamespace(sim=Simulator(),
                               nodes={"client": SimpleNamespace(host=meter)})

    @staticmethod
    def raising(exc):
        def op(_force):
            raise exc
            yield  # a generator, as an operation is
        return op

    def test_an_rpc_failure_marks_the_alternative_infeasible(self, spec):
        m = measurement(spec)
        result = measure_forced(
            self.world(), "client",
            self.raising(ServiceUnavailableError("down")), m.alternative)
        assert not result.feasible
        assert (result.time_s, result.energy_j) == (float("inf"),
                                                    float("inf"))

    def test_a_fault_in_the_program_propagates(self, spec):
        m = measurement(spec)
        with pytest.raises(TypeError):
            measure_forced(self.world(), "client",
                           self.raising(TypeError("bug")), m.alternative)


class TestTrainWorld:
    def test_trains_every_client_in_turn_round_robin(self):
        calls = []

        def run(app, item, force):
            calls.append((app, item, force))
            return app.format(item, force=force)

        workload = ["small"] * 5
        world = train_world(_contention_spec(2), workload, run)

        assert len(world.clients) == 2
        assert world.sim.pending == 0
        # Client 0 runs its whole workload before client 1 starts.
        assert [app for app, _item, _force in calls] == (
            [world.clients[0].app] * 5 + [world.clients[1].app] * 5)
        for compiled in world.clients:
            alternatives = compiled.app.spec.alternatives(
                list(compiled.spec.servers))
            assert len(alternatives) == 2
            forced = [force for app, _item, force in calls
                      if app is compiled.app]
            assert forced == [alternatives[i % 2] for i in range(5)]
            log = compiled.client.operation(
                compiled.app.spec.name).predictor.log
            # One usage sample per workload item, from the forced plan.
            assert [s.discrete_dict()["plan"] for s in log] == [
                a.plan.name for a in forced]


class TestRenderers:
    def test_bar_figure_marks_spectra_choice(self, spec):
        result = TestScenarioResult().make_result(spec)
        text = render_bar_figure("Test figure", spec, {"test": result})
        assert "Test figure" in text
        assert "S->" in text
        assert "percentile=99" in text

    def test_bar_figure_energy_metric(self, spec):
        result = TestScenarioResult().make_result(spec)
        text = render_bar_figure("E", spec, {"test": result},
                                 metric="energy")
        assert "J" in text

    def test_bar_figure_infeasible_rendered_as_na(self, spec):
        infeasible = measurement(spec, feasible=False,
                                 time_s=float("inf"),
                                 energy_j=float("inf"))
        ok = measurement(spec, plan="remote", server="s", time_s=1.0)
        result = ScenarioResult(
            scenario="x", measurements=[ok, infeasible],
            spectra=SpectraMeasurement(choice=ok.alternative,
                                       time_s=1.0, energy_j=1.0),
        )
        assert "n/a" in render_bar_figure("T", spec, {"x": result})

    def test_rank_figure_reports_average(self, spec):
        result = TestScenarioResult().make_result(spec)
        text = render_rank_figure("Ranks", spec, {("test", 5): result})
        assert "average relative utility" in text

    def test_overhead_table_layout(self):
        row = OverheadRow(
            n_servers=0, register=0.0012, begin_total=0.0083,
            file_cache_prediction=0.0052, choosing=0.0004,
            begin_other=0.0027, do_local_op=0.0059, end=0.0021,
        )
        text = render_overhead_table("Overhead", [row],
                                     full_cache_ms=359.6)
        assert "0 servers" in text
        assert "359.6" in text
        assert "total" in text
