"""Unit tests for the application models (repro.apps)."""

import pytest

from repro.apps import (
    ENGINE_FIDELITY,
    LARGE_DOCUMENT,
    SMALL_DOCUMENT,
    LatexModel,
    PanglossModel,
    SpeechModel,
    active_engines,
    make_latex_spec,
    make_null_spec,
    make_pangloss_spec,
    make_speech_spec,
    pangloss_fidelity_desirability,
    pangloss_plans,
    speech_fidelity_desirability,
)
from repro.apps.workloads import LatexWorkload, SentenceWorkload, SpeechWorkload


class TestSpeechModel:
    def test_reduced_vocabulary_is_cheaper(self):
        model = SpeechModel()
        assert model.recognize_cycles(2.0, "reduced") < (
            model.recognize_cycles(2.0, "full")
        )

    def test_cycles_scale_with_length(self):
        model = SpeechModel()
        assert model.recognize_cycles(4.0, "full") == pytest.approx(
            2 * model.recognize_cycles(2.0, "full")
        )

    def test_unknown_vocab_rejected(self):
        with pytest.raises(ValueError):
            SpeechModel().recognize_cycles(1.0, "huge")

    def test_lm_paths(self):
        model = SpeechModel()
        assert model.lm_path("full").endswith("lm.full")
        assert model.lm_path("reduced").endswith("lm.reduced")

    def test_fidelity_desirabilities_match_paper(self):
        assert speech_fidelity_desirability({"vocab": "full"}) == 1.0
        assert speech_fidelity_desirability({"vocab": "reduced"}) == 0.5

    def test_spec_shape(self):
        spec = make_speech_spec()
        assert {p.name for p in spec.plans} == {"local", "remote", "hybrid"}
        assert spec.fidelity.size() == 2
        # 3 plans x 2 fidelities with one server, minus nothing = 6
        assert len(spec.alternatives(["t20"])) == 6
        assert spec.input_params == ("utterance_length",)


class TestLatexModel:
    def test_cycles_scale_with_pages_and_complexity(self):
        model = LatexModel()
        base = model.cycles(10)
        assert model.cycles(20) > base
        assert model.cycles(10, complexity=2.0) == pytest.approx(2 * base)

    def test_paper_documents(self):
        assert SMALL_DOCUMENT.pages == 14
        assert LARGE_DOCUMENT.pages == 123
        # The reintegrate scenario's edited file is 70 KB.
        assert SMALL_DOCUMENT.inputs[0][1] == 70 * 1024

    def test_documents_live_in_separate_volumes(self):
        assert SMALL_DOCUMENT.volume != LARGE_DOCUMENT.volume
        small_paths = {p for p, _s in SMALL_DOCUMENT.input_paths}
        large_paths = {p for p, _s in LARGE_DOCUMENT.input_paths}
        assert not small_paths & large_paths

    def test_main_input_is_data_object_key(self):
        assert SMALL_DOCUMENT.main_input == "/latex-small/main.tex"

    def test_output_paths(self):
        outputs = dict(SMALL_DOCUMENT.output_paths)
        assert "/latex-small/small.dvi" in outputs
        assert outputs["/latex-small/small.dvi"] == SMALL_DOCUMENT.dvi_bytes

    def test_spec_shape(self):
        spec = make_latex_spec()
        assert {p.name for p in spec.plans} == {"local", "remote"}
        assert spec.fidelity.size() == 1
        assert spec.data_parameterized


class TestPanglossModel:
    def test_component_cycles_linear_in_words(self):
        model = PanglossModel()
        for component in ("ebmt", "glossary", "dictionary", "lm"):
            short = model.cycles(component, 5.0)
            long = model.cycles(component, 10.0)
            assert long > short

    def test_ebmt_dominates_dictionary(self):
        model = PanglossModel()
        assert model.cycles("ebmt", 10.0) > 10 * model.cycles("dictionary", 10.0)

    def test_unknown_component_rejected(self):
        with pytest.raises(AttributeError):
            PanglossModel().cycles("oracle", 1.0)

    def test_fidelity_is_additive(self):
        all_on = {"ebmt": "on", "glossary": "on", "dictionary": "on"}
        assert pangloss_fidelity_desirability(all_on) == pytest.approx(1.0)
        no_gloss = dict(all_on, glossary="off")
        assert pangloss_fidelity_desirability(no_gloss) == pytest.approx(0.7)
        all_off = {e: "off" for e in all_on}
        assert pangloss_fidelity_desirability(all_off) == 0.0

    def test_paper_engine_weights(self):
        assert ENGINE_FIDELITY == {"ebmt": 0.5, "glossary": 0.3,
                                   "dictionary": 0.2}

    def test_active_engines_order(self):
        point = {"ebmt": "on", "glossary": "off", "dictionary": "on"}
        assert active_engines(point) == ["ebmt", "dictionary"]

    def test_plans_place_every_component(self):
        for plan in pangloss_plans():
            for component in ("ebmt", "glossary", "dictionary", "lm"):
                assert plan.role_of(component) in ("local", "remote")

    def test_alternative_count_near_paper_hundred(self):
        spec = make_pangloss_spec()
        count = len(spec.alternatives(["server-a", "server-b"]))
        # The paper reports ~100 combinations of location and fidelity.
        assert 80 <= count <= 110

    def test_local_plan_has_no_remote_components(self):
        local = next(p for p in pangloss_plans() if p.name == "local")
        assert not local.uses_remote
        for component in ("ebmt", "glossary", "dictionary", "lm"):
            assert local.role_of(component) == "local"


class TestNullSpec:
    def test_no_servers_variant_is_local_only(self):
        spec = make_null_spec(remote=False)
        assert len(spec.plans) == 1
        assert not spec.plans[0].uses_remote

    def test_remote_variant(self):
        spec = make_null_spec(remote=True)
        assert {p.name for p in spec.plans} == {"local", "remote"}


class TestWorkloads:
    def test_speech_training_deterministic(self):
        w = SpeechWorkload()
        assert w.training(15) == w.training(15)
        assert len(w.training(15)) == 15
        assert all(length >= w.min_length_s for length in w.training(15))

    def test_speech_probes_differ_from_training(self):
        w = SpeechWorkload()
        assert w.probes(3) != w.training(3)

    def test_sentence_workload_matches_paper_counts(self):
        w = SentenceWorkload()
        assert len(w.training(129)) == 129
        probes = w.probes()
        assert len(probes) == 5
        assert probes == sorted(probes)  # smallest to largest

    def test_latex_workload_alternates(self):
        runs = LatexWorkload().training(6)
        assert runs == ["small", "large"] * 3
