"""Unit tests for the declarative scenario model (repro.scenarios.spec)."""

import dataclasses

import pytest

from repro.scenarios import (
    SCENARIOS,
    ScenarioError,
    ScenarioSpec,
    canned_spec,
    compile_scenario,
    itsy_testbed,
    thinkpad_testbed,
)
from repro.scenarios.library import SERIAL_BANDWIDTH_BPS, WIRED_BANDWIDTH_BPS
from repro.scenarios.spec import (
    AppSpec,
    ArrivalSpec,
    ClientSpec,
    TimelineEventSpec,
)

CANNED = ("walk-in-office", "flash-crowd", "degraded-commute",
          "server-churn-day", "metro", "chaos-speech", "chaos-latex")


def small_spec(**overrides) -> ScenarioSpec:
    """A minimal valid spec to mutate in error tests."""
    base = dict(
        name="tiny",
        description="one client, one server",
        duration_s=10.0,
        hosts=[
            dict(name="c", profile="ibm-560x", role="client"),
            dict(name="s", profile="server-b"),
        ],
        links=[
            dict(a="c", b="s", bandwidth_bps=250_000.0, latency_s=0.002),
            dict(a="c", b="fs", bandwidth_bps=250_000.0, latency_s=0.002),
            dict(a="s", b="fs", bandwidth_bps=500_000.0, latency_s=0.001),
        ],
        apps=[dict(kind="null")],
        clients=[dict(host="c", app="null", servers=["s"])],
    )
    base.update(overrides)
    return ScenarioSpec.from_dict(base)


def problems_of(spec: ScenarioSpec):
    with pytest.raises(ScenarioError) as excinfo:
        spec.validate()
    return excinfo.value.problems


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = small_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_canned(self):
        for name in CANNED:
            spec = canned_spec(name)
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_unknown_key_rejected_with_path(self):
        data = small_spec().to_dict()
        data["clients"][0]["thonk"] = 1
        with pytest.raises(ScenarioError) as excinfo:
            ScenarioSpec.from_dict(data)
        assert "clients[0]" in str(excinfo.value)
        assert "thonk" in str(excinfo.value)

    def test_bad_json_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match="not valid JSON"):
            ScenarioSpec.from_json("{nope")


class TestValidation:
    def test_valid_spec_returns_self(self):
        spec = small_spec()
        assert spec.validate() is spec

    def test_unknown_host_profile(self):
        spec = small_spec(hosts=[
            dict(name="c", profile="cray-1", role="client"),
            dict(name="s", profile="server-b"),
        ])
        assert any("hosts[0].profile" in p and "cray-1" in p
                   for p in problems_of(spec))

    def test_duplicate_host(self):
        spec = small_spec(hosts=[
            dict(name="c", profile="ibm-560x", role="client"),
            dict(name="c", profile="server-b"),
            dict(name="s", profile="server-b"),
        ])
        assert any("duplicate host" in p for p in problems_of(spec))

    def test_two_clients_on_one_host(self):
        # Their operations would share one report section and energy
        # meter, with every operation index repeated.
        spec = small_spec(apps=[dict(kind="null"), dict(kind="pangloss")],
                          clients=[dict(host="c", app="null", servers=["s"]),
                                   dict(host="c", app="pangloss",
                                        servers=["s"])])
        assert problems_of(spec) == (
            "clients[1].host: 'c' already drives a client",)

    def test_link_to_unknown_host(self):
        spec = small_spec(links=[
            dict(a="c", b="ghost", bandwidth_bps=1000.0, latency_s=0.0),
        ])
        assert any("links[0].b" in p and "ghost" in p
                   for p in problems_of(spec))

    def test_medium_link_exclusivity(self):
        spec = small_spec(
            media=[dict(name="air", bandwidth_bps=1000.0)],
            links=[dict(a="c", b="s", medium="air", bandwidth_bps=9.0)],
        )
        assert any("links[0].bandwidth_bps" in p for p in problems_of(spec))

    def test_dangling_server_ref(self):
        spec = small_spec(clients=[
            dict(host="c", app="null", servers=["nowhere"]),
        ])
        assert any("clients[0].servers[0]" in p and "nowhere" in p
                   for p in problems_of(spec))

    def test_server_must_run_the_app(self):
        spec = small_spec(apps=[dict(kind="null", hosts=["c"])])
        assert any("does not run app" in p for p in problems_of(spec))

    def test_negative_arrival_rate(self):
        spec = small_spec(clients=[
            dict(host="c", app="null", servers=["s"],
                 arrivals=dict(kind="poisson", rate_ops_per_s=-1.0)),
        ])
        assert any("rate_ops_per_s" in p and "positive" in p
                   for p in problems_of(spec))

    def test_timeline_value_and_declared_link(self):
        spec = small_spec(timeline=[
            dict(at_s=1.0, kind="bandwidth", target=["s", "fs"], value=2.0),
            dict(at_s=1.0, kind="bandwidth", target=["c", "ghost"],
                 value=0.5),
        ])
        problems = problems_of(spec)
        assert any("timeline[0].value" in p for p in problems)
        assert any("timeline[1]" in p and "ghost" in p for p in problems)

    def test_all_problems_collected_at_once(self):
        spec = small_spec(
            duration_s=-1.0,
            clients=[dict(host="ghost", app="nope")],
        )
        assert len(problems_of(spec)) >= 3

    def test_client_host_must_have_client_role(self):
        spec = small_spec(clients=[dict(host="s", app="null")])
        assert any("role" in p for p in problems_of(spec))

    def test_reversed_pair_target_matches_declared_link(self):
        spec = small_spec(timeline=[
            dict(at_s=1.0, kind="partition", target=["s", "c"],
                 until_s=2.0),
        ])
        assert spec.validate() is spec


def anchored(**anchor) -> ScenarioSpec:
    """small_spec crashing server ``s`` inside one of ``c``'s ops."""
    event = dict(at_s=0.0, kind="server_down", target="s",
                 anchor=dict(dict(client="c", op=0, fraction=0.5), **anchor))
    return small_spec(timeline=[event])


class TestAnchoredEvents:
    def test_valid_anchor_round_trips(self):
        spec = anchored(recover_after_s=5.0)
        assert spec.validate() is spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert spec.timeline[0].anchor.recover_after_s == 5.0

    def test_unanchored_events_serialize_without_an_anchor_key(self):
        spec = small_spec(timeline=[
            dict(at_s=1.0, kind="server_down", target="s", until_s=2.0),
        ])
        assert "anchor" not in spec.to_dict()["timeline"][0]

    def test_fraction_bounds(self):
        for fraction in (0.0, 1.0, 1.5):
            assert any("timeline[0].anchor.fraction" in p
                       for p in problems_of(anchored(fraction=fraction)))

    def test_negative_op_index(self):
        assert any("timeline[0].anchor.op" in p
                   for p in problems_of(anchored(op=-1)))

    def test_unknown_or_non_client_host(self):
        assert any("timeline[0].anchor.client" in p and "ghost" in p
                   for p in problems_of(anchored(client="ghost")))
        assert any("timeline[0].anchor.client" in p and "drives no" in p
                   for p in problems_of(anchored(client="s")))

    def test_recovery_is_a_positive_delay(self):
        spec = dataclasses.replace(anchored(), timeline=(
            dataclasses.replace(anchored().timeline[0], until_s=5.0),))
        assert any("timeline[0].until_s" in p for p in problems_of(spec))
        assert any("timeline[0].anchor.recover_after_s" in p
                   for p in problems_of(anchored(recover_after_s=0.0)))

    def test_anchored_event_keeps_at_s_zero(self):
        spec = dataclasses.replace(anchored(), timeline=(
            dataclasses.replace(anchored().timeline[0], at_s=3.0),))
        assert any("timeline[0].at_s" in p for p in problems_of(spec))

    def test_unknown_anchor_key_rejected_with_path(self):
        with pytest.raises(ScenarioError, match=r"timeline\[0\]\.anchor"):
            anchored(when=1)


def app_spec(kind: str, options: dict) -> ScenarioSpec:
    """small_spec running app *kind* with *options* on both hosts."""
    return small_spec(apps=[dict(kind=kind, options=options)],
                      clients=[dict(host="c", app=kind, servers=["s"])])


class TestAppOptions:
    def test_unknown_key_is_named_with_the_known_keys(self):
        problems = problems_of(app_spec("speech", {"mean_len_s": 50}))
        assert len(problems) == 1
        assert problems[0].startswith("apps[0].options.mean_len_s:")
        for known in ("mean_length_s", "min_length_s", "spread_s"):
            assert known in problems[0]

    def test_bad_value_fails_validation_not_the_run(self):
        problems = problems_of(app_spec("speech", {"mean_length_s": "abc"}))
        assert len(problems) == 1
        assert problems[0].startswith("apps[0].options.mean_length_s:")
        assert "expected a number" in problems[0]

    def test_unknown_latex_document_fails_validation(self):
        spec = app_spec("latex", {"documents": ["small", "thesis"]})
        problems = problems_of(spec)
        assert len(problems) == 1
        assert problems[0].startswith("apps[0].options.documents:")
        assert "thesis" in problems[0]
        assert "large, small" in problems[0]
        with pytest.raises(ScenarioError):
            compile_scenario(spec)

    def test_options_of_an_app_without_any(self):
        problems = problems_of(app_spec("null", {"parallel": True}))
        assert problems == ("apps[0].options.parallel: unknown null "
                            "option (known: none)",)

    @pytest.mark.parametrize("kind,options", [
        ("speech", {"mean_length_s": 1.5, "spread_s": 0.5,
                    "min_length_s": 1}),
        ("latex", {"documents": ["small", "large"], "warm_outputs": False}),
        ("pangloss", {"parallel": True}),
        ("null", {}),
    ])
    def test_every_key_in_use_passes(self, kind, options):
        spec = app_spec(kind, options)
        assert spec.validate() is spec


class TestPaperTestbeds:
    SPECS = {
        "itsy": itsy_testbed,
        "thinkpad-latex": lambda: thinkpad_testbed(AppSpec(kind="latex")),
        "thinkpad-twin-pangloss": lambda: thinkpad_testbed(
            AppSpec(kind="pangloss", options={"parallel": True}), twin=True),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_validates_and_round_trips(self, name):
        spec = self.SPECS[name]()
        assert spec.validate() is spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_not_registered_as_canned_scenarios(self):
        names = {factory().name for factory in self.SPECS.values()}
        assert names.isdisjoint(SCENARIOS)
        assert itsy_testbed not in SCENARIOS.values()

    def test_twin_gives_server_a_the_server_b_profile(self):
        plain = thinkpad_testbed(AppSpec(kind="null"))
        twin = thinkpad_testbed(AppSpec(kind="null"), twin=True)
        assert [h.profile for h in plain.hosts] == [
            "ibm-560x", "server-a", "server-b"]
        assert [h.profile for h in twin.hosts] == [
            "ibm-560x", "server-b", "server-b"]

    def test_itsy_and_file_server_share_the_one_serial_wire(self):
        world = compile_scenario(itsy_testbed())
        assert list(world.media) == ["serial"]
        serial = world.media["serial"]
        assert serial.bandwidth_bps == SERIAL_BANDWIDTH_BPS == 14_400.0
        to_t20 = world.network.link_between("itsy", "t20")
        to_fs = world.network.link_between("itsy", "fs")
        assert (to_t20.name, to_fs.name) == ("itsy-t20", "itsy-fs")
        # One capacity pool: throttling either view throttles the wire.
        to_t20.set_bandwidth(SERIAL_BANDWIDTH_BPS / 2.0)
        assert to_fs.bandwidth_bps == serial.bandwidth_bps == 7_200.0
        # The T20 reaches the file server over its own wired link.
        t20_fs = world.network.link_between("t20", "fs")
        assert t20_fs.bandwidth_bps == WIRED_BANDWIDTH_BPS


class TestCannedLibrary:
    def test_every_canned_spec_validates(self):
        for name in CANNED:
            assert canned_spec(name).name == name

    def test_unknown_canned_name(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            canned_spec("no-such-world")

    def test_specs_are_fresh_equal_objects(self):
        a, b = canned_spec("flash-crowd"), canned_spec("flash-crowd")
        assert a == b
        assert dataclasses.replace(a, seed=999) != b


class TestTimelineEventSpec:
    def test_host_target_has_no_pair(self):
        event = TimelineEventSpec(at_s=0.0, kind="server_down", target="s")
        assert event.pair_target is None

    def test_list_target_becomes_pair(self):
        event = TimelineEventSpec(at_s=0.0, kind="bandwidth",
                                  target=("a", "b"), value=0.5)
        assert event.pair_target == ("a", "b")


class TestClientSpecDefaults:
    def test_default_arrivals_is_single_shot_trace(self):
        client = ClientSpec(host="c", app="null")
        assert client.arrivals == ArrivalSpec(kind="trace", times=(0.0,))
