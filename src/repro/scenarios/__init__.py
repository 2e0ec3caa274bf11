"""Scenario subsystem: declarative worlds, seeded traffic, reproducible runs.

The paper evaluates Spectra on a handful of hand-built scenarios — one
client, one operation at a time.  This package makes scenarios *data*
instead of code:

:mod:`~repro.scenarios.spec`
    :class:`ScenarioSpec` — hosts, links and shared media, apps,
    clients×servers, workload, environment timeline, duration, seed —
    with dict/JSON round-trip and path-qualified validation errors.

:mod:`~repro.scenarios.arrivals`
    Seeded traffic generation: Poisson, fixed-rate, on/off bursty and
    trace-replay arrival processes plus think-time models, all driven
    by sim time and explicit generators.

:mod:`~repro.scenarios.timeline`
    The environment timeline (bandwidth ramps, latency spikes,
    partitions, server churn) compiled onto the existing
    :class:`~repro.faults.FaultSchedule` machinery.

:mod:`~repro.scenarios.compiler`
    :func:`compile_scenario` — spec to live world, reusing
    :class:`~repro.core.SpectraNode`, the network substrate, and the
    per-app adapters.  It is the only place that builds worlds: the
    figure experiments, benchmarks and examples compile specs too.

:mod:`~repro.scenarios.runner`
    :func:`run_scenario` — train, arm the timeline, generate traffic,
    and emit a deterministic JSON :class:`ScenarioReport`.

:mod:`~repro.scenarios.library`
    The canned scenarios (``walk-in-office``, ``flash-crowd``,
    ``degraded-commute``, ``server-churn-day``, ``metro``) behind the
    ``repro scenario`` CLI, plus the paper's two hardware set-ups as
    spec factories (:func:`itsy_testbed`, :func:`thinkpad_testbed`).

:mod:`~repro.scenarios.sweep`
    :func:`run_sweep` — seeded variants of one scenario fanned across
    worker processes and merged into one deterministic document
    (``repro scenario sweep --jobs N``).
"""

from .arrivals import derive_seed, generate_arrivals, think_time
from .compiler import (
    ADAPTERS,
    AppAdapter,
    CompiledClient,
    CompiledScenario,
    compile_scenario,
)
from .library import SCENARIOS, canned_spec, itsy_testbed, thinkpad_testbed
from .runner import (
    OpRecord,
    ScenarioReport,
    render_report,
    run_scenario,
    smoke_spec,
)
from .spec import (
    AppSpec,
    ArrivalSpec,
    ClientSpec,
    HostSpec,
    LinkSpec,
    MediumSpec,
    ScenarioError,
    ScenarioSpec,
    ThinkSpec,
    TimelineEventSpec,
)
from .sweep import run_sweep, sweep_to_json, variant_seeds
from .timeline import compile_timeline

__all__ = [
    "ADAPTERS",
    "AppAdapter",
    "AppSpec",
    "ArrivalSpec",
    "ClientSpec",
    "CompiledClient",
    "CompiledScenario",
    "HostSpec",
    "LinkSpec",
    "MediumSpec",
    "OpRecord",
    "SCENARIOS",
    "ScenarioError",
    "ScenarioReport",
    "ScenarioSpec",
    "ThinkSpec",
    "TimelineEventSpec",
    "canned_spec",
    "compile_scenario",
    "compile_timeline",
    "derive_seed",
    "generate_arrivals",
    "itsy_testbed",
    "render_report",
    "run_scenario",
    "run_sweep",
    "smoke_spec",
    "sweep_to_json",
    "thinkpad_testbed",
    "think_time",
    "variant_seeds",
]
