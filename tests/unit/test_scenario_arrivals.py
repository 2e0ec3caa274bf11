"""Unit tests for seeded traffic generation (repro.scenarios.arrivals)."""

import dataclasses
import random

import pytest

from repro.scenarios import derive_seed, generate_arrivals, think_time
from repro.scenarios.arrivals import MAX_ARRIVALS
from repro.scenarios.spec import ArrivalSpec, ThinkSpec


def gen(spec, seed=7, duration=100.0):
    return generate_arrivals(spec, random.Random(seed), duration)


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(17, "arrivals", "c0") == \
            derive_seed(17, "arrivals", "c0")

    def test_distinct_per_path(self):
        seeds = {
            derive_seed(17, "arrivals", "c0"),
            derive_seed(17, "arrivals", "c1"),
            derive_seed(17, "think", "c0"),
            derive_seed(18, "arrivals", "c0"),
        }
        assert len(seeds) == 4

    def test_known_value(self):
        # CRC32 derivation is platform-independent: pin one value so a
        # silent change to the scheme (which would shift every canned
        # report) fails loudly.
        assert derive_seed(0, "x") == 2363233923


class TestGenerateArrivals:
    def test_poisson_same_seed_same_times(self):
        spec = ArrivalSpec(kind="poisson", rate_ops_per_s=0.5)
        assert gen(spec, seed=3) == gen(spec, seed=3)

    def test_poisson_different_seed_different_times(self):
        spec = ArrivalSpec(kind="poisson", rate_ops_per_s=0.5)
        assert gen(spec, seed=3) != gen(spec, seed=4)

    def test_sorted_and_inside_duration(self):
        for kind in ("poisson", "onoff"):
            spec = ArrivalSpec(kind=kind, rate_ops_per_s=1.0,
                               on_s=5.0, off_s=5.0)
            times = gen(spec, duration=50.0)
            assert times == sorted(times)
            assert all(0.0 <= t < 50.0 for t in times)

    def test_fixed_is_an_even_grid(self):
        spec = ArrivalSpec(kind="fixed", rate_ops_per_s=0.25)
        assert gen(spec, duration=10.0) == [4.0, 8.0]

    def test_onoff_silent_in_off_windows(self):
        spec = ArrivalSpec(kind="onoff", rate_ops_per_s=5.0,
                           on_s=10.0, off_s=10.0)
        times = gen(spec, duration=40.0)
        assert times
        for t in times:
            assert (t % 20.0) < 10.0

    def test_trace_filters_beyond_duration(self):
        spec = ArrivalSpec(kind="trace", times=(0.0, 1.0, 99.0))
        assert gen(spec, duration=10.0) == [0.0, 1.0]

    def test_n_ops_caps_generation(self):
        spec = ArrivalSpec(kind="poisson", rate_ops_per_s=10.0, n_ops=3)
        assert len(gen(spec)) == 3

    def test_never_empty(self):
        spec = ArrivalSpec(kind="trace", times=(50.0,))
        assert gen(spec, duration=10.0) == [0.0]


def generate_then_truncate(spec, rng, duration_s):
    """The arrival generator as it was before it stopped at ``n_ops``:
    every process runs to ``MAX_ARRIVALS`` and is cut afterwards."""
    def poisson(start, end):
        times = []
        t = start + rng.expovariate(spec.rate_ops_per_s)
        while t < end and len(times) < MAX_ARRIVALS:
            times.append(t)
            t += rng.expovariate(spec.rate_ops_per_s)
        return times

    if spec.kind == "poisson":
        times = poisson(0.0, duration_s)
    elif spec.kind == "fixed":
        interval = 1.0 / spec.rate_ops_per_s
        times, t = [], interval
        while t < duration_s and len(times) < MAX_ARRIVALS:
            times.append(t)
            t += interval
    elif spec.kind == "onoff":
        times, t = [], 0.0
        while t < duration_s and len(times) < MAX_ARRIVALS:
            times.extend(poisson(t, min(t + spec.on_s, duration_s)))
            t += spec.on_s + spec.off_s
        times = times[:MAX_ARRIVALS]
    else:
        times = [t for t in spec.times if t < duration_s]
    if spec.n_ops is not None:
        times = times[:spec.n_ops]
    return times or [0.0]


@pytest.mark.parametrize("spec", [
    ArrivalSpec(kind="poisson", rate_ops_per_s=2.0),
    ArrivalSpec(kind="fixed", rate_ops_per_s=3.0),
    ArrivalSpec(kind="onoff", rate_ops_per_s=4.0, on_s=3.0, off_s=2.0),
    ArrivalSpec(kind="onoff", rate_ops_per_s=50.0, on_s=300.0, off_s=0.0),
    ArrivalSpec(kind="trace", times=tuple(float(t) for t in range(0, 60, 7))),
], ids=["poisson", "fixed", "onoff", "onoff-past-cap", "trace"])
def test_stopping_at_n_ops_keeps_the_truncated_prefix(spec):
    for n_ops in (None, 1, 2, 5, 37, 150, MAX_ARRIVALS + 5):
        capped = dataclasses.replace(spec, n_ops=n_ops)
        for duration_s in (0.5, 45.0, 400.0):
            for seed in (1, 2, 3):
                assert generate_arrivals(
                    capped, random.Random(seed), duration_s
                ) == generate_then_truncate(
                    capped, random.Random(seed), duration_s
                ), (n_ops, duration_s, seed)


class TestThinkTime:
    def test_none_is_zero(self):
        assert think_time(ThinkSpec(), random.Random(1)) == 0.0

    def test_constant(self):
        spec = ThinkSpec(kind="constant", mean_s=2.5)
        assert think_time(spec, random.Random(1)) == 2.5

    def test_exponential_is_seeded(self):
        spec = ThinkSpec(kind="exponential", mean_s=2.0)
        a = think_time(spec, random.Random(9))
        b = think_time(spec, random.Random(9))
        assert a == b and a > 0

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown think kind"):
            think_time(ThinkSpec(kind="psychic", mean_s=1.0),
                       random.Random(1))
