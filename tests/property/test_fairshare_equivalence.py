"""Old-vs-new fair-share scheduler equivalence (hypothesis).

The virtual-time scheduler (`FairShareResource`) replaced the legacy
settle-and-rescan one (`LegacyFairShareResource`) purely for speed; the
observable behavior — which jobs finish, when, with how much service
left on aborted/stalled ones, and how much total work was served — must
be identical.  These tests drive both schedulers through the same
randomized schedule of arrivals, aborts, and capacity changes (including
stalls to zero) and compare per-job outcomes.

Outcomes are compared per job rather than as an ordered completion log:
two jobs finishing within float dust of each other may legitimately
complete in one legacy timer batch but two virtual-time batches.
``tests/unit/test_sim_resources.py`` separately checks the exact
completion sequence of the kernel bench's 500-job ``contended_medium``
storm, a structured workload.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import FairShareResource, Simulator
from tests.fairshare_legacy import LegacyFairShareResource

#: (arrival_s, amount, weight, abort_after_s or None)
job_schedules = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=1.0, max_value=1e5),
        st.floats(min_value=0.1, max_value=10.0),
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=10.0)),
    ),
    min_size=1, max_size=10,
)

#: (at_s, capacity_factor) — factor 0 stalls the resource
capacity_schedules = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=30.0),
        st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
    ),
    max_size=4,
)

#: long enough that any live schedule drains, bounded so a stalled one ends
HORIZON_S = 100_000.0

# Deterministic skew constants applied to generated times.  At an *exact*
# float tie between a completion timer and an abort or capacity event the
# two schedulers may legitimately dispatch in different orders (they arm
# timers at different moments, so kernel sequence numbers differ) and a
# job's fate at that instant is genuinely racy.  Skewing the generated
# times by odd constants makes such ties measure-zero without shrinking
# the covered space.
ARRIVAL_SKEW = 0.9999719
ABORT_SKEW = 1.0000137
CHANGE_SKEW = 1.0000311


def drive(factory, jobs, capacity, changes):
    """Run one scheduler through a schedule; return per-job outcomes."""
    sim = Simulator()
    resource = factory(sim, capacity)
    outcome = {}

    def submit(i, amount, weight, abort_after):
        def run():
            job = resource.submit(amount, weight=weight)
            job.done.add_callback(
                lambda event, i=i: outcome.__setitem__(
                    i, ("done" if event.ok else "aborted", sim.now)
                )
            )
            if abort_after is not None:
                sim.call_in(abort_after, lambda: resource.abort(job))
            outcome[i] = ("running", job)
        return run

    for i, (arrival, amount, weight, abort_after) in enumerate(jobs):
        skewed_abort = (None if abort_after is None
                        else abort_after * ABORT_SKEW)
        sim.call_at(arrival * ARRIVAL_SKEW,
                    submit(i, amount, weight, skewed_abort))
    for at, factor in changes:
        sim.call_at(at * CHANGE_SKEW,
                    lambda f=factor: resource.set_capacity(capacity * f))
    sim.run(until=HORIZON_S)
    # The schedulers settle at different moments (the virtual-time one
    # keeps early timers alive as no-op settle points); roll both
    # forward to the horizon so residuals are compared as of one instant.
    resource._settle()

    results = {}
    for i, entry in outcome.items():
        if entry[0] == "running":
            results[i] = ("running", entry[1].remaining)
        else:
            results[i] = entry
    return results, resource.total_served


@given(jobs=job_schedules, changes=capacity_schedules,
       capacity=st.floats(min_value=1.0, max_value=1e4))
@settings(max_examples=60, deadline=None)
def test_old_and_new_schedulers_agree(jobs, changes, capacity):
    """Same per-job fates, times, residuals, and served total."""
    new, new_served = drive(FairShareResource, jobs, capacity, changes)
    old, old_served = drive(LegacyFairShareResource, jobs, capacity, changes)
    assert set(new) == set(old)
    for i in new:
        new_state, new_value = new[i]
        old_state, old_value = old[i]
        if new_state != old_state:
            # One legitimate disagreement: a completion within float
            # dust of the horizon may land on either side of it.  Then
            # one scheduler reports "done" at ~HORIZON_S and the other
            # "running" with a residual that is dust relative to the
            # job's amount.  Anything else is a real divergence.
            assert {new_state, old_state} == {"running", "done"}, (
                f"job {i}: virtual-time says {new_state}, "
                f"legacy {old_state}"
            )
            done_t = old_value if new_state == "running" else new_value
            residual = new_value if new_state == "running" else old_value
            assert done_t == pytest.approx(HORIZON_S, rel=1e-6), (
                f"job {i}: schedulers disagree away from the horizon"
            )
            assert residual <= 1e-6 * jobs[i][1] + 1e-6
            continue
        # value is a completion/abort time for finished jobs, a residual
        # amount for ones still running at the horizon
        assert new_value == pytest.approx(old_value, rel=1e-6, abs=1e-6)
    assert new_served == pytest.approx(old_served, rel=1e-6, abs=1e-6)


@given(jobs=job_schedules, changes=capacity_schedules,
       capacity=st.floats(min_value=1.0, max_value=1e4))
@settings(max_examples=40, deadline=None)
def test_total_weight_matches_rescan_throughout(jobs, changes, capacity):
    """The maintained running total weight never drifts from a rescan.

    Checked after every completion/abort and at randomized probe points —
    the O(1) `_total_weight()` (what `rate_for_new_job` serves to
    polling monitors) must always equal the O(n) `_rescan_weight()`.
    """
    sim = Simulator()
    resource = FairShareResource(sim, capacity)

    def check():
        assert resource._total_weight() == pytest.approx(
            resource._rescan_weight(), rel=1e-9, abs=1e-9
        )
        # An idle resource must be at exactly zero, not float dust —
        # rate_for_new_job would otherwise misprice the empty resource.
        if resource.active_jobs == 0:
            assert resource._total_weight() == 0.0

    def submit(amount, weight, abort_after):
        def run():
            job = resource.submit(amount, weight=weight)
            job.done.add_callback(lambda _event: check())
            if abort_after is not None:
                sim.call_in(abort_after, lambda: resource.abort(job))
            check()
        return run

    for arrival, amount, weight, abort_after in jobs:
        sim.call_at(arrival * ARRIVAL_SKEW,
                    submit(amount, weight,
                           None if abort_after is None
                           else abort_after * ABORT_SKEW))
    for at, factor in changes:
        sim.call_at(at * CHANGE_SKEW,
                    lambda f=factor: resource.set_capacity(capacity * f))
    sim.run(until=HORIZON_S)
    check()


@given(
    amounts=st.lists(st.floats(min_value=1.0, max_value=1e4),
                     min_size=2, max_size=10),
    capacity=st.floats(min_value=1.0, max_value=1e4),
)
@settings(max_examples=40, deadline=None)
def test_work_conservation_under_saturation(amounts, capacity):
    """While saturated, served work is exactly capacity x busy time."""
    sim = Simulator()
    resource = FairShareResource(sim, capacity)
    for amount in amounts:
        resource.submit(amount)
    sim.run()
    busy_time = sim.now  # saturated from t=0 until the last completion
    assert resource.total_served == pytest.approx(
        capacity * busy_time, rel=1e-6
    )
    assert resource.total_served == pytest.approx(sum(amounts), rel=1e-6)


@given(
    amount=st.floats(min_value=10.0, max_value=1e4),
    weights=st.tuples(st.floats(min_value=0.1, max_value=10.0),
                      st.floats(min_value=0.1, max_value=10.0)),
    capacity=st.floats(min_value=1.0, max_value=1e4),
)
@settings(max_examples=60, deadline=None)
def test_weight_proportional_sharing(amount, weights, capacity):
    """Two equal jobs split the server in exact weight proportion:
    the heavier one finishes first, at amount x (w1+w2) / (C x w_max)."""
    w1, w2 = weights
    sim = Simulator()
    resource = FairShareResource(sim, capacity)
    job1 = resource.submit(amount, weight=w1)
    job2 = resource.submit(amount, weight=w2)
    sim.run()
    first = job1 if job1.finished_at <= job2.finished_at else job2
    w_first = w1 if first is job1 else w2
    w_other = w2 if first is job1 else w1
    assert w_first >= w_other - 1e-12  # heavier (or tied) finishes first
    expected = amount * (w1 + w2) / (capacity * w_first)
    assert first.finished_at == pytest.approx(expected, rel=1e-6)
