"""Indexed-vs-linear passive network log equivalence (hypothesis).

`TransferLog` answers `recent` from per-host-pair and per-host indexes,
bisecting each for the window start.  It replaced a single whole-network
list scanned on every query purely for speed; the network monitor fits
its estimates over the returned records *in order*, so the indexed log
must return the very same records in the very same order.  The oracle
below is that old scan, with the monitor's old machine-wide filter for
per-host queries.

A log that readers have declared windows to drops, on each append, the
records that finished before the new record's time minus the longest
window (the horizon); the unbounded oracle never drops anything.  Every
query a reader can make starts at or after ``newest - horizon``, and
for those the two logs must agree by identity and order.  Queries are
made the way the monitor makes them, ``now - window`` with ``now`` at or
after the newest record and ``window`` at most the horizon, and at any
later start.
"""

from hypothesis import given, settings, strategies as st

from repro.network import TransferLog, TransferRecord


class LinearScanLog:
    """The pre-index log: one list, scanned in full on every query."""

    def __init__(self):
        self._records = []

    def append(self, record):
        self._records.append(record)

    def recent(self, since, endpoint=None):
        out = []
        for rec in self._records:
            if rec.finished_at < since:
                continue
            if endpoint is not None:
                pair = {rec.src, rec.dst}
                if pair != set(endpoint):
                    continue
            out.append(rec)
        return out

    def machine_wide(self, since, host):
        return [r for r in self.recent(since) if host in (r.src, r.dst)]


def same_records(got, want):
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


def pair_key(a, b):
    return frozenset((a, b))


def held_under(log, key):
    """Everything *log* still holds under one pair or host index."""
    if isinstance(key, frozenset):
        hosts = sorted(key)
        return log.recent(float("-inf"), endpoint=(hosts[0], hosts[-1]))
    return log.recent(float("-inf"), host=key)


#: Gaps between consecutive finish times; zeros make ties, and fractions
#: that are not binary put window starts off the logged times by a
#: rounding error.
GAPS = st.sampled_from([0.0, 0.0, 0.1, 0.5, 0.7, 1.0, 3.0])

#: The declared windows, none for an undeclared log; the longest is the
#: horizon.
WINDOWS = st.lists(st.sampled_from([0.0, 0.3, 1.0, 2.5, 10.0]), max_size=3)

#: (pair query?, host a, host b, which candidate *since*, reader's lag
#: past the newest record, which declared window it reads); hosts,
#: candidates and windows are picked modulo how many exist at that point.
QUERIES = st.lists(
    st.tuples(st.booleans(), st.integers(0, 5), st.integers(0, 5),
              st.integers(0, 1000), st.sampled_from([0.0, 0.0, 0.1, 2.0]),
              st.integers(0, 2)),
    max_size=3,
)

#: (src, dst, gap before finishing, bytes, queries made after appending)
STEPS = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), GAPS,
              st.integers(0, 10_000), QUERIES),
    min_size=1, max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(n_hosts=st.integers(2, 6), windows=WINDOWS, steps=STEPS)
def test_indexed_log_matches_linear_scan(n_hosts, windows, steps):
    hosts = [f"h{i}" for i in range(n_hosts)]
    log = TransferLog()
    for window in windows:
        log.declare_window(window)
    horizon = max(windows) if windows else None
    oracle = LinearScanLog()
    appended = {}  # index key -> records appended under it
    times = []
    now = 0.0

    for src_i, dst_i, gap, nbytes, queries in steps:
        src, dst = hosts[src_i % n_hosts], hosts[dst_i % n_hosts]
        now += gap
        record = TransferRecord(src, dst, nbytes,
                                started_at=now - 0.5, finished_at=now)
        log.append(record)
        oracle.append(record)
        times.append(now)
        for key in {pair_key(src, dst), src, dst}:
            appended.setdefault(key, []).append(record)

        # Window starts on, between, before and after the logged times.
        candidates = (times + [t + 0.25 for t in times]
                      + [times[0] - 1.0, now + 1.0])
        for is_pair, a_i, b_i, since_i, lag, window_i in queries:
            since = candidates[since_i % len(candidates)]
            if windows:
                # No reader reads further back than its own window.
                reader_since = (now + lag) - windows[window_i % len(windows)]
                since = max(since, reader_since)
            a, b = hosts[a_i % n_hosts], hosts[b_i % n_hosts]
            if is_pair:
                assert same_records(log.recent(since, endpoint=(a, b)),
                                    oracle.recent(since, endpoint=(a, b)))
            else:
                assert same_records(log.recent(since, host=a),
                                    oracle.machine_wide(since, a))

    # Every index holds exactly its own records within the horizon of
    # the last record appended to it: all of them when undeclared.
    held_in_pairs = 0
    for key, records in appended.items():
        held = held_under(log, key)
        if isinstance(key, frozenset):
            held_in_pairs += len(held)
        cutoff = (float("-inf") if horizon is None
                  else records[-1].finished_at - horizon)
        assert same_records(held, [r for r in records
                                   if r.finished_at >= cutoff])
    assert len(log) == held_in_pairs
    assert log.transfers == len(steps)
    assert log.bytes == sum(r.nbytes for r in oracle.recent(float("-inf")))
