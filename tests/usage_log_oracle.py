"""The list-backed usage log, kept as a reference model.

This is :class:`~repro.predictors.logs.UsageLog` as it was before it
kept its history as columns: a list of the :class:`UsageSample` objects
appended to it, trimmed by dropping the oldest ``max_samples // 2``.
The shipping log keeps no sample object: a shared head per sample, a
list of timestamps and one ``array('d')`` of usage values, and it
rebuilds the samples when asked.  The two must hand back the same
samples and the same payload bytes, and this module is how that is
proven rather than assumed: ``tests/property/test_usage_log_equivalence.py``
drives both with the same appends and compares them.

It lives under ``tests/`` because nothing in the shipping package uses
it: it is an oracle, not an alternative.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List

from repro.copying import deepcopy_state
from repro.predictors.logs import SampleParts, UsageSample, sample_from_payload


class ListUsageLog:
    """Append-only, bounded log of :class:`UsageSample` records."""

    def __init__(self, max_samples: int = 5000):
        self.max_samples = max_samples
        self._samples: List[UsageSample] = []
        self.parts = SampleParts()

    def append(self, sample: UsageSample) -> None:
        self._samples.append(sample)
        if len(self._samples) > self.max_samples:
            del self._samples[: self.max_samples // 2]

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self) -> Iterator[UsageSample]:
        return iter(self._samples)

    def samples(self) -> List[UsageSample]:
        return list(self._samples)

    def __deepcopy__(self, memo: dict) -> "ListUsageLog":
        # The samples are frozen: a copy needs its own list, not its own
        # samples.
        return deepcopy_state(self, memo, _samples=list)

    def to_payload(self) -> Dict[str, Any]:
        return {"version": 1,
                "samples": [s.to_payload() for s in self._samples]}

    @classmethod
    def from_payload(cls, blob: Dict[str, Any],
                     max_samples: int = 5000) -> "ListUsageLog":
        if blob.get("version") != 1:
            raise ValueError(f"unsupported usage log version: {blob.get('version')}")
        log = cls(max_samples=max_samples)
        for raw in blob["samples"]:
            log.append(sample_from_payload(raw, log.parts))
        return log
