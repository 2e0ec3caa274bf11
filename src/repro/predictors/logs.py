"""Resource-usage logging: the raw material of self-tuning.

"Spectra logs resource usage and creates models that predict future
demand.  Thus, the more an operation is executed, the more accurately its
resource usage is predicted" (paper §3.3).  A :class:`UsageLog` stores
one :class:`UsageSample` per executed operation: the context the
operation ran in (fidelity, input parameters, data object, execution
plan) and the resources it consumed.

Logs are serializable to/from JSON so learned behaviour can persist
across runs, like Spectra's on-disk logs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..copying import deepcopy_state

#: discrete values that survive a JSON round trip unchanged
_JSON_PRIMITIVES = (str, int, float, bool, type(None))


def canonical_discrete_value(value: Any) -> Any:
    """Normalize a discrete (bin-key) value to a JSON-stable form.

    Discrete values are dictionary keys twice over: they key prediction
    bins in memory and they round-trip through the JSON log on disk.  A
    non-primitive value — a tuple-valued fidelity point, an enum — would
    serialize to something that never compares equal to the live value
    again (a tuple comes back as a list), so a predictor rebuilt from
    its log would silently lose every bin keyed by it.  JSON primitives
    pass through untouched; sequences collapse to a deterministic
    bracketed string; anything else collapses to ``str(value)``.
    """
    if isinstance(value, _JSON_PRIMITIVES):
        return value
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(
            str(canonical_discrete_value(item)) for item in value
        ) + "]"
    return str(value)


@dataclass(frozen=True)
class UsageSample:
    """One operation execution's context and measured resource usage.

    ``discrete`` — binning variables (fidelity values, plan name, ...).
    ``continuous`` — regression variables (input parameters).
    ``usage`` — measured resource consumption, e.g. ``{"cpu:local":
    2.1e8, "net:bytes": 14000, "energy:client": 3.4}``.
    ``data_object`` — optional name of the datum operated on (the Latex
    document), enabling data-specific models.
    ``concurrent`` — True when other operations overlapped this one;
    energy models skip such samples (§3.3.3).
    """

    timestamp: float
    discrete: Tuple[Tuple[str, Any], ...]
    continuous: Tuple[Tuple[str, float], ...]
    usage: Tuple[Tuple[str, float], ...]
    data_object: Optional[str] = None
    concurrent: bool = False
    #: files the operation read: (path, size) pairs — persisted so the
    #: file-access predictor can be rebuilt from the log
    file_accesses: Tuple[Tuple[str, int], ...] = ()

    @classmethod
    def build(
        cls,
        timestamp: float,
        discrete: Dict[str, Any],
        continuous: Dict[str, float],
        usage: Dict[str, float],
        data_object: Optional[str] = None,
        concurrent: bool = False,
        file_accesses: Optional[Dict[str, int]] = None,
    ) -> "UsageSample":
        return cls(
            timestamp=timestamp,
            discrete=tuple(sorted(
                (k, canonical_discrete_value(v)) for k, v in discrete.items()
            )),
            continuous=tuple(sorted((k, float(v)) for k, v in continuous.items())),
            usage=tuple(sorted((k, float(v)) for k, v in usage.items())),
            data_object=data_object,
            concurrent=concurrent,
            file_accesses=tuple(sorted((file_accesses or {}).items())),
        )

    def file_accesses_dict(self) -> Dict[str, int]:
        return dict(self.file_accesses)

    def discrete_dict(self) -> Dict[str, Any]:
        return dict(self.discrete)

    def continuous_dict(self) -> Dict[str, float]:
        return dict(self.continuous)

    def usage_dict(self) -> Dict[str, float]:
        return dict(self.usage)

    def __deepcopy__(self, memo: dict) -> "UsageSample":
        # Frozen, and every field is immutable: a copy may share it.
        return self


class UsageLog:
    """Append-only, bounded log of :class:`UsageSample` records."""

    def __init__(self, max_samples: int = 5000):
        self.max_samples = max_samples
        self._samples: List[UsageSample] = []

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

    def __deepcopy__(self, memo: dict) -> "UsageLog":
        # The samples are frozen: a copy needs its own list, not its own
        # samples.
        return deepcopy_state(self, memo, _samples=list)

    # -- persistence ---------------------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """The log as a JSON-ready dict (embedded by the predictor store)."""
        samples = [
            {
                "timestamp": s.timestamp,
                "discrete": list(map(list, s.discrete)),
                "continuous": list(map(list, s.continuous)),
                "usage": list(map(list, s.usage)),
                "data_object": s.data_object,
                "concurrent": s.concurrent,
                "file_accesses": list(map(list, s.file_accesses)),
            }
            for s in self._samples
        ]
        return {"version": 1, "samples": samples}

    @classmethod
    def from_payload(cls, blob: Dict[str, Any],
                     max_samples: int = 5000) -> "UsageLog":
        """Rebuild a log from a :meth:`to_payload` dict."""
        if blob.get("version") != 1:
            raise ValueError(f"unsupported usage log version: {blob.get('version')}")
        log = cls(max_samples=max_samples)
        for raw in blob["samples"]:
            log.append(sample_from_payload(raw))
        return log

    def to_json(self) -> str:
        return json.dumps(self.to_payload())

    @classmethod
    def from_json(cls, text: str, max_samples: int = 5000) -> "UsageLog":
        return cls.from_payload(json.loads(text), max_samples=max_samples)


def sample_from_payload(raw: Dict[str, Any]) -> UsageSample:
    """One :class:`UsageSample` from its JSON dict form."""
    return UsageSample(
        timestamp=raw["timestamp"],
        discrete=tuple(
            (k, canonical_discrete_value(v))
            for k, v in raw["discrete"]
        ),
        continuous=tuple((k, float(v)) for k, v in raw["continuous"]),
        usage=tuple((k, float(v)) for k, v in raw["usage"]),
        data_object=raw.get("data_object"),
        concurrent=raw.get("concurrent", False),
        file_accesses=tuple(
            (path, int(size))
            for path, size in raw.get("file_accesses", [])
        ),
    )
