"""Resource-usage logging: the raw material of self-tuning.

"Spectra logs resource usage and creates models that predict future
demand.  Thus, the more an operation is executed, the more accurately its
resource usage is predicted" (paper §3.3).  A :class:`UsageLog` records
one :class:`UsageSample` per executed operation: the context the
operation ran in (fidelity, input parameters, data object, execution
plan) and the resources it consumed.  It keeps them as columns, not as
objects, and rebuilds the samples when read.

Logs are serializable to/from JSON so learned behaviour can persist
across runs, like Spectra's on-disk logs.
"""

from __future__ import annotations

import copy
import json
from array import array
from dataclasses import dataclass
from math import copysign
from typing import (Any, Dict, Hashable, Iterable, Iterator, List, Mapping,
                    Optional, Tuple, TypeVar, Union)

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


DiscreteKey = Tuple[Tuple[str, Any], ...]


def discrete_key(discrete: Mapping[str, Any]) -> DiscreteKey:
    """Canonical hashable key for a discrete-variable assignment.

    Values are normalized through :func:`canonical_discrete_value`, so
    a key built from live (possibly tuple-valued) fidelity values equals
    the key rebuilt from the JSON usage log — the bins a predictor
    relearns from disk are the same bins it trained in memory.  A
    :class:`DiscreteContext` hands back the key it carries.
    """
    if type(discrete) is DiscreteContext:
        return discrete.key
    return tuple(sorted(
        (k, canonical_discrete_value(v)) for k, v in discrete.items()
    ))


class DiscreteContext(dict):
    """A discrete-variable assignment that carries its bin key.

    Demand prediction looks bins up by :func:`discrete_key` many times
    per decision; a context built once per alternative
    (``OperationSpec.decision_context``) or per logged sample
    (:meth:`UsageSample.discrete_dict`) canonicalizes and sorts once,
    here, and every lookup reads :attr:`key`.  Still a plain mapping to
    everything else (custom demand models receive it as one), and, like
    the dicts it replaces, read-only by contract: mutating it would
    leave :attr:`key` stale.
    """

    __slots__ = ("key",)

    def __init__(self, discrete: Union[Mapping[str, Any], DiscreteKey],
                 key: Optional[DiscreteKey] = None):
        super().__init__(discrete)
        self.key: DiscreteKey = discrete_key(discrete) if key is None else key


FeatureRow = Tuple[float, ...]


def feature_row(continuous: Mapping[str, float],
                names: Tuple[str, ...]) -> FeatureRow:
    """The values of *names* in *continuous*, as floats (0.0 if absent).

    This is the row a demand model stores per sample.  A
    :class:`FeatureContext` built for the same *names* hands back the
    row it carries, so every model that observes one sample holds one
    row object.
    """
    if type(continuous) is FeatureContext and continuous.names == names:
        return continuous.row
    return tuple(float(continuous.get(name, 0.0)) for name in names)


class FeatureContext(dict):
    """Continuous inputs that carry their feature row and a stamp.

    One logged sample is observed by every demand model of its
    operation: each resource's general model, its data-object model,
    and the bin and generic regressions inside each.  A context built
    once per sample (``OperationDemandPredictor._absorb``) carries the
    row, and the models on one demand window keep it once between them
    (:class:`~repro.predictors.linear.DemandWindow`).  ``stamp`` tells
    those models apart one sample from the next: the first of them to
    observe a stamp adds the row to the window, and the rest find it
    there.  Like :class:`DiscreteContext` it is a plain mapping to
    everything else, and read-only by contract.
    """

    __slots__ = ("names", "row", "stamp")

    def __init__(self, continuous: Mapping[str, float],
                 names: Tuple[str, ...], row: FeatureRow, stamp: int):
        super().__init__(continuous)
        self.names = names
        self.row = row
        self.stamp = stamp


#: how many distinct parts a :class:`SampleParts` table keeps before it
#: starts over
SHARED_PARTS_LIMIT = 256

_Part = TypeVar("_Part", bound=Hashable)


def _same_value(a: Any, b: Any) -> bool:
    """Equal in type and value, all the way down a tuple.

    Unlike ``==``, ``0`` and ``0.0`` differ, and so do ``0.0`` and
    ``-0.0``; a NaN equals nothing but itself, the same object.
    """
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if type(a) is tuple:
        return len(a) == len(b) and all(map(_same_value, a, b))
    if type(a) is float:
        return a == b and copysign(1.0, a) == copysign(1.0, b)
    return a == b


class SampleParts:
    """One object per distinct immutable part of a log's samples.

    The samples of one operation repeat the same few parts: the files
    it reads, the (path, size) pair of each, and its input parameters.
    :meth:`share` hands back the object already held for a part equal
    to *part* in type and value (:func:`_same_value`: a shared ``0.0``
    must not stand in for a logged ``-0.0``), else keeps *part*.  The
    table holds at most :data:`SHARED_PARTS_LIMIT` parts and empties
    when full, so parts that never repeat (a speech utterance's
    length) cost a bounded table and nothing per sample.
    """

    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts: Dict[Any, Any] = {}

    def share(self, part: _Part) -> _Part:
        if part == ():
            return part  # the empty tuple is one object already
        held = self._parts.get(part)
        if held is not None and _same_value(held, part):
            return held
        if len(self._parts) >= SHARED_PARTS_LIMIT:
            self._parts.clear()
        self._parts[part] = part
        return part

    def share_pairs(self, pairs: Iterable[Tuple[str, Any]]
                    ) -> Tuple[Tuple[str, Any], ...]:
        """*pairs* as one shared tuple of shared pairs."""
        share = self.share
        return share(tuple(map(share, pairs)))

    def __deepcopy__(self, memo: dict) -> "SampleParts":
        # Every part is immutable: a copy needs its own table only.
        clone = SampleParts()
        clone._parts.update(self._parts)
        memo[id(self)] = clone
        return clone


#: one tuple per distinct resource-name set: samples of one operation
#: measure the same resources, so their ``usage_names`` are one object
_USAGE_NAMES: Dict[Tuple[str, ...], Tuple[str, ...]] = {}


@dataclass(frozen=True, slots=True)
class UsageSample:
    """One operation execution's context and measured resource usage.

    ``discrete`` — binning variables (fidelity values, plan name, ...),
    as their :func:`discrete_key`.
    ``continuous`` — regression variables (input parameters).
    ``usage_names`` / ``usage_values`` — measured resource consumption,
    e.g. ``("cpu:local", "energy:client", "net:bytes")`` and
    ``(2.1e8, 3.4, 14000.0)``; :attr:`usage` pairs them up.
    ``data_object`` — optional name of the datum operated on (the Latex
    document), enabling data-specific models.
    ``concurrent`` — True when other operations overlapped this one;
    energy models skip such samples (§3.3.3).

    Build samples with :meth:`build` or :func:`sample_from_payload`:
    both go through :meth:`of`, which interns ``usage_names`` so every
    sample with one resource set shares one names tuple.  Given a log's
    :class:`SampleParts`, it also shares ``continuous``,
    ``file_accesses`` and each pair in them with earlier samples that
    hold equal ones.  The usage values stay each sample's own: they
    almost never repeat, and a :class:`UsageLog` keeps them as doubles.
    """

    timestamp: float
    discrete: DiscreteKey
    continuous: Tuple[Tuple[str, float], ...]
    usage_names: Tuple[str, ...]
    usage_values: Tuple[float, ...]
    data_object: Optional[str] = None
    concurrent: bool = False
    #: files the operation read: (path, size) pairs — persisted so the
    #: file-access predictor can be rebuilt from the log
    file_accesses: Tuple[Tuple[str, int], ...] = ()

    @classmethod
    def of(
        cls,
        timestamp: float,
        discrete: DiscreteKey,
        continuous: Iterable[Tuple[str, float]],
        usage_names: Tuple[str, ...],
        usage_values: Iterable[float],
        data_object: Optional[str],
        concurrent: bool,
        file_accesses: Iterable[Tuple[str, int]],
        parts: Optional[SampleParts] = None,
    ) -> "UsageSample":
        """The one constructor; it interns *usage_names*, and shares the
        other repeated parts through *parts*."""
        if parts is None:
            continuous, file_accesses = tuple(continuous), tuple(file_accesses)
        else:
            continuous = parts.share_pairs(continuous)
            file_accesses = parts.share_pairs(file_accesses)
        return cls(
            timestamp=timestamp,
            discrete=discrete,
            continuous=continuous,
            usage_names=_USAGE_NAMES.setdefault(usage_names, usage_names),
            usage_values=tuple(usage_values),
            data_object=data_object,
            concurrent=concurrent,
            file_accesses=file_accesses,
        )

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
        parts: Optional[SampleParts] = None,
    ) -> "UsageSample":
        names = tuple(sorted(usage))
        return cls.of(
            timestamp,
            discrete_key(discrete),
            sorted((k, float(v)) for k, v in continuous.items()),
            names,
            [float(usage[name]) for name in names],
            data_object,
            concurrent,
            sorted((file_accesses or {}).items()),
            parts,
        )

    @property
    def usage(self) -> Tuple[Tuple[str, float], ...]:
        """The measured usage as sorted (resource, value) pairs."""
        return tuple(zip(self.usage_names, self.usage_values))

    def file_accesses_dict(self) -> Dict[str, int]:
        return dict(self.file_accesses)

    def discrete_dict(self) -> DiscreteContext:
        return DiscreteContext(self.discrete, key=self.discrete)

    def continuous_dict(self) -> Dict[str, float]:
        return dict(self.continuous)

    def usage_dict(self) -> Dict[str, float]:
        return dict(zip(self.usage_names, self.usage_values))

    def to_payload(self) -> Dict[str, Any]:
        """The sample as a JSON-ready dict (:func:`sample_from_payload`
        reads it back)."""
        return {
            "timestamp": self.timestamp,
            "discrete": list(map(list, self.discrete)),
            "continuous": list(map(list, self.continuous)),
            "usage": list(map(list, zip(self.usage_names, self.usage_values))),
            "data_object": self.data_object,
            "concurrent": self.concurrent,
            "file_accesses": list(map(list, self.file_accesses)),
        }

    def __deepcopy__(self, memo: dict) -> "UsageSample":
        # Frozen, and every field is immutable: a copy may share it.
        return self


#: what a :class:`UsageLog` keeps of a sample besides its timestamp and
#: usage values: ``(discrete, continuous, usage_names, data_object,
#: concurrent, file_accesses)``
_Head = Tuple[DiscreteKey, Tuple[Tuple[str, float], ...], Tuple[str, ...],
              Optional[str], bool, Tuple[Tuple[str, int], ...]]


class UsageLog:
    """Append-only, bounded log of :class:`UsageSample` records, kept as
    columns.

    The log keeps no sample object.  Per sample it keeps a *head* (every
    field but the timestamp and the usage values, one tuple shared
    through ``parts`` with the earlier samples that hold an equal one)
    and the timestamp as it was given; every sample's usage values sit
    in one ``array('d')``, in order.  Iterating, :meth:`samples` and
    :meth:`to_payload` rebuild the samples: the values are floats by
    construction (:meth:`UsageSample.build` and
    :func:`sample_from_payload` call ``float``), so a double keeps each
    of them exactly, ``-0.0`` and NaN included.  A timestamp keeps its
    type: an ``int`` one still prints as ``0``, not ``0.0``.

    ``parts`` is also the table the log's samples share their repeated
    parts through: samples built for the log (by the predictor, or read
    back by :meth:`from_payload`) pass it to :meth:`UsageSample.of`.
    When the log outgrows ``max_samples`` it drops its oldest
    ``max_samples // 2`` samples.
    """

    def __init__(self, max_samples: int = 5000):
        self.max_samples = max_samples
        self.parts = SampleParts()
        self._heads: List[_Head] = []
        self._timestamps: List[float] = []
        self._values = array("d")

    def append(self, sample: UsageSample) -> None:
        heads = self._heads
        heads.append(self.parts.share((
            sample.discrete, sample.continuous, sample.usage_names,
            sample.data_object, sample.concurrent, sample.file_accesses)))
        self._timestamps.append(sample.timestamp)
        self._values.extend(sample.usage_values)
        if len(heads) > self.max_samples:
            drop = self.max_samples // 2
            del self._values[:sum(len(head[2]) for head in heads[:drop])]
            del heads[:drop]
            del self._timestamps[:drop]

    def __len__(self) -> int:
        return len(self._heads)

    def __iter__(self) -> Iterator[UsageSample]:
        values = self._values
        start = 0
        for timestamp, (discrete, continuous, names, data_object, concurrent,
                        file_accesses) in zip(self._timestamps, self._heads):
            stop = start + len(names)
            yield UsageSample(timestamp, discrete, continuous, names,
                              tuple(values[start:stop]), data_object,
                              concurrent, file_accesses)
            start = stop

    def samples(self) -> List[UsageSample]:
        return list(self)

    def __deepcopy__(self, memo: dict) -> "UsageLog":
        # The heads are immutable: a copy needs its own columns, not its
        # own heads.
        return deepcopy_state(self, memo, _heads=list, _timestamps=list,
                              _values=copy.copy)

    # -- persistence ---------------------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """The log as a JSON-ready dict (embedded by the predictor store)."""
        return {"version": 1,
                "samples": [sample.to_payload() for sample in self]}

    @classmethod
    def from_payload(cls, blob: Dict[str, Any],
                     max_samples: int = 5000) -> "UsageLog":
        """Rebuild a log from a :meth:`to_payload` dict."""
        if blob.get("version") != 1:
            raise ValueError(f"unsupported usage log version: {blob.get('version')}")
        log = cls(max_samples=max_samples)
        for raw in blob["samples"]:
            log.append(sample_from_payload(raw, log.parts))
        return log

    def to_json(self) -> str:
        return json.dumps(self.to_payload())

    @classmethod
    def from_json(cls, text: str, max_samples: int = 5000) -> "UsageLog":
        return cls.from_payload(json.loads(text), max_samples=max_samples)


def sample_from_payload(raw: Dict[str, Any],
                        parts: Optional[SampleParts] = None) -> UsageSample:
    """One :class:`UsageSample` from its JSON dict form, sharing its
    repeated parts through *parts* if given."""
    return UsageSample.of(
        raw["timestamp"],
        discrete_key(dict(raw["discrete"])),
        ((k, float(v)) for k, v in raw["continuous"]),
        tuple(name for name, _value in raw["usage"]),
        (float(value) for _name, value in raw["usage"]),
        raw.get("data_object"),
        raw.get("concurrent", False),
        ((path, int(size)) for path, size in raw.get("file_accesses", [])),
        parts,
    )
