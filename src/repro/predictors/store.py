"""The predictor store: learned demand models persisted across runs.

The paper's self-tuning loop only closes if measurements outlive the
process: "Spectra logs resource usage and creates models that predict
future demand" (§3.3), and at registration "each predictor reads the
logged resource usage data" (§3.4).  A :class:`PredictorStore` is that
on-disk log — one versioned JSON document per registered operation,
holding the operation's :class:`~repro.predictors.logs.UsageLog`, the
feature/decay/window configuration the models were trained under, and
an integrity digest.

Design constraints, in order:

* **never corrupt on crash** — documents are written to a temp file in
  the store directory and atomically renamed into place;
* **never crash on corruption** — a truncated, hand-edited, or
  wrong-version document degrades to a cold start (``load`` returns
  ``None``) and bumps the ``spectra.predictors.store.errors`` counter,
  because a warm start is an optimization, not a correctness
  requirement;
* **deterministic bytes** — the same samples serialize to the same
  document, so saves are digest-stable and byte-diffable across runs.

``merge`` unions two operations' histories: samples are deduplicated
exactly, ordered by (timestamp, serialized form), and bounded by the
log's ``max_samples`` keeping the newest — so merging a store into
itself is the identity and merge order cannot change the result.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..telemetry import Telemetry, ensure_telemetry
from .logs import UsageLog

#: current document schema; anything else degrades to cold start
STORE_SCHEMA = "spectra-predictor-store/1"

#: characters allowed verbatim in a document filename
_SAFE_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_."
)


class PredictorStoreError(ValueError):
    """A store document is unreadable, corrupt, or wrong-version."""


def _encode_name(operation: str) -> str:
    """Filesystem-safe, reversible encoding of an operation name."""
    return "".join(
        c if c in _SAFE_CHARS else f"%{ord(c):02x}"
        for c in operation
    )


def _canonical(body: Dict[str, Any]) -> str:
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def document_digest(body: Dict[str, Any]) -> str:
    """Integrity digest over a document body (everything but ``digest``)."""
    return hashlib.sha256(_canonical(body).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class StoredPredictor:
    """One operation's persisted state, as loaded from the store."""

    operation: str
    feature_names: Tuple[str, ...]
    decay: float
    window: int
    log: UsageLog
    digest: str

    @property
    def n_samples(self) -> int:
        return len(self.log)


class PredictorStore:
    """A directory of per-operation predictor documents."""

    def __init__(self, root, telemetry: Optional[Telemetry] = None):
        self.root = pathlib.Path(root)
        self.telemetry = ensure_telemetry(telemetry)

    # -- naming ----------------------------------------------------------------------

    def path_for(self, operation: str) -> pathlib.Path:
        return self.root / f"{_encode_name(operation)}.json"

    def scoped(self, name: str) -> "PredictorStore":
        """A sub-store under ``root/name`` (per-client, per-variant)."""
        return PredictorStore(self.root / _encode_name(name),
                              telemetry=self.telemetry)

    def operations(self) -> List[str]:
        """Operation names with a document on disk, sorted."""
        if not self.root.is_dir():
            return []
        names = []
        for path in self.root.iterdir():
            if path.suffix == ".json" and path.is_file():
                try:
                    names.append(json.loads(path.read_text())["operation"])
                except (OSError, ValueError, KeyError, TypeError):
                    continue  # corrupt documents surface via load()
        return sorted(names)

    # -- saving ----------------------------------------------------------------------

    def save(self, operation: str, predictor) -> str:
        """Persist *predictor*'s log + config for *operation*; returns
        the document digest.

        *predictor* is any object with ``log``, ``feature_names``,
        ``decay``, and ``window`` attributes — in practice an
        :class:`~repro.predictors.base.OperationDemandPredictor`.
        """
        body = {
            "operation": operation,
            "config": {
                "feature_names": list(predictor.feature_names),
                "decay": predictor.decay,
                "window": predictor.window,
            },
            "log": predictor.log.to_payload(),
        }
        return self.save_document(operation, body)

    def save_document(self, operation: str, body: Dict[str, Any]) -> str:
        """Atomically write a document body (digest is recomputed here)."""
        body = dict(body)
        body.pop("digest", None)
        body["schema"] = STORE_SCHEMA
        digest = document_digest(body)
        document = dict(body)
        document["digest"] = digest
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(operation)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(document, sort_keys=True, indent=2) + "\n")
        os.replace(tmp, path)
        self.telemetry.metrics.counter("spectra.predictors.store.saves").inc()
        return digest

    # -- loading ---------------------------------------------------------------------

    def load_document(self, operation: str) -> Dict[str, Any]:
        """The raw verified document; raises :class:`PredictorStoreError`
        on any defect (missing file, bad JSON, schema or digest mismatch)."""
        path = self.path_for(operation)
        try:
            text = path.read_text()
        except OSError as exc:
            raise PredictorStoreError(
                f"cannot read predictor document {path}: {exc}") from exc
        try:
            document = json.loads(text)
        except ValueError as exc:
            raise PredictorStoreError(
                f"corrupt predictor document {path}: {exc}") from exc
        if not isinstance(document, dict):
            raise PredictorStoreError(
                f"corrupt predictor document {path}: not an object")
        schema = document.get("schema")
        if schema != STORE_SCHEMA:
            raise PredictorStoreError(
                f"predictor document {path} has schema {schema!r}; "
                f"this build reads {STORE_SCHEMA!r}")
        body = {k: v for k, v in document.items() if k != "digest"}
        expected = document_digest(body)
        if document.get("digest") != expected:
            raise PredictorStoreError(
                f"predictor document {path} failed its integrity check "
                f"(digest {document.get('digest')!r} != {expected!r})")
        return document

    def load(self, operation: str,
             max_samples: int = 5000) -> Optional[StoredPredictor]:
        """The stored state for *operation*, or ``None`` (cold start).

        A missing document is an ordinary cold start.  A *defective*
        document — corrupt, truncated, wrong schema, failed digest — is
        also a cold start, but counted on
        ``spectra.predictors.store.errors``: persistence must never be
        the thing that crashes a client.
        """
        if not self.path_for(operation).exists():
            return None
        try:
            document = self.load_document(operation)
            config = document.get("config") or {}
            stored = StoredPredictor(
                operation=str(document["operation"]),
                feature_names=tuple(config.get("feature_names", ())),
                decay=float(config.get("decay", 0.95)),
                window=int(config.get("window", 200)),
                log=UsageLog.from_payload(document["log"],
                                          max_samples=max_samples),
                digest=document["digest"],
            )
        except (PredictorStoreError, KeyError, TypeError, ValueError):
            self.telemetry.metrics.counter(
                "spectra.predictors.store.errors").inc()
            return None
        self.telemetry.metrics.counter("spectra.predictors.store.loads").inc()
        return stored

    def digest(self, operation: str) -> Optional[str]:
        """The stored digest for *operation*, or ``None``."""
        try:
            return self.load_document(operation)["digest"]
        except PredictorStoreError:
            return None

    def state_digest(self) -> str:
        """One digest over every valid document — the report's
        ``predictor_state`` fingerprint."""
        parts = []
        for operation in self.operations():
            digest = self.digest(operation)
            if digest is not None:
                parts.append(f"{operation}:{digest}")
        return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()

    # -- merging ---------------------------------------------------------------------

    def merge(self, other: "PredictorStore",
              max_samples: int = 5000) -> Dict[str, int]:
        """Union *other*'s documents into this store.

        Returns ``{operation: merged sample count}``.  Defective source
        documents are skipped (and counted) rather than fatal; an
        operation present only in *other* is copied wholesale.
        """
        merged: Dict[str, int] = {}
        for operation in other.operations():
            theirs = other.load(operation, max_samples=max_samples)
            if theirs is None:
                continue
            ours = self.load(operation, max_samples=max_samples)
            if ours is None:
                log = theirs.log
                config = {
                    "feature_names": list(theirs.feature_names),
                    "decay": theirs.decay,
                    "window": theirs.window,
                }
            else:
                log = merge_logs(ours.log, theirs.log,
                                 max_samples=max_samples)
                config = {
                    "feature_names": list(ours.feature_names),
                    "decay": ours.decay,
                    "window": ours.window,
                }
            self.save_document(operation, {
                "operation": operation,
                "config": config,
                "log": log.to_payload(),
            })
            merged[operation] = len(log)
        return merged


def merge_logs(a: UsageLog, b: UsageLog,
               max_samples: int = 5000) -> UsageLog:
    """Deterministic union of two usage logs.

    Exact-duplicate samples collapse; the union is ordered by
    (timestamp, serialized sample) so merge order cannot matter; when
    the union exceeds *max_samples* the **newest** survive (the same
    recency preference the in-memory log applies).
    """
    seen = set()
    union = []
    for sample in list(a) + list(b):
        key = _canonical({
            "timestamp": sample.timestamp,
            "discrete": list(map(list, sample.discrete)),
            "continuous": list(map(list, sample.continuous)),
            "usage": list(map(list, sample.usage)),
            "data_object": sample.data_object,
            "concurrent": sample.concurrent,
            "file_accesses": list(map(list, sample.file_accesses)),
        })
        if key in seen:
            continue
        seen.add(key)
        union.append((sample.timestamp, key, sample))
    union.sort(key=lambda entry: entry[:2])
    if len(union) > max_samples:
        union = union[-max_samples:]
    log = UsageLog(max_samples=max_samples)
    for _ts, _key, sample in union:
        log.append(sample)
    return log


def rebuild_predictor(stored: StoredPredictor, predictor_cls=None):
    """A fresh predictor warm-started from a stored document.

    Used by the CLI and tests; the Spectra client itself passes the
    stored log into ``register_fidelity`` so the operation's declared
    feature set (not the stored one) wins.
    """
    if predictor_cls is None:
        from .base import OperationDemandPredictor as predictor_cls
    return predictor_cls(
        feature_names=stored.feature_names,
        decay=stored.decay,
        window=stored.window,
        log=stored.log,
    )
