"""Static server configuration (paper §3.2).

"Currently, potential servers are statically specified in a configuration
file.  We have designed Spectra so that it could also use a service
discovery protocol to dynamically locate additional servers, but this
feature is not yet supported."

:class:`ServerConfig` parses that configuration — from a dict or a JSON
document — and applies it to a client.  The format::

    {
        "servers": ["server-a", "server-b"],
        "poll_interval_s": 5.0,
        "predictor_store": "/var/lib/spectra/predictors"
    }

``predictor_store`` (optional) names the directory holding persisted
demand-predictor state; applying the config attaches a
:class:`~repro.predictors.store.PredictorStore` so every subsequent
``register_fidelity`` warm-starts from prior runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .client import SpectraClient


@dataclass(frozen=True)
class ServerConfig:
    """Parsed static Spectra client configuration."""

    servers: Tuple[str, ...] = ()
    poll_interval_s: float = 5.0
    predictor_store: Optional[str] = None

    @classmethod
    def from_dict(cls, raw: Dict) -> "ServerConfig":
        servers = raw.get("servers", [])
        if not isinstance(servers, (list, tuple)):
            raise ValueError(f"'servers' must be a list, got {type(servers).__name__}")
        for name in servers:
            if not isinstance(name, str) or not name:
                raise ValueError(f"bad server name: {name!r}")
        if len(set(servers)) != len(servers):
            raise ValueError(f"duplicate server names: {servers}")
        interval = float(raw.get("poll_interval_s", 5.0))
        if interval <= 0:
            raise ValueError(f"poll_interval_s must be positive: {interval}")
        store = raw.get("predictor_store")
        if store is not None and (not isinstance(store, str) or not store):
            raise ValueError(
                f"'predictor_store' must be a non-empty path: {store!r}"
            )
        return cls(servers=tuple(servers), poll_interval_s=interval,
                   predictor_store=store)

    @classmethod
    def from_json(cls, text: str) -> "ServerConfig":
        return cls.from_dict(json.loads(text))

    def apply(self, client: SpectraClient, start_polling: bool = False) -> None:
        """Register every configured server with *client*."""
        for server in self.servers:
            client.add_server(server)
        if self.predictor_store is not None:
            from ..predictors.store import PredictorStore
            client.predictor_store = PredictorStore(
                self.predictor_store, telemetry=client.telemetry
            )
        if start_polling:
            client.start_polling(self.poll_interval_s)
