"""The declarative scenario model: a world and its workload as pure data.

A :class:`ScenarioSpec` says everything a run needs — the machines, the
links and shared media between them, the applications installed where,
which clients generate what traffic against which servers, how the
environment changes over time, and the seed — with no live objects and
no code.  Specs round-trip through plain dicts (and therefore JSON), and
:meth:`ScenarioSpec.validate` rejects a malformed world with
*path-qualified* messages (``clients[0].servers[1]: unknown host ...``)
so a typo in a scenario file fails loudly at load time, not as a
``KeyError`` three layers into the compiler.

The spec layer deliberately knows nothing about the simulator: the
mapping onto live testbeds lives in :mod:`~repro.scenarios.compiler`,
and the environment timeline compiles onto the existing
:class:`~repro.faults.FaultSchedule` machinery in
:mod:`~repro.scenarios.timeline`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..hosts import PROFILES

#: Host roles: clients run applications and generate traffic; servers
#: only accept remote work.
ROLES = ("client", "server")

#: Arrival-process kinds understood by :mod:`~repro.scenarios.arrivals`.
ARRIVAL_KINDS = ("poisson", "fixed", "onoff", "trace")

#: Think-time models applied between a completion and the next issue.
THINK_KINDS = ("none", "constant", "exponential")

#: Environment-timeline event kinds and the fault action pair each
#: compiles to (inject, recover).
TIMELINE_KINDS = {
    "bandwidth": ("degrade_bandwidth", "restore_bandwidth"),
    "latency": ("spike_latency", "restore_latency"),
    "partition": ("partition", "heal"),
    "server_down": ("crash_server", "restart_server"),
}

#: Timeline kinds whose target is a link (host pair), not a host.
PAIR_TIMELINE_KINDS = frozenset({"bandwidth", "latency", "partition"})


class ScenarioError(ValueError):
    """A scenario spec is malformed.

    Carries every problem found (not just the first) as
    :attr:`problems`, each prefixed with the dotted path of the field it
    concerns.
    """

    def __init__(self, problems: Sequence[str]):
        self.problems: Tuple[str, ...] = tuple(problems)
        super().__init__("invalid scenario:\n  " + "\n  ".join(self.problems))


def _structural(path: str, message: str) -> ScenarioError:
    return ScenarioError([f"{path}: {message}"])


def _check_mapping(value: Any, path: str, allowed: Sequence[str]) -> None:
    if not isinstance(value, Mapping):
        raise _structural(path, f"expected a mapping, got {type(value).__name__}")
    unknown = sorted(set(value) - set(allowed))
    if unknown:
        raise _structural(
            path,
            f"unknown key(s) {', '.join(map(repr, unknown))} "
            f"(known: {', '.join(allowed)})",
        )


def _field_names(cls) -> List[str]:
    return [f.name for f in fields(cls)]


@dataclass(frozen=True)
class HostSpec:
    """One machine of the world, by hardware-profile registry key."""

    name: str
    profile: str
    role: str = "server"
    battery_powered: bool = False
    battery_driver: str = "smart"

    @classmethod
    def from_dict(cls, data: Mapping, path: str) -> "HostSpec":
        _check_mapping(data, path, _field_names(cls))
        return cls(**data)


@dataclass(frozen=True)
class MediumSpec:
    """A shared medium (wireless LAN, serial wire): one capacity pool."""

    name: str
    bandwidth_bps: float
    latency_s: float = 0.002

    @classmethod
    def from_dict(cls, data: Mapping, path: str) -> "MediumSpec":
        _check_mapping(data, path, _field_names(cls))
        return cls(**data)


@dataclass(frozen=True)
class LinkSpec:
    """One edge of the topology.

    Either rides a declared shared ``medium`` (its capacity pool) or is
    a dedicated point-to-point link with its own ``bandwidth_bps`` /
    ``latency_s``.
    """

    a: str
    b: str
    medium: Optional[str] = None
    bandwidth_bps: Optional[float] = None
    latency_s: Optional[float] = None

    @property
    def pair(self) -> Tuple[str, str]:
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)

    @classmethod
    def from_dict(cls, data: Mapping, path: str) -> "LinkSpec":
        _check_mapping(data, path, _field_names(cls))
        return cls(**data)


@dataclass(frozen=True)
class AppSpec:
    """One application installed in the world.

    ``hosts`` names where the service runs (empty = every host);
    ``options`` is adapter-specific configuration (e.g. which Latex
    documents exist, speech utterance-length parameters).
    """

    kind: str
    hosts: Tuple[str, ...] = ()
    options: Mapping[str, Any] = field(default_factory=dict)

    def runs_on(self, host: str) -> bool:
        return not self.hosts or host in self.hosts

    @classmethod
    def from_dict(cls, data: Mapping, path: str) -> "AppSpec":
        _check_mapping(data, path, _field_names(cls))
        data = dict(data)
        data["hosts"] = tuple(data.get("hosts", ()))
        data["options"] = dict(data.get("options", {}))
        return cls(**data)


@dataclass(frozen=True)
class ArrivalSpec:
    """When a client issues operations, as a seeded arrival process.

    ``poisson``  memoryless arrivals at ``rate_ops_per_s``.
    ``fixed``    one operation every ``1/rate_ops_per_s`` seconds.
    ``onoff``    bursty: ``on_s`` of Poisson arrivals at
                 ``rate_ops_per_s``, then ``off_s`` of silence, repeated.
    ``trace``    replay the explicit ``times`` (seconds from phase start).

    ``n_ops`` caps the number of generated operations (None = whatever
    fits in the scenario duration).
    """

    kind: str
    rate_ops_per_s: float = 0.0
    n_ops: Optional[int] = None
    on_s: float = 0.0
    off_s: float = 0.0
    times: Tuple[float, ...] = ()

    @classmethod
    def from_dict(cls, data: Mapping, path: str) -> "ArrivalSpec":
        _check_mapping(data, path, _field_names(cls))
        data = dict(data)
        data["times"] = tuple(data.get("times", ()))
        return cls(**data)


@dataclass(frozen=True)
class ThinkSpec:
    """Per-client think time inserted after each completed operation."""

    kind: str = "none"
    mean_s: float = 0.0

    @classmethod
    def from_dict(cls, data: Mapping, path: str) -> "ThinkSpec":
        _check_mapping(data, path, _field_names(cls))
        return cls(**data)


@dataclass(frozen=True)
class ClientSpec:
    """One traffic source: a client host driving an app at some servers."""

    host: str
    app: str
    servers: Tuple[str, ...] = ()
    arrivals: ArrivalSpec = field(
        default_factory=lambda: ArrivalSpec(kind="trace", times=(0.0,))
    )
    think: ThinkSpec = field(default_factory=ThinkSpec)
    #: forced-alternative operations run before the measured phase so the
    #: demand models have history (the paper's training regimen)
    training_ops: int = 0

    @classmethod
    def from_dict(cls, data: Mapping, path: str) -> "ClientSpec":
        _check_mapping(data, path, _field_names(cls))
        data = dict(data)
        data["servers"] = tuple(data.get("servers", ()))
        if "arrivals" in data:
            data["arrivals"] = ArrivalSpec.from_dict(
                data["arrivals"], f"{path}.arrivals")
        if "think" in data:
            data["think"] = ThinkSpec.from_dict(data["think"], f"{path}.think")
        return cls(**data)


@dataclass(frozen=True)
class TimelineEventSpec:
    """One environment change: what happens, to what, when, until when.

    ``bandwidth``    link capacity drops to ``value`` × nominal.
    ``latency``      link one-way latency grows by ``value`` seconds.
    ``partition``    the link disappears.
    ``server_down``  the host crashes off the network.

    ``until_s`` schedules the matching recovery; ``None`` makes the
    change permanent for the rest of the run.
    """

    at_s: float
    kind: str
    target: Any  # host name, or [a, b] link pair
    value: Optional[float] = None
    until_s: Optional[float] = None

    @property
    def pair_target(self) -> Optional[Tuple[str, str]]:
        if isinstance(self.target, str):
            return None
        return tuple(self.target)

    @classmethod
    def from_dict(cls, data: Mapping, path: str) -> "TimelineEventSpec":
        _check_mapping(data, path, _field_names(cls))
        data = dict(data)
        target = data.get("target")
        if isinstance(target, (list, tuple)):
            data["target"] = tuple(target)
        return cls(**data)


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, runnable world description."""

    name: str
    description: str
    duration_s: float
    hosts: Tuple[HostSpec, ...]
    clients: Tuple[ClientSpec, ...]
    apps: Tuple[AppSpec, ...] = ()
    media: Tuple[MediumSpec, ...] = ()
    links: Tuple[LinkSpec, ...] = ()
    timeline: Tuple[TimelineEventSpec, ...] = ()
    seed: int = 1
    fileserver: str = "fs"
    #: simulated settle time between the training phase and the measured
    #: phase (lets monitor smoothing converge, as the experiments do)
    settle_s: float = 30.0

    # -- round-trip ---------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A plain-data mirror of this spec (JSON-serializable)."""
        data = asdict(self)
        for app in data["apps"]:
            app["hosts"] = list(app["hosts"])
            app["options"] = dict(app["options"])
        for client in data["clients"]:
            client["servers"] = list(client["servers"])
            client["arrivals"]["times"] = list(client["arrivals"]["times"])
        for event in data["timeline"]:
            if isinstance(event["target"], tuple):
                event["target"] = list(event["target"])
        return data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping, path: str = "scenario") -> "ScenarioSpec":
        _check_mapping(data, path, _field_names(cls))
        data = dict(data)
        for key, section in (("hosts", HostSpec), ("media", MediumSpec),
                             ("links", LinkSpec), ("apps", AppSpec),
                             ("clients", ClientSpec),
                             ("timeline", TimelineEventSpec)):
            entries = data.get(key, ())
            if not isinstance(entries, (list, tuple)):
                raise _structural(f"{path}.{key}", "expected a list")
            data[key] = tuple(
                section.from_dict(entry, f"{path}.{key}[{i}]")
                for i, entry in enumerate(entries)
            )
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise _structural("scenario", f"not valid JSON ({exc})") from None
        return cls.from_dict(data)

    # -- validation ---------------------------------------------------------------

    def validate(self) -> "ScenarioSpec":
        """Semantic validation; returns self, raises :class:`ScenarioError`.

        Collects *every* problem before raising, each message prefixed
        with the dotted path of the offending field.
        """
        problems: List[str] = []
        err = problems.append

        if not self.name:
            err("name: must be non-empty")
        if self.duration_s <= 0:
            err(f"duration_s: must be positive, got {self.duration_s}")
        if self.settle_s < 0:
            err(f"settle_s: must be non-negative, got {self.settle_s}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            err(f"seed: must be an integer, got {self.seed!r}")

        host_names = self._validate_hosts(err)
        #: everything a link endpoint may name (the file server is a
        #: network host the compiler registers implicitly)
        endpoints = host_names | {self.fileserver}
        medium_names = self._validate_media(err)
        link_pairs = self._validate_links(err, endpoints, medium_names)
        app_kinds = self._validate_apps(err, host_names)
        self._validate_clients(err, app_kinds)
        self._validate_timeline(err, host_names, link_pairs)

        if problems:
            raise ScenarioError(problems)
        return self

    def _validate_hosts(self, err) -> set:
        seen = set()
        for i, host in enumerate(self.hosts):
            path = f"hosts[{i}]"
            if not host.name:
                err(f"{path}.name: must be non-empty")
            if host.name in seen:
                err(f"{path}.name: duplicate host {host.name!r}")
            if host.name == self.fileserver:
                err(f"{path}.name: {host.name!r} collides with the "
                    f"file server host")
            seen.add(host.name)
            if host.profile not in PROFILES:
                err(f"{path}.profile: unknown profile {host.profile!r} "
                    f"(known: {', '.join(sorted(PROFILES))})")
            if host.role not in ROLES:
                err(f"{path}.role: unknown role {host.role!r} "
                    f"(known: {', '.join(ROLES)})")
        return seen

    def _validate_media(self, err) -> set:
        seen = set()
        for i, medium in enumerate(self.media):
            path = f"media[{i}]"
            if medium.name in seen:
                err(f"{path}.name: duplicate medium {medium.name!r}")
            seen.add(medium.name)
            if medium.bandwidth_bps <= 0:
                err(f"{path}.bandwidth_bps: must be positive, "
                    f"got {medium.bandwidth_bps}")
            if medium.latency_s < 0:
                err(f"{path}.latency_s: must be non-negative, "
                    f"got {medium.latency_s}")
        return seen

    def _validate_links(self, err, endpoints: set, medium_names: set) -> set:
        pairs = set()
        for i, link in enumerate(self.links):
            path = f"links[{i}]"
            for end, label in ((link.a, "a"), (link.b, "b")):
                if end not in endpoints:
                    err(f"{path}.{label}: unknown host {end!r}")
            if link.a == link.b:
                err(f"{path}: link endpoints must differ, got {link.a!r}")
            if link.pair in pairs:
                err(f"{path}: duplicate link {link.a!r}<->{link.b!r}")
            pairs.add(link.pair)
            if link.medium is not None:
                if link.medium not in medium_names:
                    err(f"{path}.medium: unknown medium {link.medium!r}")
                if link.bandwidth_bps is not None:
                    err(f"{path}.bandwidth_bps: a medium-attached link "
                        f"has no bandwidth of its own")
            else:
                if link.bandwidth_bps is None or link.bandwidth_bps <= 0:
                    err(f"{path}.bandwidth_bps: a dedicated link needs a "
                        f"positive bandwidth, got {link.bandwidth_bps!r}")
                if link.latency_s is None or link.latency_s < 0:
                    err(f"{path}.latency_s: a dedicated link needs a "
                        f"non-negative latency, got {link.latency_s!r}")
        return pairs

    def _validate_apps(self, err, host_names: set) -> set:
        # local import: the adapter registry imports app modules, and the
        # spec layer must stay importable without them
        from .compiler import ADAPTERS
        kinds = set()
        for i, app in enumerate(self.apps):
            path = f"apps[{i}]"
            if app.kind not in ADAPTERS:
                err(f"{path}.kind: unknown app {app.kind!r} "
                    f"(known: {', '.join(sorted(ADAPTERS))})")
            else:
                for key, message in ADAPTERS[app.kind].option_problems(
                        app.options):
                    err(f"{path}.options.{key}: {message}")
            if app.kind in kinds:
                err(f"{path}.kind: duplicate app {app.kind!r}")
            kinds.add(app.kind)
            for j, host in enumerate(app.hosts):
                if host not in host_names:
                    err(f"{path}.hosts[{j}]: unknown host {host!r}")
        return kinds

    def _validate_clients(self, err, app_kinds: set) -> None:
        hosts_by_name = {h.name: h for h in self.hosts}
        apps_by_kind = {a.kind: a for a in self.apps}
        if not self.clients:
            err("clients: at least one client is required")
        for i, client in enumerate(self.clients):
            path = f"clients[{i}]"
            host = hosts_by_name.get(client.host)
            if host is None:
                err(f"{path}.host: unknown host {client.host!r}")
            elif host.role != "client":
                err(f"{path}.host: {client.host!r} has role "
                    f"{host.role!r}, need 'client'")
            if client.app not in app_kinds:
                err(f"{path}.app: unknown app {client.app!r} "
                    f"(declared: {', '.join(sorted(app_kinds)) or 'none'})")
            app = apps_by_kind.get(client.app)
            for j, server in enumerate(client.servers):
                server_host = hosts_by_name.get(server)
                if server_host is None:
                    err(f"{path}.servers[{j}]: unknown host {server!r}")
                    continue
                if server == client.host:
                    err(f"{path}.servers[{j}]: a client cannot list "
                        f"itself as a remote server")
                if app is not None and not app.runs_on(server):
                    err(f"{path}.servers[{j}]: host {server!r} does not "
                        f"run app {client.app!r}")
            if client.training_ops < 0:
                err(f"{path}.training_ops: must be non-negative, "
                    f"got {client.training_ops}")
            self._validate_arrivals(err, f"{path}.arrivals", client.arrivals)
            self._validate_think(err, f"{path}.think", client.think)

    def _validate_arrivals(self, err, path: str, arrivals: ArrivalSpec) -> None:
        if arrivals.kind not in ARRIVAL_KINDS:
            err(f"{path}.kind: unknown arrival process {arrivals.kind!r} "
                f"(known: {', '.join(ARRIVAL_KINDS)})")
            return
        if arrivals.kind in ("poisson", "fixed", "onoff"):
            if arrivals.rate_ops_per_s <= 0:
                err(f"{path}.rate_ops_per_s: must be positive for "
                    f"{arrivals.kind!r}, got {arrivals.rate_ops_per_s}")
        if arrivals.kind == "onoff":
            if arrivals.on_s <= 0 or arrivals.off_s < 0:
                err(f"{path}: onoff needs on_s > 0 and off_s >= 0, "
                    f"got on_s={arrivals.on_s}, off_s={arrivals.off_s}")
        if arrivals.kind == "trace":
            if not arrivals.times:
                err(f"{path}.times: trace replay needs at least one time")
            for j, t in enumerate(arrivals.times):
                if t < 0:
                    err(f"{path}.times[{j}]: must be non-negative, got {t}")
            if list(arrivals.times) != sorted(arrivals.times):
                err(f"{path}.times: must be sorted ascending")
        if arrivals.n_ops is not None and arrivals.n_ops < 1:
            err(f"{path}.n_ops: must be >= 1 when set, got {arrivals.n_ops}")

    def _validate_think(self, err, path: str, think: ThinkSpec) -> None:
        if think.kind not in THINK_KINDS:
            err(f"{path}.kind: unknown think-time model {think.kind!r} "
                f"(known: {', '.join(THINK_KINDS)})")
        elif think.kind != "none" and think.mean_s <= 0:
            err(f"{path}.mean_s: must be positive for {think.kind!r}, "
                f"got {think.mean_s}")

    def _validate_timeline(self, err, host_names: set, link_pairs: set) -> None:
        for i, event in enumerate(self.timeline):
            path = f"timeline[{i}]"
            if event.kind not in TIMELINE_KINDS:
                err(f"{path}.kind: unknown event kind {event.kind!r} "
                    f"(known: {', '.join(sorted(TIMELINE_KINDS))})")
                continue
            if event.at_s < 0:
                err(f"{path}.at_s: must be non-negative, got {event.at_s}")
            if event.until_s is not None and event.until_s <= event.at_s:
                err(f"{path}.until_s: must be after at_s "
                    f"({event.until_s} <= {event.at_s})")
            if event.kind in PAIR_TIMELINE_KINDS:
                pair = event.pair_target
                if pair is None or len(pair) != 2:
                    err(f"{path}.target: {event.kind!r} takes an "
                        f"[a, b] link pair, got {event.target!r}")
                else:
                    key = pair if pair[0] <= pair[1] else (pair[1], pair[0])
                    if key not in link_pairs:
                        err(f"{path}.target: no declared link "
                            f"{pair[0]!r}<->{pair[1]!r}")
            else:
                if not isinstance(event.target, str):
                    err(f"{path}.target: {event.kind!r} takes a host "
                        f"name, got {event.target!r}")
                elif event.target not in host_names:
                    err(f"{path}.target: unknown host {event.target!r}")
            if event.kind == "bandwidth":
                if event.value is None or not 0.0 <= event.value < 1.0:
                    err(f"{path}.value: bandwidth needs a kept-fraction "
                        f"in [0, 1), got {event.value!r}")
            if event.kind == "latency":
                if event.value is None or event.value <= 0:
                    err(f"{path}.value: latency needs positive added "
                        f"seconds, got {event.value!r}")
