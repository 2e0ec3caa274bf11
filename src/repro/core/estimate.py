"""Demand→prediction bridge: evaluating one alternative's cost.

This module encodes the paper's §3.6 prediction model:

    "The default utility function predicts execution time to be the sum
    of local and remote CPU time, network transmission time, time to
    service cache misses, and time to ensure data consistency.  This
    simple model reflects Spectra's current implementation, which does
    not allow computation and network transmission to overlap."

* local/remote CPU time = predicted cycles / predicted cycles-per-second
* network time = predicted bytes / bandwidth + predicted RPCs × RTT
* cache-miss time = expected uncached bytes (file predictor × cache
  state of the machine reading the files) / its fetch rate
* consistency time = CML bytes of volumes containing likely-accessed
  dirty files / bandwidth to the file server (§3.5)

Energy is predicted from the operation's measured energy model (§3.3.3),
binned like every other resource.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

from ..coda import REINTEGRATION_EFFICIENCY, volume_of
from ..monitors import ResourceSnapshot
from ..predictors import NoModelError, OperationDemandPredictor
from .operation import OperationSpec
from .plans import Alternative
from .utility import AlternativePrediction


class DemandEstimator:
    """Evaluates alternatives against one resource snapshot.

    Constructed fresh for every ``begin_fidelity_op`` call, closing over
    the operation's demand predictor, the snapshot, and the call's input
    parameters/data object.  The solver calls :meth:`predict` once per
    search point.
    """

    def __init__(
        self,
        spec: OperationSpec,
        predictor: OperationDemandPredictor,
        snapshot: ResourceSnapshot,
        params: Dict[str, float],
        data_object: Optional[str] = None,
        always_reintegrate: bool = False,
    ):
        self.spec = spec
        self.predictor = predictor
        self.snapshot = snapshot
        self.params = dict(params)
        self.data_object = data_object
        self.always_reintegrate = always_reintegrate

    # -- the prediction ---------------------------------------------------------------

    def predict(self, alternative: Alternative) -> AlternativePrediction:
        """Full cost prediction for one alternative.

        Infeasible alternatives (unreachable server, no demand model yet,
        disconnected cache miss) come back with ``feasible=False`` and an
        explanatory reason rather than raising: the solver must be able
        to search past them.
        """
        discrete, continuous_fid = self.spec.decision_context(alternative)
        try:
            return self._predict_inner(alternative, discrete, continuous_fid)
        except NoModelError as exc:
            return AlternativePrediction(
                alternative=alternative,
                total_time_s=float("inf"),
                energy_joules=float("inf"),
                feasible=False,
                infeasible_reason=f"no demand model: {exc}",
            )

    def _predict_inner(self, alternative: Alternative,
                       discrete: Dict[str, Any],
                       continuous_fid: Optional[Dict[str, float]] = None,
                       ) -> AlternativePrediction:
        plan = alternative.plan
        components: Dict[str, float] = {}
        demand: Dict[str, float] = {}
        features = ({**self.params, **continuous_fid} if continuous_fid
                    else self.params)
        predict = self.predictor.predict
        data_object = self.data_object

        # --- local CPU ---------------------------------------------------------
        local_cycles = predict("cpu:local", discrete, features, data_object)
        demand["cpu:local"] = local_cycles
        local_rate = max(self.snapshot.local_cpu_rate_cps, 1.0)
        components["local_cpu"] = local_cycles / local_rate

        # --- remote CPU + network ----------------------------------------------
        if plan.uses_remote:
            server = self.snapshot.servers.get(alternative.server or "")
            if server is None or not server.reachable:
                return AlternativePrediction(
                    alternative=alternative,
                    total_time_s=float("inf"), energy_joules=float("inf"),
                    feasible=False,
                    infeasible_reason=f"server {alternative.server!r} unreachable",
                )
            remote_cycles = predict("cpu:remote", discrete, features,
                                    data_object)
            demand["cpu:remote"] = remote_cycles
            remote_rate = max(server.cpu_rate_cps, 1.0)
            # Parallel plans spread remote cycles over up to `parallelism`
            # reachable servers (the chosen one plus the fastest others).
            # Assuming an even cycle split, completion is gated by the
            # *slowest* participating server, so remote CPU time is
            # cycles/degree at the bottleneck rate.  (Exact per-branch
            # times would need per-component demand models, which the
            # binned predictor deliberately avoids.)
            degree = 1
            bottleneck_rate = remote_rate
            if plan.parallelism > 1:
                others = sorted(
                    (s.cpu_rate_cps for s in self.snapshot.reachable_servers()
                     if s.name != alternative.server),
                    reverse=True,
                )
                extra = others[: plan.parallelism - 1]
                degree = 1 + len(extra)
                if extra:
                    bottleneck_rate = max(min([remote_rate] + extra), 1.0)
            components["remote_cpu"] = remote_cycles / (bottleneck_rate * degree)

            net_bytes = predict("net:bytes", discrete, features, data_object)
            net_rpcs = predict("net:rpcs", discrete, features, data_object)
            demand["net:bytes"] = net_bytes
            demand["net:rpcs"] = net_rpcs
            if server.network.bandwidth_bps <= 0:
                return AlternativePrediction(
                    alternative=alternative,
                    total_time_s=float("inf"), energy_joules=float("inf"),
                    feasible=False,
                    infeasible_reason=f"no connectivity to {alternative.server!r}",
                )
            components["network"] = (
                net_bytes / server.network.bandwidth_bps
                + net_rpcs * 2.0 * server.network.latency_s
            )
        else:
            components["remote_cpu"] = 0.0
            components["network"] = 0.0

        # --- cache misses --------------------------------------------------------
        cache = (self.snapshot.local_cache if plan.file_access_role == "local"
                 else self.snapshot.server(alternative.server).cache)
        expected_fetch = self.predictor.files.expected_fetch_bytes(
            discrete, cache.cached_files, data_object=self.data_object
        )
        demand["fetch:bytes"] = expected_fetch
        miss_time = cache.miss_time(expected_fetch)
        if math.isinf(miss_time):
            return AlternativePrediction(
                alternative=alternative,
                total_time_s=float("inf"), energy_joules=float("inf"),
                feasible=False,
                infeasible_reason="cache miss with file server unreachable",
            )
        components["cache_miss"] = miss_time

        # --- consistency -----------------------------------------------------------
        components["consistency"] = self._consistency_time(alternative, discrete)
        if math.isinf(components["consistency"]):
            return AlternativePrediction(
                alternative=alternative,
                total_time_s=float("inf"), energy_joules=float("inf"),
                feasible=False,
                infeasible_reason="reintegration needed but file server unreachable",
            )

        total_time = sum(components.values())

        # --- energy -----------------------------------------------------------------
        try:
            energy = predict("energy:client", discrete, features, data_object)
        except NoModelError:
            # Energy may be unmeasured on wall-only platforms; treat as
            # "free" — with c == 0 it cannot affect utility anyway.
            energy = 0.0
        demand["energy:client"] = energy

        return AlternativePrediction(
            alternative=alternative,
            total_time_s=total_time,
            energy_joules=energy,
            components=components,
            demand=demand,
        )

    # -- pieces ------------------------------------------------------------------------

    def reintegration_volumes(self, alternative: Alternative) -> List[str]:
        """Dirty volumes a remote execution must flush first (§3.5).

        A volume must reintegrate when it is dirty and contains at least
        one file the operation will access with non-zero likelihood.
        """
        if alternative.plan.file_access_role != "remote":
            return []
        if not self.snapshot.dirty_volumes:
            return []
        if self.always_reintegrate:
            # Ablation: volume selection disabled; flush everything.
            return sorted(self.snapshot.dirty_volumes)
        discrete, _continuous = self.spec.decision_context(alternative)
        likely = self.predictor.files.likely_files(
            discrete, data_object=self.data_object
        )
        needed = set()
        for path in likely:
            volume = volume_of(path)
            if volume in self.snapshot.dirty_volumes:
                needed.add(volume)
        return sorted(needed)

    def _consistency_time(self, alternative: Alternative,
                          discrete: Dict[str, Any]) -> float:
        volumes = self.reintegration_volumes(alternative)
        if not volumes:
            return 0.0
        nbytes = sum(self.snapshot.dirty_volumes[v] for v in volumes)
        fs_net = self.snapshot.fileserver_network
        if fs_net is None or fs_net.bandwidth_bps <= 0:
            return float("inf")
        # Reintegration achieves only a fraction of raw link bandwidth
        # (Coda RPC2 chattiness) — the same constant execution uses.
        effective = fs_net.bandwidth_bps * REINTEGRATION_EFFICIENCY
        return nbytes / effective + fs_net.latency_s
