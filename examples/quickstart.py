#!/usr/bin/env python
"""Quickstart: build a Spectra system from scratch and watch it adapt.

This example wires a two-machine world by hand — a slow battery-powered
handheld and a fast wall-powered server — registers a custom application
operation, and shows the whole self-tuning loop:

1. exploration while the demand models are empty,
2. solver-driven placement once trained,
3. adaptation when the environment changes (server load appears).

Run:  python examples/quickstart.py

Pass ``--trace run.jsonl`` to stream every span of the run to a JSONL
trace; inspect it afterwards with
``python -m repro trace run.jsonl [--explain]``.
"""

import argparse

from repro.coda import FileServer
from repro.core import OperationSpec, SpectraNode, local_plan, remote_plan
from repro.hosts import HostProfile
from repro.network import Link, Network
from repro.odyssey import FidelitySpec
from repro.rpc import OpContext, OpResult, RpcTransport, Service
from repro.sim import Simulator
from repro.telemetry import jsonl_trace


# ---------------------------------------------------------------------------
# 1. An application service: an image-filter pipeline whose cost scales
#    with the number of megapixels.
# ---------------------------------------------------------------------------
class ImageFilterService(Service):
    name = "imagefilter"

    CYCLES_PER_MEGAPIXEL = 2e8

    def perform(self, ctx: OpContext):
        megapixels = float(ctx.params["megapixels"])
        yield from ctx.compute(self.CYCLES_PER_MEGAPIXEL * megapixels)
        return OpResult(outdata_bytes=int(200_000 * megapixels))


def main(trace_path=None) -> None:
    if trace_path is None:
        run()
        return
    with jsonl_trace(trace_path) as telemetry:
        run(telemetry)
    with open(trace_path) as fh:
        lines = sum(1 for _ in fh)
    print(f"telemetry: {lines} records written to {trace_path}; "
          f"inspect with `python -m repro trace {trace_path}`")


def run(telemetry=None) -> None:
    # -----------------------------------------------------------------------
    # 2. Build the world: simulator, network, hosts.  With --trace, one
    #    Telemetry object observes every layer; without it the shared
    #    null telemetry keeps the run bit-identical to seed behaviour.
    # -----------------------------------------------------------------------
    sim = Simulator(telemetry=telemetry)
    network = Network(sim)
    transport = RpcTransport(sim, network, telemetry=telemetry)
    fileserver = FileServer(sim, "fs")
    network.register_host("fs")

    handheld_hw = HostProfile(
        name="Handheld", cycles_per_second=150e6,
        idle_power_watts=0.3, cpu_active_power_watts=1.2,
        net_tx_power_watts=0.4, net_rx_power_watts=0.3,
        battery_capacity_joules=8_000.0,
    )
    server_hw = HostProfile(name="Desktop", cycles_per_second=1.5e9)

    handheld = SpectraNode(sim, network, transport, fileserver,
                           "handheld", handheld_hw, battery_powered=True,
                           telemetry=telemetry)
    desktop = SpectraNode(sim, network, transport, fileserver,
                          "desktop", server_hw, with_client=False,
                          telemetry=telemetry)

    # An 11 Mb/s WLAN between them.
    network.connect("handheld", "desktop",
                    Link(sim, bandwidth_bps=1.4e6, latency_s=0.003))
    network.connect("handheld", "fs", Link(sim, 1.4e6, 0.003))
    network.connect("desktop", "fs", Link(sim, 12.5e6, 0.001))

    for node in (handheld, desktop):
        node.register_service(ImageFilterService())

    client = handheld.require_client()
    client.add_server("desktop")
    sim.run_process(client.poll_servers())

    # -----------------------------------------------------------------------
    # 3. Register the operation (the paper's register_fidelity call).
    # -----------------------------------------------------------------------
    spec = OperationSpec(
        name="filter-image",
        plans=(local_plan("filter on the handheld"),
               remote_plan("ship the image to a server")),
        fidelity=FidelitySpec.fixed(),
        input_params=("megapixels",),
    )
    sim.run_process(client.register_fidelity(spec))

    # -----------------------------------------------------------------------
    # 4. Run operations through the Figure-1 API.
    # -----------------------------------------------------------------------
    def filter_image(megapixels, tag):
        def op():
            handle = yield from client.begin_fidelity_op(
                "filter-image", params={"megapixels": megapixels},
            )
            image_bytes = int(400_000 * megapixels)
            if handle.plan_name == "remote":
                yield from client.do_remote_op(
                    handle, "imagefilter", "run",
                    indata_bytes=image_bytes,
                    params={"megapixels": megapixels},
                )
            else:
                yield from client.do_local_op(
                    handle, "imagefilter", "run",
                    params={"megapixels": megapixels},
                )
            return (yield from client.end_fidelity_op(handle))

        report = sim.run_process(op())
        how = ("exploring" if report.prediction is None else "solver")
        print(f"  [{tag}] {megapixels:4.1f} MP -> {report.alternative.describe():28s}"
              f" {report.elapsed_s:6.2f}s  {report.energy_joules:5.2f}J  ({how})")
        return report

    print("Phase 1 — self-tuning (first runs explore each plan):")
    for i, mp in enumerate((2.0, 3.0, 2.5, 4.0, 3.5)):
        filter_image(mp, f"train {i}")

    print("\nPhase 2 — steady state (big images: the server wins):")
    filter_image(6.0, "probe")

    print("\nPhase 3 — the desktop gets busy (8 competing processes):")
    desktop.host.start_background_load(8)
    sim.advance(30.0)
    sim.run_process(client.poll_servers())
    filter_image(6.0, "probe")
    desktop.host.stop_background_load()

    print("\nPhase 4 — desktop free again:")
    sim.advance(30.0)
    sim.run_process(client.poll_servers())
    filter_image(6.0, "probe")

    remaining = handheld.host.battery.fraction_remaining
    print(f"\nHandheld battery remaining: {remaining:.1%}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="stream a telemetry JSONL trace of the run")
    main(trace_path=parser.parse_args().trace)
