#!/usr/bin/env python
"""Walking into a smart office: dynamic discovery + persistent learning.

The pervasive-computing vision of the paper's introduction: a handheld
enters a well-conditioned environment, *discovers* the compute servers
it offers (the SLP-style directory extension of §3.2), and immediately
exploits them using demand models *learned in previous sessions* (the
usage-log persistence extension of §3.4) — no training phase, no static
configuration.

The office world itself is the canned ``walk-in-office`` scenario spec
(``repro scenario list``); this driver only adds what the declarative
model cannot express — the directory service, the discovery loop, and
the warm-started fidelity registration.

Run:  python examples/walk_in_office.py
"""

from repro.apps import SpeechWorkload
from repro.discovery import DirectoryService, start_advertising, start_discovery
from repro.scenarios import canned_spec, compile_scenario, itsy_testbed


def learn_at_home() -> str:
    """Session 1 (yesterday, at home): train on the serial-link testbed
    and export what was learned."""
    world = compile_scenario(itsy_testbed())
    client = world.clients[0].client
    app = world.clients[0].app
    alternatives = app.spec.alternatives(["t20"])
    for i, length in enumerate(SpeechWorkload().training(15)):
        world.sim.run_process(
            app.recognize(length, force=alternatives[i % len(alternatives)])
        )
    print(f"  trained on 15 utterances; exporting "
          f"{len(client.operation(app.spec.name).predictor.log)} "
          "usage samples")
    return client.export_usage_log(app.spec.name)


def walk_into_office(learned: str) -> None:
    """Session 2 (today, at the office): the canned ``walk-in-office``
    world, but with an *empty* server database — the client must
    discover the office server and warm-start from yesterday's log."""
    world = compile_scenario(canned_spec("walk-in-office"),
                             connect_clients=False, register_apps=False)
    sim = world.sim
    world.nodes["directory"].register_service(DirectoryService(sim))

    compiled = world.clients[0]
    client = compiled.client
    app = compiled.app
    # Warm start: yesterday's models, today's world.
    sim.run_process(client.register_fidelity(
        app.spec, usage_log_json=learned,
    ))
    app._registered = True

    print(f"  client's server database on arrival: "
          f"{client.server_names() or '(empty)'}")

    start_advertising(world.nodes["office-server"].server, "directory",
                      interval_s=5.0)
    start_discovery(client, "directory", interval_s=5.0)
    sim.advance(12.0)
    print(f"  ...after 12 s of discovery: {client.known_servers()}")

    report = sim.run_process(app.recognize(2.0))
    how = "solver (warm-started)" if report.prediction else "exploration"
    print(f"  first utterance: {report.alternative.describe()}"
          f"  {report.elapsed_s:.2f}s  via {how}")


def main() -> None:
    print("Session 1 — at home, serial link to the laptop:")
    learned = learn_at_home()
    print("\nSession 2 — walking into the office (WLAN, unknown server):")
    walk_into_office(learned)
    print("\nNo static configuration and no retraining: the directory "
          "supplied the\nserver, the exported usage log supplied the "
          "models, and the first\nutterance was placed by the solver.")


if __name__ == "__main__":
    main()
