#!/usr/bin/env python
"""A voice assistant on the Itsy: the paper's §4.1 world, interactive.

Reproduces the speech-recognition deployment — Janus on a Compaq Itsy
v2.2 pocket computer with an IBM T20 laptop reachable over a serial
link — and walks through a day in its life:

* morning at the desk (wall power, everything idle) → hybrid plan;
* on the move with an ambitious battery goal → remote plan (the radio
  is cheaper than the Itsy's CPU);
* a flaky serial link at half bandwidth → hybrid again;
* the laptop disappears entirely → local, reduced vocabulary.

Run:  python examples/speech_assistant.py
"""

from repro.apps import FULL_LM_PATH, SpeechWorkload
from repro.scenarios import compile_scenario, itsy_testbed
from repro.scenarios.library import SERIAL_BANDWIDTH_BPS


def main() -> None:
    # The world: files installed, caches warm, services running, the
    # client connected to the T20 and the speech app registered.
    world = compile_scenario(itsy_testbed())
    sim = world.sim
    itsy, t20 = world.nodes["itsy"], world.nodes["t20"]
    app = world.clients[0].app

    print("Training the demand models (15 utterances)...")
    alternatives = app.spec.alternatives(["t20"])
    for i, length in enumerate(SpeechWorkload().training(15)):
        sim.run_process(
            app.recognize(length, force=alternatives[i % len(alternatives)])
        )
    sim.advance(30.0)
    world.poll()

    def say(phrase_len, label):
        report = sim.run_process(app.recognize(phrase_len))
        alt = report.alternative
        print(f"  {label:42s} -> {alt.plan.name:6s}"
              f"{('@' + alt.server) if alt.server else '':5s}"
              f" vocab={alt.fidelity_dict()['vocab']:8s}"
              f" {report.elapsed_s:5.2f}s {report.energy_joules:5.2f}J")

    print("\nAt the desk (wall power, idle machines):")
    say(2.0, '"What is on my calendar today?"')

    print("\nWalking to a meeting (10-hour battery goal, moderate c):")
    itsy.host.goal_adaptation.set_importance(0.15)
    say(2.0, '"Remind me to call the lab at four."')
    itsy.host.goal_adaptation.set_importance(0.0)

    print("\nSerial link degraded to half bandwidth:")
    world.media["serial"].set_bandwidth(SERIAL_BANDWIDTH_BPS / 2.0)
    for _ in range(3):
        world.poll()
    say(2.0, '"Read me the last message."')

    print("\nLaptop gone (Spectra server unreachable), language model "
          "evicted:")
    itsy.coda.flush(FULL_LM_PATH)
    # The Spectra daemon on the T20 goes down; the file server behind
    # the same serial wire stays reachable.
    t20.server.available = False
    world.poll()
    say(2.0, '"Start a voice memo."')

    print("\nEvery decision above was made by the same self-tuned models —"
          "\nno application code changed between scenarios.")


if __name__ == "__main__":
    main()
