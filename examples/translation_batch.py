#!/usr/bin/env python
"""Batch translation with quality adaptation: Pangloss-Lite (§4.3).

Translates a batch of Spanish sentences of varying length through
Spectra.  Watch two axes adapt at once:

* **fidelity** — short sentences afford all three engines (quality 1.0);
  long ones drop the glossary engine to stay under the 5-second
  usefulness cutoff;
* **placement** — the CPU-hungry EBMT engine goes wherever cycles are
  cheapest, and flees server B when its 12 MB corpus is evicted there.

Run:  python examples/translation_batch.py
"""

from repro.apps import ENGINE_FILES, SentenceWorkload, active_engines
from repro.scenarios import AppSpec, compile_scenario, thinkpad_testbed


def main() -> None:
    # The world: knowledge bases installed and cached everywhere,
    # Pangloss services running, the client connected and registered.
    world = compile_scenario(thinkpad_testbed(AppSpec(kind="pangloss")))
    sim = world.sim
    app = world.clients[0].app

    print("Training on 129 sentences (the paper's regimen)...")
    alternatives = app.spec.alternatives(["server-a", "server-b"])
    for i, words in enumerate(SentenceWorkload().training(129)):
        sim.run_process(
            app.translate(words, force=alternatives[i % len(alternatives)])
        )
    sim.advance(30.0)
    world.poll()

    def translate(words):
        report = sim.run_process(app.translate(words))
        fidelity = report.alternative.fidelity_dict()
        engines = "+".join(active_engines(fidelity)) or "(none)"
        where = report.alternative.server or "local"
        quality = sum({"ebmt": 0.5, "glossary": 0.3,
                       "dictionary": 0.2}[e]
                      for e in active_engines(fidelity))
        print(f"  {words:3d} words -> {where:9s} engines={engines:28s}"
              f" quality={quality:.1f} {report.elapsed_s:5.2f}s")

    print("\nBatch 1 — well-conditioned environment:")
    for words in (4, 8, 14, 22, 30):
        translate(words)

    print("\nBatch 2 — the 12 MB EBMT corpus is evicted from server B:")
    world.nodes["server-b"].coda.flush(ENGINE_FILES["ebmt"][0])
    world.poll()
    for words in (4, 14, 30):
        translate(words)

    print("\nShort sentences keep full quality; long ones shed the "
          "glossary engine\nto stay responsive, and the whole pipeline "
          "avoids the server whose\ncorpus cache went cold.")


if __name__ == "__main__":
    main()
