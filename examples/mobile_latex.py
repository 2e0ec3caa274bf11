#!/usr/bin/env python
"""Document preparation on the move: Latex, Coda, and consistency.

The paper's §4.2 world: a ThinkPad 560X editing papers over a shared
2 Mb/s wireless network, with two compute servers and a Coda file
server.  This example focuses on the *data consistency* story:

* strongly connected, warm caches → the fast server B wins;
* the user edits an input while weakly connected → the edit buffers in
  the client modify log; running remotely now requires reintegration
  over the slow wireless link, so Spectra keeps the small paper local;
* the other document lives in a different Coda volume, so *its* remote
  execution needs no reintegration at all — volume granularity at work.

Run:  python examples/mobile_latex.py
"""

from repro.apps import SMALL_DOCUMENT, LatexWorkload
from repro.scenarios import AppSpec, compile_scenario, thinkpad_testbed


def main() -> None:
    # The world: both documents installed and cached on every machine,
    # Latex services running, the client connected and registered.
    latex_app = AppSpec(kind="latex", options={"documents": ["small", "large"]})
    world = compile_scenario(thinkpad_testbed(latex_app))
    sim = world.sim
    thinkpad = world.nodes["560x"]
    app = world.clients[0].app

    print("Training (20 alternating runs)...")
    placements = app.spec.alternatives(["server-a", "server-b"])
    for i, doc in enumerate(LatexWorkload().training(20)):
        sim.run_process(app.format(doc, force=placements[i % 3]))
    sim.advance(30.0)
    world.poll()

    def latex(doc, label):
        report = sim.run_process(app.format(doc))
        where = report.alternative.server or "locally"
        print(f"  {label:52s} -> {where:9s} {report.elapsed_s:6.2f}s")
        return report

    print("\nIn the office (strong connectivity, caches warm):")
    latex("small", "latex paper.tex          (14 pages)")
    latex("large", "latex dissertation.tex  (123 pages)")

    print("\nOn the train: weakly connected; editing paper.tex...")
    thinkpad.coda.weakly_connected = True
    # A couple of local builds leave dirty .dvi/.aux in the volume...
    local = app.spec.alternatives([])[0]
    sim.run_process(app.format("small", force=local))
    # ...and the edit itself buffers in the client modify log.
    sim.run_process(
        thinkpad.coda.modify(SMALL_DOCUMENT.main_input, 70 * 1024)
    )
    pending = thinkpad.coda.cml.total_pending_bytes()
    print(f"  (client modify log now holds {pending / 1024:.0f} KB "
          "awaiting reintegration)")
    world.poll()

    latex("small", "latex paper.tex       (its volume is dirty!)")
    latex("large", "latex dissertation.tex (clean volume)")

    print("\nThe small paper stayed local: pushing the dirty volume over "
          "wireless\nwould cost more than the faster server saves.  The "
          "dissertation still\nwent remote — its volume is clean, so "
          "volume-granularity reintegration\ncosts it nothing.")


if __name__ == "__main__":
    main()
