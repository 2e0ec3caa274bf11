"""Wall-clock performance layer: the ``repro bench`` harness.

The simulation's *results* are functions of simulated time and fully
deterministic; how much **host** CPU it burns producing them is not.
End-to-end and per-layer costs are measured by the repository benchmark
(``bench/``).  This package keeps the one gate that benchmark does not
give: the ``kernel`` suite and its ratchet on the virtual-time
fair-share scheduler.

* :mod:`.timing` — best-of-N ``perf_counter`` primitives (the one
  module in ``src/repro`` exempt from the SPC001 wall-clock lint);
* :mod:`.kernel` — event-loop, timer and contended-scheduler
  throughput, the legacy scheduler timed against the shipping one;
* :mod:`.schema` — the versioned ``spectra-bench/1`` document format
  CI validates (shape is gated, timings never are);
* :mod:`.cli` — the ``repro bench`` command and the kernel ratchet.
"""

from .schema import (
    SCHEMA,
    BenchSchemaError,
    validate_bench_doc,
    validate_bench_file,
)
from .timing import Measurement, measure, stopwatch

__all__ = [
    "SCHEMA",
    "BenchSchemaError",
    "Measurement",
    "measure",
    "stopwatch",
    "validate_bench_doc",
    "validate_bench_file",
]
