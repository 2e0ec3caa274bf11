"""Shared machinery for the figure-regeneration benchmarks.

Each benchmark regenerates one table or figure of the paper's §4 and
writes its text rendering to ``benchmarks/results/``.  The expensive
experiments (each trains a simulated testbed and measures every
alternative on deep copies of it) are memoized per pytest session so
that e.g. Figure 3 (execution time) and Figure 4 (energy) share one run
of the speech experiment, exactly as they share one set of measurements
in the paper.
"""

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_cache = {}


def cached(key, compute):
    """Session-scoped memoization for experiment sweeps."""
    if key not in _cache:
        _cache[key] = compute()
    return _cache[key]


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_figure(results_dir, name, text):
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
