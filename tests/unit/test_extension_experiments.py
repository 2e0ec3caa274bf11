"""Unit tests for the extension-experiment plumbing (parallel, contention)."""

import pytest

from repro.experiments.contention import (
    ContentionCell,
    render_contention_table,
)
from repro.experiments.parallel import ParallelCell, render_parallel_table
from repro.hosts import SERVER_B
from repro.scenarios import AppSpec, compile_scenario, thinkpad_testbed


class TestParallelCell:
    def test_speedup(self):
        cell = ParallelCell(words=10, sequential_s=3.0, parallel_s=2.0,
                            spectra_choice="x", spectra_s=2.1)
        assert cell.speedup == pytest.approx(1.5)

    def test_render_table_contains_both_testbeds(self):
        cell = ParallelCell(words=10, sequential_s=3.0, parallel_s=2.0,
                            spectra_choice="parallel-engines@b",
                            spectra_s=2.1)
        text = render_parallel_table([cell], [cell])
        assert "twin 933 MHz servers" in text
        assert "original 933/400 MHz servers" in text
        assert "1.50x" in text


class TestTwinServerWorld:
    def test_server_a_upgraded_to_b_class(self):
        world = compile_scenario(
            thinkpad_testbed(AppSpec(kind="pangloss"), twin=True))
        assert world.nodes["server-a"].host.cpu.cycles_per_second == (
            SERVER_B.cycles_per_second
        )
        assert world.nodes["server-b"].host.cpu.cycles_per_second == (
            SERVER_B.cycles_per_second
        )


class TestContentionCell:
    def test_advantage(self):
        cell = ContentionCell(n_clients=4, spectra_mean_s=10.0,
                              always_remote_mean_s=12.0,
                              spectra_local_count=1)
        assert cell.advantage == pytest.approx(1.2)

    def test_render_table(self):
        cell = ContentionCell(n_clients=8, spectra_mean_s=13.9,
                              always_remote_mean_s=17.1,
                              spectra_local_count=3)
        text = render_contention_table([cell])
        assert "8" in text and "1.23x" in text and "went local" in text
