"""Tests for the simulation statistics container."""

from repro.sim.stats import SimulationStats


class TestSimulationStats:
    def test_defaults(self):
        stats = SimulationStats()
        assert stats.total_cycles == 0
        assert stats.pe_utilization == 0.0
        assert stats.gated_register_fraction == 0.0

    def test_merge_accumulates(self):
        a = SimulationStats(weight_load_cycles=5, compute_cycles=10, mac_operations=100)
        b = SimulationStats(weight_load_cycles=3, compute_cycles=7, mac_operations=50)
        a.merge(b)
        assert a.weight_load_cycles == 8
        assert a.compute_cycles == 17
        assert a.mac_operations == 150

    def test_merge_returns_self(self):
        a = SimulationStats()
        assert a.merge(SimulationStats()) is a

    def test_as_dict_contains_derived_metrics(self):
        stats = SimulationStats(
            weight_load_cycles=2,
            compute_cycles=8,
            active_pe_cycles=5,
            total_pe_cycles=10,
        )
        d = stats.as_dict()
        assert d["total_cycles"] == 10
        assert d["pe_utilization"] == 0.5
