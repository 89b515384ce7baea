"""Tests for the simulation trace and statistics containers."""

from repro.sim.stats import SimulationStats
from repro.sim.trace import CycleTrace, TraceEvent


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

    def test_merge_extra_dict(self):
        a = SimulationStats(extra={"x": 1.0})
        b = SimulationStats(extra={"x": 2.0, "y": 3.0})
        a.merge(b)
        assert a.extra == {"x": 3.0, "y": 3.0}

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


class TestCycleTrace:
    def test_record_and_filter(self):
        trace = CycleTrace()
        trace.record(1, "a", x=1)
        trace.record(2, "b", y=2)
        trace.record(3, "a", x=3)
        assert len(trace) == 3
        assert [e.cycle for e in trace.events("a")] == [1, 3]

    def test_disabled_trace_records_nothing(self):
        trace = CycleTrace(enabled=False)
        trace.record(1, "a")
        assert len(trace) == 0

    def test_max_events_cap(self):
        trace = CycleTrace(max_events=2)
        for i in range(5):
            trace.record(i, "a")
        assert len(trace) == 2
        assert trace.dropped_events == 3

    def test_first_and_last_cycle(self):
        trace = CycleTrace()
        trace.record(4, "a")
        trace.record(9, "a")
        assert trace.first_cycle("a") == 4
        assert trace.last_cycle("a") == 9
        assert trace.first_cycle("missing") is None

    def test_event_formatting(self):
        event = TraceEvent(cycle=3, kind="output_captured", detail={"outputs": 2})
        assert "cycle" in str(event)
        assert "output_captured" in str(event)

    def test_iteration(self):
        trace = CycleTrace()
        trace.record(0, "a")
        assert [e.kind for e in trace] == ["a"]
