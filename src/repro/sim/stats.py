"""Aggregated statistics of a cycle-accurate simulation run."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SimulationStats:
    """Counters accumulated while simulating one or more tiles.

    The register counters distinguish *clocked* register-cycles (a pipeline
    register received a clock edge) from *gated* register-cycles (the
    register was transparent and its clock was gated), because that split
    is what turns into clock-power savings in
    :mod:`repro.timing.power_model`.
    """

    weight_load_cycles: int = 0
    compute_cycles: int = 0
    mac_operations: int = 0
    active_pe_cycles: int = 0
    total_pe_cycles: int = 0
    clocked_register_cycles: int = 0
    gated_register_cycles: int = 0
    sram_reads: int = 0
    sram_writes: int = 0
    accumulator_updates: int = 0
    tiles_executed: int = 0

    # ------------------------------------------------------------------ #
    @property
    def total_cycles(self) -> int:
        return self.weight_load_cycles + self.compute_cycles

    @property
    def pe_utilization(self) -> float:
        """Fraction of PE-cycles during the compute phase doing useful MACs."""
        if self.total_pe_cycles == 0:
            return 0.0
        return self.active_pe_cycles / self.total_pe_cycles

    @property
    def gated_register_fraction(self) -> float:
        total = self.clocked_register_cycles + self.gated_register_cycles
        if total == 0:
            return 0.0
        return self.gated_register_cycles / total

    # ------------------------------------------------------------------ #
    def merge(self, other: "SimulationStats") -> "SimulationStats":
        """Accumulate another run's counters into this one (returns self)."""
        self.weight_load_cycles += other.weight_load_cycles
        self.compute_cycles += other.compute_cycles
        self.mac_operations += other.mac_operations
        self.active_pe_cycles += other.active_pe_cycles
        self.total_pe_cycles += other.total_pe_cycles
        self.clocked_register_cycles += other.clocked_register_cycles
        self.gated_register_cycles += other.gated_register_cycles
        self.sram_reads += other.sram_reads
        self.sram_writes += other.sram_writes
        self.accumulator_updates += other.accumulator_updates
        self.tiles_executed += other.tiles_executed
        return self

    def as_dict(self) -> dict[str, float]:
        return {
            "weight_load_cycles": self.weight_load_cycles,
            "compute_cycles": self.compute_cycles,
            "total_cycles": self.total_cycles,
            "mac_operations": self.mac_operations,
            "active_pe_cycles": self.active_pe_cycles,
            "total_pe_cycles": self.total_pe_cycles,
            "pe_utilization": self.pe_utilization,
            "clocked_register_cycles": self.clocked_register_cycles,
            "gated_register_cycles": self.gated_register_cycles,
            "gated_register_fraction": self.gated_register_fraction,
            "sram_reads": self.sram_reads,
            "sram_writes": self.sram_writes,
            "accumulator_updates": self.accumulator_updates,
            "tiles_executed": self.tiles_executed,
        }
