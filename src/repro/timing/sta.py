"""Static timing analysis of a collapsible pipeline block.

The paper obtains Tclock(k) from a commercial static-timing analyzer after
declaring the unused collapse configurations as false paths
(Section III-C: "When collapsing fewer than kmax pipeline stages, the
combinational paths that still exist in the design but are not used are
considered false paths. We provide this information explicitly to the
static timing analyzer.").

This module reproduces that methodology on a small scale:

* :class:`PipelineBlockNetlist` builds the combinational logic seen by the
  worst-case path of one collapsed group of ``kmax`` PEs as a dict from
  node name to :class:`Cell`, in topological order: the horizontal chain
  of bypass multiplexers that broadcasts an activation across the group's
  columns, the multiplier of the top PE of the vertical group, the cascade
  of 3:2 carry-save adders and vertical bypass multiplexers down the
  group, the final carry-propagate adder and the capture flip-flop.
* :class:`StaticTimingAnalyzer` finds the longest register-to-register
  path for a *configured* collapse depth ``k <= kmax`` in one pass over
  that dict, excluding the false paths that cross a group boundary of the
  configured mode.

The analyzer's result equals the closed-form Eq. (5) delay
``d_FF + d_mul + d_add + k (d_CSA + 2 d_mux)``, which is exactly the point:
the equation is a faithful summary of the real critical path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.timing.technology import TechnologyModel


@dataclass(frozen=True)
class TimingPath:
    """A register-to-register combinational path and its total delay."""

    nodes: tuple[str, ...]
    delay_ps: float

    @property
    def num_cells(self) -> int:
        """Number of combinational cells on the path (excludes flip-flops)."""
        return sum(1 for n in self.nodes if not n.endswith("ff"))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return " -> ".join(self.nodes) + f"  [{self.delay_ps:.1f} ps]"


class Cell(NamedTuple):
    """One netlist node: its cell kind, its delay and the nodes driving it."""

    kind: str
    delay: float
    fanin: tuple[str, ...]


class PipelineBlockNetlist:
    """Gate-level netlist of one collapsible group of ``kmax`` PEs.

    Node naming convention:

    * ``launch_ff``        -- pipeline register launching data into the group.
    * ``hmux{j}``          -- j-th horizontal bypass multiplexer of the input
      broadcast chain (j = 0 is closest to the launching register).  In
      shallow mode the activation traverses up to ``k`` of them before
      reaching a multiplier.
    * ``pe{i}/mul``        -- multiplier of PE i of the vertical group
      (i = 0 is the top row of the group).
    * ``pe{i}/csa``        -- 3:2 carry-save adder of PE i.
    * ``pe{i}/vmux``       -- vertical bypass multiplexer of PE i.
    * ``pe{i}/cpa``        -- carry-propagate adder of PE i.
    * ``pe{i}/capture_ff`` -- output pipeline register of PE i.

    ``graph`` maps each node to its :class:`Cell` in build order, and
    every node's fan-in is built before it (and listed in build order),
    so the dict is a topological order of the block.  The longest-path
    arrival time at a capture flip-flop plus the flip-flop overhead
    (``d_FF``) is the minimum clock period.
    """

    def __init__(self, kmax: int, technology: TechnologyModel | None = None) -> None:
        if kmax < 1:
            raise ValueError("kmax must be >= 1")
        self.kmax = kmax
        self.technology = technology or TechnologyModel.default_28nm()
        self.graph = self._build()

    def _build(self) -> dict[str, Cell]:
        tech = self.technology
        graph = {"launch_ff": Cell("ff", 0.0, ())}

        # Horizontal broadcast chain: one bypass mux per column of the group.
        hmuxes = tuple(f"hmux{j}" for j in range(self.kmax))
        driver = "launch_ff"
        for name in hmuxes:
            graph[name] = Cell("mux", tech.d_mux_ps, (driver,))
            driver = name

        above = "launch_ff"
        for i in range(self.kmax):
            pe = f"pe{i}/"
            # The multiplier of any PE of the group may be fed from any
            # position of the horizontal broadcast chain (it depends on the
            # PE's column offset inside the collapsed block).
            graph[pe + "mul"] = Cell("mul", tech.d_mul_ps, hmuxes)
            # Vertical reduction: the product enters the CSA together with
            # the running carry-save pair coming from the PE above (or from
            # the launching register for the top PE); the CSA output goes
            # through the vertical bypass mux either transparently into the
            # next PE's CSA or into this PE's CPA and capture register.
            graph[pe + "csa"] = Cell("csa", tech.d_csa_ps, (above, pe + "mul"))
            graph[pe + "vmux"] = Cell("mux", tech.d_mux_ps, (pe + "csa",))
            graph[pe + "cpa"] = Cell("add", tech.d_add_ps, (pe + "vmux",))
            graph[pe + "capture_ff"] = Cell("ff", 0.0, (pe + "cpa",))
            above = pe + "vmux"
        return graph

    def combinational_paths_exist_beyond(self, depth: int) -> bool:
        """True if the physical netlist has paths longer than ``depth`` stages.

        Those are exactly the paths that must be declared false when the
        array is configured for a shallower collapse depth.
        """
        return depth < self.kmax


class StaticTimingAnalyzer:
    """Longest-path timing analysis with false-path exclusion."""

    def __init__(self, netlist: PipelineBlockNetlist) -> None:
        self.netlist = netlist
        self.technology = netlist.technology

    # ------------------------------------------------------------------ #
    def _false_edges(self, configured_k: int) -> set[tuple[str, str]]:
        """The (driver, node) edges no path exercises at depth ``configured_k``.

        With a configured depth of ``k``, the vertical bypass multiplexer of
        every k-th PE selects the opaque (registered) path and the
        horizontal broadcast re-registers every k columns, so combinational
        edges that would cross those boundaries are false.
        """
        if configured_k < 1 or configured_k > self.netlist.kmax:
            raise ValueError(
                f"configured collapse depth {configured_k} outside "
                f"[1, {self.netlist.kmax}]"
            )
        false_edges = set()
        for i in range(self.netlist.kmax - 1):
            if (i + 1) % configured_k == 0:
                false_edges.add((f"pe{i}/vmux", f"pe{i + 1}/csa"))
                false_edges.add((f"hmux{i}", f"hmux{i + 1}"))
        return false_edges

    def critical_path(self, configured_k: int) -> TimingPath:
        """Longest register-to-register path for the configured depth.

        The returned delay includes the flip-flop clocking overhead
        (``d_FF``), making it directly comparable to Eq. (5).  Among
        equally late drivers, the one built first is on the path.
        """
        false_edges = self._false_edges(configured_k)
        arrival: dict[str, float] = {}
        predecessor: dict[str, str | None] = {}
        for node, cell in self.netlist.graph.items():
            drivers = [d for d in cell.fanin if (d, node) not in false_edges]
            best = max(drivers, key=arrival.__getitem__, default=None)
            arrival[node] = (arrival[best] if best is not None else 0.0) + cell.delay
            predecessor[node] = best

        capture_nodes = [n for n in arrival if n.endswith("capture_ff")]
        end = max(capture_nodes, key=arrival.__getitem__)
        nodes = [end]
        while predecessor[nodes[-1]] is not None:
            nodes.append(predecessor[nodes[-1]])  # type: ignore[arg-type]
        nodes.reverse()
        total = arrival[end] + self.technology.d_ff_ps
        return TimingPath(nodes=tuple(nodes), delay_ps=total)

    def minimum_clock_period_ps(self, configured_k: int) -> float:
        """Minimum clock period at the configured collapse depth."""
        return self.critical_path(configured_k).delay_ps

    def false_path_count(self, configured_k: int) -> int:
        """Number of physical edges declared false at the configured depth."""
        return len(self._false_edges(configured_k))
