"""NumPy-vectorised cycle-accurate simulator of tile executions.

The simulator advances the array state cycle by cycle, exactly following
the weight-stationary dataflow of :mod:`repro.arch.dataflow`:

* the activations of a tile of A enter from the west edge with the
  mode-dependent skew (one cycle per collapsed *group* of rows);
* inside a collapsed group the activation is broadcast across its k columns
  and the k products are reduced combinationally, so the only stateful
  elements are the pipeline registers at group boundaries;
* the partial sums advance one row *group* per cycle and are captured at
  the south edge together with the tag (the ``t`` index) of the activation
  that produced them.

Because only group-boundary registers hold state, the per-cycle update is a
handful of NumPy operations over (rows × column-groups) and
(row-groups × columns) arrays, which keeps the simulator fast enough to
simulate full tiles of 128×128 arrays while remaining bit-true in the
integer domain.  The registers step in int32 when no product, partial sum
or tag can overflow it (``max|A| * max|B| * rows_used`` and T - 1 both
at most 2^31 - 1, see :func:`stepping_dtype`) and in int64 otherwise,
wrapping like ``A @ B``; the output is int64 either way.

The simulator reports the *measured* cycle count: the compute phase ends
with the last south-edge capture.  The test-suite checks it against the
closed-form Eqs. (1) and (3), and the computed product against ``A @ B``.

:meth:`CycleAccurateSystolicArray.simulate_tile` is the only tile engine:
one loop clocks every group-boundary value and tag register once per
cycle.  :meth:`CycleAccurateSystolicArray.simulate_tiles` runs a sequence
of tiles through it, so every tiled GEMM (:func:`repro.sim.tiling.run_tiled_gemm`)
and every calibration probe of the ``cycle`` backend steps registers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.dataflow import WeightStationaryDataflow
from repro.sim.stats import SimulationStats


@dataclass
class TileSimResult:
    """Output and measurements of one simulated tile."""

    output: np.ndarray
    stats: SimulationStats
    collapse_depth: int

    @property
    def total_cycles(self) -> int:
        return self.stats.total_cycles


def integer_operand(values) -> np.ndarray:
    """``values`` as an int64 array; an entry that is not a whole number is refused.

    Integer arrays pass through (an int64 one without a copy) and
    whole-valued floats such as ``np.ones`` are cast, but a fractional,
    non-finite or out-of-int64 entry raises ``ValueError`` instead of
    being truncated by the cast.
    """
    array = np.asarray(values)
    if array.dtype.kind not in "biu":
        whole = (np.trunc(array) == array) & (array >= -(2.0**63)) & (array < 2.0**63)
        if not whole.all():
            raise ValueError(
                f"operands must be whole numbers within int64, got {array[~whole].flat[0]}"
            )
    return array.astype(np.int64, copy=False)


def stepping_dtype(a_tile: np.ndarray, b_tile: np.ndarray) -> type[np.signedinteger]:
    """Register width :meth:`CycleAccurateSystolicArray.simulate_tile` steps in.

    Every product and partial sum the array holds belongs to one output
    element, so its magnitude is at most ``max|A| * max|B| * rows_used``;
    a tag is a row index of A, below T.  When both bounds fit int32
    nothing the registers hold can overflow it (an all-zero operand makes
    every product zero, whatever the other one wraps to), so they step in
    int32; otherwise they step in int64 and wrap like ``A @ B``.  The
    magnitudes come from Python ints of ``min()`` and ``max()``, because
    ``np.abs`` of the int64 minimum is negative.
    """
    t_rows, rows_used = a_tile.shape
    bound = max(_magnitude(a_tile) * _magnitude(b_tile) * rows_used, t_rows - 1)
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


def _magnitude(tile: np.ndarray) -> int:
    return max(-int(tile.min()), int(tile.max())) if tile.size else 0


class CycleAccurateSystolicArray:
    """Cycle-accurate weight-stationary systolic array.

    Parameters
    ----------
    rows, cols:
        Physical array dimensions (R, C).
    collapse_depth:
        Pipeline mode k.  Must divide both dimensions (k = 1 reproduces the
        conventional fixed pipeline's dataflow).
    configurable:
        When True the array is an ArrayFlex instance and bypassed registers
        are counted as clock gated; when False it models the conventional
        array (k must be 1 and every register is clocked every cycle).
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        collapse_depth: int = 1,
        configurable: bool = True,
    ) -> None:
        if rows <= 0 or cols <= 0:
            raise ValueError("array dimensions must be positive")
        if collapse_depth < 1:
            raise ValueError("collapse depth must be >= 1")
        if rows % collapse_depth or cols % collapse_depth:
            raise ValueError(
                f"collapse depth {collapse_depth} must divide array dimensions "
                f"{rows}x{cols}"
            )
        if not configurable and collapse_depth != 1:
            raise ValueError("the conventional array only supports k = 1")
        self.rows = rows
        self.cols = cols
        self.collapse_depth = collapse_depth
        self.configurable = configurable
        self.dataflow = WeightStationaryDataflow(rows, cols, collapse_depth)

    # ------------------------------------------------------------------ #
    def simulate_tile(self, a_tile: np.ndarray, b_tile: np.ndarray) -> TileSimResult:
        """Simulate one tile: weight preload followed by skewed streaming.

        ``a_tile`` has shape (T, rows_used), ``b_tile`` has shape
        (rows_used, cols_used); the returned output has shape
        (T, cols_used), is int64 and equals the exact integer product.

        This is the register-stepped path: one loop clocks every
        group-boundary value and tag register once per cycle, and the
        compute phase ends with the last south-edge capture.  The
        registers step in int32 when ``max|A| * max|B| * rows_used``
        (and T - 1) fit it, so nothing can overflow, and in int64
        otherwise (:func:`stepping_dtype`).
        """
        a_tile = integer_operand(a_tile)
        b_tile = integer_operand(b_tile)
        if a_tile.ndim != 2 or b_tile.ndim != 2:
            raise ValueError("a_tile and b_tile must be two-dimensional")
        if a_tile.shape[1] != b_tile.shape[0]:
            raise ValueError(
                f"inner dimensions do not match: {a_tile.shape} x {b_tile.shape}"
            )
        t_rows, rows_used = a_tile.shape
        cols_used = b_tile.shape[1]
        if rows_used > self.rows or cols_used > self.cols:
            raise ValueError(
                f"tile ({rows_used}x{cols_used}) does not fit the "
                f"{self.rows}x{self.cols} array"
            )

        k = self.collapse_depth
        n_row_groups = self.rows // k
        n_col_groups = self.cols // k
        width = stepping_dtype(a_tile, b_tile)
        # The vertical datapath holds its columns group-interleaved:
        # position j * (C/k) + g is column j of group g (array column
        # g * k + j), so that broadcasting an activation across the k
        # columns of its group runs along the contiguous column-group axis.
        position = np.arange(self.cols)
        group_at = position % n_col_groups
        column_at = group_at * k + position // n_col_groups
        used = column_at < cols_used

        weights = np.zeros((self.rows, self.cols), dtype=width)
        weights[:rows_used, :cols_used] = b_tile
        # Indexed (row, column within the group, column group).
        group_weights = np.ascontiguousarray(
            weights.reshape(self.rows, n_col_groups, k).transpose(0, 2, 1)
        )

        stats = SimulationStats()
        stats.tiles_executed = 1
        stats.weight_load_cycles = self.dataflow.weight_load_cycles()
        stats.sram_reads += int(rows_used * cols_used)  # weight words
        stats.sram_reads += int(t_rows * rows_used)  # activation words

        # The west edge is driven for the closed-form number of cycles,
        # but the compute phase reported is the one observed: it ends with
        # the last south-edge capture.
        stream = self.dataflow.build_skewed_stream(a_tile.astype(width))
        tag_schedule = self.dataflow.west_edge_schedule(t_rows).astype(width)
        last_capture = -1

        # Group-boundary pipeline registers (the only stateful elements),
        # each double-buffered: ``h_*``/``v_regs`` hold what the last
        # clock edge captured, ``vis_*``/``new_v`` what this cycle
        # computes, and the edge swaps the pair, so the loop allocates no
        # register array.  ``products`` is indexed (row group, row within
        # the group, column position) for the vertical reduction;
        # ``row_products`` views the same memory as (row, column within the
        # group, column group) for the broadcast multiply.
        h_vals = np.zeros((self.rows, n_col_groups), dtype=width)
        vis_vals = np.empty_like(h_vals)
        h_tags = np.full((self.rows, n_col_groups), -1, dtype=width)
        vis_tags = np.empty_like(h_tags)
        products = np.empty((n_row_groups, k, self.cols), dtype=width)
        row_products = products.reshape(self.rows, k, n_col_groups)
        v_regs = np.zeros((n_row_groups, self.cols), dtype=width)
        new_v = np.empty_like(v_regs)

        output = np.zeros((t_rows, self.cols), dtype=np.int64)

        # Register-instance counts for activity accounting: every PE owns
        # one horizontal and one vertical pipeline register; only those at
        # group boundaries are clocked in shallow mode.
        total_regs = 2 * self.rows * self.cols
        clocked_regs = self.rows * n_col_groups + n_row_groups * self.cols
        if not self.configurable:
            clocked_regs = total_regs

        for cycle in range(len(stream)):
            west_vals = stream[cycle]
            west_tags = tag_schedule[cycle]

            # Horizontal visibility per (row, column-group): the first group
            # sees the west edge, later groups see the boundary register of
            # the group to their west (value captured at the previous edge).
            vis_vals[:, 0] = west_vals
            vis_tags[:, 0] = west_tags
            vis_vals[:, 1:] = h_vals[:, :-1]
            vis_tags[:, 1:] = h_tags[:, :-1]

            # Broadcast across the k columns of each group and multiply by
            # the stationary weights; then the vertical reduction: each row
            # group adds its k products to the partial sum registered below
            # the group above.
            np.multiply(vis_vals[:, None, :], group_weights, out=row_products)
            np.add(products[1:, 0], v_regs[:-1], out=new_v[1:])
            new_v[0] = products[0, 0]
            for row_in_group in range(1, k):
                new_v += products[:, row_in_group]

            # South-edge capture: the bottom group's register is written
            # this cycle with the finished column sum for the activation
            # tag visible at the bottom row.
            bottom_tags = vis_tags[-1, group_at]
            valid = bottom_tags >= 0
            if valid.any():
                last_capture = cycle
                output[bottom_tags[valid], column_at[valid]] = new_v[-1][valid]
                stats.accumulator_updates += int(np.count_nonzero(valid & used))

            # Activity accounting: a live tag drives the k PEs of its group.
            active_pes = k * int(np.count_nonzero(vis_tags >= 0))
            stats.active_pe_cycles += active_pes
            stats.mac_operations += active_pes

            # Clock edge: capture group-boundary registers.
            h_vals, vis_vals = vis_vals, h_vals
            h_tags, vis_tags = vis_tags, h_tags
            v_regs, new_v = new_v, v_regs

        if stats.accumulator_updates < t_rows * cols_used:
            raise RuntimeError(
                f"simulation captured {stats.accumulator_updates} of the "
                f"{t_rows * cols_used} outputs of a T={t_rows} tile on the "
                f"{self.rows}x{self.cols} array (k={k})"
            )
        compute_cycles = last_capture + 1
        stats.compute_cycles = compute_cycles
        stats.total_pe_cycles = compute_cycles * self.rows * self.cols
        stats.clocked_register_cycles = compute_cycles * clocked_regs
        stats.gated_register_cycles = compute_cycles * (total_regs - clocked_regs)
        stats.sram_writes += int(t_rows * cols_used)  # results written back
        return TileSimResult(
            output=output[:, :cols_used],
            stats=stats,
            collapse_depth=k,
        )

    def simulate_tiles(self, a_tiles, b_tiles) -> list[TileSimResult]:
        """Simulate tiles one after another on :meth:`simulate_tile`.

        ``a_tiles`` and ``b_tiles`` are equal-length sequences of 2-D
        tiles (a stacked 3-D array is the sequence of its 2-D tiles);
        returns one :class:`TileSimResult` per ``(a_tile, b_tile)`` pair,
        in order, each with its registers stepped.
        """
        if len(a_tiles) != len(b_tiles):
            raise ValueError(f"got {len(a_tiles)} A tiles but {len(b_tiles)} B tiles")
        return [self.simulate_tile(a, b) for a, b in zip(a_tiles, b_tiles)]

    # ------------------------------------------------------------------ #
    def expected_tile_cycles(self, t_rows: int) -> int:
        """Closed-form cycle count the simulation is expected to measure."""
        return self.dataflow.tile_latency_cycles(t_rows)
