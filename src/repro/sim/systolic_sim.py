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

The simulator reports the *measured* cycle count; the test-suite checks it
against the closed-form Eqs. (1) and (3), and the computed product against
``A @ B``.

Two entry points produce those results:

* :meth:`CycleAccurateSystolicArray.simulate_tile` runs one tile and is
  the only register-stepped path: one loop clocks every group-boundary
  value and tag register once per cycle;
* :meth:`CycleAccurateSystolicArray.simulate_tiles` runs a *batch* of
  tiles that stream the same depth T, stacking the tiles on a leading
  batch axis and replaying the register trajectory in closed form
  instead of stepping it.  The control path (tags, skew, capture
  schedule, activity counts) depends only on the geometry, the mode and
  T — never on the operand values or on how much of the array a tile
  fills — so it is derived once per call; the value path is a pure
  delay network whose south-edge captures reduce to the padded integer
  product (the derivation is in the method body).  Outputs and every
  :class:`~repro.sim.stats.SimulationStats` field are bit-identical to
  running the tiles one at a time through the stepping path
  (property-tested in ``tests/test_sim_batched.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.dataflow import WeightStationaryDataflow
from repro.sim.stats import SimulationStats
from repro.sim.trace import CycleTrace


@dataclass
class TileSimResult:
    """Output and measurements of one simulated tile."""

    output: np.ndarray
    stats: SimulationStats
    collapse_depth: int

    @property
    def total_cycles(self) -> int:
        return self.stats.total_cycles


@dataclass
class _TileControl:
    """The operand-independent control schedule of a depth-T tile run.

    Everything here follows from (R, C, k, T) alone: the west-edge tag
    schedule, which (cycle, column) pairs capture an output and for which
    tag, and how many PEs see a live tag each cycle.  The batched
    simulation path computes it once per call and shares it across every
    tile of the batch.
    """

    compute_cycles: int
    weight_load_cycles: int
    #: ``counts_below[c]`` = number of south-edge capture events hitting a
    #: column < c over the whole run, so a tile using ``cols_used`` columns
    #: performs ``counts_below[cols_used]`` accumulator updates.
    capture_counts_below: np.ndarray
    #: Total PE-cycles with a live (non-bubble) tag over the whole run.
    active_pe_cycles: int


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
    """Cycle-accurate weight-stationary systolic array (scalar or batched).

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
    def simulate_tile(
        self,
        a_tile: np.ndarray,
        b_tile: np.ndarray,
        trace: CycleTrace | None = None,
    ) -> TileSimResult:
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
        a_tile = np.asarray(a_tile, dtype=np.int64)
        b_tile = np.asarray(b_tile, dtype=np.int64)
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
        if trace is not None:
            trace.record(0, CycleTrace.PHASE, weight_load_cycles=stats.weight_load_cycles)

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
                captured = int(np.count_nonzero(valid & used))
                stats.accumulator_updates += captured
                if trace is not None:
                    trace.record(cycle, CycleTrace.OUTPUT_CAPTURED, outputs=captured)
            if trace is not None and np.any(west_tags >= 0):
                trace.record(
                    cycle,
                    CycleTrace.INPUT_INJECTED,
                    words=int(np.count_nonzero(west_tags >= 0)),
                )

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

    # ------------------------------------------------------------------ #
    #: Memory budget of one batched call: int64 elements held by the
    #: largest transient (the skewed stream, ``tiles x cycles x rows``).
    #: 2^22 elements = 32 MiB — small enough to stay cache-friendly,
    #: large enough that realistic batches are never split.
    MAX_BATCH_ELEMENTS = 1 << 22

    def max_batch_tiles(self, t_rows: int) -> int:
        """How many depth-T tiles one batched call should carry at most.

        Callers with more same-T tiles than this chunk their batches;
        the results are bit-identical either way, this only bounds the
        transient memory of a single :meth:`simulate_tiles` call.
        """
        cycles = self.dataflow.compute_cycles(t_rows)
        return max(1, self.MAX_BATCH_ELEMENTS // (cycles * self.rows))

    def _tile_control(self, t_rows: int) -> _TileControl:
        """The shared control schedule for a depth-``t_rows`` run.

        Derived in one vectorised pass from the west-edge tag schedule:
        the tag visible at row r, column group g, cycle c is the tag that
        entered row r at cycle c - g (the horizontal tag pipeline is a
        pure delay line), so south-edge captures, per-column capture
        counts and active-PE totals all follow by shifting and summing
        the schedule — no per-cycle stepping and no operand values.
        """
        k = self.collapse_depth
        n_col_groups = self.cols // k
        compute_cycles = self.dataflow.compute_cycles(t_rows)
        tag_schedule = self.dataflow.west_edge_schedule(t_rows)

        # South-edge capture schedule.  The tag under column `col` at
        # cycle c is the last row's west tag of cycle c - group(col).
        col_group_of = np.arange(self.cols) // k
        last_row_tags = tag_schedule[:, self.rows - 1]
        src = np.arange(compute_cycles)[:, None] - col_group_of[None, :]
        bottom_tags = np.where(
            src >= 0, last_row_tags[np.clip(src, 0, compute_cycles - 1)], -1
        )
        valid = (bottom_tags >= 0) & (bottom_tags < t_rows)
        capture_counts_below = np.concatenate(
            ([0], np.cumsum(np.count_nonzero(valid, axis=0)))
        )

        # Active-PE accounting: column group g sees the west tags of
        # cycle c - g, and each live tag activates the k PEs of its group.
        live_per_cycle = np.count_nonzero(tag_schedule >= 0, axis=1)
        prefix = np.concatenate(([0], np.cumsum(live_per_cycle)))
        windows = np.clip(compute_cycles - np.arange(n_col_groups), 0, compute_cycles)
        active_pe_cycles = int(k * prefix[windows].sum())

        return _TileControl(
            compute_cycles=compute_cycles,
            weight_load_cycles=self.dataflow.weight_load_cycles(),
            capture_counts_below=capture_counts_below,
            active_pe_cycles=active_pe_cycles,
        )

    def simulate_tiles(
        self,
        a_tiles,
        b_tiles,
    ) -> list[TileSimResult]:
        """Simulate a batch of tiles that stream the same depth T.

        ``a_tiles`` is a sequence of (T, rows_used_i) operand arrays (or
        one stacked (n_tiles, T, rows_used) array); ``b_tiles`` is the
        matching sequence of (rows_used_i, cols_used_i) weight tiles (or
        one stacked 3-D array), or a single 2-D tile shared by the whole
        batch.  Tiles may fill different fractions of the array — only
        the streamed depth T must agree, because T (with the geometry and
        mode) fixes the schedule that all control state follows.

        Returns one :class:`TileSimResult` per tile, in order, with the
        output and every :class:`SimulationStats` field bit-identical to
        ``[self.simulate_tile(a, b) for a, b in zip(a_tiles, b_tiles)]``.
        """
        a_list = [np.asarray(a, dtype=np.int64) for a in a_tiles]
        if not a_list:
            return []
        if isinstance(b_tiles, np.ndarray) and b_tiles.ndim == 2:
            b_list = [np.asarray(b_tiles, dtype=np.int64)] * len(a_list)
        else:
            b_list = [np.asarray(b, dtype=np.int64) for b in b_tiles]
        if len(b_list) != len(a_list):
            raise ValueError(
                f"got {len(a_list)} A tiles but {len(b_list)} B tiles"
            )
        for a_tile, b_tile in zip(a_list, b_list):
            if a_tile.ndim != 2 or b_tile.ndim != 2:
                raise ValueError("every tile must be two-dimensional")
            if a_tile.shape[1] != b_tile.shape[0]:
                raise ValueError(
                    f"inner dimensions do not match: "
                    f"{a_tile.shape} x {b_tile.shape}"
                )
            if a_tile.shape[1] > self.rows or b_tile.shape[1] > self.cols:
                raise ValueError(
                    f"tile ({a_tile.shape[1]}x{b_tile.shape[1]}) does not "
                    f"fit the {self.rows}x{self.cols} array"
                )
        t_rows = a_list[0].shape[0]
        if any(a.shape[0] != t_rows for a in a_list):
            raise ValueError(
                "all tiles of one batch must stream the same depth T"
            )

        n_tiles = len(a_list)
        rows_used = np.array([a.shape[1] for a in a_list], dtype=np.int64)
        cols_used = np.array([b.shape[1] for b in b_list], dtype=np.int64)

        k = self.collapse_depth
        n_row_groups = self.rows // k
        n_col_groups = self.cols // k

        weights = np.zeros((n_tiles, self.rows, self.cols), dtype=np.int64)
        for i, b_tile in enumerate(b_list):
            weights[i, : b_tile.shape[0], : b_tile.shape[1]] = b_tile

        # The shared control schedule: tags, skew, capture cycles and
        # activity counts are the same for every tile of the batch (they
        # never read operand values) — computed once per call.
        control = self._tile_control(t_rows)
        compute_cycles = control.compute_cycles

        # The value datapath has a closed-form trajectory, so the batch
        # never steps registers cycle by cycle.  Both pipelines are pure
        # delay lines: column group g sees the west stream of cycle
        # c - g, and the partial sum entering row group p at cycle c was
        # produced by group p - 1 at cycle c - 1.  Chasing a south-edge
        # capture back through both delays, the value captured for tag t
        # at column `col` is
        #
        #     sum_p sum_{r in group p} stream[t + p, r] * W[r, col]
        #       = sum_r A[t, r] * W[r, col]          (stream[t + group(r), r]
        #                                             is exactly A[t, r])
        #
        # i.e. the padded integer product.  int64 addition wraps
        # associatively, so the matmul is bit-identical to the scalar
        # path's register stepping in any summation order — the property
        # test in tests/test_sim_batched.py pins exactly that.
        a_padded = np.zeros((n_tiles, t_rows, self.rows), dtype=np.int64)
        for i, a_tile in enumerate(a_list):
            a_padded[i, :, : a_tile.shape[1]] = a_tile
        output = np.matmul(a_padded, weights)
        accumulator_updates = control.capture_counts_below[cols_used]

        total_regs = 2 * self.rows * self.cols
        clocked_regs = self.rows * n_col_groups + n_row_groups * self.cols
        if not self.configurable:
            clocked_regs = total_regs

        results: list[TileSimResult] = []
        for i in range(n_tiles):
            stats = SimulationStats()
            stats.tiles_executed = 1
            stats.weight_load_cycles = control.weight_load_cycles
            stats.compute_cycles = compute_cycles
            stats.sram_reads = int(rows_used[i] * cols_used[i]) + int(
                t_rows * rows_used[i]
            )
            stats.sram_writes = int(t_rows * cols_used[i])
            stats.mac_operations = control.active_pe_cycles
            stats.active_pe_cycles = control.active_pe_cycles
            stats.total_pe_cycles = compute_cycles * self.rows * self.cols
            stats.clocked_register_cycles = compute_cycles * clocked_regs
            stats.gated_register_cycles = compute_cycles * (total_regs - clocked_regs)
            stats.accumulator_updates = int(accumulator_updates[i])
            results.append(
                TileSimResult(
                    output=output[i, :, : cols_used[i]].copy(),
                    stats=stats,
                    collapse_depth=k,
                )
            )
        return results

    # ------------------------------------------------------------------ #
    def expected_tile_cycles(self, t_rows: int) -> int:
        """Closed-form cycle count the simulation is expected to measure."""
        return self.dataflow.tile_latency_cycles(t_rows)
