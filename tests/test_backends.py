"""Tests for the pluggable execution-backend layer.

The contract under test: every backend subclasses ``ExecutionBackend``
and every registered backend is *numerically interchangeable* — the
batched/cached backend bit-identically, and the cycle-accurate backend
because the simulator is cycle-exact with respect to Eqs. (1)/(3), so
its measured lines pick the same modes.  The per-backend parity
assertions live in one shared parametrized harness
(``tests/backend_harness.py``) that runs every ``BACKENDS`` entry
through the same workload/config matrix, so future backends get parity
coverage by registering one factory there.
"""

import pytest
from hypothesis import given, settings, strategies as st

from backend_harness import (
    BACKEND_FACTORIES,
    assert_backend_parity,
    make_backend,
    parity_cases,
    parity_configs,
    parity_workloads,
)

from repro.backends import (
    BACKENDS,
    AnalyticalBackend,
    BatchedCachedBackend,
    CycleAccurateBackend,
    DecisionStore,
    ExecutionBackend,
    create_backend,
)
from repro.backends.cycle_accurate import affine_fit
from repro.backends.decisions import decision_to_row
from repro.core.arrayflex import ArrayFlexAccelerator
from repro.core.config import ArrayFlexConfig
from repro.core.design_space import DesignPoint, DesignSpaceExplorer
from repro.core.clock import ClockModel
from repro.core.latency import arrayflex_total_cycles
from repro.core.metrics import resolve_workload
from repro.nn.gemm_mapping import GemmShape
from repro.nn.models import convnext_tiny, mobilenet_v1, resnet34
from repro.sim.systolic_sim import CycleAccurateSystolicArray


@pytest.fixture(scope="module")
def config():
    return ArrayFlexConfig.paper_128x128()


@pytest.fixture(scope="module")
def analytical():
    return AnalyticalBackend()


@pytest.fixture(scope="module")
def batched():
    return BatchedCachedBackend()


class TestRegistry:
    def test_names_cover_the_three_backends(self):
        assert set(BACKENDS) == {"analytical", "batched", "cycle"}

    def test_every_registered_backend_has_parity_coverage(self):
        """Registering a backend without a harness factory fails loudly."""
        assert set(BACKEND_FACTORIES) == set(BACKENDS)

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_create_by_name(self, name):
        backend = create_backend(name)
        assert isinstance(backend, ExecutionBackend)
        assert backend.name == name

    def test_none_resolves_to_analytical(self):
        assert isinstance(create_backend(None), AnalyticalBackend)

    def test_instance_passes_through(self):
        backend = BatchedCachedBackend()
        assert create_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("verilog")


class TestParityHarness:
    """Every registered backend through the same workload/config matrix.

    The shared harness is the refactored home of the per-backend parity
    classes this file used to carry; one parametrized cell per
    (backend, workload, config) combination, asserted against the
    analytical reference.
    """

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    @pytest.mark.parametrize(
        "case_id,workload_key,config_key",
        parity_cases(),
        ids=[case_id for case_id, _, _ in parity_cases()],
    )
    def test_backend_matches_reference(
        self, analytical, name, case_id, workload_key, config_key
    ):
        assert_backend_parity(
            make_backend(name),
            parity_workloads()[workload_key],
            parity_configs()[config_key],
            reference=analytical,
        )


class TestSuiteTotals:
    """One column pass over a whole suite equals per-model totals and the
    reference's suite totals, bit for bit: under every harness
    configuration, with a store that holds only some of the suite's
    distinct GEMMs, with a workload listed twice, with shapes shared
    across models, and on measured cycles."""

    @staticmethod
    def suites():
        workloads = list(parity_workloads().values())
        return {
            "harness": workloads,
            "repeated": [*workloads, workloads[0]],
            "cnn": [mobilenet_v1(), resnet34()],
            # Two GEMM lists that share shapes, in different layer orders.
            "shared": [
                [
                    GemmShape(m=20, n=33, t=6, name="a"),
                    GemmShape(m=16, n=16, t=40, name="b"),
                    GemmShape(m=20, n=33, t=6, name="a-again"),
                ],
                [
                    GemmShape(m=16, n=16, t=40, name="b"),
                    GemmShape(m=7, n=50, t=3, name="c"),
                    GemmShape(m=20, n=33, t=6, name="a"),
                ],
            ],
        }

    @staticmethod
    def per_model_totals(backend, suite, config):
        return [
            (
                backend.schedule_model_totals(model, config),
                backend.schedule_model_totals(model, config, conventional=True),
            )
            for model in suite
        ]

    @pytest.mark.parametrize("stored_shapes", [65536, 7])
    @pytest.mark.parametrize("suite_key", ["harness", "repeated", "cnn", "shared"])
    @pytest.mark.parametrize("config_key", sorted(parity_configs()))
    def test_matches_per_model_totals(self, config_key, suite_key, stored_shapes, tmp_path):
        config = parity_configs()[config_key]
        suite = self.suites()[suite_key]
        expected = self.per_model_totals(BatchedCachedBackend(), suite, config)
        assert AnalyticalBackend().schedule_suite_totals(suite, config) == expected
        # Store the suite's first ``stored_shapes`` distinct GEMMs: all of
        # them (65536 exceeds every suite), or seven, so that the pass
        # mixes stored rows with fresh solves.
        distinct = list(
            {(g.m, g.n, g.t): g for model in suite for g in resolve_workload(model)[0]}.values()
        )
        seed = DecisionStore(tmp_path)
        BatchedCachedBackend(store=seed).schedule_model_totals(distinct[:stored_shapes], config)
        seed.flush()
        store = DecisionStore(tmp_path)
        backend = BatchedCachedBackend(store=store)
        assert backend.schedule_suite_totals(suite, config) == expected
        store.flush()
        assert store.counters()["rows_merged"] == max(len(distinct) - stored_shapes, 0)

    @pytest.mark.parametrize("suite_key", ["harness", "shared"])
    @pytest.mark.parametrize("config_key", sorted(parity_configs()))
    def test_cycle_backend_matches_per_model_totals(self, config_key, suite_key):
        """The measured-cycles engine takes the same column pass (with no
        store: ``cycle`` refuses one)."""
        config = parity_configs()[config_key]
        suite = self.suites()[suite_key]
        expected = self.per_model_totals(CycleAccurateBackend(), suite, config)
        assert CycleAccurateBackend().schedule_suite_totals(suite, config) == expected
        assert AnalyticalBackend().schedule_suite_totals(suite, config) == expected

    @pytest.mark.parametrize("suite_key", ["harness", "cnn", "shared"])
    @pytest.mark.parametrize("config_key", sorted(parity_configs()))
    def test_stored_rows_equal_decision_rows(self, config_key, suite_key, tmp_path):
        """The rows a pass puts in an empty store are the rows a
        per-layer decision would put there, column for column (the
        restarted sweep answers from them)."""
        config = parity_configs()[config_key]
        suite = self.suites()[suite_key]
        store = DecisionStore(tmp_path)
        BatchedCachedBackend(store=store).schedule_suite_totals(suite, config)
        store.flush()
        stored = DecisionStore(tmp_path).load(config.cache_key())
        distinct = {
            (g.m, g.n, g.t): g for model in suite for g in resolve_workload(model)[0]
        }
        assert sorted(stored) == sorted(distinct)
        for key, gemm in distinct.items():
            decision = BatchedCachedBackend()._decide_batch([gemm], config)[0]
            assert stored.get(key) == decision_to_row(decision)


class TestBatchedParity:
    """Batched-specific bit-parity beyond the shared matrix: the paper's
    full-size configurations and CNN models (cheap on closed-form-only
    backends, so not part of the every-backend matrix)."""

    @pytest.mark.parametrize(
        "model_builder", [resnet34, convnext_tiny, mobilenet_v1]
    )
    def test_model_totals_identical(self, config, analytical, batched, model_builder):
        model = model_builder()
        reference = analytical.schedule_model(model, config)
        fast = batched.schedule_model(model, config)
        assert fast.layers == reference.layers
        assert fast.total_cycles == reference.total_cycles
        assert fast.total_time_ns == reference.total_time_ns
        assert fast.total_energy_nj == reference.total_energy_nj
        assert fast.energy_delay_product == reference.energy_delay_product

    def test_conventional_parity(self, config, analytical, batched):
        model = convnext_tiny()
        reference = analytical.schedule_model_conventional(model, config)
        fast = batched.schedule_model_conventional(model, config)
        assert fast.layers == reference.layers

    def test_parity_on_256(self, analytical, batched):
        config = ArrayFlexConfig.paper_256x256()
        model = resnet34()
        assert batched.schedule_model(model, config).layers == (
            analytical.schedule_model(model, config).layers
        )

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 4096),
        n=st.integers(1, 4096),
        t=st.integers(1, 8192),
    )
    def test_single_layer_parity_property(self, m, n, t):
        """Property: for any GEMM the two backends take the same decision."""
        config = ArrayFlexConfig.paper_128x128()
        gemm = GemmShape(m=m, n=n, t=t, name="prop")
        reference = AnalyticalBackend().schedule_layer(gemm, config)
        fast = BatchedCachedBackend().schedule_layer(gemm, config)
        assert fast == reference

    def test_fig5_style_depth_set(self, analytical, batched):
        """Parity also holds for non-power-of-two mode sets (132x132, k<=4)."""
        config = ArrayFlexConfig.fig5_132x132()
        gemm = GemmShape(m=256, n=2304, t=196, name="rn34-l20")
        assert batched.schedule_layer(gemm, config) == analytical.schedule_layer(
            gemm, config
        )


class TestInt64Bounds:
    """The engine counts in int64, which wraps silently: a layer that does
    not fit is refused by name instead of coming back wrong."""

    LAYERS = [
        GemmShape(m=64, n=64, t=64, name="small"),
        GemmShape(m=2**26, n=2**26, t=2**26, name="huge"),
    ]

    @pytest.mark.parametrize("backend_class", [BatchedCachedBackend, CycleAccurateBackend])
    @pytest.mark.parametrize("conventional", [False, True])
    def test_cycle_count_past_int64_is_refused(self, config, backend_class, conventional):
        backend = backend_class()
        schedule = (
            backend.schedule_model_conventional if conventional else backend.schedule_model
        )
        with pytest.raises(ValueError, match="huge.*does not fit int64"):
            schedule(self.LAYERS, config)
        with pytest.raises(ValueError, match="huge.*does not fit int64"):
            backend.schedule_model_totals(self.LAYERS, config, conventional=conventional)

    def test_dimension_past_int64_is_refused(self, config):
        wide = GemmShape(m=2**63, n=64, t=64, name="wide")
        with pytest.raises(ValueError, match="wide.*does not fit int64"):
            BatchedCachedBackend().schedule_model([wide], config)

    def test_geometry_past_int64_is_refused(self):
        config = ArrayFlexConfig(rows=2**62, cols=2**62)
        with pytest.raises(ValueError, match="does not fit int64"):
            BatchedCachedBackend().schedule_model(self.LAYERS[:1], config)

    @pytest.mark.parametrize(
        "layers",
        [
            [GemmShape(m=2**24, n=2**24, t=2**24, name="big")],
            # Each fits, though the product of their largest factors does not.
            [GemmShape(m=1, n=2**40, t=1, name="tall"), GemmShape(m=2**40, n=1, t=1, name="wide")],
        ],
    )
    def test_layers_that_fit_match_the_reference(self, config, analytical, layers):
        for conventional in (False, True):
            assert BatchedCachedBackend().schedule_model_totals(
                layers, config, conventional=conventional
            ) == analytical.schedule_model_totals(layers, config, conventional=conventional)


class TestCycleAccurateParity:
    """Cycle-backend specifics beyond the shared matrix: random-GEMM
    property parity and the once-per-(geometry, mode) calibration."""

    @settings(max_examples=10, deadline=None)
    @given(
        m=st.integers(1, 24),
        n=st.integers(1, 24),
        t=st.integers(1, 16),
        seed=st.integers(0, 100),
    )
    def test_small_random_gemms_match_analytical(self, m, n, t, seed):
        config = ArrayFlexConfig(rows=8, cols=8)
        gemm = GemmShape(m=m, n=n, t=t, name="rand")
        cycle_backend = CycleAccurateBackend(measurement_seed=seed)
        measured = cycle_backend.schedule_layer(gemm, config)
        modelled = AnalyticalBackend().schedule_layer(gemm, config)
        assert measured == modelled
        assert measured.cycles == arrayflex_total_cycles(
            gemm, config.rows, config.cols, measured.collapse_depth
        )

    def test_measurements_are_memoised(self, monkeypatch):
        stepped = []
        step = CycleAccurateSystolicArray.simulate_tile

        def counting_step(self, a_tile, b_tile):
            stepped.append(a_tile.shape[0])
            return step(self, a_tile, b_tile)

        monkeypatch.setattr(CycleAccurateSystolicArray, "simulate_tile", counting_step)
        config = ArrayFlexConfig(rows=8, cols=8, supported_depths=(1,))
        backend = CycleAccurateBackend()
        gemms = [GemmShape(m=9, n=9, t=t, name=f"g{t}") for t in (5, 5, 17, 300, 2)]
        schedule = backend.schedule_model(gemms, config, model_name="repeat")
        assert schedule.layers == AnalyticalBackend().schedule_model(
            gemms, config, model_name="repeat"
        ).layers
        # Four distinct T at one mode: one calibration of three probes.
        assert list(backend._calibration) == [(8, 8, 1)]
        assert stepped == list(CycleAccurateBackend.PROBE_DEPTHS)

    def test_mode_follows_the_measured_lines(self, monkeypatch):
        """The Eq. (6) argmin runs over the measured cycles: a line that
        measures slower for the reference's mode moves the decision, and
        the reported cycles and time are those of the mode chosen."""
        config = ArrayFlexConfig(rows=8, cols=8, supported_depths=(1, 2, 4))
        gemm = GemmShape(m=64, n=64, t=4, name="small-t")
        reference = AnalyticalBackend().schedule_layer(gemm, config)
        assert reference.collapse_depth == 4
        calibrate = CycleAccurateBackend._calibrate

        def slower_reference_mode(self, rows, cols, collapse_depth):
            intercept, slope = calibrate(self, rows, cols, collapse_depth)
            if collapse_depth == reference.collapse_depth:
                intercept += 1000
            return intercept, slope

        monkeypatch.setattr(CycleAccurateBackend, "_calibrate", slower_reference_mode)
        measured = CycleAccurateBackend().schedule_layer(gemm, config)
        assert measured.collapse_depth == 2
        assert measured.cycles == arrayflex_total_cycles(gemm, 8, 8, 2)
        assert measured.execution_time_ns == ClockModel(config).execution_time_ns(
            measured.cycles, 2
        )

    def test_non_affine_probe_cycles_are_refused(self, monkeypatch):
        step = CycleAccurateSystolicArray.simulate_tile

        def quadratic_step(self, a_tile, b_tile):
            result = step(self, a_tile, b_tile)
            result.stats.compute_cycles += a_tile.shape[0] ** 2
            return result

        monkeypatch.setattr(CycleAccurateSystolicArray, "simulate_tile", quadratic_step)
        backend = CycleAccurateBackend()
        with pytest.raises(RuntimeError, match=r"not affine.*rows=16, cols=8, k=2"):
            backend.measure_tile_cycles(ArrayFlexConfig(rows=16, cols=8), 100, 2)
        assert not backend._calibration

    def test_fractional_slope_is_refused(self):
        """Collinear probes whose slope is 1/2 cycle per streamed row:
        an integer line cannot extrapolate them."""
        with pytest.raises(RuntimeError, match=r"not affine.*\(x\)"):
            affine_fit((4, 6, 8), (10, 11, 12), "x")


class TestCycleCalibrationAtServedGeometries:
    """The measured lines at the geometries the cycle benchmark serves
    (32/64/128 x k in {1, 2, 4}), not only the small arrays above."""

    @pytest.mark.parametrize("size", [32, 64, 128])
    def test_fresh_backend_measures_eq3_lines(self, size):
        config = ArrayFlexConfig(rows=size, cols=size, supported_depths=(1, 2, 4))
        backend = CycleAccurateBackend()
        backend.schedule_layer(GemmShape(m=size, n=size, t=8, name="first"), config)
        # Eq. (3) per tile: R + R/k + C/k + T - 2, i.e. the line
        # (R + R/k + C/k - 2) + 1 * T.
        assert backend._calibration == {
            (size, size, k): (size + size // k + size // k - 2, 1) for k in (1, 2, 4)
        }


class TestFacadeIntegration:
    def test_accelerator_accepts_backend_instance(self):
        backend = BatchedCachedBackend()
        accel = ArrayFlexAccelerator(rows=64, cols=64, backend=backend)
        assert accel.backend is backend
        schedule = accel.run_model(resnet34())
        reference = ArrayFlexAccelerator(rows=64, cols=64).run_model(resnet34())
        assert schedule.layers == reference.layers

    def test_accelerator_accepts_backend_name(self):
        accel = ArrayFlexAccelerator(backend="batched")
        assert isinstance(accel.backend, BatchedCachedBackend)

    def test_accelerator_default_backend_is_analytical(self):
        assert isinstance(ArrayFlexAccelerator().backend, AnalyticalBackend)

    def test_comparison_report_backend_independent(self):
        model = mobilenet_v1()
        default = ArrayFlexAccelerator().compare_with_conventional(model)
        fast = ArrayFlexAccelerator(backend="batched").compare_with_conventional(model)
        assert fast.summary() == default.summary()


class _UnregisteredBackend(AnalyticalBackend):
    """Custom subclass outside the registry (module-level so it pickles)."""

    name = "custom-analytical"


class TestDesignSpaceBackends:
    POINTS = [
        DesignPoint(rows=64, cols=64, supported_depths=(1, 2, 4)),
        DesignPoint(rows=128, cols=128, supported_depths=(1, 2)),
    ]

    @pytest.fixture(scope="class")
    def models(self):
        return [resnet34(), mobilenet_v1()]

    def test_default_backend_is_batched(self, models):
        assert isinstance(DesignSpaceExplorer(models).backend, BatchedCachedBackend)

    def test_backend_choice_does_not_change_results(self, models):
        fast = DesignSpaceExplorer(models).explore(self.POINTS)
        reference = DesignSpaceExplorer(models, backend="analytical").explore(
            self.POINTS
        )
        assert fast == reference

    def test_process_pool_matches_serial(self, models):
        serial = DesignSpaceExplorer(models).explore(self.POINTS)
        fanned = DesignSpaceExplorer(models, max_workers=2).explore(self.POINTS)
        assert fanned == serial

    def test_explore_level_worker_override(self, models):
        explorer = DesignSpaceExplorer(models)
        assert explorer.explore(self.POINTS, max_workers=2) == explorer.explore(
            self.POINTS
        )

    def test_invalid_worker_count_rejected(self, models):
        with pytest.raises(ValueError):
            DesignSpaceExplorer(models, max_workers=0)
        for workers in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                DesignSpaceExplorer(models).explore(self.POINTS, max_workers=workers)

    def test_custom_backend_instance_survives_process_pool(self, models):
        """The backend instance (not a registry name) is shipped to workers,
        so unregistered subclasses and tuned configurations both work."""
        custom = DesignSpaceExplorer(
            models, backend=_UnregisteredBackend(), max_workers=2
        ).explore(self.POINTS)
        tuned = DesignSpaceExplorer(
            models, backend=CycleAccurateBackend(measurement_seed=7), max_workers=2
        ).explore(self.POINTS)
        reference = DesignSpaceExplorer(models).explore(self.POINTS)
        assert custom == reference
        assert tuned == reference
