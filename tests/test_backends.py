"""Tests for the pluggable execution-backend layer.

The contract under test: every backend implements the same
``schedule_layer`` / ``schedule_model`` protocol and every registered
backend is *numerically interchangeable* — the batched/cached backend
bit-identically, and the cycle-accurate backend because the simulator
is cycle-exact with respect to Eqs. (1)/(3).  The per-backend parity
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
    ExecutionBackend,
    ExecutionBackendProtocol,
    create_backend,
)
from repro.core.arrayflex import ArrayFlexAccelerator
from repro.core.config import ArrayFlexConfig
from repro.core.design_space import DesignPoint, DesignSpaceExplorer
from repro.core.latency import arrayflex_total_cycles
from repro.core.scheduler import Scheduler
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
        assert isinstance(backend, ExecutionBackendProtocol)
        assert backend.name == name

    def test_none_resolves_to_analytical(self):
        assert isinstance(create_backend(None), AnalyticalBackend)

    def test_instance_passes_through(self):
        backend = BatchedCachedBackend()
        assert create_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("verilog")

    def test_duck_typed_protocol_instance_accepted(self):
        """An object satisfying ExecutionBackendProtocol passes through
        create_backend without subclassing ExecutionBackend."""

        class DuckBackend:
            name = "duck"

            def schedule_layer(self, gemm, config, index=1):
                return AnalyticalBackend().schedule_layer(gemm, config, index)

            def schedule_model(self, model, config, model_name=None):
                return AnalyticalBackend().schedule_model(model, config, model_name)

            def schedule_model_conventional(self, model, config, model_name=None):
                return AnalyticalBackend().schedule_model_conventional(
                    model, config, model_name
                )

        duck = DuckBackend()
        assert create_backend(duck) is duck


class TestAnalyticalMatchesScheduler:
    """The analytical backend is the refactored home of the old scheduler path."""

    def test_model_schedule_identical(self, config, analytical):
        scheduler = Scheduler(config)
        model = resnet34()
        via_backend = analytical.schedule_model(model, config)
        via_scheduler = scheduler.schedule_model_arrayflex(model)
        assert via_backend.layers == via_scheduler.layers
        assert via_backend.model_name == via_scheduler.model_name

    def test_conventional_schedule_identical(self, config, analytical):
        scheduler = Scheduler(config)
        model = mobilenet_v1()
        via_backend = analytical.schedule_model_conventional(model, config)
        via_scheduler = scheduler.schedule_model_conventional(model)
        assert via_backend.layers == via_scheduler.layers


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
    """One decision pass over a whole suite equals per-model totals, bit
    for bit: under every harness configuration, with an LRU smaller than
    the suite's distinct GEMMs, and with a workload listed twice."""

    @staticmethod
    def suites():
        workloads = list(parity_workloads().values())
        return {
            "harness": workloads,
            "repeated": [*workloads, workloads[0]],
            "cnn": [mobilenet_v1(), resnet34()],
        }

    @pytest.mark.parametrize("cache_size", [65536, 7])
    @pytest.mark.parametrize("suite_key", ["harness", "repeated", "cnn"])
    @pytest.mark.parametrize("config_key", sorted(parity_configs()))
    def test_matches_per_model_totals(self, config_key, suite_key, cache_size):
        config = parity_configs()[config_key]
        suite = self.suites()[suite_key]
        per_model = BatchedCachedBackend()
        expected = [
            (
                per_model.schedule_model_totals(model, config),
                per_model.schedule_model_totals(model, config, conventional=True),
            )
            for model in suite
        ]
        backend = BatchedCachedBackend(cache_size=cache_size)
        assert backend.schedule_suite_totals(suite, config) == expected
        assert backend.cache_info()["size"] <= cache_size


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


class TestBatchedCache:
    def test_repeat_model_hits_cache(self, config):
        backend = BatchedCachedBackend()
        model = resnet34()
        first = backend.schedule_model(model, config)
        misses_after_first = backend.cache_info()["misses"]
        second = backend.schedule_model(model, config)
        info = backend.cache_info()
        assert second.layers == first.layers
        assert info["misses"] == misses_after_first
        assert info["hits"] >= len(model.gemms())

    def test_cache_spans_configs_without_collisions(self):
        backend = BatchedCachedBackend()
        gemm = GemmShape(m=512, n=2304, t=49, name="l28")
        small = backend.schedule_layer(gemm, ArrayFlexConfig.paper_128x128())
        large = backend.schedule_layer(gemm, ArrayFlexConfig.paper_256x256())
        assert small.cycles != large.cycles  # different geometries, both cached
        assert backend.cache_info()["size"] == 2

    def test_lru_eviction_bounds_size(self, config):
        backend = BatchedCachedBackend(cache_size=8)
        for t in range(1, 30):
            backend.schedule_layer(GemmShape(m=64, n=64, t=t, name="x"), config)
        assert backend.cache_info()["size"] <= 8

    def test_cache_clear(self, config):
        backend = BatchedCachedBackend()
        backend.schedule_layer(GemmShape(m=8, n=8, t=8, name="x"), config)
        backend.cache_clear()
        assert backend.cache_info() == {
            "hits": 0,
            "misses": 0,
            "store_hits": 0,
            "size": 0,
            "max_size": backend.cache_size,
        }

    def test_invalid_cache_size_rejected(self):
        with pytest.raises(ValueError):
            BatchedCachedBackend(cache_size=0)


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

        def counting_step(self, a_tile, b_tile, trace=None):
            stepped.append(a_tile.shape[0])
            return step(self, a_tile, b_tile, trace)

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

    def test_schedules_never_run_the_batched_engine(self, config, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the cycle backend must step registers")

        monkeypatch.setattr(CycleAccurateSystolicArray, "simulate_tiles", refuse)
        backend = CycleAccurateBackend()
        for model in ("resnet34", "bert_base"):
            assert (
                backend.schedule_model(model, config).layers
                == AnalyticalBackend().schedule_model(model, config).layers
            )

    def test_non_affine_probe_cycles_are_refused(self, monkeypatch):
        step = CycleAccurateSystolicArray.simulate_tile

        def quadratic_step(self, a_tile, b_tile, trace=None):
            result = step(self, a_tile, b_tile, trace)
            result.stats.compute_cycles += a_tile.shape[0] ** 2
            return result

        monkeypatch.setattr(CycleAccurateSystolicArray, "simulate_tile", quadratic_step)
        backend = CycleAccurateBackend()
        with pytest.raises(RuntimeError, match=r"not affine.*rows=16, cols=8, k=2"):
            backend.measure_tile_cycles(ArrayFlexConfig(rows=16, cols=8), 100, 2)
        assert not backend._calibration


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

    def test_custom_backend_instance_survives_process_pool(self, models):
        """The backend instance (not a registry name) is shipped to workers,
        so unregistered subclasses and tuned configurations both work."""
        custom = DesignSpaceExplorer(
            models, backend=_UnregisteredBackend(), max_workers=2
        ).explore(self.POINTS)
        tuned = DesignSpaceExplorer(
            models, backend=BatchedCachedBackend(cache_size=7), max_workers=2
        ).explore(self.POINTS)
        reference = DesignSpaceExplorer(models).explore(self.POINTS)
        assert custom == reference
        assert tuned == reference
