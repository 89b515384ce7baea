"""Tests for the structured LayerMetrics pipeline across the whole stack.

Three contracts:

* **Bit-identical defaults** — with the default ``ConstantActivity(1.0)``
  every schedule equals the pre-refactor numbers (pinned here as golden
  totals captured from the flat-``LayerSchedule`` implementation) across
  all three backends, per-layer and in the totals fast path.
* **Activity plumbing** — ``UtilizationActivity`` produces strictly lower
  datapath energy on every layer whose GEMM does not tile the array
  exactly, never touches a timing number, and the batched backend's
  vectorised utilization path matches the analytical backend bit for
  bit.
* **Structured records** — breakdown components are self-consistent, the
  back-compat ``power_mw``/``energy_nj`` surface is intact, and the
  serving front-end treats activity models as part of request identity.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import (
    AnalyticalBackend,
    BatchedCachedBackend,
    CycleAccurateBackend,
)
from repro.core.activity import ConstantActivity, UtilizationActivity
from repro.core.config import ArrayFlexConfig
from repro.core.metrics import (
    InvalidWorkloadError,
    LayerMetrics,
    ModelSchedule,
    resolve_workload,
)
from repro.nn.gemm_mapping import GemmShape
from repro.nn.models import convnext_tiny, mobilenet_v1, resnet34
from repro.timing.power_model import ArrayPowerBreakdown
from repro.workloads import get_workload

#: (workload, config) -> pre-refactor golden totals, captured from the
#: flat-LayerSchedule implementation at PR 3's head:
#: (arrayflex time ns, arrayflex energy nJ, conventional time ns,
#:  conventional energy nJ).  Full-precision reprs — equality is exact.
GOLDEN_TOTALS = {
    "resnet34@128": (363675.2194211018, 36453679.439712465, 401790.0, 47031066.23078399),
    "convnext@128": (447138.366013072, 44226650.90025829, 502726.0, 58846013.59400962),
    "mobilenet@256": (61044.00560224088, 24692143.91144918, 65103.0, 30482227.082035203),
    "bert_base@128": (1190145.8823529412, 125835279.96118169, 1344936.0, 157429936.26562554),
    "gpt2_decode@256": (543246.4285714284, 183080968.60116437, 761008.5, 356315898.01328653),
}


def _workload_config(key):
    name, _, size = key.partition("@")
    config = (
        ArrayFlexConfig.paper_128x128() if size == "128" else ArrayFlexConfig.paper_256x256()
    )
    models = {
        "resnet34": resnet34,
        "convnext": convnext_tiny,
        "mobilenet": mobilenet_v1,
    }
    model = models[name]() if name in models else get_workload(name)
    return model, config


@pytest.fixture(scope="module")
def analytical():
    return AnalyticalBackend()


@pytest.fixture(scope="module")
def batched():
    return BatchedCachedBackend()


class TestPreRefactorGoldenParity:
    """ConstantActivity(1.0) defaults are bit-identical to the old numbers."""

    @pytest.mark.parametrize("key", sorted(GOLDEN_TOTALS))
    def test_analytical_and_batched_match_goldens(self, key, analytical, batched):
        model, config = _workload_config(key)
        af_time, af_energy, conv_time, conv_energy = GOLDEN_TOTALS[key]
        for backend in (analytical, batched):
            schedule = backend.schedule_model(model, config)
            conventional = backend.schedule_model_conventional(model, config)
            assert schedule.total_time_ns == af_time
            assert schedule.total_energy_nj == af_energy
            assert conventional.total_time_ns == conv_time
            assert conventional.total_energy_nj == conv_energy
        totals = batched.schedule_model_totals(model, config)
        conv_totals = batched.schedule_model_totals(model, config, conventional=True)
        assert (totals.time_ns, totals.energy_nj) == (af_time, af_energy)
        assert (conv_totals.time_ns, conv_totals.energy_nj) == (conv_time, conv_energy)

    def test_cycle_backend_matches_goldens_scaled_down(self, analytical):
        """The cycle backend agrees layer-for-layer on a simulable geometry."""
        config = ArrayFlexConfig(rows=16, cols=16)
        gemms = resnet34().gemms()[:5]
        measured = CycleAccurateBackend().schedule_model(gemms, config, model_name="s")
        modelled = analytical.schedule_model(gemms, config, model_name="s")
        assert measured.layers == modelled.layers


class TestUtilizationActivityPlumbing:
    CONFIGS = {
        "constant": ArrayFlexConfig.paper_128x128(),
        "utilization": ArrayFlexConfig.paper_128x128().with_activity_model(
            UtilizationActivity()
        ),
    }

    @pytest.mark.parametrize("model_builder", [resnet34, convnext_tiny, mobilenet_v1])
    def test_batched_matches_analytical_bit_for_bit(
        self, model_builder, analytical, batched
    ):
        model = model_builder()
        config = self.CONFIGS["utilization"]
        assert (
            batched.schedule_model(model, config).layers
            == analytical.schedule_model(model, config).layers
        )
        assert (
            batched.schedule_model_conventional(model, config).layers
            == analytical.schedule_model_conventional(model, config).layers
        )

    def test_totals_fast_path_matches_layer_sums_under_utilization(self, batched):
        model = mobilenet_v1()
        config = self.CONFIGS["utilization"]
        schedule = batched.schedule_model(model, config)
        totals = batched.schedule_model_totals(model, config)
        assert totals.time_ns == schedule.total_time_ns
        assert totals.energy_nj == schedule.total_energy_nj
        conventional = batched.schedule_model_conventional(model, config)
        conv_totals = batched.schedule_model_totals(model, config, conventional=True)
        assert conv_totals.time_ns == conventional.total_time_ns
        assert conv_totals.energy_nj == conventional.total_energy_nj

    @pytest.mark.parametrize("model_builder", [resnet34, convnext_tiny, mobilenet_v1])
    def test_strictly_lower_datapath_energy_on_inexact_layers(
        self, model_builder, analytical
    ):
        """The acceptance criterion: derating bites exactly where tiling is
        inexact, and only in datapath energy — never in any timing number."""
        model = model_builder()
        constant = analytical.schedule_model(model, self.CONFIGS["constant"])
        derated = analytical.schedule_model(model, self.CONFIGS["utilization"])
        saw_inexact = False
        for base, layer in zip(constant.layers, derated.layers):
            assert layer.execution_time_ns == base.execution_time_ns
            assert layer.cycles == base.cycles
            assert layer.collapse_depth == base.collapse_depth
            assert layer.array_utilization == base.array_utilization
            if layer.array_utilization < 1.0:
                saw_inexact = True
                assert layer.datapath_energy_nj < base.datapath_energy_nj
                assert layer.energy_nj < base.energy_nj
                assert layer.activity == pytest.approx(layer.array_utilization)
            else:
                assert layer.power == base.power
        assert saw_inexact, "suite should contain at least one inexact tiling"

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 4096),
        n=st.integers(1, 4096),
        t=st.integers(1, 8192),
    )
    def test_single_layer_parity_property_under_utilization(self, m, n, t):
        """Property: the vectorised utilization path equals the scalar one
        for any GEMM — decision, activity, and every breakdown component."""
        config = ArrayFlexConfig(rows=128, cols=128, activity_model="utilization")
        gemm = GemmShape(m=m, n=n, t=t, name="prop")
        reference = AnalyticalBackend().schedule_layer(gemm, config)
        fast = BatchedCachedBackend().schedule_layer(gemm, config)
        assert fast == reference
        conventional_ref = AnalyticalBackend().schedule_layer_conventional(gemm, config)
        conventional_fast = (
            BatchedCachedBackend()
            .schedule_model_conventional([gemm], config, model_name="prop")
            .layers[0]
        )
        assert conventional_fast == conventional_ref

    def test_conventional_baseline_also_derated(self, analytical):
        """Both accelerators are priced under the same activity model."""
        gemm = GemmShape(m=100, n=150, t=49, name="edge")
        constant = analytical.schedule_layer_conventional(gemm, self.CONFIGS["constant"])
        derated = analytical.schedule_layer_conventional(
            gemm, self.CONFIGS["utilization"]
        )
        assert derated.power.datapath_mw < constant.power.datapath_mw
        assert derated.execution_time_ns == constant.execution_time_ns


class TestLayerMetricsRecord:
    def test_back_compat_alias_and_properties(self, analytical):
        layer = analytical.schedule_layer(
            resnet34().gemm(28), ArrayFlexConfig.paper_128x128()
        )
        assert isinstance(layer, LayerMetrics)
        assert layer.power_mw == layer.power.total_mw
        assert layer.energy_nj == pytest.approx(
            layer.power_mw * layer.execution_time_ns / 1000.0
        )

    def test_breakdown_components_sum_to_total(self, analytical):
        layer = analytical.schedule_layer(
            resnet34().gemm(20), ArrayFlexConfig.paper_128x128()
        )
        parts = layer.energy_breakdown_nj()
        total = parts.pop("total")
        assert total == pytest.approx(sum(parts.values()))
        assert set(parts) == set(ArrayPowerBreakdown.DATAPATH_COMPONENTS) | {
            "register_clock",
            "leakage",
        }

    def test_model_schedule_breakdown_and_averages(self, analytical):
        config = ArrayFlexConfig(rows=128, cols=128, activity_model="utilization")
        schedule = analytical.schedule_model(mobilenet_v1(), config)
        composition = schedule.energy_breakdown_nj()
        assert composition["total"] == schedule.total_energy_nj
        components = {k: v for k, v in composition.items() if k != "total"}
        assert sum(components.values()) == pytest.approx(composition["total"])
        assert 0.0 < schedule.average_utilization() < 1.0
        assert schedule.average_activity() == pytest.approx(
            schedule.average_utilization()
        )
        constant = analytical.schedule_model(
            mobilenet_v1(), ArrayFlexConfig.paper_128x128()
        )
        assert constant.average_activity() == 1.0

    def test_totals_add_in_layer_order(self, analytical):
        """Left to right, as the engine's totals add, on every Python: a
        compensated sum (the builtin's from 3.12 on) would keep the two
        1e-16 terms that a sequential sum rounds away."""
        layer = analytical.schedule_layer(
            resnet34().gemm(28), ArrayFlexConfig.paper_128x128()
        )
        schedule = ModelSchedule("order", "ArrayFlex", 128, 128)
        schedule.layers = [
            dataclasses.replace(layer, execution_time_ns=time_ns)
            for time_ns in (1.0, 1e-16, 1e-16)
        ]
        assert schedule.total_time_ns == 1.0

    def test_mode_decision_reports_utilization(self):
        from repro.core.optimizer import PipelineOptimizer

        optimizer = PipelineOptimizer(ArrayFlexConfig.paper_128x128())
        decision = optimizer.best_depth(GemmShape(m=100, n=150, t=49, name="edge"))
        assert decision.array_utilization == (150 * 100) / (2 * 128 * 128)


class TestResolveWorkloadTyping:
    """The falsy-check fix: empty vs not-a-workload are distinct failures."""

    def test_empty_list_is_value_error(self):
        with pytest.raises(ValueError, match="empty"):
            resolve_workload([])

    def test_generator_input_accepted(self):
        gemms = (GemmShape(m=8, n=8, t=8, name=f"g{i}") for i in range(3))
        resolved, name = resolve_workload(gemms, model_name="gen")
        assert len(resolved) == 3
        assert name == "gen"

    def test_exhausted_generator_is_value_error_not_type_error(self):
        empty = (g for g in [])
        with pytest.raises(ValueError, match="empty"):
            resolve_workload(empty)

    @pytest.mark.parametrize("bogus", [42, 3.14, object(), GemmShape(m=1, n=1, t=1)])
    def test_non_workload_raises_typed_error_naming_argument(self, bogus):
        with pytest.raises(InvalidWorkloadError, match="model argument"):
            resolve_workload(bogus)
        # The typed error is still a TypeError for generic handlers.
        with pytest.raises(TypeError):
            resolve_workload(bogus)


class TestCustomActivityModelValidation:
    """Both backends reject a custom model emitting out-of-range factors."""

    class _Overdriven(ConstantActivity):
        """Bypasses ConstantActivity's bound check to emit activity > 1."""

        def activity(self, gemm, rows, cols):
            return 1.5

        def activity_vector(self, m, n, t, rows, cols):
            import numpy as np

            return np.full(len(m), 1.5)

        def cache_key(self):
            return ("overdriven",)

    def test_analytical_and_batched_agree_on_rejection(self):
        config = ArrayFlexConfig(rows=8, cols=8, activity_model=self._Overdriven())
        gemm = GemmShape(m=8, n=8, t=8, name="x")
        with pytest.raises(ValueError, match="activity"):
            AnalyticalBackend().schedule_layer(gemm, config)
        with pytest.raises(ValueError, match="activity"):
            BatchedCachedBackend().schedule_layer(gemm, config)
        with pytest.raises(ValueError, match="activity"):
            BatchedCachedBackend().schedule_model_conventional(
                [gemm], config, model_name="x"
            )

    def test_config_requires_the_vector_method_too(self):
        class ScalarOnly:
            def activity(self, gemm, rows, cols):
                return 1.0

            def cache_key(self):
                return ("scalar-only",)

        with pytest.raises(ValueError, match="activity_vector"):
            ArrayFlexConfig(rows=8, cols=8, activity_model=ScalarOnly())


class TestServingActivityIdentity:
    def test_activity_models_do_not_dedup_together(self):
        from repro.serve import Request, SchedulingService

        constant = ArrayFlexConfig.paper_128x128()
        derated = constant.with_activity_model("utilization")
        with SchedulingService(max_workers=2) as service:
            results = [
                response.unwrap()
                for response in service.submit_many(
                    [
                        Request(model="mobilenet_v1", config=constant),
                        Request(model="mobilenet_v1", config=derated),
                        Request(model="mobilenet_v1", config=constant),
                    ]
                )
            ]
            stats = service.stats()
        assert stats["submitted"] == 2  # constant + derated, third deduped
        assert stats["deduplicated"] == 1
        assert results[0].total_energy_nj == results[2].total_energy_nj
        assert results[1].total_energy_nj < results[0].total_energy_nj
        assert results[1].total_time_ns == results[0].total_time_ns
