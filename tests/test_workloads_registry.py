"""Tests for the workload registry, suites and the batch-scaling adapter."""

import pickle

import pytest

from repro.backends import AnalyticalBackend
from repro.core.config import ArrayFlexConfig
from repro.core.metrics import resolve_workload
from repro.nn.gemm_mapping import GemmShape
from repro.nn.models import resnet34
from repro.workloads import (
    GemmWorkload,
    UnknownWorkloadError,
    Workload,
    batched_workload,
    get_suite,
    get_workload,
    list_suites,
    list_workloads,
    normalise_name,
    register_workload,
    workload_entry,
)


class TestRegistryLookup:
    def test_builtin_suites_present(self):
        suites = list_suites()
        assert set(suites) == {"cnn", "cnn_extended", "transformers"}
        assert suites["cnn"] == ["convnext_tiny", "mobilenet_v1", "resnet34"]
        assert suites["transformers"] == ["bert_base", "gpt2_decode", "vit_b16"]

    def test_list_workloads_filters_by_suite(self):
        assert list_workloads("cnn_extended") == ["resnet50", "vgg16"]
        assert set(list_workloads()) >= {"resnet34", "bert_base", "vgg16"}

    def test_get_workload_builds_fresh_objects(self):
        model = get_workload("resnet34")
        assert model.name == "ResNet-34"
        assert model.gemms() == resnet34().gemms()

    def test_aliases_and_case_insensitivity(self):
        assert get_workload("ResNet-34").name == "ResNet-34"
        assert get_workload("BERT-Base").name == "BERT-Base"
        assert get_workload("VIT_B16").name == "ViT-B/16"
        assert get_workload("ViT-B/16").name == "ViT-B/16"  # via the alias
        assert normalise_name("ViT-B/16") == "vit_b_16"

    def test_unknown_name_lists_available(self):
        with pytest.raises(UnknownWorkloadError, match="resnet34"):
            get_workload("alexnet")

    def test_unknown_suite_rejected(self):
        with pytest.raises(UnknownWorkloadError):
            get_suite("rnns")

    def test_factory_kwargs_pass_through(self):
        wide = get_workload("bert_base", seq_len=384)
        assert wide.gemms()[0].t == 384

    def test_entry_metadata(self):
        entry = workload_entry("gpt2_decode")
        assert entry.suite == "transformers"
        assert "decode" in entry.description

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_workload("resnet34", resnet34)

    def test_replace_allows_shadowing(self):
        from repro.workloads import registry as registry_module

        try:
            register_workload(
                "resnet34_test_shadow", resnet34, suite="test", description="a"
            )
            register_workload(
                "resnet34_test_shadow", resnet34, suite="test", description="b",
                replace=True,
            )
            assert workload_entry("resnet34_test_shadow").description == "b"
        finally:
            # The registry is module-global; leave no trace for other tests.
            registry_module._REGISTRY.pop("resnet34_test_shadow", None)


class TestBuildMemo:
    """Each (registration, batch) is built once per process and shared."""

    def test_batched_name_returns_one_shared_object(self):
        first = get_workload("resnet34@bs8")
        assert get_workload("resnet34@bs8") is first
        assert get_workload("ResNet-34", batch=8) is first

    def test_factory_kwargs_bypass_the_memo(self):
        assert get_workload("bert_base", seq_len=384) is not get_workload(
            "bert_base", seq_len=384
        )

    def test_memo_stays_within_its_bound(self):
        from repro.workloads import registry as registry_module

        for batch in range(2, 5002):
            get_workload(f"vgg16@bs{batch}")
        info = registry_module._memoised_build.cache_info()
        assert info.currsize <= registry_module.BUILD_MEMO_SIZE


class TestBatchScaling:
    def test_batch_one_is_identity(self):
        model = resnet34()
        assert batched_workload(model, 1) is model

    def test_batch_scales_every_t_linearly(self):
        base = get_workload("resnet34")
        scaled = batched_workload(base, 8)
        assert scaled.name == "ResNet-34@bs8"
        for original, batched in zip(base.gemms(), scaled.gemms()):
            assert (batched.m, batched.n) == (original.m, original.n)
            assert batched.t == 8 * original.t

    def test_inline_suffix_matches_batch_argument(self):
        inline = get_workload("gpt2_decode@bs4")
        explicit = get_workload("gpt2_decode", batch=4)
        assert inline.name == explicit.name == "GPT-2-decode@bs4"
        assert inline.gemms() == explicit.gemms()

    def test_inline_suffix_conflicts_with_batch_argument(self):
        with pytest.raises(ValueError, match="not both"):
            get_workload("gpt2_decode@bs4", batch=2)

    def test_malformed_suffix_rejected(self):
        with pytest.raises(UnknownWorkloadError):
            get_workload("gpt2_decode@bsmany")

    def test_suffix_is_case_insensitive_like_names(self):
        assert get_workload("GPT2_DECODE@BS4").name == "GPT-2-decode@bs4"

    def test_invalid_batch_rejected(self):
        with pytest.raises(ValueError):
            batched_workload(resnet34(), 0)

    def test_batched_workload_is_picklable(self):
        scaled = get_workload("bert_base", batch=2)
        clone = pickle.loads(pickle.dumps(scaled))
        assert clone.gemms() == scaled.gemms()


class TestGemmWorkload:
    def test_protocol_satisfied(self):
        workload = GemmWorkload(name="w", shapes=(GemmShape(m=8, n=8, t=8, name="g"),))
        assert isinstance(workload, Workload)
        assert isinstance(resnet34(), Workload)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GemmWorkload(name="empty")

    def test_counters(self):
        workload = GemmWorkload(
            name="w", shapes=(GemmShape(m=2, n=3, t=4, name="g"),) * 2
        )
        assert workload.num_layers == 2
        assert workload.total_macs == 2 * (2 * 3 * 4)


class TestResolveWorkload:
    def test_string_resolves_through_registry(self):
        gemms, name = resolve_workload("resnet34")
        assert name == "ResNet-34"
        assert gemms == resnet34().gemms()

    def test_string_with_batch_suffix(self):
        gemms, name = resolve_workload("resnet34@bs2")
        assert name == "ResNet-34@bs2"
        assert gemms[0].t == 2 * resnet34().gemms()[0].t

    def test_workload_object_resolves(self):
        workload = get_workload("bert_base")
        gemms, name = resolve_workload(workload)
        assert name == "BERT-Base"
        assert len(gemms) == 72

    def test_backend_accepts_registry_name(self):
        config = ArrayFlexConfig(rows=64, cols=64)
        backend = AnalyticalBackend()
        by_name = backend.schedule_model("resnet34", config)
        by_object = backend.schedule_model(resnet34(), config)
        assert by_name.layers == by_object.layers
        assert by_name.model_name == "ResNet-34"

class TestReplaceAliasHygiene:
    def test_replace_retires_old_aliases(self):
        from repro.nn.models import resnet34 as factory
        from repro.workloads import registry as registry_module

        try:
            register_workload(
                "shadow_wl", factory, suite="test", aliases=("Shadow-Old",)
            )
            register_workload(
                "shadow_wl", factory, suite="test", aliases=("Shadow-New",),
                replace=True,
            )
            assert get_workload("Shadow-New").name == "ResNet-34"
            with pytest.raises(UnknownWorkloadError):
                get_workload("Shadow-Old")
        finally:
            registry_module._REGISTRY.pop("shadow_wl", None)
            registry_module._ALIASES.pop("shadow_old", None)
            registry_module._ALIASES.pop("shadow_new", None)


class TestEdgeCaseHardening:
    def test_replace_can_shadow_a_builtin_by_its_alias(self):
        """Shadowing by display name must actually take effect, past the
        memoised build of the original, which returns after the restore."""
        from repro.workloads import registry as registry_module

        original = get_workload("ResNet-34")
        original_alias_target = registry_module._ALIASES.get("resnet_34")
        try:
            marker = GemmShape(m=1, n=1, t=1, name="shadow")
            register_workload(
                "ResNet-34",
                lambda: GemmWorkload(name="Shadow", shapes=(marker,)),
                suite="test",
                replace=True,
            )
            assert get_workload("ResNet-34").name == "Shadow"
        finally:
            registry_module._REGISTRY.pop("resnet_34", None)
            if original_alias_target is not None:
                registry_module._ALIASES["resnet_34"] = original_alias_target
        assert get_workload("ResNet-34") is original

    def test_empty_lowering_rejected_like_empty_lists(self):
        class Hollow:
            name = "hollow"

            def gemms(self):
                return []

        with pytest.raises(ValueError, match="empty"):
            resolve_workload(Hollow())

    def test_names_with_batch_marker_rejected_at_registration(self):
        with pytest.raises(ValueError, match="reserved"):
            register_workload("x@bs_opt", resnet34, suite="test")

    def test_explicit_empty_experiment_workloads_not_replaced(self):
        from repro.eval.experiments import comparison_grid

        assert comparison_grid([]) == []
