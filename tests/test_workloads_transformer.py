"""Tests for the transformer front-end: golden GEMM tables, phase
semantics, batch-scaling invariants and backend parity.

The golden tables play the same role as the pinned ResNet-34 layer-20/28
shapes: they freeze the attention/MLP lowering of the three named
workloads, so any change to the trace is a deliberate, visible diff.
"""

import pytest

from repro.backends import AnalyticalBackend, BatchedCachedBackend
from repro.core.config import ArrayFlexConfig
from repro.workloads import (
    TransformerConfig,
    batched_workload,
    bert_base,
    get_workload,
    gpt2_decode,
    vit_b16,
)


class TestTransformerConfig:
    def test_head_dim(self):
        config = TransformerConfig(
            hidden_size=768, num_layers=12, num_heads=12,
            intermediate_size=3072, seq_len=128,
        )
        assert config.head_dim == 64
        assert config.kv_len == 128

    def test_hidden_must_divide_heads(self):
        with pytest.raises(ValueError):
            TransformerConfig(
                hidden_size=100, num_layers=1, num_heads=12,
                intermediate_size=4, seq_len=8,
            )

    def test_dimensions_must_be_positive(self):
        with pytest.raises(ValueError):
            TransformerConfig(
                hidden_size=64, num_layers=0, num_heads=4,
                intermediate_size=4, seq_len=8,
            )

    def test_unknown_phase_rejected(self):
        config = TransformerConfig(
            hidden_size=64, num_layers=1, num_heads=4,
            intermediate_size=4, seq_len=8,
        )
        with pytest.raises(ValueError):
            config.gemms("train")


class TestGoldenBertBase:
    """BERT-Base prefill, seq 128: 12 layers x 6 GEMMs."""

    def test_gemm_count(self):
        assert len(bert_base().gemms()) == 12 * 6

    def test_layer_shape_table(self):
        gemms = bert_base().gemms()
        # One layer's (M, N, T) table; every layer repeats it.
        expected = [
            ("qkv", 2304, 768, 128),
            ("scores", 128, 64, 1536),    # T = heads x seq = 12 x 128
            ("context", 64, 128, 1536),
            ("out", 768, 768, 128),
            ("mlp_up", 3072, 768, 128),
            ("mlp_down", 768, 3072, 128),
        ]
        for layer in range(12):
            for slot, (op, m, n, t) in enumerate(expected):
                gemm = gemms[6 * layer + slot]
                assert gemm.name == f"enc{layer + 1}_{op}"
                assert (gemm.m, gemm.n, gemm.t) == (m, n, t)

    def test_total_macs(self):
        # 12 x (qkv + scores + context + out + mlp x2), tokens = 128.
        per_layer = (
            2304 * 768 * 128
            + 128 * 64 * 1536 * 2
            + 768 * 768 * 128
            + 3072 * 768 * 128 * 2
        )
        assert bert_base().total_macs == 12 * per_layer


class TestGoldenVitB16:
    """ViT-B/16 at 224: patch embed + 12 encoder layers (seq 197) + head."""

    def test_gemm_count(self):
        assert len(vit_b16().gemms()) == 1 + 12 * 6 + 1

    def test_patch_embed_and_head(self):
        gemms = vit_b16().gemms()
        assert gemms[0].name == "patch_embed"
        assert (gemms[0].m, gemms[0].n, gemms[0].t) == (768, 3 * 16 * 16, 196)
        assert gemms[-1].name == "head"
        assert (gemms[-1].m, gemms[-1].n, gemms[-1].t) == (1000, 768, 1)

    def test_encoder_runs_over_class_token(self):
        gemms = vit_b16().gemms()
        qkv = gemms[1]
        scores = gemms[2]
        assert qkv.name == "enc1_qkv" and qkv.t == 197
        assert (scores.m, scores.n, scores.t) == (197, 64, 12 * 197)

    def test_resolution_must_tile_into_patches(self):
        with pytest.raises(ValueError):
            vit_b16(input_resolution=200)


class TestGoldenGpt2Decode:
    """GPT-2 decode, context 1024: 12 layers x 6 GEMMs + LM head, T = batch."""

    def test_gemm_count(self):
        assert len(gpt2_decode().gemms()) == 12 * 6 + 1

    def test_layer_shape_table(self):
        gemms = gpt2_decode().gemms()
        expected = [
            ("qkv", 2304, 768, 1),
            ("scores", 1024, 64, 12),     # T = heads x 1 query token
            ("context", 64, 1024, 12),
            ("out", 768, 768, 1),
            ("mlp_up", 3072, 768, 1),
            ("mlp_down", 768, 3072, 1),
        ]
        for layer in range(12):
            for slot, (op, m, n, t) in enumerate(expected):
                gemm = gemms[6 * layer + slot]
                assert gemm.name == f"dec{layer + 1}_{op}"
                assert (gemm.m, gemm.n, gemm.t) == (m, n, t)

    def test_lm_head(self):
        head = gpt2_decode().gemms()[-1]
        assert head.name == "lm_head"
        assert (head.m, head.n, head.t) == (50257, 768, 1)

    def test_decode_prefers_deep_modes(self):
        """T = 1 streams are the small-T regime: every projection collapses."""
        config = ArrayFlexConfig.paper_128x128()
        schedule = AnalyticalBackend().schedule_model(gpt2_decode(), config)
        assert schedule.depth_histogram() == {4: 73}


class TestBatchScalingInvariants:
    def test_decode_t_scales_linearly_with_batch(self):
        base = gpt2_decode().gemms()
        for batch in (2, 4, 16):
            scaled = batched_workload(gpt2_decode(), batch).gemms()
            assert [g.t for g in scaled] == [g.t * batch for g in base]
            assert [(g.m, g.n) for g in scaled] == [(g.m, g.n) for g in base]

    def test_native_batch_matches_adapter(self):
        """Lowering with batch=B equals adapting the batch-1 trace."""
        for build in (bert_base, vit_b16, gpt2_decode):
            native = build(batch=4).gemms()
            adapted = batched_workload(build(), 4).gemms()
            assert [g.as_tuple() for g in native] == [g.as_tuple() for g in adapted]

    def test_prefill_tokens_are_batch_times_seq(self):
        assert bert_base(batch=3).gemms()[0].t == 3 * 128


class TestBackendParity:
    """analytical == batched == totals on a transformer workload."""

    @pytest.fixture(scope="class")
    def config(self):
        return ArrayFlexConfig.paper_128x128()

    @pytest.mark.parametrize("name", ["bert_base", "vit_b16", "gpt2_decode"])
    def test_batched_matches_analytical(self, config, name):
        workload = get_workload(name)
        reference = AnalyticalBackend().schedule_model(workload, config)
        fast = BatchedCachedBackend().schedule_model(workload, config)
        assert fast.layers == reference.layers
        assert fast.model_name == reference.model_name

    @pytest.mark.parametrize("conventional", [False, True])
    def test_totals_match_schedule_sums(self, config, conventional):
        workload = get_workload("gpt2_decode")
        backend = BatchedCachedBackend()
        totals = backend.schedule_model_totals(workload, config, conventional=conventional)
        scheduler = (
            backend.schedule_model_conventional if conventional else backend.schedule_model
        )
        schedule = scheduler(workload, config)
        assert totals.time_ns == schedule.total_time_ns
        assert totals.energy_nj == schedule.total_energy_nj
