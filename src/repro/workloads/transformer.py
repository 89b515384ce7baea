"""Transformer/LLM GEMM traces: attention and MLP lowering per phase.

The paper evaluates the configurable-pipeline array only on CNNs, but its
per-layer mode decision (Eq. 6) is defined on raw GEMM shapes — nothing in
the decision math is CNN-specific.  This module lowers transformer
inference to the same ``(M, N, T)`` currency:

Every transformer layer contributes six GEMMs, with the streamed dimension
T carrying the token count:

=====================  ==========================  =======================
GEMM                   weight matrix (N x M)       streamed rows T
=====================  ==========================  =======================
``qkv``                hidden x 3*hidden           tokens
``scores`` (QK^T)      head_dim x kv_len           batch * heads * q_len
``context`` (x V)      kv_len x head_dim           batch * heads * q_len
``out``                hidden x hidden             tokens
``mlp_up``             hidden x intermediate       tokens
``mlp_down``           intermediate x hidden       tokens
=====================  ==========================  =======================

Two phases differ only in what "tokens" means:

* **prefill** processes the whole prompt at once: ``tokens = batch *
  seq_len`` and attention runs queries against keys of the same length
  (``q_len = kv_len = seq_len``).  Encoder-only models (BERT, ViT) are
  pure prefill.
* **decode** generates one token per sequence against a KV cache:
  ``tokens = batch`` (T = batch, exactly as the ROADMAP's batched-
  inference item prescribes), ``q_len = 1`` and ``kv_len = context_len``.

The attention score/context GEMMs fold the head dimension into T (heads
are independent streams over the same weight tile), the standard
batch-along-T treatment that keeps every GEMM dense and the decision
cache shape-keyed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.nn.gemm_mapping import GemmShape
from repro.nn.layers import LayerKind
from repro.workloads.registry import register_workload

#: Phase tags of a :class:`TransformerModel`.
PHASES = ("prefill", "decode")


@dataclass(frozen=True)
class TransformerConfig:
    """Dimensions of a (decoder- or encoder-style) transformer stack.

    ``seq_len`` is the prompt/sequence length a prefill processes;
    ``context_len`` is the KV-cache length a decode step attends over
    (defaults to ``seq_len``); ``batch`` scales the streamed T dimension
    of every GEMM — prefill streams ``batch * seq_len`` token rows,
    decode streams ``batch`` rows.
    """

    hidden_size: int
    num_layers: int
    num_heads: int
    intermediate_size: int
    seq_len: int
    batch: int = 1
    context_len: int | None = None

    def __post_init__(self) -> None:
        if min(
            self.hidden_size,
            self.num_layers,
            self.num_heads,
            self.intermediate_size,
            self.seq_len,
            self.batch,
        ) <= 0:
            raise ValueError("all transformer dimensions must be positive")
        if self.hidden_size % self.num_heads:
            raise ValueError(
                f"hidden_size {self.hidden_size} must divide into {self.num_heads} heads"
            )
        if self.context_len is not None and self.context_len <= 0:
            raise ValueError("context_len must be positive")

    # ------------------------------------------------------------------ #
    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads

    @property
    def kv_len(self) -> int:
        """Length of the key/value sequence attention runs against."""
        return self.context_len if self.context_len is not None else self.seq_len

    # ------------------------------------------------------------------ #
    def layer_gemms(self, phase: str, layer_index: int) -> list[GemmShape]:
        """The six GEMMs of one transformer layer in one phase."""
        if phase not in PHASES:
            raise ValueError(f"phase must be one of {PHASES}, got {phase!r}")
        hidden = self.hidden_size
        q_len = self.seq_len if phase == "prefill" else 1
        tokens = self.batch * q_len
        prefix = f"{'enc' if phase == 'prefill' else 'dec'}{layer_index}"

        def linear(name: str, m: int, n: int, t: int) -> GemmShape:
            return GemmShape(m=m, n=n, t=t, name=f"{prefix}_{name}", kind=LayerKind.LINEAR)

        attention_rows = self.batch * self.num_heads * q_len
        return [
            linear("qkv", 3 * hidden, hidden, tokens),
            linear("scores", self.kv_len, self.head_dim, attention_rows),
            linear("context", self.head_dim, self.kv_len, attention_rows),
            linear("out", hidden, hidden, tokens),
            linear("mlp_up", self.intermediate_size, hidden, tokens),
            linear("mlp_down", hidden, self.intermediate_size, tokens),
        ]

    def gemms(self, phase: str) -> list[GemmShape]:
        """The full per-layer trace of the stack in one phase."""
        shapes: list[GemmShape] = []
        for layer_index in range(1, self.num_layers + 1):
            shapes.extend(self.layer_gemms(phase, layer_index))
        return shapes


@dataclass(frozen=True)
class TransformerModel:
    """A named transformer workload: one config lowered in one phase.

    ``prologue`` / ``epilogue`` carry the non-repeated GEMMs around the
    layer stack (a ViT patch embedding, a GPT LM head, a classifier).
    Satisfies the :class:`~repro.workloads.base.Workload` protocol, so it
    flows through every backend / serving / sweep entry point unchanged.
    """

    name: str
    config: TransformerConfig
    phase: str = "prefill"
    prologue: tuple[GemmShape, ...] = field(default_factory=tuple)
    epilogue: tuple[GemmShape, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.phase not in PHASES:
            raise ValueError(f"phase must be one of {PHASES}, got {self.phase!r}")

    def gemms(self) -> list[GemmShape]:
        """The ordered GEMM trace (lowered once per instance, like CnnModel)."""
        cached = getattr(self, "_gemms_cache", None)
        if cached is None:
            cached = (
                tuple(self.prologue)
                + tuple(self.config.gemms(self.phase))
                + tuple(self.epilogue)
            )
            object.__setattr__(self, "_gemms_cache", cached)
        return list(cached)

    @property
    def num_layers(self) -> int:
        """Number of GEMMs in the trace (the scheduler's layer count)."""
        return len(self.gemms())

    @property
    def total_macs(self) -> int:
        return sum(shape.macs for shape in self.gemms())


# ---------------------------------------------------------------------- #
# Named workloads
# ---------------------------------------------------------------------- #
def bert_base(seq_len: int = 128, batch: int = 1) -> TransformerModel:
    """BERT-Base [Devlin et al., 2019] encoder prefill: 12 layers, h=768."""
    return TransformerModel(
        name="BERT-Base",
        config=TransformerConfig(
            hidden_size=768,
            num_layers=12,
            num_heads=12,
            intermediate_size=3072,
            seq_len=seq_len,
            batch=batch,
        ),
        phase="prefill",
    )


def vit_b16(input_resolution: int = 224, batch: int = 1) -> TransformerModel:
    """ViT-B/16 [Dosovitskiy et al., 2021] inference at 224x224.

    The 16x16 patch embedding is itself a GEMM (one token row per patch,
    kernel volume 3*16*16 = 768) and the encoder runs over the patches
    plus the class token; the classifier head closes the trace.
    """
    patch = 16
    if input_resolution % patch:
        raise ValueError(f"input resolution must be a multiple of {patch}")
    num_patches = (input_resolution // patch) ** 2
    hidden = 768
    return TransformerModel(
        name="ViT-B/16",
        config=TransformerConfig(
            hidden_size=hidden,
            num_layers=12,
            num_heads=12,
            intermediate_size=3072,
            seq_len=num_patches + 1,  # class token
            batch=batch,
        ),
        phase="prefill",
        prologue=(
            GemmShape(
                m=hidden,
                n=3 * patch * patch,
                t=batch * num_patches,
                name="patch_embed",
                kind=LayerKind.CONV,
            ),
        ),
        epilogue=(
            GemmShape(m=1000, n=hidden, t=batch, name="head", kind=LayerKind.LINEAR),
        ),
    )


def gpt2_decode(context_len: int = 1024, batch: int = 1) -> TransformerModel:
    """GPT-2-style decoder [Radford et al., 2019] autoregressive decode.

    One generated token per sequence attending over a ``context_len`` KV
    cache; the vocabulary projection (LM head) closes the trace.  Decode
    streams T = batch rows through every projection — the small-T regime
    where deep collapse modes pay off most.
    """
    hidden = 768
    return TransformerModel(
        name="GPT-2-decode",
        config=TransformerConfig(
            hidden_size=hidden,
            num_layers=12,
            num_heads=12,
            intermediate_size=3072,
            seq_len=1,
            batch=batch,
            context_len=context_len,
        ),
        phase="decode",
        epilogue=(
            GemmShape(m=50257, n=hidden, t=batch, name="lm_head", kind=LayerKind.LINEAR),
        ),
    )


register_workload(
    "bert_base",
    bert_base,
    suite="transformers",
    description="BERT-Base encoder prefill (12 layers, h=768, seq 128)",
    aliases=("BERT-Base",),
)
register_workload(
    "vit_b16",
    vit_b16,
    suite="transformers",
    description="ViT-B/16 at 224x224 (patch embed + 12 encoder layers + head)",
    aliases=("ViT-B/16",),
)
register_workload(
    "gpt2_decode",
    gpt2_decode,
    suite="transformers",
    description="GPT-2-style decode step over a 1024-token KV cache (+ LM head)",
    aliases=("GPT-2-decode",),
)
