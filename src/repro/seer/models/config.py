"""Model and parallelism configurations for Seer's graph builders.

Presets cover the models the paper evaluates with: GPT-3-175B and
LLaMA-class dense transformers, plus Hunyuan-style MoE models (the
in-production workload) — all parameterized from public architecture
hyperparameters, which is exactly what Seer's handcraft path consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = [
    "ModelConfig",
    "ParallelismConfig",
    "GPT3_175B",
    "LLAMA2_70B",
    "LLAMA3_70B",
    "HUNYUAN_MOE",
    "DEEPSEEK_MOE",
]


@dataclass(frozen=True)
class ModelConfig:
    """Transformer architecture hyperparameters."""

    name: str
    n_layers: int
    hidden: int
    n_heads: int
    n_kv_heads: int
    ffn_hidden: int
    vocab: int
    seq_len: int = 4096
    dtype_bits: int = 16
    #: SwiGLU-style gated MLP (3 matrices) vs classic GELU (2 matrices).
    gated_mlp: bool = True
    # -- MoE --
    n_experts: int = 0           # 0 => dense
    experts_per_token: int = 0
    moe_ffn_hidden: Optional[int] = None

    @property
    def is_moe(self) -> bool:
        return self.n_experts > 0

    @property
    def head_dim(self) -> int:
        return self.hidden // self.n_heads

    @property
    def kv_hidden(self) -> int:
        return self.n_kv_heads * self.head_dim

    @property
    def dtype_bytes(self) -> int:
        return self.dtype_bits // 8

    # -- parameter counts ------------------------------------------------------
    @property
    def attn_params_per_layer(self) -> int:
        qkv = self.hidden * (self.hidden + 2 * self.kv_hidden)
        proj = self.hidden * self.hidden
        return qkv + proj

    @property
    def mlp_matrices(self) -> int:
        """Projections per MLP: up+gate+down (gated) or up+down."""
        return 3 if self.gated_mlp else 2

    @property
    def mlp_params_per_layer(self) -> int:
        ffn = self.moe_ffn_hidden or self.ffn_hidden
        per_expert = self.mlp_matrices * self.hidden * ffn
        if self.is_moe:
            return per_expert * self.n_experts
        return self.mlp_matrices * self.hidden * self.ffn_hidden

    @property
    def params_per_layer(self) -> int:
        norm = 2 * self.hidden
        return self.attn_params_per_layer + self.mlp_params_per_layer \
            + norm

    @property
    def expert_params(self) -> int:
        """Parameters living inside MoE experts (sharded by EP)."""
        if not self.is_moe:
            return 0
        return self.n_layers * self.mlp_params_per_layer

    @property
    def dense_params(self) -> int:
        """Parameters replicated across the DP group (non-expert)."""
        return self.total_params - self.expert_params

    @property
    def total_params(self) -> int:
        embedding = self.vocab * self.hidden
        head = self.vocab * self.hidden
        return self.n_layers * self.params_per_layer + embedding + head

    def with_seq_len(self, seq_len: int) -> "ModelConfig":
        return replace(self, seq_len=seq_len)


@dataclass(frozen=True)
class ParallelismConfig:
    """3D/4D parallelism layout (TP x PP x DP, plus EP for MoE)."""

    tp: int = 1
    pp: int = 1
    dp: int = 1
    ep: int = 1
    zero_stage: int = 0          # 0 = plain DP, 3 = ZeRO-3
    microbatches: int = 8
    micro_batch_size: int = 1
    #: model chunks per physical pipeline stage (Megatron interleaved
    #: 1F1B); 1 = the plain schedule.
    virtual_stages: int = 1
    #: parallelism dimension routed across datacenters, if any
    #: ("" | "pp" | "dp").  Drives the Figure 13/18 studies.
    cross_dc_dimension: str = ""

    @property
    def world_size(self) -> int:
        return self.tp * self.pp * self.dp

    @property
    def pipeline_chunks(self) -> int:
        return self.pp * self.virtual_stages

    def validate(self, model: ModelConfig) -> None:
        if min(self.tp, self.pp, self.dp, self.ep,
               self.virtual_stages) < 1:
            raise ValueError("parallel degrees must be >= 1")
        if model.n_layers % self.pipeline_chunks != 0:
            raise ValueError(
                f"{model.n_layers} layers not divisible by "
                f"pp*virtual={self.pipeline_chunks}")
        if self.zero_stage not in (0, 1, 3):
            raise ValueError(f"unsupported ZeRO stage {self.zero_stage}")
        if model.is_moe and self.ep > model.n_experts:
            raise ValueError("ep cannot exceed the number of experts")
        if self.cross_dc_dimension not in ("", "pp", "dp"):
            raise ValueError(
                f"cross-DC dimension must be '', 'pp' or 'dp', got "
                f"{self.cross_dc_dimension!r}")


GPT3_175B = ModelConfig(
    name="GPT-3-175B", n_layers=96, hidden=12288, n_heads=96,
    n_kv_heads=96, ffn_hidden=49152, vocab=50257, seq_len=2048,
    gated_mlp=False)

LLAMA2_70B = ModelConfig(
    name="LLaMA-2-70B", n_layers=80, hidden=8192, n_heads=64,
    n_kv_heads=8, ffn_hidden=28672, vocab=32000, seq_len=4096)

LLAMA3_70B = ModelConfig(
    name="LLaMA-3-70B", n_layers=80, hidden=8192, n_heads=64,
    n_kv_heads=8, ffn_hidden=28672, vocab=128256, seq_len=8192)

#: Hunyuan-class in-production MoE (publicly described shape).
HUNYUAN_MOE = ModelConfig(
    name="Hunyuan-MoE", n_layers=64, hidden=6400, n_heads=80,
    n_kv_heads=8, ffn_hidden=18304, vocab=128000, seq_len=4096,
    n_experts=16, experts_per_token=2, moe_ffn_hidden=18304)

#: DeepSeek-R1-class MoE: many small experts, high sparsity.
DEEPSEEK_MOE = ModelConfig(
    name="DeepSeek-MoE", n_layers=61, hidden=7168, n_heads=128,
    n_kv_heads=128, ffn_hidden=18432, vocab=129280, seq_len=4096,
    n_experts=256, experts_per_token=8, moe_ffn_hidden=2048)
