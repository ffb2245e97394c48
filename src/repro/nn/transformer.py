"""Transformer encoder and decoder stacks.

These are the building blocks for the paper's three transformer
components: the per-table encoders ``Enc_i`` (F.ii), the shared
representation encoder ``Trans_Share`` (S), and the join-order decoder
``Trans_JO`` (T.iii).  The paper uses 3 blocks and 4 heads for each.

Every forward takes optional ``scratch``/``tag`` arguments, threaded to
the hot matmuls so that a decode not being recorded reuses its output
buffers across steps (see :class:`repro.nn.kernels.ScratchArena`).
"""

from __future__ import annotations

import numpy as np

from .attention import MultiHeadAttention, causal_mask
from .layers import Dropout, LayerNorm, Linear, Module, ModuleList
from .spec import shape_spec
from .tensor import Tensor

__all__ = ["TransformerEncoderLayer", "TransformerEncoder", "TransformerDecoderLayer", "TransformerDecoder"]


class TransformerEncoderLayer(Module):
    """Pre-norm transformer encoder block (self-attention + FFN)."""

    def __init__(self, dim: int, num_heads: int, ff_dim: int | None = None, dropout: float = 0.0, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        ff_dim = ff_dim or 4 * dim
        self.attn = MultiHeadAttention(dim, num_heads, dropout=dropout, rng=rng)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.ff1 = Linear(dim, ff_dim, rng=rng)
        self.ff2 = Linear(ff_dim, dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    @shape_spec(inputs={"x": "(B, L, dim)"},
                out="(B, L, dim)",
                params=("attn", "norm1", "norm2", "ff1", "ff2"))
    def forward(
        self,
        x: Tensor,
        key_padding_mask: np.ndarray | None = None,
        scratch=None,
        tag: str = "",
    ) -> Tensor:
        normed = self.norm1(x)
        attended = self.attn(normed, key_padding_mask=key_padding_mask, scratch=scratch, tag=tag + ".attn")
        x = x + self.dropout(attended)
        normed = self.norm2(x)
        hidden = self.ff1(normed, scratch=scratch, tag=tag + ".ff1").relu()
        x = x + self.dropout(self.ff2(hidden))
        return x


class TransformerEncoder(Module):
    """Stack of encoder layers with a final LayerNorm."""

    def __init__(self, dim: int, num_heads: int, num_layers: int, ff_dim: int | None = None, dropout: float = 0.0, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.layers = ModuleList(
            [TransformerEncoderLayer(dim, num_heads, ff_dim=ff_dim, dropout=dropout, rng=rng) for _ in range(num_layers)]
        )
        self.final_norm = LayerNorm(dim)

    @shape_spec(inputs={"x": "(B, L, dim)"},
                out="(B, L, dim)",
                params=("layers", "final_norm"))
    def forward(
        self,
        x: Tensor,
        key_padding_mask: np.ndarray | None = None,
        scratch=None,
        tag: str = "",
    ) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer(x, key_padding_mask=key_padding_mask, scratch=scratch, tag=f"{tag}.l{i}")
        return self.final_norm(x)


class TransformerDecoderLayer(Module):
    """Pre-norm decoder block: causal self-attention, cross-attention, FFN."""

    def __init__(self, dim: int, num_heads: int, ff_dim: int | None = None, dropout: float = 0.0, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        ff_dim = ff_dim or 4 * dim
        self.self_attn = MultiHeadAttention(dim, num_heads, dropout=dropout, rng=rng)
        self.cross_attn = MultiHeadAttention(dim, num_heads, dropout=dropout, rng=rng)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.norm3 = LayerNorm(dim)
        self.ff1 = Linear(dim, ff_dim, rng=rng)
        self.ff2 = Linear(ff_dim, dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    @shape_spec(inputs={"x": "(B, L, dim)", "memory": "(B, L_m, dim)"},
                out="(B, L, dim)",
                params=("self_attn", "cross_attn", "norm1", "norm2", "norm3", "ff1", "ff2"))
    def forward(
        self,
        x: Tensor,
        memory: Tensor | None,
        memory_padding_mask: np.ndarray | None = None,
        memory_kv: tuple[Tensor, Tensor] | None = None,
        scratch=None,
        tag: str = "",
    ) -> Tensor:
        """One decoder block.

        ``memory_kv`` supplies this layer's precomputed cross-attention
        K/V (from ``cross_attn.project_kv(memory)``); when given,
        ``memory`` itself may be None — the projections stand in for it.
        """
        length = x.shape[1]
        normed = self.norm1(x)
        attended = self.self_attn(normed, attn_mask=causal_mask(length), scratch=scratch, tag=tag + ".self")
        x = x + self.dropout(attended)
        normed = self.norm2(x)
        attended = self.cross_attn(
            normed,
            memory,
            memory,
            key_padding_mask=memory_padding_mask,
            static_kv=memory_kv,
            scratch=scratch,
            tag=tag + ".cross",
        )
        x = x + self.dropout(attended)
        normed = self.norm3(x)
        hidden = self.ff1(normed, scratch=scratch, tag=tag + ".ff1").relu()
        x = x + self.dropout(self.ff2(hidden))
        return x


class TransformerDecoder(Module):
    """Stack of decoder layers with a final LayerNorm."""

    def __init__(self, dim: int, num_heads: int, num_layers: int, ff_dim: int | None = None, dropout: float = 0.0, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.layers = ModuleList(
            [TransformerDecoderLayer(dim, num_heads, ff_dim=ff_dim, dropout=dropout, rng=rng) for _ in range(num_layers)]
        )
        self.final_norm = LayerNorm(dim)

    @shape_spec(inputs={"x": "(B, L, dim)", "memory": "(B, L_m, dim)"},
                out="(B, L, dim)",
                params=("layers", "final_norm"))
    def forward(
        self,
        x: Tensor,
        memory: Tensor | None,
        memory_padding_mask: np.ndarray | None = None,
        memory_kv: list[tuple[Tensor, Tensor]] | None = None,
        scratch=None,
        tag: str = "",
    ) -> Tensor:
        """Run every block, then the final LayerNorm.

        ``memory_kv`` is one ``(k, v)`` pair per layer (see
        :meth:`project_memory_kv`); with it the encoder memory's K/V are
        never re-projected inside the step.
        """
        for i, layer in enumerate(self.layers):
            x = layer(
                x,
                memory,
                memory_padding_mask=memory_padding_mask,
                memory_kv=None if memory_kv is None else memory_kv[i],
                scratch=scratch,
                tag=f"{tag}.l{i}",
            )
        return self.final_norm(x)

    @shape_spec(inputs={"memory": "(B, L_m, dim)"}, params=("layers",))
    def project_memory_kv(self, memory: Tensor) -> list[tuple[Tensor, Tensor]]:
        """Cross-attention K/V of ``memory`` for every layer — the
        per-decode work a :class:`repro.nn.KVCache` amortizes."""
        return [layer.cross_attn.project_kv(memory) for layer in self.layers]
