"""Multi-head scaled dot-product attention.

Supports optional boolean masks (True = position masked out), which the
MTMLF-QO model uses both for padding in batched plan sequences and for
the causal mask inside the ``Trans_JO`` decoder.

Cross-attention over a *static* key/value source (the decoder reading a
fixed encoder memory) can skip its K/V projections entirely by passing
precomputed ``static_kv`` — see :class:`KVCache`, which owns those
projections for one decode.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .layers import Dropout, Linear, Module
from .spec import shape_spec
from .tensor import Tensor

__all__ = ["MultiHeadAttention", "causal_mask", "KVCache"]

# Causal masks depend only on the length; they are tiny, read-only and
# requested once per decoder layer per step, so memoize them.  Entries
# are marked non-writable — every consumer only reads.
_CAUSAL_MASK_CACHE: dict[int, np.ndarray] = {}
_CAUSAL_MASK_CACHE_MAX = 512


@shape_spec(out="(L, L)", dtypes={"out": "bool"})
def causal_mask(length: int) -> np.ndarray:
    """Boolean (length, length) mask forbidding attention to the future."""
    mask = _CAUSAL_MASK_CACHE.get(length)
    if mask is None:
        mask = np.triu(np.ones((length, length), dtype=bool), k=1)
        mask.setflags(write=False)
        if len(_CAUSAL_MASK_CACHE) >= _CAUSAL_MASK_CACHE_MAX:
            _CAUSAL_MASK_CACHE.clear()
        _CAUSAL_MASK_CACHE[length] = mask
    return mask


# The broadcast + fully-masked-row guard of a pure causal mask is itself
# a pure function of (length, scores shape), recomputed by every decoder
# self-attention call; memoize it (read-only) alongside the raw masks.
_GUARDED_CAUSAL_CACHE: dict[tuple, np.ndarray] = {}


def _guarded_causal_mask(length: int, scores_shape: tuple) -> np.ndarray:
    key = (length, scores_shape)
    mask = _GUARDED_CAUSAL_CACHE.get(key)
    if mask is None:
        mask = MultiHeadAttention._combined_mask(causal_mask(length), None, scores_shape)
        mask.setflags(write=False)
        if len(_GUARDED_CAUSAL_CACHE) >= _CAUSAL_MASK_CACHE_MAX:
            _GUARDED_CAUSAL_CACHE.clear()
        _GUARDED_CAUSAL_CACHE[key] = mask
    return mask


class KVCache:
    """Projected-K/V cache for one decode over one encoder memory.

    A decode (one beam search, or one lockstep batch of searches) reads
    the same encoder memory at every decoder step; projecting its K/V
    once and reusing the result across steps removes the dominant
    per-step matmuls.  The cache is **bound to the memory object it was
    created for** and refuses to serve any other — so a cache can never
    outlive its decode and feed stale projections to a different model
    or a hot-swapped model.  Create one per decode, drop it with the
    decode; never store one on a module or at module scope (the
    ``scratch-privacy`` checker rejects that).
    """

    __slots__ = ("_memory", "_entries")

    def __init__(self, memory):
        self._memory = memory
        self._entries: dict = {}

    def bound_to(self, memory) -> bool:
        """True iff this cache was created for exactly ``memory``."""
        return memory is self._memory

    def get_or_project(self, tag, project):
        """Return the cached entry for ``tag``, computing it on a miss."""
        entry = self._entries.get(tag)
        if entry is None:
            entry = project()
            self._entries[tag] = entry
        return entry

    def invalidate(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class MultiHeadAttention(Module):
    """Multi-head attention ``Attn(Q, K, V)`` over (batch, seq, dim) tensors.

    Parameters
    ----------
    dim:
        Model dimension; must be divisible by ``num_heads``.
    num_heads:
        Number of attention heads (the paper uses 4).
    """

    def __init__(self, dim: int, num_heads: int, dropout: float = 0.0, rng: np.random.Generator | None = None):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        rng = rng or np.random.default_rng(0)
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        # Hoisted because a np.sqrt call per attention forward is
        # measurable at decode.
        self.scale = 1.0 / np.sqrt(self.head_dim)
        self.q_proj = Linear(dim, dim, rng=rng)
        self.k_proj = Linear(dim, dim, rng=rng)
        self.v_proj = Linear(dim, dim, rng=rng)
        self.out_proj = Linear(dim, dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    @shape_spec(inputs={"x": "(B, L, dim)"},
                out="(B, num_heads, L, head_dim)")
    def _split_heads(self, x: Tensor) -> Tensor:
        batch, seq, _ = x.shape
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose((0, 2, 1, 3))

    @shape_spec(inputs={"x": "(B, num_heads, L, head_dim)"},
                out="(B, L, num_heads*head_dim)")
    def _merge_heads(self, x: Tensor) -> Tensor:
        batch, heads, seq, head_dim = x.shape
        return x.transpose((0, 2, 1, 3)).reshape(batch, seq, heads * head_dim)

    @staticmethod
    def _combined_mask(
        attn_mask: np.ndarray | None,
        key_padding_mask: np.ndarray | None,
        scores_shape: tuple,
    ) -> np.ndarray | None:
        """Broadcast/merge the masks, guarding fully-masked rows."""
        mask = None
        if attn_mask is not None:
            mask = np.asarray(attn_mask, dtype=bool)[None, None, :, :]
        if key_padding_mask is not None:
            pad = np.asarray(key_padding_mask, dtype=bool)[:, None, None, :]
            mask = pad if mask is None else (mask | pad)
        if mask is None:
            return None
        mask = np.broadcast_to(mask, scores_shape)
        # Guard against fully-masked rows which would produce NaNs.
        all_masked = mask.all(axis=-1, keepdims=True)
        return mask & ~all_masked

    @shape_spec(inputs={"key": "(B, L_k, dim)", "value": "(B, L_k, dim)"},
                out=("(B, L_k, num_heads, head_dim)",
                     "(B, L_k, num_heads, head_dim)"),
                params=("k_proj", "v_proj"))
    def project_kv(self, key: Tensor, value: Tensor | None = None) -> tuple[Tensor, Tensor]:
        """Split-head K/V projections of ``key`` and ``value`` (default: ``key``).

        This is the entry :class:`KVCache` memoizes: for cross-attention
        over an unchanging encoder memory, the returned pair is valid
        for every decoder step of the decode.

        Layout: ``(batch, Lk, heads, head_dim)`` — the *pre-transpose*
        head split, not the ``(batch, heads, ...)`` views the matmuls
        consume.  :meth:`forward` projects inline K/V through this method
        too and takes the same transpose views of either, so cached and
        inline operands have identical strides and BLAS produces
        bit-identical scores.  (A C-contiguous copy of the transposed
        layout holds the same values but can round differently.)  It
        also lets callers concatenate cached projections along axis 0
        without disturbing the layout.
        """
        value = key if value is None else value
        batch, seq, _ = key.shape
        k = self.k_proj(key).reshape(batch, seq, self.num_heads, self.head_dim)
        v = self.v_proj(value).reshape(batch, seq, self.num_heads, self.head_dim)
        return k, v

    @shape_spec(inputs={"query": "(B, L_q, dim)",
                        "key": "(B, L_k, dim)",
                        "value": "(B, L_k, dim)",
                        "static_kv": ("(B, L_k, num_heads, head_dim)",
                                      "(B, L_k, num_heads, head_dim)")},
                out="(B, L_q, dim)",
                params=("q_proj", "k_proj", "v_proj", "out_proj"))
    def forward(
        self,
        query: Tensor,
        key: Tensor | None = None,
        value: Tensor | None = None,
        attn_mask: np.ndarray | None = None,
        key_padding_mask: np.ndarray | None = None,
        static_kv: tuple[Tensor, Tensor] | None = None,
        scratch=None,
        tag: str = "",
    ) -> Tensor:
        """Attend ``query`` over ``key``/``value`` (self-attention if omitted).

        ``attn_mask`` is (Lq, Lk) boolean; ``key_padding_mask`` is
        (batch, Lk) boolean.  True entries are excluded from attention.
        ``static_kv`` supplies precomputed split-head K/V (from
        :meth:`project_kv`, usually via a :class:`KVCache`) in place of
        projecting ``key``/``value``; callers must pass projections of
        the same source they would otherwise pass.  ``scratch``/``tag``
        name output buffers for the hot matmuls when not recording.
        """
        if static_kv is None:
            key = query if key is None else key
            static_kv = self.project_kv(key, value)
        k_raw, v_raw = static_kv  # (B, Lk, H, hd): see project_kv
        keys_t = k_raw.transpose((0, 2, 3, 1))  # (B, H, hd, Lk)
        v = v_raw.transpose((0, 2, 1, 3))  # (B, H, Lk, hd)
        q = self._split_heads(self.q_proj(query, scratch=scratch, tag=tag + ".q"))

        scores = F.matmul(q, keys_t, scratch=scratch, tag=tag + ".scores")
        scores = scores * self.scale  # (B, H, Lq, Lk)

        if (
            key_padding_mask is None
            and attn_mask is not None
            and attn_mask is _CAUSAL_MASK_CACHE.get(attn_mask.shape[0])
        ):
            # Decoder self-attention hot path: the guarded broadcast of a
            # memoized causal mask is itself memoized (same bits, built
            # by the same _combined_mask).
            mask = _guarded_causal_mask(attn_mask.shape[0], scores.shape)
        else:
            mask = self._combined_mask(attn_mask, key_padding_mask, scores.shape)
        if mask is not None:
            scores = F.masked_fill(scores, mask, -1e9)

        weights = self.dropout(F.softmax(scores, axis=-1))
        attended = F.matmul(weights, v, scratch=scratch, tag=tag + ".attended")
        return self.out_proj(self._merge_heads(attended))
