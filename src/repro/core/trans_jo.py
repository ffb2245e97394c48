"""(T.iii) ``Trans_JO``: the join-order transformer decoder.

Formulates JoinSel as seq2seq (Section 4.2): ``Trans_Share``'s outputs
for the query's single tables, (S_1..S_m), act as the encoder memory;
the decoder emits one table per timestamp.

Output parameterization — pointer attention.  The paper's single-DB
formulation outputs a multinoulli over the DB's n tables; a fixed-size
output head would tie the decoder to one DB's table vocabulary and break
the cross-DB transfer that MLA requires.  We therefore emit logits by
dot-product attention of the decoder state against the table
representations themselves (a pointer network): position i's logit is
``h_t · W S_i``.  Over a single DB this is equivalent (positions map
1:1 to tables); across DBs it is what "the task-specific module learns
how to use the shared representation" demands.  Recorded as a
documented design choice in DESIGN.md (section 1).

Decoding is batched: :meth:`TransJO.step_logits_batch` expands many
beam prefixes — potentially spanning several queries — in one decoder
forward (DESIGN.md section 2); :meth:`TransJO.step_logits` is the
single-prefix reference path the batched search is parity-tested
against.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn.spec import shape_spec
from .config import ModelConfig

__all__ = ["TransJO"]


class TransJO(nn.Module):
    """Transformer decoder with pointer output over query tables."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None):
        super().__init__()
        self.config = config
        rng = rng or np.random.default_rng(config.seed)
        self.start_token = nn.Parameter(rng.normal(0.0, 0.1, size=(config.d_model,)))
        self.decoder = nn.TransformerDecoder(
            config.d_model,
            config.num_heads,
            config.decoder_layers,
            ff_dim=config.ff_dim,
            dropout=config.dropout,
            rng=rng,
        )
        self.pointer_proj = nn.Linear(config.d_model, config.d_model, bias=False, rng=rng)
        # Pointer-logit scale; same value every call computed, hoisted.
        self.logit_scale = 1.0 / np.sqrt(config.d_model)

    # ------------------------------------------------------------------
    @shape_spec(inputs={"memory": "(1, m, d_model)"},
                out="(m,)",
                params=("start_token", "decoder", "pointer_proj"))
    def step_logits(
        self,
        memory: nn.Tensor,
        prefix_positions: list[int],
        kv_cache: "nn.KVCache | None" = None,
    ) -> nn.Tensor:
        """Logits over the m tables for the next timestamp.

        ``memory`` is (1, m, d): the single-table representations.
        ``prefix_positions`` are the positions already emitted; the
        decoder input is [start, S_{p1}, ..., S_{pt}].  ``kv_cache``
        amortizes the memory's cross-attention K/V and pointer-key
        projections across the steps of one beam search.
        """
        memory_kv, pointer_keys = (None, None) if kv_cache is None else self.memory_kv(memory, kv_cache)
        inputs = [self.start_token.reshape(1, 1, -1)]
        for position in prefix_positions:
            inputs.append(memory[:, position: position + 1, :])
        x = nn.functional.concat(inputs, axis=1) if len(inputs) > 1 else inputs[0]
        hidden = self.decoder(x, memory, memory_kv=memory_kv)  # (1, t+1, d)
        last = hidden[:, -1, :]                   # (1, d)
        keys = self.pointer_proj(memory) if pointer_keys is None else pointer_keys  # (1, m, d)
        return keys.matmul(last.reshape(-1, 1)).reshape(-1) * self.logit_scale  # (m,)

    @shape_spec(inputs={"memory": "(B, m, d_model)"},
                out="(B, m)",
                params=("start_token", "decoder", "pointer_proj"))
    def step_logits_batch(
        self,
        memory: nn.Tensor,
        prefixes,
        memory_padding_mask: np.ndarray | None = None,
        memory_kv=None,
        pointer_keys: nn.Tensor | None = None,
        scratch=None,
        start_block: nn.Tensor | None = None,
    ) -> nn.Tensor:
        """Next-timestamp logits for a whole batch of prefixes at once.

        ``memory`` is (B, m, d): one row of single-table representations
        per prefix (rows may repeat when several beams share one query).
        ``prefixes`` may be ragged; shorter rows are padded (the causal
        self-attention mask keeps pad slots from influencing the read
        position) and each row's logits are taken at its own last real
        timestamp.  From the lockstep beam driver, where every row has
        the same length, ``prefixes`` is instead a dense ``(B, t)``
        int64 matrix — exactly what ``pad_index_sequences`` would build.
        ``memory_padding_mask`` is (B, m) boolean, True at padded table
        slots when queries of different table counts share the batch;
        those slots are excluded from cross-attention and their pointer
        logits forced to -1e9.

        The decode-only arguments come from the beam driver:
        ``memory_kv``/``pointer_keys`` take batched projections (see
        :meth:`concat_memory_kv`) so the memory is not re-projected each
        step; ``scratch`` is a session arena for kernel outputs; and
        ``start_block`` is the broadcast start-token block, which
        depends only on the batch size and so can be reused across the
        steps of one decode.

        Returns (B, m) pointer logits — one decoder forward for what
        :meth:`step_logits` would need B calls to produce.
        """
        batch, m, _ = memory.shape
        if len(prefixes) != batch:
            raise ValueError(f"{len(prefixes)} prefixes for a memory batch of {batch}")
        if isinstance(prefixes, np.ndarray):
            indices = prefixes
            lengths = np.full(batch, indices.shape[1], dtype=np.int64)
        else:
            indices, lengths = nn.functional.pad_index_sequences(prefixes)
        rows = np.arange(batch)
        start = start_block
        if start is None:
            start = nn.functional.repeat_batch(self.start_token.reshape(1, 1, -1), batch)
        if indices.shape[1]:
            gathered = memory[rows[:, None], indices]  # (B, Tmax, d)
            x = nn.functional.concat([start, gathered], axis=1)
        else:
            x = start
        hidden = self.decoder(
            x,
            memory,
            memory_padding_mask=memory_padding_mask,
            memory_kv=memory_kv,
            scratch=scratch,
            tag="jo",
        )
        last = hidden[rows, lengths]              # (B, d): each row's last real step
        keys = self.pointer_proj(memory) if pointer_keys is None else pointer_keys  # (B, m, d)
        logits = keys.matmul(last.reshape(batch, -1, 1)).reshape(batch, m) * self.logit_scale
        if memory_padding_mask is not None:
            logits = nn.functional.masked_fill(logits, memory_padding_mask, -1e9)
        return logits

    # The name the repo benchmark (perfbench/layers.py) wraps to time and
    # count decode steps; the beam driver calls the method through it.
    infer_step_logits_batch = step_logits_batch

    # ------------------------------------------------------------------
    # Per-decode projections, threaded by the beam driver (under
    # ``nn.no_grad``) through every step of a decode.
    # ------------------------------------------------------------------
    def memory_kv(self, memory: nn.Tensor, kv_cache: "nn.KVCache | None" = None):
        """Per-decode projections of one (1, m, d) encoder memory.

        Returns ``(memory_kv, pointer_keys)``: the per-layer
        cross-attention K/V pairs plus the pointer keys ``W S_i`` — all
        the projections of the memory that every decoder step would
        otherwise recompute.  With ``kv_cache`` (a :class:`nn.KVCache`
        bound to exactly this memory) the projection runs once per
        decode; a cache bound to a different memory is a bug upstream
        and is rejected loudly.
        """
        def project():
            return self.decoder.project_memory_kv(memory), self.pointer_proj(memory)

        if kv_cache is None:
            return project()
        if not kv_cache.bound_to(memory):
            raise ValueError("KV cache is bound to a different encoder memory than the one being decoded")
        return kv_cache.get_or_project("transjo.memory_kv", project)

    @staticmethod
    def concat_memory_kv(per_query, counts: list[int]):
        """Assemble batched projections from per-query cached ones.

        ``per_query[i]`` is :meth:`memory_kv` output for query i,
        ``counts[i]`` its number of active beams.  Each query's (1, ...)
        projections are broadcast to its beam count and concatenated —
        bit-identical to projecting the batched memory directly, because
        numpy's batched matmul computes each row as the same 2D product
        the single-row projection performs.  Inputs and outputs are
        constants of the decode: nothing here is recorded.
        """
        # ``concatenate`` over stride-0 broadcast views can emit a
        # non-C-contiguous result; force C order so the assembled arrays
        # have exactly the strides of directly-projected ones (BLAS
        # rounding depends on operand layout, and parity is bitwise).
        def broadcast_concat(tensors):
            return nn.Tensor(
                np.ascontiguousarray(
                    np.concatenate(
                        [np.broadcast_to(t.data, (n,) + t.shape[1:]) for t, n in zip(tensors, counts)],
                        axis=0,
                    )
                )
            )

        num_layers = len(per_query[0][0])
        memory_kv = [
            (
                broadcast_concat([kv[layer][0] for kv, _ in per_query]),
                broadcast_concat([kv[layer][1] for kv, _ in per_query]),
            )
            for layer in range(num_layers)
        ]
        pointer_keys = broadcast_concat([keys for _, keys in per_query])
        return memory_kv, pointer_keys

    @shape_spec(inputs={"memory": "(1, m, d_model)"},
                out="(m, m)",
                params=("start_token", "decoder", "pointer_proj"))
    def forward(self, memory: nn.Tensor, target_positions: list[int]) -> nn.Tensor:
        """Teacher-forced logits for a whole order, shape (m, m).

        Row t holds the logits for timestamp t given the *true* prefix
        (teacher forcing, Section 4.2).
        """
        m = memory.shape[1]
        inputs = [self.start_token.reshape(1, 1, -1)]
        for position in target_positions[:-1]:
            inputs.append(memory[:, position: position + 1, :])
        x = nn.functional.concat(inputs, axis=1) if len(inputs) > 1 else inputs[0]
        hidden = self.decoder(x, memory)          # (1, m, d) causal
        keys = self.pointer_proj(memory)          # (1, m, d)
        logits = hidden.matmul(keys.swapaxes(-1, -2)) * self.logit_scale  # (1, m, m)
        return logits.reshape(len(target_positions), m)
