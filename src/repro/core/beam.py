"""Legality-aware beam search for join orders (Section 4.3).

The query's join predicates induce an adjacency matrix over its tables.
A legal left-deep join order must, at every timestamp after the first,
pick a table adjacent to at least one already-joined table (no cross
products).  The beam search expands the top-k candidates per step and
restricts expansion to legal tables, so every emitted candidate is
guaranteed executable; for a connected query the search can never dead-
end (a connected graph always has a spanning order from any start).

``legal=False`` candidates are additionally collectable (by disabling
the adjacency restriction) to feed the illegal-order penalty term of the
sequence-level loss (Equation 3).

Decoding is **batched** (DESIGN.md section 2): per timestep all active
beams are expanded with a single ``TransJO.step_logits_batch`` forward,
and the legality masks are vectorized numpy operations over the
adjacency matrix.  :class:`BeamSearchState` holds one query's beam
frontier so that many searches can be driven in lockstep off one shared
decoder call (see :func:`drive_beam_states` and
``MTMLFQO.predict_join_orders``).  The original one-forward-per-beam
path is kept as :func:`beam_search_join_order_sequential`; the batched
search is bit-identical to it (the parity tests assert so) because every
row of a batched forward performs the same float operations as the
corresponding single-row forward.

A disconnected join graph has no legal complete order; with legality
enforced the search detects this up front and raises ``ValueError``
naming the components instead of silently returning no candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DisconnectedQueryError

from .. import nn
from ..nn import functional as F

__all__ = [
    "BeamCandidate",
    "BeamSearchState",
    "beam_search_join_order",
    "beam_search_join_order_sequential",
    "connected_components",
    "require_connected",
    "drive_beam_states",
    "is_legal_order",
]


@dataclass
class BeamCandidate:
    """One decoded join order with its sequence log-probability."""

    positions: list[int]
    log_prob: float
    legal: bool

    def tables(self, table_names: list[str]) -> list[str]:
        return [table_names[p] for p in self.positions]


def is_legal_order(positions: list[int], adjacency: np.ndarray) -> bool:
    """True iff the order never joins a table disconnected from its prefix."""
    if not positions:
        return False
    joined = {positions[0]}
    for position in positions[1:]:
        if not any(adjacency[position, j] for j in joined):
            return False
        joined.add(position)
    return True


def connected_components(adjacency: np.ndarray) -> list[list[int]]:
    """Connected components of the join graph, as sorted position lists."""
    adjacency = np.asarray(adjacency, dtype=bool)
    m = adjacency.shape[0]
    seen: set[int] = set()
    components: list[list[int]] = []
    for root in range(m):
        if root in seen:
            continue
        frontier = [root]
        component = {root}
        while frontier:
            node = frontier.pop()
            for other in np.flatnonzero(adjacency[node]):
                other = int(other)
                if other not in component:
                    component.add(other)
                    frontier.append(other)
        seen |= component
        components.append(sorted(component))
    return components


def require_connected(adjacency: np.ndarray, tables: list[str] | None = None) -> None:
    """Raise ``ValueError`` naming the components if the graph is disconnected.

    ``tables`` renders components by table name instead of position.
    A disconnected join graph has no legal complete order, so every
    legality-enforcing decode checks this up front rather than silently
    dead-ending.
    """
    components = connected_components(adjacency)
    if len(components) > 1:
        render = (lambda p: tables[p]) if tables is not None else str
        rendered = "; ".join("{" + ", ".join(render(p) for p in c) + "}" for c in components)
        raise DisconnectedQueryError(
            f"query join graph is disconnected — components: {rendered}; "
            "no legal join order exists (cross products are not supported)"
        )


class BeamSearchState:
    """The beam frontier of one query's join-order decode.

    Holds the active prefixes as a dense ``(B, t)`` matrix plus their
    scores and used-table masks, and advances all beams at once from a
    ``(B, m)`` block of next-step log-probabilities.  The expansion and
    pruning rules replicate the sequential reference exactly (including
    stable tie-breaking), so candidates are bit-identical to it.
    """

    def __init__(
        self,
        adjacency: np.ndarray,
        beam_width: int = 3,
        enforce_legality: bool = True,
        max_candidates: int = 16,
    ):
        self.adjacency = np.asarray(adjacency, dtype=bool)
        self.m = self.adjacency.shape[0]
        self.beam_width = beam_width
        self.enforce_legality = enforce_legality
        self.max_candidates = max_candidates
        self._adjacency_float = self.adjacency.astype(np.float64)
        self.prefixes = np.zeros((1, 0), dtype=np.int64)
        self.scores = np.zeros(1, dtype=np.float64)
        self.used = np.zeros((1, self.m), dtype=bool)
        self.done = self.m == 0

    @property
    def num_active(self) -> int:
        return 0 if self.done else self.prefixes.shape[0]

    def _allowed_mask(self) -> np.ndarray:
        """(B, m) mask of positions each beam may expand to."""
        allowed = ~self.used
        if self.enforce_legality and self.prefixes.shape[1] > 0:
            # A position is reachable iff adjacent to any prefix member;
            # membership == used (prefixes never repeat positions).
            connected = (self.used.astype(np.float64) @ self._adjacency_float) > 0.0
            allowed &= connected
        return allowed

    def advance(self, log_probs: np.ndarray) -> None:
        """Expand every active beam from its ``(B, m)`` log-probabilities."""
        if self.done:
            raise RuntimeError("advance() on a finished beam search")
        t = self.prefixes.shape[1]
        num_beams = self.prefixes.shape[0]
        allowed = self._allowed_mask()
        counts = allowed.sum(axis=1)
        if not counts.any():
            # Dead end (disconnected graph with legality enforced was
            # rejected up front; this guards duck-typed callers).
            self.prefixes = np.zeros((0, t), dtype=np.int64)
            self.scores = np.zeros(0, dtype=np.float64)
            self.done = True
            return
        # Per-beam top-k: stable argsort on -log_prob with disallowed
        # positions pushed past the end, matching the reference's stable
        # ``sorted(allowed, key=lambda p: -log_probs[p])[:beam_width]``.
        k = min(max(self.beam_width, 1), self.m)
        ranked = np.argsort(np.where(allowed, -log_probs, np.inf), axis=1, kind="stable")[:, :k]
        take = np.minimum(counts, k)
        valid = np.arange(k)[None, :] < take[:, None]
        beam_index = np.repeat(np.arange(num_beams), take)
        positions = ranked[valid]
        new_scores = self.scores[beam_index] + log_probs[beam_index, positions]
        # Global prune: stable sort by descending score (ties keep the
        # (beam, rank) emission order, as the reference's list.sort does).
        keep = max(self.beam_width, 1) if t + 1 < self.m else self.max_candidates
        order = np.argsort(-new_scores, kind="stable")[:keep]
        beam_index, positions, new_scores = beam_index[order], positions[order], new_scores[order]
        self.prefixes = np.concatenate(
            [self.prefixes[beam_index], positions[:, None]], axis=1
        )
        self.scores = new_scores
        self.used = self.used[beam_index].copy()
        self.used[np.arange(len(positions)), positions] = True
        self.done = self.prefixes.shape[1] == self.m

    def candidates(self) -> list[BeamCandidate]:
        """Completed candidates, sorted by descending log-probability."""
        out = [
            BeamCandidate(
                positions=prefix.tolist(),
                log_prob=float(score),
                legal=is_legal_order(prefix.tolist(), self.adjacency),
            )
            for prefix, score in zip(self.prefixes, self.scores)
            if len(prefix) == self.m
        ]
        out.sort(key=lambda c: -c.log_prob)
        return out[: self.max_candidates]


def drive_beam_states(
    trans_jo,
    memories: list[nn.Tensor],
    states: list[BeamSearchState],
    scratch: "nn.ScratchArena | None" = None,
) -> None:
    """Advance many beam searches in lockstep off shared decoder calls.

    ``memories[i]`` is the (1, m_i, d) encoder memory of ``states[i]``.
    Each global timestep gathers every active beam of every unfinished
    state — grouped by table count, so all rows of a call share one
    ``(B_group, m, d)`` shape — and performs one ``step_logits_batch``
    forward per group.  Grouping by size (rather than zero-padding to
    the largest query) keeps every gemm the same shape as a solo
    decode's, which is what makes the batched path bit-identical to the
    sequential reference: numpy's batched matmul runs one identically-
    shaped 2D product per row, while padded shapes may pick different
    BLAS kernels and differ in the last ulp.  Workloads have few
    distinct table counts, so the fan-in per call stays high.

    Each query's encoder memory is projected (cross-attention K/V per
    decoder layer, pointer keys) exactly once into a per-query
    :class:`nn.KVCache` created here — and therefore dropped here, so
    projections can never leak across decodes or model hot-swaps — then
    broadcast to the active beams and concatenated per step.
    ``scratch`` is the caller's session-private arena for kernel output
    buffers.
    """
    if len(memories) != len(states):
        raise ValueError("one memory per beam state required")
    # One cache per query, living exactly as long as this drive call.
    caches = [nn.KVCache(memory) for memory in memories]
    # Assembled batched inputs depend only on (group, beam counts) —
    # which stabilize after the first step — so they too are memoized
    # for the duration of this drive.
    assembled: dict[tuple, tuple] = {}
    with nn.no_grad():
        while True:
            by_size: dict[int, list[int]] = {}
            for i, state in enumerate(states):
                if not state.done:
                    by_size.setdefault(state.m, []).append(i)
            if not by_size:
                return
            for group in by_size.values():
                counts = [states[i].num_active for i in group]
                # All states of a group advanced in lockstep from step
                # 0, so their prefix matrices share one length — the
                # concatenated dense matrix is exactly the padded batch
                # pad_index_sequences would build from lists.
                if len(group) == 1:
                    prefixes = states[group[0]].prefixes
                else:
                    prefixes = np.concatenate([states[i].prefixes for i in group], axis=0)
                key = (tuple(group), tuple(counts))
                cached = assembled.get(key)
                if cached is None:
                    memory = nn.Tensor(
                        np.concatenate(
                            [
                                np.broadcast_to(memories[i].data, (n,) + memories[i].shape[1:])
                                for i, n in zip(group, counts)
                            ],
                            axis=0,
                        )
                    )
                    per_query = [trans_jo.memory_kv(memories[i], caches[i]) for i in group]
                    start_block = F.repeat_batch(trans_jo.start_token.reshape(1, 1, -1), memory.shape[0])
                    cached = (memory, *trans_jo.concat_memory_kv(per_query, counts), start_block)
                    assembled[key] = cached
                memory, memory_kv, pointer_keys, start_block = cached
                logits = trans_jo.infer_step_logits_batch(
                    memory,
                    prefixes,
                    memory_kv=memory_kv,
                    pointer_keys=pointer_keys,
                    scratch=scratch,
                    start_block=start_block,
                )
                log_probs = F.log_softmax(logits).data
                offset = 0
                for i in group:
                    n_beams = states[i].num_active
                    states[i].advance(log_probs[offset: offset + n_beams])
                    offset += n_beams


def beam_search_join_order(
    trans_jo,
    memory: nn.Tensor,
    adjacency: np.ndarray,
    beam_width: int = 3,
    enforce_legality: bool = True,
    max_candidates: int = 16,
    scratch: "nn.ScratchArena | None" = None,
) -> list[BeamCandidate]:
    """Decode join orders with batched beam search.

    Parameters
    ----------
    trans_jo:
        A :class:`repro.core.trans_jo.TransJO`.
    memory:
        (1, m, d) single-table representations from Trans_Share.
    adjacency:
        (m, m) boolean join adjacency of the query.
    enforce_legality:
        When True (inference), only adjacency-respecting expansions are
        considered — the emitted orders are guaranteed executable, and a
        disconnected join graph raises ``ValueError`` up front.  When
        False (loss collection), only the "no repeats" rule applies and
        candidates are labelled legal/illegal afterwards.

    Returns candidates sorted by descending log-probability.
    """
    adjacency = np.asarray(adjacency, dtype=bool)
    if enforce_legality:
        require_connected(adjacency)
    state = BeamSearchState(
        adjacency,
        beam_width=beam_width,
        enforce_legality=enforce_legality,
        max_candidates=max_candidates,
    )
    drive_beam_states(trans_jo, [memory], [state], scratch=scratch)
    return state.candidates()


def beam_search_join_order_sequential(
    trans_jo,
    memory: nn.Tensor,
    adjacency: np.ndarray,
    beam_width: int = 3,
    enforce_legality: bool = True,
    max_candidates: int = 16,
) -> list[BeamCandidate]:
    """Reference beam search: one decoder forward per beam per timestep.

    Kept as the ground truth the batched path is parity-tested against,
    and as the baseline of ``benchmarks/bench_batched_decode.py``.
    """
    if enforce_legality:
        require_connected(adjacency)
    m = memory.shape[1]
    # Per-search KV cache: projections of this memory are computed once
    # and die with this search.
    kv_cache = nn.KVCache(memory)
    beams: list[tuple[list[int], float]] = [([], 0.0)]
    for _ in range(m):
        expansions: list[tuple[list[int], float]] = []
        for prefix, score in beams:
            with nn.no_grad():
                logits = trans_jo.step_logits(memory, prefix, kv_cache=kv_cache)
            log_probs = F.log_softmax(logits.reshape(1, -1)).data.reshape(-1)
            allowed = _allowed_positions(prefix, adjacency, enforce_legality)
            if not allowed:
                continue
            ranked = sorted(allowed, key=lambda p: -log_probs[p])[:beam_width]
            for position in ranked:
                expansions.append((prefix + [position], score + float(log_probs[position])))
        if not expansions:
            break
        expansions.sort(key=lambda item: -item[1])
        beams = expansions[: max(beam_width, 1) if len(expansions[0][0]) < m else max_candidates]

    candidates = [
        BeamCandidate(
            positions=prefix,
            log_prob=score,
            legal=is_legal_order(prefix, adjacency),
        )
        for prefix, score in beams
        if len(prefix) == m
    ]
    candidates.sort(key=lambda c: -c.log_prob)
    return candidates[:max_candidates]


def _allowed_positions(prefix: list[int], adjacency: np.ndarray, enforce_legality: bool) -> list[int]:
    m = adjacency.shape[0]
    used = set(prefix)
    allowed = []
    for position in range(m):
        if position in used:
            continue
        if enforce_legality and prefix:
            if not any(adjacency[position, j] for j in prefix):
                continue
        allowed.append(position)
    return allowed
