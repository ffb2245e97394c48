"""The MTMLF-QO model: (F) featurizers + (S) Trans_Share + (T) task heads.

One :class:`MTMLFQO` instance holds a *single* shared representation
module and task-specific module, plus one attached
:class:`DatabaseFeaturizer` per database — mirroring Figure 1: the (F)
module is database-specific, (S)/(T) are shared across tasks *and*
databases (which is what MLA exploits).

Per the paper's training rule ("the gradient ... will be backpropagated
to update the parameters of the (S) and (T) modules only"), featurizer
outputs are detached inside node assembly; the per-table encoders are
trained separately (Algorithm 1, line 4).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from .. import nn
from ..engine.plan import JoinOp, PlanNode, ScanOp
from ..nn.positional import tree_path_encoding
from ..nn.spec import shape_spec
from ..sql.query import Query
from ..workload.labeler import LabeledQuery
from .beam import (
    BeamCandidate,
    BeamSearchState,
    drive_beam_states,
    require_connected,
)
from .config import ModelConfig
from .encoders import DatabaseFeaturizer
from .heads import EstimationHead
from .serializer import filter_signature, plan_signature, serialize_plan
from .shared import SharedRepresentation
from .trans_jo import TransJO

__all__ = ["MTMLFQO", "EncodedQuery", "FeatureCache", "InferenceSession"]

# Batched inference processes items in bounded chunks: the Trans_Share
# forward pads to the chunk's max node count and attention is quadratic
# in it, so an unbounded batch over a large workload would blow up
# memory for no extra speedup.
_INFERENCE_CHUNK = 64


class FeatureCache:
    """Bounded LRU over structurally-keyed :class:`EncodedQuery` entries.

    Keys are ``(db_name, plan_signature(plan))`` — structural, so two
    distinct but node-for-node identical plans (the cost-rerank's probe
    plans, re-labeled copies of a query) share one entry, and a recycled
    object address can never alias a stale encoding the way the previous
    ``id()``-keyed dict could.  The size bound keeps inference-time probe
    plans from growing the cache without limit.
    """

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError(f"cache size must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple, EncodedQuery]" = OrderedDict()

    def get(self, key: tuple) -> "EncodedQuery | None":
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: tuple, value: "EncodedQuery") -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries


class EncodedQuery:
    """Cached raw features of one labeled query (F-module output)."""

    __slots__ = ("features", "tree_encodings", "leaf_positions", "num_nodes")

    def __init__(self, features: np.ndarray, tree_encodings: np.ndarray, leaf_positions: dict[str, int]):
        self.features = features              # (L, node_feature_dim)
        self.tree_encodings = tree_encodings  # (L, d_model)
        self.leaf_positions = leaf_positions  # table -> node index
        self.num_nodes = features.shape[0]


class MTMLFQO(nn.Module):
    """The multi-task model for CardEst + CostEst + JoinSel."""

    def __init__(self, config: ModelConfig | None = None):
        super().__init__()
        self.config = config or ModelConfig()
        rng = np.random.default_rng(self.config.seed)
        self.shared = SharedRepresentation(self.config, rng)
        self.card_head = EstimationHead(self.config, rng)
        self.cost_head = EstimationHead(self.config, rng)
        self.trans_jo = TransJO(self.config, rng)
        self.featurizers: dict[str, DatabaseFeaturizer] = {}  # guarded-by: _infer_lock
        self._cache = FeatureCache(self.config.feature_cache_size)  # guarded-by: _infer_lock
        # Node-content memo: a scan node's content depends only on
        # (table, filter) and a join node's only on its predicate
        # columns, so distinct plans over one query (rerank probes,
        # alternative orders) share almost every node.  Memoizing here
        # skips the per-node encoder forwards (the (F) LSTM over filter
        # predicates) that dominate encode_query on repeat traffic.
        self._node_cache = FeatureCache(self.config.feature_cache_size)  # guarded-by: _infer_lock
        # Serializes concurrent *inference* through the model: the public
        # inference entry points (predict_*, beam_candidates_batch) and
        # mode flips all acquire it, so direct calls are safe alongside a
        # running serving session.  It does NOT make training concurrent
        # with serving safe — trainer steps mutate weights and caches
        # outside this lock; retrain offline, then mark_updated().
        self._infer_lock = threading.RLock()  # analysis: coarse-lock
        # Bumped whenever the model's outputs may have changed
        # (attach_featurizer, trainer runs).  Downstream result caches —
        # the serving layer's plan cache — embed it in their keys so
        # entries computed against old weights can never hit again.
        self.version = 0  # guarded-by: _infer_lock

    # -- Module plumbing ------------------------------------------------------
    def named_parameters(self, prefix: str = ""):
        found = []
        found.extend(self.shared.named_parameters(prefix=f"{prefix}shared."))
        found.extend(self.card_head.named_parameters(prefix=f"{prefix}card_head."))
        found.extend(self.cost_head.named_parameters(prefix=f"{prefix}cost_head."))
        found.extend(self.trans_jo.named_parameters(prefix=f"{prefix}trans_jo."))
        return found

    def shared_task_parameters(self) -> list[nn.Parameter]:
        """Parameters of the (S) and (T) modules (the trainable set)."""
        return [p for _, p in self.named_parameters()]

    def _set_mode(self, training: bool) -> None:
        # Short-circuit: an always-on serving loop calls eval() on every
        # request; walking every submodule each time is pure overhead
        # once the mode is already applied.  attach_featurizer keeps the
        # invariant that all submodules share self.training.  The lock
        # keeps a flip from landing in the middle of a served batch.
        with self._infer_lock:
            if getattr(self, "_mode_applied", None) == training:
                return
            self.training = training
            self._mode_applied = training
            for module in (self.shared, self.card_head, self.cost_head, self.trans_jo):
                module._set_mode(training)
            for featurizer in self.featurizers.values():
                featurizer._set_mode(training)

    # ------------------------------------------------------------------
    def attach_featurizer(self, db_name: str, featurizer: DatabaseFeaturizer) -> None:
        """Register the (F) module of a database.

        Cached encodings are featurizer outputs, so (re)attaching one
        invalidates the cache.  Holds the inference lock: otherwise an
        in-flight inference on another thread could re-insert an
        old-featurizer encoding *after* the clear, and the feature
        caches carry no version in their keys to catch that.
        """
        with self._infer_lock:
            featurizer._set_mode(self.training)
            self.featurizers[db_name] = featurizer
            self.mark_updated()

    def featurizer_for(self, db_name: str) -> DatabaseFeaturizer:
        with self._infer_lock:
            try:
                return self.featurizers[db_name]
            except KeyError:
                raise KeyError(f"no featurizer attached for database {db_name!r}") from None

    def clear_cache(self) -> None:
        with self._infer_lock:
            self._cache.clear()
            self._node_cache.clear()

    def restore_version(self, version: int) -> None:
        """Set :attr:`version` to a checkpointed value.

        Used by :func:`repro.core.checkpoint.load_checkpoint` after
        rebuilding a model, so the loaded instance keeps the saved
        version identity instead of the bumps its own reconstruction
        (``attach_featurizer``) produced.  Clears the feature caches like
        any other version change would.
        """
        with self._infer_lock:
            self._cache.clear()
            self._node_cache.clear()
            self.version = int(version)

    def mark_updated(self) -> None:
        """Record that the model's outputs may have changed.

        Called automatically by :meth:`attach_featurizer` and the
        trainers; call it yourself after mutating weights by hand
        (including retraining an attached featurizer in place).  Clears
        the internal feature/node caches — their keys carry no version,
        so stale encodings must go — and bumps :attr:`version`, which
        serving-layer plan caches embed in their keys, retiring every
        previously cached result.
        """
        with self._infer_lock:
            self._cache.clear()
            self._node_cache.clear()
            self.version += 1

    def inference_session(self, db_name: str) -> "InferenceSession":
        """A reusable, thread-safe handle for repeated inference calls.

        The serving layer (``repro.serve``) holds one session per
        database instead of calling the model directly: the session
        validates the featurizer once, pins eval mode up front, and
        serializes calls through the model's inference lock so that
        concurrent sessions (or a trainer on another thread) can't
        interleave mode flips or feature-cache bookkeeping.
        """
        return InferenceSession(self, db_name)

    def databases(self) -> dict[str, "object"]:
        """``{db_name: Database}`` for every attached featurizer.

        An atomic snapshot under the inference lock — callers (e.g.
        ``OptimizerService.swap_model`` defaulting checkpoint database
        handles) must not iterate :attr:`featurizers` directly while
        another thread may attach one.
        """
        with self._infer_lock:
            return {name: featurizer.db for name, featurizer in self.featurizers.items()}

    # ------------------------------------------------------------------
    # Node assembly (F -> raw node sequence)
    # ------------------------------------------------------------------
    def _node_extra_features(self, node: PlanNode, featurizer: DatabaseFeaturizer, depth: int) -> np.ndarray:
        out = np.zeros(self.config.node_extra_dim, dtype=np.float64)
        db = featurizer.db
        total_base = sum(db.statistics(t).num_rows for t in node.tables)
        out[7] = np.log10(max(total_base, 1)) / 7.0
        out[8] = len(node.tables) / 10.0
        out[9] = depth / 10.0
        if node.is_scan:
            out[0] = 1.0
            if node.scan_op is ScanOp.SEQ:
                out[2] = 1.0
            elif node.scan_op is ScanOp.INDEX:
                out[3] = 1.0
            out[11] = len(node.filter) / 4.0 if node.filter is not None else 0.0
        else:
            out[1] = 1.0
            if node.join_op is JoinOp.HASH:
                out[4] = 1.0
            elif node.join_op is JoinOp.MERGE:
                out[5] = 1.0
            elif node.join_op is JoinOp.NESTED_LOOP:
                out[6] = 1.0
            out[10] = len(node.join_predicates) / 4.0
            out[12] = len(node.left.tables) / 10.0
            out[13] = len(node.right.tables) / 10.0
        return out

    def _node_content(self, db_name: str, node: PlanNode, featurizer: DatabaseFeaturizer) -> np.ndarray:  # holds: _infer_lock
        """The d_model content slice of a node's raw features (detached).

        Memoized per structural node identity: scan content depends only
        on ``(table, filter)``, join content only on the predicate
        column sequence, so every plan over the same query (rerank
        probes, alternate orders) reuses the encoder outputs instead of
        re-running the (F) forwards node by node.
        """
        d = self.config.d_model
        if node.is_scan:
            key = self._scan_key(db_name, node)
            cached = self._node_cache.get(key)
            if cached is not None:
                return cached
            with nn.no_grad():
                encoded = featurizer.encode_filter(node.filter)
            content = encoded.data.reshape(d)
            self._node_cache.put(key, content)
            return content
        # Joins: mean embedding of the join-key columns (per-DB knowledge).
        half = d // 2
        ids = []
        for predicate in node.join_predicates:
            ids.append(featurizer.predicates.column_index[(predicate.left, predicate.left_column)] + 1)
            ids.append(featurizer.predicates.column_index[(predicate.right, predicate.right_column)] + 1)
        key = (db_name, "join", tuple(ids))
        cached = self._node_cache.get(key)
        if cached is not None:
            return cached
        with nn.no_grad():
            vectors = featurizer.column_embedding(np.asarray(ids, dtype=np.int64))
        content = np.zeros(d, dtype=np.float64)
        content[:half] = vectors.data.mean(axis=0)
        self._node_cache.put(key, content)
        return content

    @staticmethod
    def _scan_key(db_name: str, node: PlanNode) -> tuple:
        """Node-cache key of a scan node's content."""
        return (db_name, "scan", node.table, filter_signature(node.filter))

    def _prefill_filter_encodings(self, db_name: str, items: list[LabeledQuery]) -> None:  # holds: _infer_lock
        """Encode the uncached scan filters of ``items`` in stacked forwards.

        A cold batch would otherwise run one tiny ``Enc_i`` forward per
        distinct filter inside :meth:`_node_content`.  Here the filters
        that miss the node cache are grouped by (table, predicate count)
        and each group runs one ``encode_filters`` forward; the rows land
        in the node cache under the keys ``_node_content`` looks up.  A
        group never pads, so every row is bit-identical to the solo
        encode (DESIGN.md section 3).  Inference only: training's
        ``forward_batch`` keeps encoding node by node.
        """
        featurizer = self.featurizer_for(db_name)
        groups: dict[tuple, dict[tuple, object]] = {}
        for item in items:
            for node in item.plan.nodes_preorder():
                if not node.is_scan:
                    continue
                key = self._scan_key(db_name, node)
                if key not in self._node_cache:
                    group = (node.filter.table, len(node.filter.predicates))
                    groups.setdefault(group, {})[key] = node.filter
        for pending in groups.values():
            with nn.no_grad():
                encoded = featurizer.encode_filters(list(pending.values()))
            for key, content in zip(pending, encoded.data):
                self._node_cache.put(key, content)

    def encode_query(self, db_name: str, labeled: LabeledQuery) -> EncodedQuery:  # holds: _infer_lock
        """Run the (F) module on one query's plan.

        Cached in a bounded LRU keyed by the plan's structural signature,
        so structurally equivalent plans share one entry (DESIGN.md §3).
        """
        key = (db_name, plan_signature(labeled.plan))
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        featurizer = self.featurizer_for(db_name)
        nodes, positions = serialize_plan(labeled.plan)
        features = np.zeros((len(nodes), self.config.node_feature_dim), dtype=np.float64)
        tree_enc = np.zeros((len(nodes), self.config.d_model), dtype=np.float64)
        leaf_positions: dict[str, int] = {}
        for index, (node, position) in enumerate(zip(nodes, positions)):
            features[index, : self.config.d_model] = self._node_content(db_name, node, featurizer)
            features[index, self.config.d_model:] = self._node_extra_features(node, featurizer, position.depth)
            tree_enc[index] = tree_path_encoding(position, self.config.d_model)
            if node.is_scan:
                leaf_positions[node.table] = index
        encoded = EncodedQuery(features, tree_enc, leaf_positions)
        self._cache.put(key, encoded)
        return encoded

    # ------------------------------------------------------------------
    # Forward passes
    # ------------------------------------------------------------------
    def forward_batch(
        self, db_name: str, items: list[LabeledQuery]
    ) -> tuple[nn.Tensor, np.ndarray, list[EncodedQuery]]:
        """Shared representations for a batch of queries.

        Returns ``(S, pad_mask, encodings)`` where S is
        (B, Lmax, d_model) and pad_mask is True at padded node slots.
        """
        encodings = [self.encode_query(db_name, item) for item in items]
        max_len = max(e.num_nodes for e in encodings)
        batch = np.zeros((len(items), max_len, self.config.node_feature_dim), dtype=np.float64)
        trees = np.zeros((len(items), max_len, self.config.d_model), dtype=np.float64)
        pad_mask = np.ones((len(items), max_len), dtype=bool)
        for i, encoding in enumerate(encodings):
            batch[i, : encoding.num_nodes] = encoding.features
            trees[i, : encoding.num_nodes] = encoding.tree_encodings
            pad_mask[i, : encoding.num_nodes] = False
        shared = self.shared(nn.Tensor(batch), trees, key_padding_mask=pad_mask)
        return shared, pad_mask, encodings

    def predict_log_nodes(
        self, db_name: str, items: list[LabeledQuery]
    ) -> tuple[nn.Tensor, nn.Tensor, np.ndarray, list[EncodedQuery], nn.Tensor]:
        """Per-node log-card and log-cost predictions for a batch."""
        shared, pad_mask, encodings = self.forward_batch(db_name, items)
        log_cards = self.card_head(shared)
        log_costs = self.cost_head(shared)
        return log_cards, log_costs, pad_mask, encodings, shared

    @shape_spec(inputs={"shared_row": "(L, d_model)"},
                out="(1, m, d_model)")
    def join_order_memory(
        self, shared_row: nn.Tensor, encoding: EncodedQuery, table_order: list[str]
    ) -> nn.Tensor:
        """Single-table representations (1, m, d) for Trans_JO.

        ``shared_row`` is the (Lmax, d) shared output of one query;
        ``table_order`` fixes the position -> table correspondence
        (queries list tables in generation order).
        """
        rows = [
            shared_row[encoding.leaf_positions[table]: encoding.leaf_positions[table] + 1, :]
            for table in table_order
        ]
        memory = nn.functional.concat(rows, axis=0) if len(rows) > 1 else rows[0]
        return memory.reshape(1, len(rows), self.config.d_model)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def predict_cardinalities(self, db_name: str, items: list[LabeledQuery]) -> list[np.ndarray]:
        """Per-node cardinality predictions (linear scale), preorder."""
        with self._infer_lock:
            self.eval()
            with nn.no_grad():
                log_cards, _, _, encodings, _ = self.predict_log_nodes(db_name, items)
        out = []
        for i, encoding in enumerate(encodings):
            out.append(np.exp(log_cards.data[i, : encoding.num_nodes]))
        return out

    def predict_costs(self, db_name: str, items: list[LabeledQuery]) -> list[np.ndarray]:
        """Per-node cost predictions (linear scale), preorder."""
        with self._infer_lock:
            self.eval()
            with nn.no_grad():
                _, log_costs, _, encodings, _ = self.predict_log_nodes(db_name, items)
        out = []
        for i, encoding in enumerate(encodings):
            out.append(np.exp(log_costs.data[i, : encoding.num_nodes]))
        return out

    @staticmethod
    def _require_connected(query: Query) -> np.ndarray:
        """Reject queries whose join graph has no legal complete order.

        Returns the adjacency matrix so callers build it only once.
        """
        adjacency = query.adjacency_matrix()
        require_connected(adjacency, query.tables)
        return adjacency

    def _decode_candidate_chunks(
        self,
        db_name: str,
        items: list[LabeledQuery],
        beam_width: int | None,
        enforce_legality: bool,
        adjacencies: "list[np.ndarray] | None" = None,
        scratch: "nn.ScratchArena | None" = None,
    ) -> list[list[BeamCandidate]]:
        """Encode + lockstep-decode ``items`` in bounded chunks.

        The whole pipeline — Trans_Share forward, memory gather, beam
        drive — runs per chunk of ``_INFERENCE_CHUNK`` queries, so peak
        memory is capped by the chunk size no matter how many queries
        are passed in.
        """
        width = beam_width or self.config.beam_width
        all_candidates: list[list[BeamCandidate]] = []
        for start in range(0, len(items), _INFERENCE_CHUNK):
            chunk = items[start: start + _INFERENCE_CHUNK]
            self._prefill_filter_encodings(db_name, chunk)
            with nn.no_grad():
                shared, _, encodings = self.forward_batch(db_name, chunk)
                memories = [
                    self.join_order_memory(shared[i], encodings[i], item.query.tables)
                    for i, item in enumerate(chunk)
                ]
            states = [
                BeamSearchState(
                    adjacencies[start + i] if adjacencies is not None
                    else item.query.adjacency_matrix(),
                    beam_width=width,
                    enforce_legality=enforce_legality,
                )
                for i, item in enumerate(chunk)
            ]
            drive_beam_states(self.trans_jo, memories, states, scratch=scratch)
            all_candidates.extend(state.candidates() for state in states)
        return all_candidates

    def predict_join_order(
        self,
        db_name: str,
        labeled: LabeledQuery,
        beam_width: int | None = None,
        enforce_legality: bool = True,
        rerank_with_cost: bool | None = None,
    ) -> list[str]:
        """Beam-search decode a legal join order for one query.

        ``rerank_with_cost`` enables the multi-task synergy the paper
        motivates ("the inference of each task can effectively take
        others into consideration"): the top beam candidates are turned
        into left-deep plans and re-ranked by the model's *own* CostEst
        head, so a sequence-likelihood favourite with a catastrophic
        predicted cost is demoted.  Defaults to on whenever the cost
        task was trained (``w_cost > 0``); the MTMLF-JoinSel ablation
        has no cost head signal and decodes by likelihood alone.
        """
        return self.predict_join_orders(
            db_name,
            [labeled],
            beam_width=beam_width,
            enforce_legality=enforce_legality,
            rerank_with_cost=rerank_with_cost,
        )[0]

    def predict_join_orders(
        self,
        db_name: str,
        items: list[LabeledQuery],
        beam_width: int | None = None,
        enforce_legality: bool = True,
        rerank_with_cost: bool | None = None,
        scratch: "nn.ScratchArena | None" = None,
    ) -> list[list[str]]:
        """Batched join-order inference for many queries at once.

        Queries are processed in bounded chunks: one Trans_Share forward
        encodes each chunk, then every query's beam search advances in
        lockstep — each timestep expands all active beams of all queries
        sharing a table count with a single Trans_JO forward (see
        :func:`repro.core.beam.drive_beam_states`).  Emitted orders are
        identical to per-query :meth:`predict_join_order` calls, and
        peak memory is capped by the chunk size.

        Raises ``ValueError`` up front for any query whose join graph is
        disconnected (naming the components) when legality is enforced.
        """
        if not items:
            return []
        adjacencies = None
        if enforce_legality:
            adjacencies = [self._require_connected(item.query) for item in items]
        # The lock makes direct calls safe alongside a running serving
        # session: forwards are pure but the feature/node LRU caches and
        # mode flips are not thread-safe.
        with self._infer_lock:
            self.eval()
            per_query = self._decode_candidate_chunks(
                db_name, items, beam_width, enforce_legality, adjacencies, scratch=scratch
            )
            if rerank_with_cost is None:
                rerank_with_cost = self.config.w_cost > 0.0
            orders: list[list[str] | None] = [None] * len(items)
            rerank_entries: list[tuple[int, LabeledQuery, list[BeamCandidate]]] = []
            for i, (item, candidates) in enumerate(zip(items, per_query)):
                if not candidates:
                    raise RuntimeError("beam search produced no candidates")
                if rerank_with_cost and len(candidates) > 1 and item.query.num_tables > 2:
                    rerank_entries.append((i, item, candidates))
                else:
                    orders[i] = candidates[0].tables(item.query.tables)
            for i, order in self._rerank_by_cost_batch(db_name, rerank_entries).items():
                orders[i] = order
            return orders

    def _rerank_by_cost(
        self, db_name: str, labeled: LabeledQuery, candidates, margin: float = 0.7
    ) -> list[str]:
        """Cost-rerank one query's candidates; see :meth:`_rerank_by_cost_batch`."""
        return self._rerank_by_cost_batch(db_name, [(0, labeled, candidates)], margin)[0]

    def _rerank_by_cost_batch(
        self,
        db_name: str,
        entries: list[tuple[int, LabeledQuery, list]],
        margin: float = 0.7,
    ) -> dict[int, list[str]]:
        """Demote likelihood favourites only on a clear cost signal.

        Each legal candidate is costed by the model's own CostEst head;
        a query's beam favourite (its top-likelihood candidate) is
        tracked explicitly and kept unless some other candidate's
        predicted log-cost undercuts it by more than ``margin`` (0.7 in
        natural log ~ a 2x predicted speedup).  The margin makes the
        rerank a disaster-avoidance mechanism rather than a full
        re-ordering: CostEst is accurate enough to spot catastrophic
        orders but noisier than the decoder on near-ties.  When a
        favourite itself fails to plan there is no candidate the margin
        should shield, so the top-scoring survivor — the plannable
        candidate with the best predicted cost — is returned instead.

        Probes of *all* queries are costed in shared CostEst forwards,
        grouped by probe node count so each forward pads exactly like a
        solo call would — the bit-exactness rule of DESIGN.md section 2.
        A complete order over ``m`` tables always plans to ``2m - 1``
        nodes, so a group mixes queries only when their table counts
        match.  Returns ``{entry index -> chosen order}``.
        """
        from ..optimizer.planner import plan_with_order
        from ..optimizer.selectivity import HistogramEstimator, QueryEstimateMemo

        results: dict[int, list[str]] = {}
        if not entries:
            return results
        featurizer = self.featurizer_for(db_name)
        estimator = HistogramEstimator(featurizer.db)
        prepared = []  # (index, orders, probes, favourite_planned)
        for index, labeled, candidates in entries:
            orders: list[list[str]] = []
            probes: list[LabeledQuery] = []
            favourite_planned = False
            # Candidates of one query share most table subsets: estimate
            # each once (bit-equal to the plain estimator).
            memo = QueryEstimateMemo(estimator, labeled.query)
            for rank, candidate in enumerate(candidates):
                order = candidate.tables(labeled.query.tables)
                try:
                    plan = plan_with_order(labeled.query, order, memo)
                except ValueError:
                    continue
                if rank == 0:
                    favourite_planned = True
                orders.append(order)
                probes.append(
                    LabeledQuery(
                        query=labeled.query,
                        plan=plan,
                        node_cardinalities=[0] * len(plan.nodes_preorder()),
                        node_costs=[0.0] * len(plan.nodes_preorder()),
                        total_time_ms=0.0,
                    )
                )
            if not probes:
                results[index] = candidates[0].tables(labeled.query.tables)
            else:
                prepared.append((index, orders, probes, favourite_planned))

        groups: dict[int, list] = {}
        for entry in prepared:
            groups.setdefault(entry[2][0].num_nodes, []).append(entry)
        for group in groups.values():
            flat = [probe for _, _, probes, _ in group for probe in probes]
            # Chunked CostEst forwards over the group's probes (the
            # root's predicted log-cost is preorder index 0 per row).
            root_costs: list[float] = []
            with nn.no_grad():
                for start in range(0, len(flat), _INFERENCE_CHUNK):
                    _, log_costs, _, _, _ = self.predict_log_nodes(
                        db_name, flat[start: start + _INFERENCE_CHUNK]
                    )
                    root_costs.extend(log_costs.data[:, 0].tolist())
            cursor = 0
            for index, orders, probes, favourite_planned in group:
                scored = list(zip(orders, root_costs[cursor: cursor + len(probes)]))
                cursor += len(probes)
                favourite_cost = scored[0][1] if favourite_planned else None
                challenger_order, challenger_cost = min(scored, key=lambda item: item[1])
                if favourite_cost is None:
                    # The favourite cannot be planned: nothing to protect
                    # with the margin; take the best-costed survivor.
                    results[index] = challenger_order
                elif challenger_cost < favourite_cost - margin:
                    results[index] = challenger_order
                else:
                    results[index] = scored[0][0]
        return results

    def beam_candidates(
        self,
        db_name: str,
        labeled: LabeledQuery,
        beam_width: int | None = None,
        enforce_legality: bool = False,
    ) -> list[BeamCandidate]:
        """Raw beam candidates (used by the sequence-level loss)."""
        return self.beam_candidates_batch(
            db_name, [labeled], beam_width=beam_width, enforce_legality=enforce_legality
        )[0]

    def beam_candidates_batch(
        self,
        db_name: str,
        items: list[LabeledQuery],
        beam_width: int | None = None,
        enforce_legality: bool = False,
        scratch: "nn.ScratchArena | None" = None,
    ) -> list[list[BeamCandidate]]:
        """Raw beam candidates for many queries off one shared forward.

        Batches the Trans_Share encode across queries and drives all
        beam searches in lockstep, like :meth:`predict_join_orders` but
        returning the full candidate lists (the sequence-level loss
        needs the illegal ones too).
        """
        if not items:
            return []
        adjacencies = None
        if enforce_legality:
            adjacencies = [self._require_connected(item.query) for item in items]
        with self._infer_lock:
            return self._decode_candidate_chunks(
                db_name, items, beam_width, enforce_legality, adjacencies, scratch=scratch
            )


class InferenceSession:
    """Reusable eval-mode handle over one ``(model, database)`` pair.

    Created via :meth:`MTMLFQO.inference_session`.  Every call runs
    under the model's inference lock (acquired by the model's own
    inference entry points), so concurrent sessions — and direct model
    calls — serialize against each other and against mode flips, and
    results are identical to calling the model directly.  The lock does
    *not* cover trainer steps: training concurrently with serving is
    unsupported — retrain offline, then :meth:`MTMLFQO.mark_updated`.
    """

    def __init__(self, model: MTMLFQO, db_name: str):
        self.model = model
        self.db_name = db_name
        # Session-private scratch arena for no-tape kernel outputs.  It
        # must never be shared across sessions or hoisted to module
        # scope (the scratch-privacy checker enforces the latter): all
        # uses run under the model's inference lock, so buffers are
        # never written concurrently.
        self.scratch = nn.ScratchArena()
        model.featurizer_for(db_name)  # fail fast on a missing (F) module
        with model._infer_lock:
            model.eval()

    def predict_join_orders(self, items: list[LabeledQuery], **kwargs) -> list[list[str]]:
        """Batched join-order inference; see :meth:`MTMLFQO.predict_join_orders`."""
        kwargs.setdefault("scratch", self.scratch)
        return self.model.predict_join_orders(self.db_name, items, **kwargs)

    def predict_cardinalities(self, items: list[LabeledQuery]) -> list[np.ndarray]:
        return self.model.predict_cardinalities(self.db_name, items)

    def predict_costs(self, items: list[LabeledQuery]) -> list[np.ndarray]:
        return self.model.predict_costs(self.db_name, items)
