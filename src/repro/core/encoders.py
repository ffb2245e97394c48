"""(F.ii) Per-table encoders ``Enc_i`` and the per-DB featurization module.

Each table gets a small transformer encoder over its filter-predicate
tokens; the pooled output ``E(f(T_i))`` represents "the distribution of
T_i after applying f(T_i)" (Section 3.2).  Per Algorithm 1 line 4, every
``Enc_i`` is trained *separately* on a single-table CardEst task: given
the filter predicate tokens, predict the log-selectivity of the filter.

``DatabaseFeaturizer`` bundles everything database-specific: the
predicate featurizer, a per-DB column embedding, one ``Enc_i`` per
table, and the selectivity training head.  This is the (F) module the
paper retrains per database while (S)/(T) transfer.

The encoders are built from ``repro.nn`` layers (DESIGN.md section
11): under serving's ``nn.no_grad()`` the same forwards simply skip
recording, with bit-identical outputs — nothing here needs to know
which mode it runs in.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..sql.predicates import Conjunction
from ..sql.query import Query
from ..storage.catalog import Database
from ..workload.generator import generate_single_table_queries
from .config import ModelConfig
from .featurize import PredicateFeaturizer

__all__ = ["TableEncoder", "DatabaseFeaturizer"]


class TableEncoder(nn.Module):
    """``Enc_i``: transformer encoder over predicate tokens for one table."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.input_proj = nn.Linear(config.predicate_feature_dim + config.d_model // 2, config.d_model, rng=rng)
        self.encoder = nn.TransformerEncoder(
            config.d_model,
            config.num_heads,
            config.encoder_layers,
            ff_dim=config.ff_dim,
            dropout=config.dropout,
            rng=rng,
        )
        # Selectivity head used only for Enc_i's own single-table training.
        self.selectivity_head = nn.MLP([config.d_model, config.d_model, 1], rng=rng)

    def forward(self, tokens: np.ndarray, column_vectors: nn.Tensor) -> nn.Tensor:
        """Encode (B, L, feat_dim) stacked predicate tokens -> (B, d_model).

        ``column_vectors`` is (B, L, d_model // 2): the per-DB learned
        embedding of each token's column.  Rows never interact, and
        numpy runs one gemm per leading-dim slice, so each row's summary
        is bit-identical to encoding that filter alone (DESIGN.md
        section 2).
        """
        x = nn.functional.concat([nn.Tensor(tokens), column_vectors], axis=2)
        x = self.input_proj(x)
        hidden = self.encoder(x)  # (B, L, d)
        return hidden[:, 0, :]  # summary token

    def predict_log_selectivity(self, tokens: np.ndarray, column_vectors: nn.Tensor) -> nn.Tensor:
        """Log-selectivity (<= 0) of one filter (B = 1); Enc_i's training target."""
        summary = self.forward(tokens, column_vectors)
        raw = self.selectivity_head(summary).reshape(1).clip(-30.0, 30.0)
        # Selectivity lies in (0, 1]: parameterize log-sel = -softplus(raw),
        # which is always <= 0 and unbounded below.
        return -(raw.exp() + 1.0).log()


class DatabaseFeaturizer(nn.Module):
    """The complete (F) module for one database.

    Holds the database-specific knowledge: the statistics-based
    predicate featurizer, learned column embeddings, and one trained
    ``Enc_i`` per table.  Produces ``E(f(T_i))`` encodings consumed by
    the node assembler in :mod:`repro.core.model`.
    """

    def __init__(self, db: Database, config: ModelConfig | None = None, seed: int | None = None):
        super().__init__()
        self.db = db
        self.config = config or ModelConfig()
        seed = self.config.seed if seed is None else seed
        rng = np.random.default_rng(seed)
        self.predicates = PredicateFeaturizer(db, self.config)
        self.column_embedding = nn.Embedding(
            self.predicates.num_columns + 1, self.config.d_model // 2, rng=rng
        )
        self.encoders = {
            table: TableEncoder(self.config, rng) for table in db.table_names
        }

    # Parameter traversal and train/eval switching of the ``encoders``
    # dict are handled by the ``Module`` base class, which walks
    # dict-valued attributes in sorted-key order.

    def schema_signature(self) -> tuple:
        """Structural identity of the (F) module's learnable layout.

        Checkpoints persist this signature: a featurizer state dict only
        loads into a featurizer built over a schema with the same tables
        and per-table column lists (column embeddings are indexed by the
        schema-derived vocabulary, so any drift would silently permute
        them).
        """
        return self.predicates.schema_signature()

    # ------------------------------------------------------------------
    def _stacked_inputs(self, conjunctions: list[Conjunction]) -> tuple[np.ndarray, nn.Tensor]:
        """(B, L, F) tokens and (B, L, d_model // 2) column vectors."""
        featurized = [self.predicates.featurize_conjunction(c) for c in conjunctions]
        tokens = np.stack([tokens for tokens, _ in featurized])
        column_ids = np.stack([ids for _, ids in featurized])
        return tokens, self.column_embedding(column_ids)

    def encode_filters(self, conjunctions: list[Conjunction]) -> nn.Tensor:
        """``E(f(T_i))`` of several filters in one stacked ``Enc_i`` forward.

        All filters must be on one table and have one predicate count, so
        the stack needs no padding; returns (B, d_model), row ``b``
        bit-identical to ``encode_filter(conjunctions[b])``.
        """
        table = conjunctions[0].table
        lengths = {len(c.predicates) for c in conjunctions}
        if len(lengths) > 1 or any(c.table != table for c in conjunctions):
            raise ValueError("encode_filters needs filters on one table with one predicate count")
        tokens, column_vectors = self._stacked_inputs(conjunctions)
        return self.encoders[table](tokens, column_vectors)

    def encode_filter(self, conjunction: Conjunction) -> nn.Tensor:
        """``E(f(T_i))``: (1, d_model) encoding of a filtered table."""
        return self.encode_filters([conjunction])

    def predict_filter_selectivity(self, conjunction: Conjunction) -> nn.Tensor:
        """Log-selectivity prediction (Enc_i's training task)."""
        tokens, column_vectors = self._stacked_inputs([conjunction])
        return self.encoders[conjunction.table].predict_log_selectivity(tokens, column_vectors)

    # ------------------------------------------------------------------
    def train_encoders(
        self,
        queries_per_table: int = 40,
        epochs: int = 30,
        seed: int = 0,
        verbose: bool = False,
    ) -> dict[str, float]:
        """Algorithm 1 line 4: train each ``Enc_i`` on single-table CardEst.

        Generates filter-only queries per table, computes true
        selectivities by evaluating the filters, and regresses the
        log-selectivity with an absolute-log (q-error) loss.  Returns the
        final mean loss per table.
        """
        losses: dict[str, float] = {}
        for table_index, table in enumerate(self.db.table_names):
            queries = generate_single_table_queries(
                self.db, table, queries_per_table, seed=seed + table_index
            )
            examples = []
            base = self.db.table(table)
            rows = max(base.num_rows, 1)
            for query in queries:
                conj = query.filter_for(table)
                true_rows = int(conj.evaluate(base).sum())
                selectivity = max(true_rows / rows, 1.0 / (10.0 * rows))
                examples.append((conj, np.log(selectivity)))
            encoder = self.encoders[table]
            params = encoder.parameters() + self.column_embedding.parameters()
            optimizer = nn.Adam(params, lr=self.config.learning_rate)
            final = 0.0
            for _ in range(epochs):
                total = 0.0
                for conj, target in examples:
                    optimizer.zero_grad()
                    pred = self.predict_filter_selectivity(conj)
                    loss = (pred - nn.Tensor(np.array([target]))).abs().mean()
                    loss.backward()
                    nn.clip_grad_norm(params, self.config.grad_clip)
                    optimizer.step()
                    total += loss.item()
                final = total / max(len(examples), 1)
            losses[table] = final
            if verbose:
                print(f"  Enc[{table}]: final |log sel| error {final:.3f}")
        return losses
