"""One tenant of the federated serving fleet.

A :class:`TenantNode` is the unit of deployment in the paper's cloud
story: one customer database served locally by its own
:class:`~repro.serve.OptimizerService`, with a
:class:`~repro.serve.feedback.FeedbackCollector` turning served orders
into private execution-labeled experience.  The node participates in
federation through exactly two narrow interfaces:

- :meth:`local_update` — fine-tune a *private* model copy (starting
  from the broadcast global weights, on this tenant's experience only)
  and return the shared (S)/(T) parameters plus an example count.
  Featurizer (F) weights and raw experience never cross this boundary:
  the return value is filtered through
  :func:`repro.core.federated.shared_state_dict`.
- :meth:`consider_global` — evaluate a merged global model against the
  live one on a held-out slice of the tenant's own experience
  (:func:`repro.serve.adaptation.evaluate_regret_gate`) and hot-swap it
  in only if the tenant's simulated latency does not worsen.  A bad
  federated round can therefore never degrade a healthy tenant; a
  tenant with *no* experience to validate against keeps its live model
  (counted as ``gate_unvalidated``) rather than accepting blind.
"""

from __future__ import annotations

import threading

from ..core.encoders import DatabaseFeaturizer
from ..core.federated import shared_state_dict
from ..core.model import MTMLFQO
from ..core.serializer import query_signature
from ..core.trainer import JointTrainer
from ..optimizer.selectivity import HistogramEstimator
from ..serve.adaptation import GateResult, evaluate_regret_gate, split_experience
from ..serve.feedback import FeedbackCollector, FeedbackConfig
from ..serve.service import OptimizerService
from ..serve.stats import ServingReport
from ..workload.labeler import LabeledQuery
from .config import FleetConfig

__all__ = ["TenantNode"]


class TenantNode:
    """One tenant: database + serving service + private experience.

    ``model`` must hold a featurizer for ``db.name`` (typically the
    current global (S)/(T) plus this tenant's own (F) —
    :meth:`FleetCoordinator.onboard` builds exactly that).  Use as a
    context manager (or :meth:`start` / :meth:`stop`)::

        with TenantNode(db, model) as tenant:
            order = tenant.optimize(labeled_query)
    """

    def __init__(
        self,
        db,
        model: MTMLFQO,
        config: FleetConfig | None = None,
        serve_config=None,
        feedback_config: FeedbackConfig | None = None,
        name: str | None = None,
        telemetry=None,
    ):
        self.db = db
        self.config = config or FleetConfig()
        self.name = name or db.name
        self.telemetry = telemetry
        model.featurizer_for(db.name)  # fail fast on a missing (F) module
        self.service = OptimizerService(model, db.name, serve_config, telemetry=telemetry)
        # SLO outcomes are tracked per *tenant*, not per database: two
        # tenants serving the same database name must burn their error
        # budgets separately.
        self.service.slo_name = self.name
        self.collector = FeedbackCollector(db, feedback_config, telemetry=telemetry)
        self.service.attach_feedback(self.collector)
        self.buffer = self.collector.buffer
        self._estimator = HistogramEstimator(db)
        self._lock = threading.Lock()
        # buffer.added observed at the last harvest: experience counts
        # as "fresh" until it has been contributed to a round.
        self._harvested = 0  # guarded-by: _lock
        # Pre-harvest cursor of the latest local_update, for
        # rollback_harvest() when the round is reverted.
        self._harvest_rollback: int | None = None  # guarded-by: _lock
        # Name-keyed Adam moments carried across rounds (PR-3 state-dict
        # machinery): each round's private trainer resumes this tenant's
        # optimizer trajectory instead of re-warming from zero.
        self._optimizer_state: dict | None = None  # guarded-by: _lock
        self._local_rounds = 0  # guarded-by: _lock
        # Validation slice held out by the most recent local_update; the
        # push phase of the same round gates on it so train/validation
        # isolation holds within a round.
        self._pending_validation: list[LabeledQuery] = []  # guarded-by: _lock
        self.last_gate: GateResult | None = None  # guarded-by: _lock
        self.rounds_participated = 0  # guarded-by: _lock
        self.rounds_skipped = 0  # guarded-by: _lock
        self.global_accepted = 0  # guarded-by: _lock
        self.global_rejected = 0  # guarded-by: _lock
        self.gate_unvalidated = 0  # guarded-by: _lock

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "TenantNode":
        self.collector.start()
        self.service.start()
        return self

    def stop(self) -> None:
        """Stop serving, then let the collector drain its queue."""
        self.service.stop()
        self.collector.stop()

    def __enter__(self) -> "TenantNode":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- serving -------------------------------------------------------
    def optimize(self, labeled: LabeledQuery, **kwargs) -> list[str]:
        """Serve one query through this tenant's optimizer service."""
        return self.service.optimize(labeled, **kwargs)

    @property
    def live_model(self) -> MTMLFQO:
        """The model currently serving this tenant's traffic."""
        return self.service._serving_state()[0].model

    def report(self) -> ServingReport:
        return self.service.report()

    # -- experience ----------------------------------------------------
    def pending_experience(self) -> int:
        """Unique experiences accumulated since the last harvest."""
        with self._lock:
            harvested = self._harvested
        return self.buffer.added - harvested

    def inject_experience(self, items: list[LabeledQuery]) -> int:
        """Add pre-labeled experience directly (benchmarks, tests, bulk
        imports); returns how many were accepted (signature-deduped)."""
        accepted = 0
        for item in items:
            if self.buffer.add(query_signature(item.query), item):
                accepted += 1
        return accepted

    # -- federation: local phase ---------------------------------------
    def local_update(self, global_state: dict) -> tuple[dict, int] | None:
        """One round's client-side pass; returns ``(shared_state, n)``.

        Skips (returns None) when fewer than ``min_new_experience``
        fresh experiences accumulated since the last harvest — the
        asynchronous-participation rule.  Otherwise fine-tunes a private
        model (broadcast (S)/(T) + a *clone* of the live featurizer, so
        training-mode flips can never touch the serving path) on the
        training slice of the experience snapshot and returns only the
        shared (S)/(T) parameters with the example count FedAvg weights
        them by.
        """
        experience, added = self.buffer.snapshot_with_added()
        with self._lock:
            harvested = self._harvested
        if added - harvested < self.config.min_new_experience or not experience:
            with self._lock:
                self.rounds_skipped += 1
            return None
        train_slice, val_slice = split_experience(
            experience, self.config.validation_fraction
        )
        model = self._private_model(global_state)
        trainer = JointTrainer(model, learning_rate=self.config.learning_rate)
        with self._lock:
            optimizer_state = self._optimizer_state
            self._local_rounds += 1
            seed = self.config.seed + self._local_rounds - 1
        if optimizer_state is not None:
            trainer.optimizer.load_state_dict(optimizer_state)
        trainer.train(
            [(self.db.name, item) for item in train_slice],
            epochs=self.config.fine_tune_epochs,
            batch_size=self.config.batch_size,
            seed=seed,
        )
        optimizer_state = trainer.optimizer.state_dict()
        with self._lock:
            self._optimizer_state = optimizer_state
            # Remember the pre-harvest cursor: if the coordinator
            # reverts this round, rollback_harvest() returns the
            # experience credit (the deduped buffer cannot re-admit the
            # same signatures, so consumption must be undoable).
            self._harvest_rollback = self._harvested
            self._harvested = max(self._harvested, added)
            self._pending_validation = val_slice
            self.rounds_participated += 1
        return shared_state_dict(model), len(train_slice)

    def rollback_harvest(self) -> None:
        """Undo the most recent harvest's experience consumption.

        Called by the coordinator when a round this tenant trained in is
        reverted (every gate rejected the merge): the tenant's buffered
        experience was consumed by a round that never landed, so the
        fresh-experience cursor is restored and the same experience can
        trigger — and train — a future round.  Idempotent per harvest.
        """
        with self._lock:
            if self._harvest_rollback is not None:
                self._harvested = self._harvest_rollback
                self._harvest_rollback = None

    # -- federation: push phase ----------------------------------------
    def consider_global(self, global_state: dict) -> bool | None:
        """Gate the merged global model; swap it in only if safe.

        Returns True (accepted + swapped), False (gate-rejected), or
        None when the tenant has no experience to validate against — in
        which case the live model keeps serving: a tenant that cannot
        measure the merged model must not accept it blind.
        """
        with self._lock:
            # Taken (not just read): the slice belongs to exactly one
            # round's push.  If the gate below raises, a later round
            # must fall back to the full buffer rather than re-gate on
            # this round's stale snapshot.
            val_slice = self._pending_validation
            self._pending_validation = []
        if not val_slice:
            # Didn't train this round: the merged model never trained on
            # any of this tenant's data *this round*, so the entire
            # buffer is used as the held-out set (sorted for
            # determinism) — the wider coverage makes accept/reject a
            # far better predictor of live-traffic behavior than the
            # thin held-out slice a participant is restricted to.  The
            # caveat: across rounds the global lineage may include
            # earlier rounds this tenant trained in, so items it once
            # trained on can leak a mild optimistic bias — the price of
            # coverage; the bias is bounded by how much one tenant's
            # slice moves the example-weighted merge.
            val_slice = sorted(
                self.buffer.snapshot(), key=lambda item: item.query.to_sql()
            )
        if not val_slice:
            with self._lock:
                self.gate_unvalidated += 1
            return None
        live = self.live_model
        candidate = self._private_model(global_state)
        gate = evaluate_regret_gate(
            self.db,
            live,
            candidate,
            val_slice,
            decode=self.service.config.decode_kwargs(),
            estimator=self._estimator,
            tolerance_ms=self.config.regret_tolerance_ms,
            max_intermediate_rows=self.config.max_intermediate_rows,
        )
        with self._lock:
            self.last_gate = gate
        if not gate.accepted:
            with self._lock:
                self.global_rejected += 1
            return False
        self.service.swap_model(candidate)
        with self._lock:
            self.global_accepted += 1
        return True

    # -- internals -----------------------------------------------------
    def _private_model(self, global_state: dict) -> MTMLFQO:
        """A disjoint model: broadcast (S)/(T) + cloned featurizer.

        Both the training model of :meth:`local_update` and the swap
        candidate of :meth:`consider_global` are built here.  The
        featurizer is cloned by state dict so no model instance ever
        shares an (F) module with the live serving model — a trainer's
        train-mode flip (dropout on) on a shared featurizer would leak
        nondeterminism into concurrently served traffic.
        """
        live = self.live_model
        model = MTMLFQO(live.config)
        model.load_state_dict(global_state)
        featurizer = DatabaseFeaturizer(self.db, live.config)
        featurizer.load_state_dict(live.featurizer_for(self.db.name).state_dict())
        model.attach_featurizer(self.db.name, featurizer)
        model.eval()
        return model

    # -- reporting -----------------------------------------------------
    def counters(self) -> dict:
        """Fleet-level counters this tenant contributes to FleetReport."""
        with self._lock:
            return {
                "rounds_participated": self.rounds_participated,
                "rounds_skipped": self.rounds_skipped,
                "global_accepted": self.global_accepted,
                "global_rejected": self.global_rejected,
                "gate_unvalidated": self.gate_unvalidated,
            }
