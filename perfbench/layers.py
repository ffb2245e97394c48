"""Which public functions stand for which layer, and the per-layer table.

Each target is a public function replaced, for a traced run only, by a
span-recording wrapper: on its class, or under the name of the module
that calls it (``repro.core.model.drive_beam_states`` is the name the
model looks up, so that is the one wrapped).
"""

from __future__ import annotations

from repro import nn
from repro.core import model as core_model
from repro.core import DatabaseFeaturizer, InferenceSession, MTMLFQO
from repro.core.trans_jo import TransJO
from repro.optimizer import planner
from repro.optimizer.selectivity import HistogramEstimator
from repro.workload import QueryLabeler

from .metrics import KERNEL_OPS
from .spans import ID, KEY, NAME, ROOT, SpanIndex

FEATURIZE = ("encode_query", "serialize_plan", "encode_filter")
ENCODE = ("forward_batch",)
BEAM = ("drive_beam_states", "infer_step_logits_batch")
RERANK = ("plan_with_order", "estimate", "predict_log_nodes")


def _estimate_key(args):
    # HistogramEstimator.estimate(self, query, subset)
    return (id(args[1]), args[2])


def targets() -> list[tuple]:
    return [
        (InferenceSession, "predict_join_orders", "batch"),
        (MTMLFQO, "encode_query", "encode_query"),
        (core_model, "serialize_plan", "serialize_plan"),
        (DatabaseFeaturizer, "encode_filter", "encode_filter"),
        (MTMLFQO, "forward_batch", "forward_batch"),
        (core_model, "drive_beam_states", "drive_beam_states"),
        (TransJO, "infer_step_logits_batch", "infer_step_logits_batch"),
        (planner, "plan_with_order", "plan_with_order"),
        (HistogramEstimator, "estimate", "estimate", _estimate_key),
        (MTMLFQO, "predict_log_nodes", "predict_log_nodes"),
        (nn.Tensor, "backward", "backward"),
        (nn.Adam, "step", "adam_step"),
        (nn, "clip_grad_norm", "clip_grad_norm"),
        (QueryLabeler, "label_with_order", "label_with_order"),
    ]


def distinct_estimate_ratio(index: SpanIndex) -> float:
    """Distinct (query, subset) estimator inputs per call, per batch."""
    keys_by_batch: dict[int, set] = {}
    calls = 0
    for span in index.select("estimate", root="batch"):
        keys_by_batch.setdefault(span[ROOT], set()).add(span[KEY])
        calls += 1
    distinct = sum(len(keys) for keys in keys_by_batch.values())
    return distinct / calls if calls else 0.0


def span_metrics(index: SpanIndex) -> dict[str, float]:
    """Per-layer numbers derived from the recorded spans."""
    encodes = index.count("encode_query")
    misses = sum(1 for span in index.select("serialize_plan")
                 if index.parent_name(span) == "encode_query")
    return {
        "featurize.self_ms": index.self_ms(FEATURIZE),
        "featurize.calls": encodes,
        "featurize.filter_encodes": index.count("encode_filter"),
        "featurize.query_hit_ratio": 1.0 - misses / encodes if encodes else 0.0,
        "encode.self_ms": index.self_ms(ENCODE),
        "beam.self_ms": index.self_ms(BEAM),
        "beam.steps": index.count("infer_step_logits_batch"),
        "rerank.self_ms": index.self_ms(RERANK, root="batch"),
        "rerank.plan_ms": index.inclusive_ms("plan_with_order", root="batch"),
        "rerank.plan_calls": index.count("plan_with_order", root="batch"),
        "rerank.estimate_ms": index.inclusive_ms("estimate", root="batch"),
        "rerank.estimate_calls": index.count("estimate", root="batch"),
        "rerank.estimate_distinct_ratio": distinct_estimate_ratio(index),
        "rerank.costest_ms": index.inclusive_ms("predict_log_nodes", root="batch"),
        "batch.calls": index.count("batch"),
        "batch.span_ms": index.inclusive_ms("batch"),
        "batch.self_ms": index.self_ms("batch"),
        "train.forward_ms": index.inclusive_ms("predict_log_nodes", not_root="batch"),
        "train.backward_ms": index.inclusive_ms("backward"),
        "train.optim_ms": index.inclusive_ms("adam_step") + index.inclusive_ms("clip_grad_norm"),
        "feedback.label_ms": index.inclusive_ms("label_with_order"),
    }


def batch_breakdown(index: SpanIndex) -> dict[str, float]:
    """Self time of each layer inside ``batch`` spans, and the span total.

    The parts sum to the total: every span inside a batch belongs to
    exactly one layer, and self time is a span minus its children.
    """
    parts = {
        "featurize": index.self_ms(FEATURIZE, root="batch"),
        "encode": index.self_ms(ENCODE, root="batch"),
        "beam": index.self_ms(BEAM, root="batch"),
        "rerank": index.self_ms(RERANK, root="batch"),
        "batch (self)": index.self_ms("batch"),
    }
    covered = {name for group in (FEATURIZE, ENCODE, BEAM, RERANK) for name in group}
    stray = [s[ID] for s in index.select(
        {s[NAME] for s in index.spans} - covered - {"batch"}, root="batch")]
    parts["other"] = 1000.0 * sum(index.self_s[i] for i in stray)
    return {"parts": parts, "total_ms": index.inclusive_ms("batch")}


def kernel_metrics(profiles) -> dict[str, float]:
    """Kernel counters summed over ``nn.kernels.profiled()`` profiles."""
    out = {}
    for op in KERNEL_OPS:
        calls, seconds, nbytes = (sum(p.ops.get(op, (0, 0.0, 0))[i] for p in profiles)
                                  for i in range(3))
        out[f"kernel.{op}.calls"] = calls
        out[f"kernel.{op}.ms"] = 1000.0 * seconds
        out[f"kernel.{op}.mb"] = nbytes / 1e6
    return out
