"""Names and units of every metric the benchmark prints.

``BENCHMARK.json`` lists the same names; ``selftest.py`` checks that the
two agree.  End-to-end metrics are printed by untraced runs
(``--trace 0``), per-layer metrics by traced runs (``--trace 1``).
Every workload prints every metric of its mode: end-to-end metrics mean
the same user-visible quantity on each workload (see README.md), and a
per-layer metric of a layer the workload does not run reads 0.
"""

from __future__ import annotations

import numpy as np

# "ref" is the duration of one reference loop (reference.py), read on
# the benchmark's thread right before each timed unit of work; "1/kref"
# is work done per 1000 of them.
END_TO_END = {
    "setup_s": "s",
    "throughput": "1/kref",
    "latency_ref": "ref",
    "latency_tail_ref": "ref",
    "quality": "ratio",
}

KERNEL_OPS = (
    "matmul", "linear", "layer_norm", "relu", "sigmoid", "softmax", "log_softmax", "masked_fill",
)

PER_LAYER = {
    # (F) featurization: MTMLFQO.encode_query, DatabaseFeaturizer.encode_filter
    "featurize.self_ms": "ms",
    "featurize.calls": "count",
    "featurize.filter_encodes": "count",
    "featurize.query_hit_ratio": "ratio",
    # Trans_Share: MTMLFQO.forward_batch
    "encode.self_ms": "ms",
    # Trans_JO beam: drive_beam_states, TransJO.infer_step_logits_batch
    "beam.self_ms": "ms",
    "beam.steps": "count",
    # cost rerank inside predict_join_orders
    "rerank.self_ms": "ms",
    "rerank.plan_ms": "ms",
    "rerank.plan_calls": "count",
    "rerank.estimate_ms": "ms",
    "rerank.estimate_calls": "count",
    "rerank.estimate_distinct_ratio": "ratio",
    "rerank.costest_ms": "ms",
    # InferenceSession.predict_join_orders, the batch every stage sits in
    "batch.calls": "count",
    "batch.span_ms": "ms",
    "batch.self_ms": "ms",
    # nn tape path of training
    "train.forward_ms": "ms",
    "train.backward_ms": "ms",
    "train.optim_ms": "ms",
    "train.examples_per_s": "1/s",
    "train.refine_examples_per_s": "1/s",
    "train.card_qerror_p50_refined": "ratio",
    # serve (ServingReport and repro.obs spans)
    "serve.cache_hit_ratio": "ratio",
    "serve.mean_batch": "count",
    "serve.model_calls": "count",
    "serve.busy_ratio": "ratio",
    "serve.rejected": "count",
    "serve.failed": "count",
    "serve.queue_wait_ms": "ms",
    "serve.decode_ms": "ms",
    # execution feedback through repro.engine
    "feedback.collected": "count",
    "feedback.deduped": "count",
    "feedback.rejected": "count",
    "feedback.label_ms": "ms",
    # set-up stages and the harness itself
    "setup.datagen_s": "s",
    "setup.label_s": "s",
    "setup.featurizer_s": "s",
    "setup.train_s": "s",
    "harness.late_p99_ms": "ms",
    "harness.trace_overhead": "ratio",
    "harness.reference_ms": "ms",
}
for _phase in ("fixed", "saturated"):
    for _outcome in ("sent", "succeeded", "failed", "rejected", "timed_out"):
        PER_LAYER[f"serve.{_phase}.{_outcome}"] = "count"
for _op in KERNEL_OPS:
    PER_LAYER[f"kernel.{_op}.calls"] = "count"
    PER_LAYER[f"kernel.{_op}.ms"] = "ms"
    PER_LAYER[f"kernel.{_op}.mb"] = "MB"


def percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values``."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def percentile_ms(seconds, q: float) -> float:
    """The ``q``-th percentile of durations in seconds, in ms."""
    return 1000.0 * percentile(seconds, q)
