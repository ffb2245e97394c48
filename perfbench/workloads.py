"""The three workloads: plan-batch, serve-zipf and train-joint.

Each returns a :class:`Result`.  Untraced runs fill ``metrics`` with
the end-to-end numbers, timed in units of the reference loop read just
before each unit of work (``reference.py``); the raw times go to the
notes.  Traced runs (``trace=True``) fill ``per_layer`` from spans
recorded around the layers' public functions, and also time the same
work untraced to report the tracing overhead.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from dataclasses import dataclass, field

from repro import nn
from repro.core import JointTrainer, MTMLFQO
from repro.eval.experiments import collect_node_qerrors, join_order_execution_time
from repro.obs import Telemetry, TelemetryConfig
from repro.optimizer.selectivity import HistogramEstimator
from repro.serve import (
    FeedbackCollector,
    OptimizerService,
    ServeConfig,
    ServiceOverloadedError,
    ServiceTimeoutError,
)

from . import fixtures, layers
from .metrics import percentile, percentile_ms
from .reference import Reference
from .spans import SpanIndex, SpanRecorder


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    attempted: int = 0
    failures: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    spans: SpanRecorder | None = None

    def fail(self, what: str, count: int = 1) -> None:
        if count:
            self.failures[what] = self.failures.get(what, 0) + count

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def setup_layer_metrics(stages: dict) -> dict:
    return {f"setup.{name}": stages[name] for name in
            ("datagen_s", "label_s", "featurizer_s", "train_s")}


def cost_ratio(db, items, orders) -> float:
    """Simulated execution time of ``orders`` over that of the optimal orders."""
    estimator = HistogramEstimator(db)
    chosen = sum(join_order_execution_time(db, item, order, estimator)
                 for item, order in zip(items, orders))
    optimal = sum(join_order_execution_time(db, item, item.optimal_order, estimator)
                  for item in items)
    return chosen / optimal


# ---------------------------------------------------------------------------
# plan-batch
# ---------------------------------------------------------------------------
PLANNER_TRAIN_PER_SIZE = 32   # the served model trains on 128 queries in set-up
PLAN_PER_SIZE = 48     # 192 held-out queries: four 48-query batches
BATCH_SIZE = 48
TRACE_PASSES = 3


def plan_batch(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    fixture, stages, setup_mismatches = fixtures.timed_setup(
        seed, PLANNER_TRAIN_PER_SIZE, PLAN_PER_SIZE, train_model=True)
    result.fail("set-up differs between repetitions", setup_mismatches)
    model, db = fixture.model, fixture.db
    session = model.inference_session(db.name)
    items = fixture.eval_items
    batches = [items[i: i + BATCH_SIZE] for i in range(0, len(items), BATCH_SIZE)]

    # Untimed first pass: every timed pass must choose these orders.
    model.clear_cache()
    reference_orders = [session.predict_join_orders(batch) for batch in batches]

    def run_passes(reference: Reference, deadline: float | None = None,
                   passes: int | None = None) -> list[tuple[float, float]]:
        """(batch latency, reference reading before it) of passes until
        ``deadline`` or for ``passes`` passes."""
        timed = []
        done = 0
        while (passes is None or done < passes) and (deadline is None or time.perf_counter() < deadline):
            model.clear_cache()
            done += 1
            for batch, expected in zip(batches, reference_orders):
                unit = reference.read()
                start = time.perf_counter()
                orders = session.predict_join_orders(batch)
                timed.append((time.perf_counter() - start, unit))
                result.attempted += len(batch)
                result.fail("order differs from the first pass",
                            sum(a != b for a, b in zip(orders, expected)))
                if deadline is not None and time.perf_counter() >= deadline:
                    break
        return timed

    reference = Reference()
    if not trace:
        timed = run_passes(reference, deadline=time.perf_counter() + seconds)
        latencies = [latency for latency, _ in timed]
        costs = [latency / unit for latency, unit in timed]
        flat_orders = [order for orders in reference_orders for order in orders]
        result.metrics = {
            "setup_s": stages["setup_s"],
            "throughput": 1000.0 * BATCH_SIZE * len(costs) / sum(costs),
            "latency_ref": percentile(costs, 50),
            "latency_tail_ref": percentile(costs, 90),
            "quality": cost_ratio(db, items, flat_orders),
        }
        result.notes.append(
            f"{len(timed)} batches of {BATCH_SIZE}; tail is p90; raw: "
            f"{BATCH_SIZE * len(latencies) / sum(latencies):.1f} queries/s, batch p50 "
            f"{percentile_ms(latencies, 50):.1f} ms, p90 {percentile_ms(latencies, 90):.1f} ms; "
            f"reference loop {reference.median_ms():.3f} ms")
        return result

    # Untraced and traced passes alternate, so a drift in machine speed
    # does not land on one side of the overhead ratio.
    recorder = SpanRecorder()
    untraced = traced_s = 0.0
    profiles = []
    for _ in range(TRACE_PASSES):
        untraced += sum(latency for latency, _ in run_passes(reference, passes=1))
        with recorder.wrapped(layers.targets()), nn.kernels.profiled() as profile:
            traced_s += sum(latency for latency, _ in run_passes(reference, passes=1))
        profiles.append(profile)
    index = SpanIndex(recorder.spans)
    result.per_layer = {
        **layers.span_metrics(index),
        **layers.kernel_metrics(profiles),
        **setup_layer_metrics(stages),
        "harness.trace_overhead": traced_s / untraced,
        "harness.reference_ms": reference.median_ms(),
    }
    breakdown = layers.batch_breakdown(index)
    check_breakdown(result, breakdown)
    result.spans = recorder
    return result


def check_breakdown(result: Result, breakdown: dict) -> None:
    total = breakdown["total_ms"]
    parts = breakdown["parts"]
    result.notes.append(f"batch span {total:.1f} ms = " + ", ".join(
        f"{name} {ms:.1f} ms ({100 * ms / total:.0f}%)" for name, ms in parts.items() if total))
    if total and abs(sum(parts.values()) - total) > 1e-6 * total:
        result.fail("layer self times do not add up to the batch span")


# ---------------------------------------------------------------------------
# serve-zipf
# ---------------------------------------------------------------------------
POOL_PER_SIZE = 96     # 384 distinct queries behind a 64-entry plan cache
PLAN_CACHE = 64
RATE_QPS = 60.0
SENDERS = 2
# Serving runs twice as long as --seconds: its figures come from many
# threads sharing the GIL and need more requests to settle than the
# single-threaded workloads.
SERVE_SCALE = 2.0
WARM_SHARE, FIXED_SHARE, SATURATED_SHARE = 0.1, 0.55, 0.35
READ_EVERY_S = 0.1   # reference readings while the senders run
TRACE_SATURATED_REQUESTS = 600
STREAM_SPARE = 200_000   # draws left for the saturation phase, whose length varies


@dataclass
class Phase:
    name: str
    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    rejected: int = 0
    timed_out: int = 0
    mismatched: int = 0
    # Seconds from due (open loop) or from send (closed loop) to answer.
    latencies: list = field(default_factory=list)
    late: list = field(default_factory=list)   # seconds a send trailed its due time
    errors: list = field(default_factory=list)  # repr of each unexpected error
    units: list = field(default_factory=list)   # reference readings taken meanwhile
    wall_s: float = 0.0

    def merge(self, other: "Phase") -> None:
        for name in ("sent", "succeeded", "failed", "rejected", "timed_out", "mismatched", "wall_s"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.latencies += other.latencies
        self.late += other.late
        self.errors += other.errors
        self.units += other.units


class Senders:
    """Up to ``SENDERS`` threads driving one service from the request stream.

    While they run, the calling thread reads the reference loop every
    ``READ_EVERY_S`` seconds.  A reading counts only that thread's CPU
    time, so it measures the machine, not waits for the GIL.
    """

    def __init__(self, service, pool, direct, stream, reference: Reference):
        self.service = service
        self.pool = pool
        self.direct = direct
        self.stream = stream
        self.reference = reference
        self.offset = 0

    def _send(self, phase: Phase, k: int, due: float | None) -> None:
        index = int(self.stream[(self.offset + k) % len(self.stream)])
        sent = time.perf_counter()
        phase.sent += 1
        if due is not None:
            phase.late.append(max(sent - due, 0.0))
        try:
            order = self.service.optimize(self.pool[index])
        except ServiceOverloadedError:
            phase.rejected += 1
        except ServiceTimeoutError:
            phase.timed_out += 1
        except Exception as error:  # any other error fails this request only
            phase.failed += 1
            phase.errors.append(repr(error))
        else:
            phase.latencies.append(time.perf_counter() - (sent if due is None else due))
            if order == self.direct[index]:
                phase.succeeded += 1
            else:
                phase.mismatched += 1

    def _run(self, name: str, work) -> Phase:
        parts = [Phase(name) for _ in range(SENDERS)]
        threads = [threading.Thread(target=work, args=(part, s), name=f"sender-{s}")
                   for s, part in enumerate(parts)]
        units = [self.reference.read()]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            while thread.is_alive() and time.perf_counter() < start + 120:
                units.append(self.reference.read())
                thread.join(timeout=READ_EVERY_S)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a sender did not finish within 120 s")
        total = Phase(name, units=units, wall_s=time.perf_counter() - start)
        for part in parts:
            total.merge(part)
        self.offset += total.sent
        return total

    def open_loop(self, name: str, rate: float, count: int) -> Phase:
        """``count`` requests due every ``1/rate`` s, alternating senders."""
        t0 = time.perf_counter() + 0.01

        def work(phase: Phase, sender: int) -> None:
            for k in range(sender, count, SENDERS):
                due = t0 + k / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self._send(phase, k, due)

        return self._run(name, work)

    def closed_loop(self, name: str, seconds: float | None = None, count: int | None = None) -> Phase:
        """Both senders back to back until ``seconds`` pass or ``count`` are sent."""
        lock = threading.Lock()
        issued = [0]
        deadline = time.perf_counter() + seconds if seconds is not None else None

        def work(phase: Phase, sender: int) -> None:
            while True:
                with lock:
                    if count is not None and issued[0] >= count:
                        return
                    if deadline is not None and time.perf_counter() >= deadline:
                        return
                    k = issued[0]
                    issued[0] += 1
                self._send(phase, k, None)

        return self._run(name, work)


def serve_zipf(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    fixture, stages, setup_mismatches = fixtures.timed_setup(
        seed, PLANNER_TRAIN_PER_SIZE, POOL_PER_SIZE, train_model=True)
    result.fail("set-up differs between repetitions", setup_mismatches)
    model, db, pool = fixture.model, fixture.db, fixture.eval_items
    # The answer every served request must equal, computed before timing;
    # the feature caches it filled are emptied so serving starts cold.
    direct = model.inference_session(db.name).predict_join_orders(pool)
    model.clear_cache()

    seconds *= SERVE_SCALE
    warm_count = int(RATE_QPS * WARM_SHARE * seconds)
    fixed_count = int(RATE_QPS * FIXED_SHARE * seconds)
    stream = fixtures.zipf_stream(fixtures.sub_seeds(seed, 4)[3], len(pool),
                                  warm_count + fixed_count + STREAM_SPARE)
    telemetry = Telemetry(TelemetryConfig(trace_capacity=1_000_000)) if trace else None
    if telemetry is not None:
        telemetry.disable()
    config = ServeConfig(num_replicas=1, plan_cache_size=PLAN_CACHE)
    collector = FeedbackCollector(db)
    service = OptimizerService(model, db.name, config, telemetry=telemetry)
    service.attach_feedback(collector)
    reference = Reference()
    senders = Senders(service, pool, direct, stream, reference)
    recorder = SpanRecorder()
    phases = []
    with collector, service:
        phases.append(senders.open_loop("warm", RATE_QPS, warm_count))
        if not trace:
            fixed = senders.open_loop("fixed", RATE_QPS, fixed_count)
            saturated = senders.closed_loop("saturated", seconds=SATURATED_SHARE * seconds)
            phases += [fixed, saturated]
        else:
            before = (service.report(), collector.counters())
            with recorder.wrapped(layers.targets()):
                telemetry.enable()
                fixed = senders.open_loop("fixed", RATE_QPS, fixed_count)
                saturated = senders.closed_loop("saturated", count=TRACE_SATURATED_REQUESTS)
                telemetry.disable()
            after = (service.report(), collector.counters())
            untraced = senders.closed_loop("saturated-untraced", count=TRACE_SATURATED_REQUESTS)
            phases += [fixed, saturated, untraced]
        report = service.report()
    for phase in phases:
        result.attempted += phase.sent
        for outcome in ("failed", "rejected", "timed_out", "mismatched"):
            result.fail(f"{phase.name}: {outcome}", getattr(phase, outcome))
        result.notes.append(
            f"{phase.name:<19} sent {phase.sent:>5}  ok {phase.succeeded:>5}  failed {phase.failed}"
            f"  rejected {phase.rejected}  timed out {phase.timed_out}  wrong {phase.mismatched}"
            f"  in {phase.wall_s:.2f} s")
        result.notes += [f"{phase.name} error: {error}" for error in phase.errors[:3]]
    late_p99 = percentile_ms(fixed.late, 99)
    result.notes.append(f"open loop at {RATE_QPS:.0f} q/s ran late by {late_p99:.2f} ms at p99; "
                        f"cache hit ratio {report.cache_hit_rate:.3f}")
    if not fixed.latencies or not saturated.latencies:
        result.fail("a phase completed no request")
        return result

    if not trace:
        # Each phase in the median reading taken while it ran.
        fixed_unit, saturated_unit = statistics.median(fixed.units), statistics.median(saturated.units)
        result.metrics = {
            "setup_s": stages["setup_s"],
            "throughput": 1000.0 * len(saturated.latencies) * saturated_unit / saturated.wall_s,
            "latency_ref": statistics.fmean(fixed.latencies) / fixed_unit,
            "latency_tail_ref": percentile(fixed.latencies, 95) / fixed_unit,
            "quality": cost_ratio(db, pool, direct),
        }
        result.notes.append(
            f"raw: capacity {len(saturated.latencies) / saturated.wall_s:.1f} q/s, mean latency "
            f"{1000.0 * statistics.fmean(fixed.latencies):.2f} ms, p95 "
            f"{percentile_ms(fixed.latencies, 95):.2f} ms; reference loop {reference.median_ms():.3f} ms")
        return result

    index = SpanIndex(recorder.spans)
    obs_spans = telemetry.tracer.spans()

    def mean_obs_ms(name: str) -> float:
        durations = [s.duration_s for s in obs_spans if s.name == name]
        return 1000.0 * statistics.fmean(durations) if durations else 0.0

    per_layer = {
        **layers.span_metrics(index),
        **layers.kernel_metrics([]),
        **setup_layer_metrics(stages),
        **serving_deltas(*before, *after),
        "serve.queue_wait_ms": mean_obs_ms("queue_wait"),
        "serve.decode_ms": mean_obs_ms("decode"),
        "harness.late_p99_ms": late_p99,
        "harness.trace_overhead": saturated.wall_s / untraced.wall_s,
        "harness.reference_ms": reference.median_ms(),
    }
    for phase in (fixed, saturated):
        for outcome in ("sent", "succeeded", "failed", "rejected", "timed_out"):
            per_layer[f"serve.{phase.name}.{outcome}"] = getattr(phase, outcome)
    result.per_layer = per_layer
    result.spans = recorder
    return result


def serving_deltas(report0, feedback0, report1, feedback1) -> dict:
    """Service and feedback counters accrued between two snapshots."""
    def delta(name):
        return getattr(report1, name) - getattr(report0, name)

    lookups = delta("cache_hits") + delta("cache_misses")
    return {
        "serve.cache_hit_ratio": delta("cache_hits") / lookups if lookups else 0.0,
        "serve.mean_batch": delta("batched_requests") / max(delta("batches"), 1),
        "serve.model_calls": delta("model_calls"),
        "serve.busy_ratio": (sum(report1.replica_busy_s) - sum(report0.replica_busy_s))
        / delta("elapsed_s"),
        "serve.rejected": delta("rejected"),
        "serve.failed": delta("failed"),
        **{f"feedback.{name}": feedback1[f"feedback_{name}"] - feedback0[f"feedback_{name}"]
           for name in ("collected", "deduped", "rejected")},
    }


# ---------------------------------------------------------------------------
# train-joint
# ---------------------------------------------------------------------------
TRAIN_PER_SIZE = 48    # 192 training examples
HELD_PER_SIZE = 24     # 96 held-out queries for the q-error
# The job is a fixed amount of work for a given --seconds, so its model
# (and q-error) is the same on every run of a seed: one joint epoch per
# two seconds, which with the refinement epoch fills about --seconds on
# a 2-core x86 box.
SECONDS_PER_EPOCH = 2.0
BATCH_EXAMPLES = 16


class StepClock:
    """Times every optimizer step, from a reference reading to the end of
    its ``nn.Adam.step``, and keeps the reading with it.

    A step is everything the trainer does for one batch; the reading
    between two steps is not part of either.
    """

    def __init__(self, reference: Reference):
        self.reference = reference
        self.steps: list[float] = []   # seconds
        self.units: list[float] = []   # reference loop seconds read before each step
        self._original = None
        self._unit = self._resumed = 0.0

    def restart(self) -> None:
        """Take a reading; the next step is timed from now."""
        self._unit = self.reference.read()
        self._resumed = time.perf_counter()

    def __enter__(self):
        original = self._original = nn.Adam.step

        def step(optimizer):
            original(optimizer)
            self.steps.append(time.perf_counter() - self._resumed)
            self.units.append(self._unit)
            self.restart()

        nn.Adam.step = step
        return self

    def __exit__(self, *exc_info):
        nn.Adam.step = self._original


def card_qerror_p50(model, db, items) -> float:
    predictions = model.predict_cardinalities(db.name, items)
    by_item = {id(item): p for item, p in zip(items, predictions)}
    return collect_node_qerrors(items, lambda item: by_item[id(item)]).median


def training_job(fixture, train_seed: int, epochs: int) -> dict:
    """Joint epochs from a fixed init, then one sequence-level epoch."""
    db = fixture.db
    model = MTMLFQO(fixture.config)
    model.attach_featurizer(db.name, fixture.featurizer)
    trainer = JointTrainer(model)
    examples = [(db.name, item) for item in fixture.train_items]
    with StepClock(Reference()) as clock:
        clock.restart()
        joint = trainer.train(examples, epochs=epochs, batch_size=BATCH_EXAMPLES, seed=train_seed)
        joint_steps = len(clock.steps)
        qerror = card_qerror_p50(model, db, fixture.eval_items)
        clock.restart()
        refine = trainer.refine_sequence_level(examples, epochs=1, seed=train_seed)
    steps, refine_steps = clock.steps[:joint_steps], clock.steps[joint_steps:]
    costs = [step / unit for step, unit in zip(steps, clock.units)]
    per_epoch = math.ceil(len(examples) / BATCH_EXAMPLES)

    def by_epoch(values):
        return [sum(values[i: i + per_epoch]) for i in range(0, len(values), per_epoch)]

    return {
        "examples": len(examples),
        "joint_s": sum(steps),
        "refine_s": sum(refine_steps),
        "refine_examples": len(refine_steps),
        "steps": steps,
        "costs": costs,
        "epoch_s": by_epoch(steps),
        "epoch_costs": by_epoch(costs),
        "reference_ms": clock.reference.median_ms(),
        "losses": joint.epoch_losses + refine.epoch_losses,
        "qerror": qerror,
        "qerror_refined": card_qerror_p50(model, db, fixture.eval_items),
    }


def train_joint(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    fixture, stages, setup_mismatches = fixtures.timed_setup(
        seed, TRAIN_PER_SIZE, HELD_PER_SIZE, train_model=False)
    result.fail("set-up differs between repetitions", setup_mismatches)
    train_seed = fixtures.sub_seeds(seed, 3)[2]
    epochs = max(2, round(seconds / SECONDS_PER_EPOCH))
    job = training_job(fixture, train_seed, epochs)
    result.attempted += len(job["steps"]) + job["refine_examples"]
    result.fail("non-finite training loss", sum(not math.isfinite(x) for x in job["losses"]))
    result.fail("non-finite q-error", sum(not math.isfinite(job[k]) for k in ("qerror", "qerror_refined")))
    result.notes.append(
        f"{epochs} joint epochs in {job['joint_s']:.2f} s, refinement in {job['refine_s']:.2f} s; "
        f"card q-error p50 {job['qerror']:.3f}, after refinement {job['qerror_refined']:.3f}")
    job_s = job["joint_s"] + job["refine_s"]
    if not trace:
        result.metrics = {
            "setup_s": stages["setup_s"],
            "throughput": statistics.median(1000.0 * job["examples"] / c for c in job["epoch_costs"]),
            "latency_ref": percentile(job["costs"], 50),
            "latency_tail_ref": percentile(job["costs"], 90),
            "quality": job["qerror"],
        }
        result.notes.append(
            f"raw: {statistics.median(job['examples'] / s for s in job['epoch_s']):.1f} examples/s, "
            f"step p50 {percentile_ms(job['steps'], 50):.1f} ms, p90 {percentile_ms(job['steps'], 90):.1f} ms; "
            f"reference loop {job['reference_ms']:.3f} ms")
        return result

    recorder = SpanRecorder()
    with recorder.wrapped(layers.targets()), nn.kernels.profiled() as profile:
        again = training_job(fixture, train_seed, epochs)
    result.attempted += len(again["steps"]) + again["refine_examples"]
    if again["losses"] != job["losses"]:
        result.fail("traced training diverged from the untraced run")
    result.per_layer = {
        **layers.span_metrics(SpanIndex(recorder.spans)),
        **layers.kernel_metrics([profile]),
        **setup_layer_metrics(stages),
        "train.examples_per_s": statistics.median(job["examples"] / s for s in job["epoch_s"]),
        "train.refine_examples_per_s": job["refine_examples"] / job["refine_s"],
        "train.card_qerror_p50_refined": job["qerror_refined"],
        "harness.trace_overhead": (again["joint_s"] + again["refine_s"]) / job_s,
        "harness.reference_ms": job["reference_ms"],
    }
    result.spans = recorder
    return result


WORKLOADS = {
    "plan-batch": plan_batch,
    "serve-zipf": serve_zipf,
    "train-joint": train_joint,
}
