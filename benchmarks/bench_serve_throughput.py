"""Benchmark: micro-batched serving vs sequential single-query calls.

The serving layer (``repro.serve``, DESIGN.md "Serving architecture")
coalesces concurrent ``optimize`` requests into batched
``predict_join_orders`` calls and answers repeated queries from a
bounded LRU plan cache.  This load generator drives the same request
stream two ways:

1. **sequential** — one ``predict_join_orders(db, [item])`` call at a
   time, the only option a caller had before the service existed;
2. **served** — 16 client threads each submitting single queries to an
   :class:`OptimizerService`.

Two phases are measured:

- **coalescing only** — every request distinct, plan cache *disabled*:
  isolates the batching win (the batched decode path's speedup at
  batch size 16).  Full run asserts >= 1.5x.
- **serving stack** — a production-shaped stream where queries repeat
  (each distinct query appears twice, shuffled), plan cache enabled:
  measures the service as deployed.  Full run asserts >= 2x.

Parity is checked before any timing is trusted: every served order must
be identical to the direct call's.

Every run (including ``--smoke``) writes a ``BENCH_serve_throughput.json``
snapshot — qps, p50/p95 latency, mean batch size per phase — the start of the serving-perf trajectory; CI uploads it as an
artifact.

Run:
    PYTHONPATH=src python benchmarks/bench_serve_throughput.py           # full: asserts 1.5x / 2x
    PYTHONPATH=src python benchmarks/bench_serve_throughput.py --smoke   # CI: parity + report

This file is a standalone script (not collected by the tier-1 pytest
run) so the CI serve-throughput job can run it directly.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread per op *before* numpy loads: BLAS-internal
# threading would oversubscribe cores and add run-to-run noise to every
# phase.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import random
import sys
import threading
import time

from repro.core import DatabaseFeaturizer, ModelConfig, MTMLFQO
from repro.datagen import generate_database
from repro.eval import format_serving_report
from repro.serve import OptimizerService, ServeConfig
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator

CONCURRENCY = 16
SNAPSHOT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_serve_throughput.json")


def build_fixture(num_queries: int, seed: int = 5):
    config = ModelConfig(d_model=48, num_heads=4, encoder_layers=1, shared_layers=2, decoder_layers=2)
    db = generate_database(seed=seed, num_tables=8, row_range=(80, 300), attr_range=(2, 3))
    featurizer = DatabaseFeaturizer(db, config)
    featurizer.train_encoders(queries_per_table=3, epochs=1)
    generator = WorkloadGenerator(db, WorkloadConfig(min_tables=3, max_tables=5, seed=3))
    items = QueryLabeler(db).label_many(generator.generate(num_queries), with_optimal_order=False)
    model = MTMLFQO(config)
    model.attach_featurizer(db.name, featurizer)
    return model, db, items


def repeated_stream(items, occurrences: int = 2, seed: int = 11):
    """A production-shaped request stream: each query seen ``occurrences`` times."""
    stream = [item for item in items for _ in range(occurrences)]
    random.Random(seed).shuffle(stream)
    return stream


def run_sequential(model, db, requests) -> tuple[list[list[str]], float]:
    model.clear_cache()
    start = time.perf_counter()
    orders = [model.predict_join_orders(db.name, [item])[0] for item in requests]
    return orders, time.perf_counter() - start


def run_served(model, db, requests, plan_cache_size: int):
    """Drive ``requests`` through the service from ``CONCURRENCY`` client threads."""
    model.clear_cache()
    service = OptimizerService(
        model,
        db.name,
        ServeConfig(
            max_batch_size=CONCURRENCY,
            max_wait_ms=4.0,
            plan_cache_size=plan_cache_size,
        ),
    )
    work = list(enumerate(requests))
    results: dict[int, list[str]] = {}
    lock = threading.Lock()

    def client():
        while True:
            with lock:
                if not work:
                    return
                index, item = work.pop()
            order = service.optimize(item)
            with lock:
                results[index] = order

    with service:
        start = time.perf_counter()
        threads = [threading.Thread(target=client) for _ in range(CONCURRENCY)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        report = service.report()
    orders = [results[index] for index in range(len(requests))]
    return orders, elapsed, report


def measure_phase(model, db, requests, plan_cache_size: int, repeats: int) -> dict:
    """min-of-``repeats`` wall clock for both paths, with parity checking."""
    sequential_s = float("inf")
    served_s = float("inf")
    mismatches = 0
    report = None
    for _ in range(repeats):
        sequential_orders, elapsed = run_sequential(model, db, requests)
        sequential_s = min(sequential_s, elapsed)
        served_orders, elapsed, run_report = run_served(model, db, requests, plan_cache_size)
        if elapsed < served_s:
            served_s, report = elapsed, run_report
        mismatches += sum(a != b for a, b in zip(sequential_orders, served_orders))
    return {
        "requests": len(requests),
        "mismatches": mismatches,
        "sequential_s": sequential_s,
        "served_s": served_s,
        "speedup": sequential_s / served_s if served_s > 0 else float("inf"),
        "report": report,
    }


def report_snapshot(report) -> dict:
    """The JSON view of one phase's ServingReport (perf-trajectory row)."""
    latency = report.latency
    return {
        "qps": round(report.throughput_qps, 2),
        "p50_latency_ms": round(1000 * latency.p50, 3) if latency else None,
        "p95_latency_ms": round(1000 * latency.p95, 3) if latency else None,
        "mean_batch_size": round(report.mean_batch_size, 3),
        "completed": report.completed,
    }


def write_snapshot(path: str, payload: dict) -> str:
    path = os.path.abspath(path)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def print_phase(name: str, phase: dict, required: "float | None") -> None:
    qps_seq = phase["requests"] / phase["sequential_s"]
    qps_srv = phase["requests"] / phase["served_s"]
    threshold = f"(required >= {required:.1f}x)" if required else "(informational)"
    print(f"[{name}]  {phase['requests']} requests, concurrency {CONCURRENCY}")
    print(f"  {'sequential':<12}{1000 * phase['sequential_s']:>10.1f} ms   {qps_seq:>8.1f} q/s")
    print(f"  {'served':<12}{1000 * phase['served_s']:>10.1f} ms   {qps_srv:>8.1f} q/s")
    print(f"  {'speedup':<12}{phase['speedup']:>10.2f} x   {threshold}")
    print(f"  {'parity':<12}{'identical' if phase['mismatches'] == 0 else 'MISMATCH':>10}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI mode: asserts serve-vs-direct parity only and reports "
        "the speedups (timing thresholds are left to the full run to avoid "
        "flaking on noisy shared runners)",
    )
    parser.add_argument(
        "--output",
        default=SNAPSHOT_PATH,
        help="where to write the BENCH_serve_throughput.json snapshot",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        num_queries, repeats = 16, 1
        coalesce_floor = stack_floor = None
    else:
        num_queries, repeats = 48, 3
        coalesce_floor, stack_floor = 1.5, 2.0

    model, db, items = build_fixture(num_queries)
    model.predict_join_orders(db.name, items[:4])  # warm BLAS + code paths

    print(f"Micro-batched serving vs sequential calls ({CONCURRENCY} clients)")
    print("-" * 64)
    coalesce = measure_phase(model, db, items, plan_cache_size=0, repeats=repeats)
    print_phase("coalescing only — distinct queries, plan cache off", coalesce, coalesce_floor)
    stream = repeated_stream(items, occurrences=2)
    stack = measure_phase(model, db, stream, plan_cache_size=1024, repeats=repeats)
    print_phase("serving stack — repeated queries, plan cache on", stack, stack_floor)
    print()
    print(format_serving_report(stack["report"]))

    snapshot_file = write_snapshot(
        args.output,
        {
            "benchmark": "serve_throughput",
            "smoke": args.smoke,
            "client_concurrency": CONCURRENCY,
            "phases": {
                "coalescing": report_snapshot(coalesce["report"]),
                "serving_stack": report_snapshot(stack["report"]),
            },
            "speedups": {
                "coalescing_vs_sequential": round(coalesce["speedup"], 3),
                "serving_stack_vs_sequential": round(stack["speedup"], 3),
            },
        },
    )
    print(f"snapshot: {snapshot_file}")

    failed = False
    for name, phase, floor in (
        ("coalescing", coalesce, coalesce_floor),
        ("serving stack", stack, stack_floor),
    ):
        if phase["mismatches"]:
            print(f"FAIL: {phase['mismatches']} order mismatches in {name} phase", file=sys.stderr)
            failed = True
        if floor is not None and phase["speedup"] < floor:
            print(
                f"FAIL: {name} speedup {phase['speedup']:.2f}x below required {floor:.1f}x",
                file=sys.stderr,
            )
            failed = True
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
