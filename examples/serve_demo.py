"""Demo: serving concurrent optimizer traffic with micro-batching.

Spins up the always-on serving layer (``repro.serve``) over a trained
MTMLF-QO model — one drain worker decoding on the current model — and
fires a production-shaped request stream at it from 16 concurrent
clients: queries repeat (hot queries hit the LRU plan
cache), concurrent distinct queries coalesce into batched
``predict_join_orders`` calls, and a sprinkle of malformed requests
shows per-request error isolation.  Midway, the serving model is
hot-swapped from a checkpoint while traffic keeps flowing (a rolling
update that atomically flips the serving session, with no restart and
no lost request).  Ends with the serving report — throughput, latency
percentiles, batch sizes, cache hit rate, swap count — and a parity
spot-check against direct calls.

The whole run is observed: a ``repro.obs.Telemetry`` handle records
request traces (queue -> batch -> decode -> cache), the drain worker's
busy-time histogram, and the tenant's SLO burn rate, and the demo writes the
snapshot to ``serve_demo_telemetry.json`` — render it afterwards with
``PYTHONPATH=src python -m repro.obs serve_demo_telemetry.json``.

Run:  PYTHONPATH=src python examples/serve_demo.py
"""

import os
import random
import tempfile
import threading

from repro.core import (
    DatabaseFeaturizer,
    JointTrainer,
    ModelConfig,
    MTMLFQO,
    save_checkpoint,
)
from repro.datagen import generate_database
from repro.engine.plan import scan_node
from repro.eval import format_serving_report
from repro.obs import Telemetry, write_snapshot
from repro.serve import OptimizerService, ServeConfig
from repro.sql import Query
from repro.workload import LabeledQuery, QueryLabeler, WorkloadConfig, WorkloadGenerator

CONCURRENCY = 16
REQUESTS_PER_CLIENT = 12
SNAPSHOT_PATH = os.path.join(os.path.dirname(__file__), "..", "serve_demo_telemetry.json")


def main() -> None:
    print("=== 1. Build a database, workload and model ===")
    db = generate_database(seed=3, num_tables=6, row_range=(100, 400), attr_range=(2, 3))
    config = ModelConfig(d_model=48, shared_layers=2, decoder_layers=2)
    featurizer = DatabaseFeaturizer(db, config)
    featurizer.train_encoders(queries_per_table=6, epochs=3)
    generator = WorkloadGenerator(db, WorkloadConfig(min_tables=3, max_tables=5, seed=1))
    pool = QueryLabeler(db).label_many(generator.generate(32), with_optimal_order=False)
    model = MTMLFQO(config)
    model.attach_featurizer(db.name, featurizer)
    print(f"database {db.name!r}, {len(pool)} distinct queries in the request pool")

    print("\n=== 2. Start the micro-batching optimizer service ===")
    serve_config = ServeConfig(max_batch_size=CONCURRENCY, max_wait_ms=3.0, plan_cache_size=256)
    print(f"batching: up to {serve_config.max_batch_size} requests / "
          f"{serve_config.max_wait_ms} ms window; plan cache {serve_config.plan_cache_size} entries")

    # A request no optimizer can serve: a disconnected join graph.
    poison = LabeledQuery(
        query=Query(tables=["alpha", "beta"], joins=[], filters={}),
        plan=scan_node("alpha"),
        node_cardinalities=[1],
        node_costs=[1.0],
        total_time_ms=0.0,
    )

    answered: dict[int, list[str]] = {}
    isolated_errors: list[str] = []
    lock = threading.Lock()

    def client(slot: int, service: OptimizerService) -> None:
        rng = random.Random(slot)
        for step in range(REQUESTS_PER_CLIENT):
            if slot == 0 and step == 5:  # one client misbehaves once
                try:
                    service.optimize(poison)
                except ValueError as error:
                    with lock:
                        isolated_errors.append(str(error))
                continue
            index = rng.randrange(len(pool))
            order = service.optimize(pool[index])
            with lock:
                answered[index] = order

    telemetry = Telemetry()
    with OptimizerService(model, db.name, serve_config, telemetry=telemetry) as service:
        threads = [threading.Thread(target=client, args=(slot, service)) for slot in range(CONCURRENCY)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        print(f"served {service.report().completed} requests from "
              f"{CONCURRENCY} concurrent clients")
        print(f"rejected poison request with: {isolated_errors[0][:72]}...")

        print("\n=== 3. Live model hot-swap (rolling update, no restart) ===")
        # Retrain offline, checkpoint, and swap the running service onto
        # the new weights: in-flight requests finish on the old model,
        # the plan cache invalidates, and no request is lost.
        retrained = MTMLFQO(config)
        retrained.attach_featurizer(db.name, featurizer)
        JointTrainer(retrained).train(
            [(db.name, item) for item in pool], epochs=3, batch_size=8
        )
        with tempfile.TemporaryDirectory() as checkpoint_dir:
            path = save_checkpoint(retrained, os.path.join(checkpoint_dir, "v2"))
            swap_threads = [
                threading.Thread(target=client, args=(slot, service))
                for slot in range(1, CONCURRENCY)  # traffic keeps flowing...
            ]
            for thread in swap_threads:
                thread.start()
            service.swap_model(path)               # ...while the model swaps
            for thread in swap_threads:
                thread.join()
        post_swap = service.optimize(pool[0])
        expected = retrained.predict_join_orders(db.name, [pool[0]])[0]
        print(f"swapped under load; post-swap order served by the new model: "
              f"{post_swap == expected}")

        # One more clean round: everything below is post-swap traffic.
        answered.clear()
        final_threads = [
            threading.Thread(target=client, args=(slot, service))
            for slot in range(1, CONCURRENCY)
        ]
        for thread in final_threads:
            thread.start()
        for thread in final_threads:
            thread.join()
        report = service.report()

    print("\n=== 4. Serving report ===")
    print(format_serving_report(report))

    print("\n=== 5. Parity spot-check against direct model calls ===")
    indices = sorted(answered)[:8]
    direct = retrained.predict_join_orders(db.name, [pool[i] for i in indices])
    agreement = sum(answered[i] == order for i, order in zip(indices, direct))
    print(f"post-swap served orders identical to direct calls: {agreement}/{len(indices)}")

    print("\n=== 6. Telemetry snapshot ===")
    complete = telemetry.tracer.complete_traces({"queue_wait", "batch", "decode"})
    status = telemetry.slo.status(db.name)
    print(f"{len(telemetry.tracer.spans())} spans in the trace ring, "
          f"{len(complete)} complete request traces")
    print(f"SLO: {status.window} requests in window, {status.violations} violations, "
          f"burn {status.burn_rate:.2f}x of budget")
    snapshot_path = write_snapshot(SNAPSHOT_PATH, telemetry.snapshot())
    print(f"snapshot written: {os.path.abspath(snapshot_path)}")
    print("  render it with: PYTHONPATH=src python -m repro.obs "
          f"{os.path.relpath(snapshot_path)}")
    print("\ndone — see DESIGN.md 'Serving architecture', 'Model lifecycle'"
          " and 'Observability'")


if __name__ == "__main__":
    main()
