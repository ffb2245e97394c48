"""Benchmark: decode-path trajectory for Trans_JO beam search.

Two phases over the same workload (beam width 8, 8-table queries):

- ``sequential``   — one decoder forward per beam per timestep (the
  reference path, with a per-search KV cache).
- ``fast_batched`` — the lockstep batched search (one decoder forward
  per step for all beams, per-decode KV cache, session scratch arena).

Both run under ``nn.no_grad()``.  Candidates from both phases are
verified bit-identical before any timing is trusted.  Timing is interleaved (one repeat of each phase per round,
best-of-N) so CPU frequency drift hits all phases equally.

Run:
    PYTHONPATH=src python benchmarks/bench_batched_decode.py                 # full: asserts gates
    PYTHONPATH=src python benchmarks/bench_batched_decode.py --smoke         # CI: parity + report
    PYTHONPATH=src python benchmarks/bench_batched_decode.py --profile       # per-op kernel counters
    PYTHONPATH=src python benchmarks/bench_batched_decode.py \
        --save BENCH_decode.json                                             # write snapshot
    PYTHONPATH=src python benchmarks/bench_batched_decode.py \
        --check-against BENCH_decode.json                                    # perf trajectory gate

The ``--check-against`` mode fails when the fresh fast-vs-sequential
speedup falls more than 15% below the committed snapshot's — the perf
trajectory gate: batching may only gain relative to the sequential
reference, measured in the same process.  A slowdown of every op hits
both phases alike and is invisible to this ratio; compare absolute
``fast_batched`` times against a parent checkout for that.

This file is a standalone script (not collected by the tier-1 pytest
run) so the CI decode-speed job can run it directly.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

import numpy as np

import repro.nn as nn
from repro.core import ModelConfig, TransJO
from repro.core.beam import (
    beam_search_join_order,
    beam_search_join_order_sequential,
)

# The batched search may regress to no less than this fraction of the
# committed snapshot's fast-vs-sequential speedup (--check-against).
REGRESSION_TOLERANCE = 0.85
# Absolute within-run floor on batched vs sequential asserted by the
# full run; it sits below the recorded ratio so shared-runner noise
# cannot flake the gate, while the trajectory check keeps it honest.
SEQ_VS_BATCHED_FLOOR = 2.5


def random_connected_adjacency(m: int, rng: np.random.Generator, extra_edges: int = 2) -> np.ndarray:
    """A connected join graph: a random spanning tree plus a few extras."""
    adj = np.zeros((m, m), dtype=bool)
    order = rng.permutation(m)
    for i in range(1, m):
        a, b = order[i], order[rng.integers(0, i)]
        adj[a, b] = adj[b, a] = True
    for _ in range(extra_edges):
        a, b = rng.integers(0, m, size=2)
        if a != b:
            adj[a, b] = adj[b, a] = True
    return adj


def build_cases(num_queries: int, m: int, d_model: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [
        (nn.Tensor(rng.normal(size=(1, m, d_model))), random_connected_adjacency(m, rng))
        for _ in range(num_queries)
    ]


def _candidate_key(candidates):
    return [(c.positions, c.log_prob, c.legal) for c in candidates]


def run_benchmark(
    num_queries: int = 8,
    m: int = 8,
    beam_width: int = 8,
    d_model: int = 48,
    decoder_layers: int = 2,
    repeats: int = 7,
    seed: int = 0,
) -> dict:
    config = ModelConfig(d_model=d_model, num_heads=4, decoder_layers=decoder_layers)
    trans_jo = TransJO(config, np.random.default_rng(seed))
    trans_jo.eval()
    cases = build_cases(num_queries, m, d_model, seed=seed + 1)
    scratch = nn.ScratchArena()  # stands in for InferenceSession.scratch

    def sequential():
        return [
            beam_search_join_order_sequential(trans_jo, memory, adjacency, beam_width=beam_width)
            for memory, adjacency in cases
        ]

    def fast_batched():
        return [
            beam_search_join_order(trans_jo, memory, adjacency, beam_width=beam_width, scratch=scratch)
            for memory, adjacency in cases
        ]

    phases = {"sequential": sequential, "fast_batched": fast_batched}

    # Parity first: the speedup is meaningless if the answers differ.
    # (This run doubles as warmup for every phase.)
    results = {name: [_candidate_key(q) for q in fn()] for name, fn in phases.items()}
    reference = results["sequential"]
    mismatches = sum(
        1
        for name, result in results.items()
        for got, want in zip(result, reference)
        if got != want
    )

    # Interleaved best-of-N: each round times every phase once, so slow
    # drift (thermal / frequency scaling) cannot bias one phase.  GC is
    # paused inside the timed region (standard timeit hygiene — allocation
    # churn otherwise triggers collections at random points, smearing
    # several ms onto whichever phase is running).
    best = {name: float("inf") for name in phases}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for name, fn in phases.items():
                t0 = time.perf_counter()
                fn()
                best[name] = min(best[name], time.perf_counter() - t0)
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()

    fast_s, seq_s = best["fast_batched"], best["sequential"]
    return {
        "meta": {
            "num_queries": num_queries,
            "m": m,
            "beam_width": beam_width,
            "d_model": d_model,
            "decoder_layers": decoder_layers,
            "repeats": repeats,
            "seed": seed,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "mismatches": mismatches,
        "phases_ms": {name: 1000.0 * seconds for name, seconds in best.items()},
        "qps": {name: num_queries / seconds for name, seconds in best.items()},
        "speedups": {"fast_vs_sequential": seq_s / fast_s},
    }


def save_snapshot(result: dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")


def check_against(result: dict, path: str) -> list[str]:
    """Perf-trajectory gate: compare a fresh run to the committed snapshot.

    Returns a list of failure messages (empty = pass).  Only ratios are
    compared — absolute times differ across machines, but the
    batched/sequential ratio is a property of the code, measured within
    one process.
    """
    with open(path) as f:
        snapshot = json.load(f)
    failures = []
    committed = snapshot["speedups"]["fast_vs_sequential"]
    fresh = result["speedups"]["fast_vs_sequential"]
    floor = committed * REGRESSION_TOLERANCE
    if fresh < floor:
        failures.append(
            f"fast_vs_sequential speedup regressed: fresh {fresh:.2f}x < "
            f"{floor:.2f}x ({REGRESSION_TOLERANCE:.0%} of committed {committed:.2f}x)"
        )
    return failures


def report(result: dict, required_seq: float | None) -> None:
    meta = result["meta"]
    print("Trans_JO decode trajectory: sequential / fast batched")
    print("-" * 68)
    print(
        f"queries={meta['num_queries']}  tables={meta['m']}  "
        f"beam_width={meta['beam_width']}  d_model={meta['d_model']}  "
        f"layers={meta['decoder_layers']}"
    )
    for name, ms in result["phases_ms"].items():
        print(f"{name:<16}{ms:>10.1f} ms   {result['qps'][name]:>8.1f} qps")
    seq_gate = f"(required >= {required_seq:.1f}x)" if required_seq else "(informational)"
    print(f"{'fast vs seq':<16}{result['speedups']['fast_vs_sequential']:>10.2f} x   {seq_gate}")
    parity = "bit-identical" if result["mismatches"] == 0 else "MISMATCH"
    print(f"{'parity':<16}{parity:>13}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI mode: asserts candidate parity only and reports the "
        "speedups (timing thresholds are left to the full run to avoid "
        "flaking on noisy shared runners)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the fast phase under kernels.profiled() and dump per-op "
        "call / time / allocation counters",
    )
    parser.add_argument("--save", metavar="PATH", help="write the result snapshot as JSON")
    parser.add_argument(
        "--check-against",
        metavar="PATH",
        help="fail if the fresh fast-vs-sequential speedup is more than 15%% below "
        "the committed snapshot's (perf trajectory gate)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        # Best of 5: with best of 2, host noise at this run length put 2 of
        # 11 readings below the --check-against floor while full runs of
        # the same code never came near it.
        result = run_benchmark(num_queries=4, m=8, beam_width=8, repeats=5)
        required_seq = None
    else:
        result = run_benchmark(num_queries=8, m=8, beam_width=8, repeats=7)
        required_seq = SEQ_VS_BATCHED_FLOOR

    report(result, required_seq)

    if args.profile:
        config = ModelConfig(d_model=48, num_heads=4, decoder_layers=2)
        trans_jo = TransJO(config, np.random.default_rng(0))
        trans_jo.eval()
        cases = build_cases(result["meta"]["num_queries"], 8, 48, seed=1)
        scratch = nn.ScratchArena()
        with nn.kernels.profiled() as profile:
            for memory, adjacency in cases:
                beam_search_join_order(trans_jo, memory, adjacency, beam_width=8, scratch=scratch)
        print()
        print("batched-decode kernel profile (one decode sweep):")
        print(profile.table())

    if args.save:
        save_snapshot(result, args.save)
        print(f"snapshot written to {args.save}")

    failures = []
    if result["mismatches"]:
        failures.append(f"{result['mismatches']} candidate mismatches between decode paths")
    if required_seq is not None and result["speedups"]["fast_vs_sequential"] < required_seq:
        failures.append(
            f"fast_vs_sequential speedup {result['speedups']['fast_vs_sequential']:.2f}x "
            f"below required {required_seq:.1f}x"
        )
    if args.check_against:
        failures.extend(check_against(result, args.check_against))

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
