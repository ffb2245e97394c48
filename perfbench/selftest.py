"""Self-tests of the benchmark harness (not of the program under test).

From the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys
import threading
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import fixtures, layers  # noqa: E402
from perfbench.reference import Reference  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.spans import ID, NAME, PARENT, ROOT as ROOT_FIELD, SpanIndex, SpanRecorder  # noqa: E402


def span(span_id, parent, root, name, start, end):
    return [span_id, parent, root, name, 1, start, end, None]


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        spans = [
            span(1, 0, 1, "batch", 0.0, 10.0),
            span(2, 1, 1, "a", 1.0, 3.0),
            span(3, 1, 1, "b", 2.0, 4.0),      # overlaps a: covered once
            span(4, 1, 1, "c", 8.0, 9.0),
            span(5, 2, 1, "d", 1.5, 2.5),      # grandchild: only a loses it
        ]
        index = SpanIndex(spans)
        self.assertAlmostEqual(index.self_s[1], 10.0 - 3.0 - 1.0)
        self.assertAlmostEqual(index.self_s[2], 2.0 - 1.0)
        self.assertAlmostEqual(index.self_s[5], 1.0)
        self.assertAlmostEqual(index.self_ms("batch"), 6000.0)

    def test_nested_self_times_add_up_to_the_root(self):
        recorder = SpanRecorder()

        def leaf():
            with recorder.span("leaf"):
                sum(range(2000))

        with recorder.span("batch"):
            for _ in range(3):
                with recorder.span("mid"):
                    leaf()
                    sum(range(1000))
        index = SpanIndex(recorder.spans)
        total = index.inclusive_ms("batch")
        parts = index.self_ms("batch") + index.self_ms("mid") + index.self_ms("leaf")
        self.assertAlmostEqual(parts, total, delta=1e-9 * total)
        by_name = {s[NAME]: s for s in recorder.spans}
        self.assertEqual(by_name["leaf"][PARENT], by_name["mid"][ID])
        self.assertEqual(by_name["leaf"][ROOT_FIELD], by_name["batch"][ID])

    def test_threads_keep_separate_stacks(self):
        recorder = SpanRecorder()
        barrier = threading.Barrier(2)

        def work():
            with recorder.span("outer"):
                barrier.wait(timeout=10)
                with recorder.span("inner"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            self.assertFalse(thread.is_alive())
        index = SpanIndex(recorder.spans)
        for inner in index.select("inner"):
            parent = index.by_id[inner[PARENT]]
            self.assertEqual(parent[NAME], "outer")
            self.assertEqual(parent[4], inner[4])


class Base:
    def work(self, x):
        return x + 1


class Derived(Base):
    def own(self, x):
        return self.work(x) * 2


def module_level(x):
    return x * 3


class WrapRestoreTest(unittest.TestCase):
    def test_wrappers_record_and_are_restored(self):
        module = sys.modules[__name__]
        originals = (Derived.__dict__["own"], Base.__dict__["work"], module_level)
        recorder = SpanRecorder()
        targets = [(Derived, "own", "own"), (Derived, "work", "work"),
                   (module, "module_level", "module", lambda args: args[0])]
        with recorder.wrapped(targets):
            self.assertEqual(Derived().own(1), 4)
            self.assertEqual(module.module_level(2), 6)
        self.assertIs(Derived.__dict__["own"], originals[0])
        self.assertNotIn("work", Derived.__dict__)          # inherited again
        self.assertIs(Base.__dict__["work"], originals[1])
        self.assertIs(module.module_level, originals[2])
        names = sorted(s[NAME] for s in recorder.spans)
        self.assertEqual(names, ["module", "own", "work"])
        self.assertEqual([s[7] for s in recorder.spans if s[NAME] == "module"], [2])

    def test_restore_after_an_error_and_double_wrap(self):
        original = Base.__dict__["work"]
        recorder = SpanRecorder()
        with self.assertRaises(ZeroDivisionError):
            with recorder.wrapped([(Base, "work", "one"), (Base, "work", "two")]):
                Base().work(1)
                1 / 0
        self.assertIs(Base.__dict__["work"], original)
        self.assertEqual(sorted(s[NAME] for s in recorder.spans), ["one", "two"])

    def test_every_layer_target_exists(self):
        for owner, attr, *_ in layers.targets():
            self.assertTrue(callable(getattr(owner, attr)), f"{owner}.{attr}")


class ZipfStreamTest(unittest.TestCase):
    def test_same_seed_same_stream(self):
        a = fixtures.zipf_stream(11, 384, 5000)
        b = fixtures.zipf_stream(11, 384, 5000)
        self.assertEqual(a.tolist(), b.tolist())
        self.assertNotEqual(a.tolist(), fixtures.zipf_stream(12, 384, 5000).tolist())

    def test_stream_is_skewed_over_the_whole_pool(self):
        stream = fixtures.zipf_stream(3, 384, 20000)
        counts = sorted(((stream == i).sum() for i in range(384)), reverse=True)
        self.assertTrue(0 <= stream.min() and stream.max() < 384)
        # Zipf(1) over 384 items: the top item draws ~15%, the top 64 ~73%.
        self.assertGreater(counts[0] / 20000, 0.12)
        self.assertAlmostEqual(sum(counts[:64]) / 20000, 0.725, delta=0.03)

    def test_hottest_queries_cover_every_table_count(self):
        stream = fixtures.zipf_stream(9, 384, 20000)
        hottest = sorted(range(384), key=lambda i: -(stream == i).sum())[:4]
        self.assertEqual(sorted(i % 4 for i in hottest), [0, 1, 2, 3])

    def test_sub_seeds_are_stable_prefixes(self):
        self.assertEqual(fixtures.sub_seeds(5, 3), fixtures.sub_seeds(5, 4)[:3])


class ReferenceTest(unittest.TestCase):
    def test_readings_are_kept_and_summarised(self):
        reference = Reference()
        readings = [reference.read() for _ in range(5)]
        self.assertEqual(reference.readings, readings)
        self.assertTrue(all(0 < r < 1 for r in readings))
        self.assertAlmostEqual(reference.median_ms(), 1000 * sorted(readings)[2])


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, PER_LAYER)


if __name__ == "__main__":
    unittest.main()
