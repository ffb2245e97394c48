"""Tests for the concurrency & invariant analyzer (repro.analysis).

Three layers of evidence:

- **meta-tests** — every checker fires on a fixture snippet seeded with
  its violation, and stays silent on the disciplined version of the
  same code (no false positives);
- **escape hatches** — inline suppressions, ``# holds:`` / coarse-lock
  annotations, and the fingerprint baseline behave as documented;
- **runtime layer** — the lock monitor catches a deliberately inverted
  lock pair acquired by real threads (no deadlock required), flags
  over-threshold holds, and instruments the live serving objects.

Plus the enforcement test CI relies on: the real checkers over the real
``src/repro`` tree produce zero findings.
"""

import json
import threading
import time
from pathlib import Path

import pytest

from repro.analysis import Baseline, Linter, LockMonitor, LockOrderError
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.checks import (
    AtomicWriteChecker,
    GradModeChecker,
    GuardedByChecker,
    LockDisciplineChecker,
    ObsDisciplineChecker,
    RawKernelChecker,
    ScratchPrivacyChecker,
    SilentExceptChecker,
    ThreadDisciplineChecker,
    WallClockChecker,
)
from repro.analysis.checks.grad_mode import GradModeScope
from repro.analysis.checks.lock_discipline import EntryLockRule
from repro.analysis.linter import SourceModule

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def run_checker(checker, source: str, rel_path: str = "fixture/mod.py"):
    module = SourceModule(source, rel_path)
    return [f for f in checker.check(module) if not module.suppressed(f)]


# ---------------------------------------------------------------------------
# guarded-by
# ---------------------------------------------------------------------------
class TestGuardedByChecker:
    BAD = """
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0  # guarded-by: _lock
        self.items = []  # guarded-by: _lock
        self.table = {}  # guarded-by: _lock

    def bump(self):
        self.count += 1

    def push(self):
        self.items.append(1)

    def index(self):
        self.table["k"] = 1

    def wipe(self):
        del self.table
"""

    def test_every_unguarded_mutation_fires(self):
        findings = run_checker(GuardedByChecker(), self.BAD)
        assert len(findings) == 4
        assert {f.symbol for f in findings} == {
            "Box.bump", "Box.push", "Box.index", "Box.wipe",
        }
        assert all(f.checker == "guarded-by" for f in findings)

    def test_clean_class_is_silent(self):
        good = """
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0  # guarded-by: _lock
        self.items = []  # guarded-by: _lock

    def bump(self):
        with self._lock:
            self.count += 1
            self.items.append(1)

    def read(self):
        with self._lock:
            return self.count
"""
        assert run_checker(GuardedByChecker(), good) == []

    def test_unguarded_read_fires(self):
        source = """
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0  # guarded-by: _lock

    def peek(self):
        return self.count

    def describe(self):
        return f"count={self.count}"
"""
        findings = run_checker(GuardedByChecker(), source)
        assert len(findings) == 2
        assert {f.symbol for f in findings} == {"Box.peek", "Box.describe"}
        assert all("read without holding" in f.message for f in findings)

    def test_mutation_access_is_not_double_reported_as_read(self):
        # `self.items.append(...)` and `self.table[k] = ...` both *load*
        # the guarded attribute on the way to mutating it; each access
        # must produce exactly one (mutation) finding.  The BAD fixture
        # counts of test_every_unguarded_mutation_fires cover the
        # unguarded side; this covers the in-lock side staying silent.
        source = """
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self.items = []  # guarded-by: _lock
        self.table = {}  # guarded-by: _lock

    def push(self):
        with self._lock:
            self.items.append(1)
            self.table["k"] = len(self.items)
"""
        assert run_checker(GuardedByChecker(), source) == []

    def test_read_respects_locked_suffix_and_holds_comment(self):
        source = """
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0  # guarded-by: _lock

    def _peek_locked(self):
        return self.count

    def peek_for_caller(self):  # holds: _lock
        return self.count
"""
        assert run_checker(GuardedByChecker(), source) == []

    def test_condition_alias_counts_as_holding_the_lock(self):
        source = """
import threading

class Q:
    def __init__(self):
        self._mutex = threading.Lock()
        self._nonempty = threading.Condition(self._mutex)
        self.jobs = []  # guarded-by: _mutex

    def put(self, job):
        with self._nonempty:
            self.jobs.append(job)
"""
        assert run_checker(GuardedByChecker(), source) == []

    def test_class_registry_declares_fields(self):
        source = """
import threading

class R:
    _guarded_by_ = {"total": "_lock"}

    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0

    def bump(self):
        self.total += 1
"""
        findings = run_checker(GuardedByChecker(), source)
        assert len(findings) == 1 and findings[0].symbol == "R.bump"

    def test_locked_suffix_and_holds_comment_are_exempt(self):
        source = """
import threading

class S:
    def __init__(self):
        self._lock = threading.Lock()
        self.n = 0  # guarded-by: _lock

    def _bump_locked(self):
        self.n += 1

    def bump_for_caller(self):  # holds: _lock
        self.n += 1
"""
        assert run_checker(GuardedByChecker(), source) == []

    def test_init_is_exempt(self):
        source = """
import threading

class T:
    def __init__(self):
        self._lock = threading.Lock()
        self.n = 0  # guarded-by: _lock
        self.n = 1  # re-assign during construction: fine
"""
        assert run_checker(GuardedByChecker(), source) == []


# ---------------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------------
class TestLockDisciplineChecker:
    RULES = (EntryLockRule("Model", "_infer_lock", ("predict_a", "predict_b")),)

    def checker(self):
        return LockDisciplineChecker(entry_rules=self.RULES)

    def test_entry_point_without_lock_fires(self):
        source = """
import threading

class Model:
    def __init__(self):
        self._infer_lock = threading.RLock()

    def predict_a(self, x):
        return x + 1
"""
        findings = run_checker(self.checker(), source)
        assert len(findings) == 1 and findings[0].symbol == "Model.predict_a"

    def test_lexical_lock_and_delegation_pass(self):
        source = """
import threading

class Model:
    def __init__(self):
        self._infer_lock = threading.RLock()

    def predict_a(self, x):
        with self._infer_lock:
            return x + 1

    def predict_b(self, x):
        return self.predict_a(x)
"""
        assert run_checker(self.checker(), source) == []

    def test_blocking_calls_under_mutex_fire(self):
        source = """
import threading
import time

class Svc:
    def __init__(self):
        self._mutex = threading.Lock()
        self._worker = None

    def slow(self, model, items):
        with self._mutex:
            time.sleep(0.5)
            self._worker.join()
            model.predict_join_orders(items)
"""
        findings = run_checker(self.checker(), source)
        messages = " | ".join(f.message for f in findings)
        assert len(findings) == 3
        assert "time.sleep" in messages
        assert "join()" in messages
        assert "predict_join_orders()" in messages

    def test_foreign_wait_under_mutex_fires_but_condition_wait_passes(self):
        source = """
import threading

class W:
    def __init__(self):
        self._mutex = threading.Lock()
        self._ready = threading.Condition(self._mutex)
        self._event = threading.Event()

    def good(self):
        with self._ready:
            self._ready.wait()

    def bad(self):
        with self._mutex:
            self._event.wait()
"""
        findings = run_checker(self.checker(), source)
        assert len(findings) == 1 and findings[0].symbol == "W.bad"

    def test_coarse_lock_opts_out_of_blocking_rule(self):
        source = """
import threading

class Round:
    def __init__(self):
        self._round_lock = threading.Lock()  # analysis: coarse-lock

    def run(self, model, items):
        with self._round_lock:
            model.predict_join_orders(items)
"""
        assert run_checker(self.checker(), source) == []


# ---------------------------------------------------------------------------
# grad-mode
# ---------------------------------------------------------------------------
class TestGradModeChecker:
    SCOPES = (GradModeScope("*serve/*.py", "*"),)

    def test_forward_call_outside_no_grad_fires(self):
        source = """
def serve(model, batch):
    return model.forward_batch("db", batch)
"""
        findings = run_checker(
            GradModeChecker(scopes=self.SCOPES), source, "pkg/serve/loop.py"
        )
        assert len(findings) == 1 and "forward_batch" in findings[0].message

    def test_no_grad_wrapped_call_passes(self):
        source = """
from repro import nn

def serve(model, batch):
    with nn.no_grad():
        return model.forward_batch("db", batch)
"""
        assert run_checker(
            GradModeChecker(scopes=self.SCOPES), source, "pkg/serve/loop.py"
        ) == []

    def test_out_of_scope_file_is_ignored(self):
        source = """
def train(model, batch):
    return model.forward_batch("db", batch)  # the trainer needs the tape
"""
        assert run_checker(
            GradModeChecker(scopes=self.SCOPES), source, "pkg/core/trainer.py"
        ) == []

    def test_default_scopes_cover_the_stacked_filter_prefill(self):
        source = """
class MTMLFQO:
    def _prefill_filter_encodings(self, featurizer, pending):
        return featurizer.encode_filters(pending)
"""
        findings = run_checker(GradModeChecker(), source, "repro/core/model.py")
        assert len(findings) == 1 and "encode_filters" in findings[0].message


# ---------------------------------------------------------------------------
# raw-kernel (kernels are called only by their functional ops)
# ---------------------------------------------------------------------------
class TestRawKernelChecker:
    def test_unguarded_kernel_call_fires(self):
        source = """
from repro.nn import kernels

def forward(model, x):
    h = kernels.linear(x, model.w, model.b)
    return model.forward(h)
"""
        findings = run_checker(RawKernelChecker(), source)
        assert len(findings) == 1
        assert "kernels.linear" in findings[0].message

    def test_no_grad_block_guards(self):
        source = """
from repro import nn
from repro.nn import kernels

def forward(model, x):
    with nn.no_grad():
        return kernels.linear(x, model.w, model.b)
"""
        assert run_checker(RawKernelChecker(), source) == []

    def test_functional_module_is_exempt(self):
        # nn/functional.py pairs each kernel with its VJP, so it may call
        # kernels wherever the tape reaches; the same code elsewhere fires.
        source = """
from . import kernels

def relu(x):
    return record(kernels.relu(x.data), x)
"""
        assert run_checker(RawKernelChecker(), source, "repro/nn/functional.py") == []
        assert len(run_checker(RawKernelChecker(), source, "repro/nn/layers.py")) == 1

    def test_not_grad_enabled_and_else_of_grad_enabled_guard(self):
        source = """
from repro import nn
from repro.nn import kernels

def a(x):
    if not nn.is_grad_enabled():
        return kernels.softmax(x)
    return x

def b(model, x):
    if nn.is_grad_enabled():
        return model.slow(x)
    else:
        return kernels.relu(x)
"""
        assert run_checker(RawKernelChecker(), source) == []

    def test_and_conjunction_guards(self):
        source = """
from repro import nn
from repro.nn import kernels

def forward(model, x, fast):
    if fast and not nn.is_grad_enabled():
        return kernels.relu(x)
    return model.slow(x)
"""
        assert run_checker(RawKernelChecker(), source) == []

    def test_infer_named_function_is_not_exempt(self):
        # The name of the enclosing function proves nothing about grad
        # mode: an infer_* method is checked like any other.
        source = """
from repro.nn import kernels

class Layer:
    def infer_forward(self, x):
        def project(v):
            return kernels.matmul(v, self.w)
        return project(x)
"""
        findings = run_checker(RawKernelChecker(), source)
        assert len(findings) == 1 and "kernels.matmul" in findings[0].message

    def test_nested_helper_under_guard_inherits_it(self):
        source = """
from repro import nn
from repro.nn import kernels

def forward(model, x):
    if not nn.is_grad_enabled():
        def step(v):
            return kernels.layer_norm(v, model.g, model.b)
        return step(x)
    return model.slow(x)
"""
        assert run_checker(RawKernelChecker(), source) == []

    def test_unrelated_branch_does_not_guard(self):
        source = """
from repro.nn import kernels

def forward(model, x, fast):
    if fast:
        return kernels.relu(x)
    return model.slow(x)
"""
        findings = run_checker(RawKernelChecker(), source)
        assert len(findings) == 1 and "kernels.relu" in findings[0].message

    def test_kernels_module_itself_is_exempt(self):
        source = """
def linear(x, w, b):
    return matmul(x, w) + b

def fused(x, w, b):
    return kernels.relu(linear(x, w, b))
"""
        assert run_checker(RawKernelChecker(), source, "repro/nn/kernels.py") == []


# ---------------------------------------------------------------------------
# hygiene checkers
# ---------------------------------------------------------------------------
class TestHygieneCheckers:
    def test_raw_savez_fires_and_serializer_module_is_exempt(self):
        source = """
import numpy as np

def dump(path, arrays):
    np.savez(path, **arrays)
"""
        assert len(run_checker(AtomicWriteChecker(), source, "pkg/core/io.py")) == 1
        assert run_checker(AtomicWriteChecker(), source, "pkg/nn/serialize.py") == []

    def test_thread_without_explicit_daemon_fires(self):
        bad = """
import threading

def go():
    threading.Thread(target=print).start()
"""
        good = """
import threading

def go():
    threading.Thread(target=print, daemon=True).start()
"""
        assert len(run_checker(ThreadDisciplineChecker(), bad)) == 1
        assert run_checker(ThreadDisciplineChecker(), good) == []

    def test_silent_except_fires_and_handled_except_passes(self):
        bad = """
def f():
    try:
        g()
    except Exception:
        pass
"""
        good = """
def f(log):
    try:
        g()
    except Exception as error:
        log.append(error)
"""
        assert len(run_checker(SilentExceptChecker(), bad)) == 1
        assert run_checker(SilentExceptChecker(), good) == []

    def test_wall_clock_fires_and_monotonic_passes(self):
        bad = """
import time

def span():
    return time.time()
"""
        good = """
import time

def span():
    return time.monotonic() or time.perf_counter()
"""
        assert len(run_checker(WallClockChecker(), bad)) == 1
        assert run_checker(WallClockChecker(), good) == []

    def test_module_and_class_scoped_scratch_fire(self):
        bad = """
from repro import nn

ARENA = nn.ScratchArena()

class Decoder:
    cache = nn.KVCache(None)
"""
        findings = run_checker(ScratchPrivacyChecker(), bad)
        assert len(findings) == 2
        assert "<module>" in findings[0].message and "ScratchArena" in findings[0].message
        assert "class Decoder" in findings[1].message and "KVCache" in findings[1].message

    def test_owner_scoped_scratch_passes(self):
        good = """
from repro import nn

class Session:
    def __init__(self):
        self.scratch = nn.ScratchArena()

def decode(memory):
    cache = nn.KVCache(memory)
    return cache
"""
        assert run_checker(ScratchPrivacyChecker(), good) == []


# ---------------------------------------------------------------------------
# obs-discipline
# ---------------------------------------------------------------------------
class TestObsDisciplineChecker:
    def test_imperative_span_api_fires_outside_obs(self):
        bad = """
def serve(tracer, tid):
    span = tracer.start_span(tid, "decode")
    result = work()
    tracer.end_span(span)
    return result
"""
        findings = run_checker(ObsDisciplineChecker(), bad)
        assert len(findings) == 2
        assert "start_span" in findings[0].message
        assert "with tracer.span" in findings[0].message

    def test_imperative_span_api_allowed_inside_obs(self):
        source = """
def serve(tracer, tid):
    span = tracer.start_span(tid, "decode")
    tracer.end_span(span)
"""
        assert run_checker(
            ObsDisciplineChecker(), source, rel_path="src/repro/obs/trace.py"
        ) == []

    def test_context_manager_span_passes(self):
        good = """
def serve(tracer, tid):
    with tracer.span(tid, "decode") as span:
        span.set("queries", 3)
        return work()
"""
        assert run_checker(ObsDisciplineChecker(), good) == []

    def test_recording_under_own_lock_fires(self):
        bad = """
import threading

class Service:
    def __init__(self, telemetry):
        self._mutex = threading.Lock()
        self.telemetry = telemetry
        self.completed = None

    def done(self, latency):
        with self._mutex:
            self.completed.inc()
            self.latency.observe(latency)
            self.batch.update_max(4)
            self.telemetry.slo.record("tenant", latency)
"""
        findings = run_checker(ObsDisciplineChecker(), bad)
        assert len(findings) == 4
        assert all(f.checker == "obs-discipline" for f in findings)
        assert all("self._mutex" in f.message for f in findings)
        assert {f.symbol for f in findings} == {"Service.done"}

    def test_recording_after_lock_release_passes(self):
        good = """
import threading

class Service:
    def __init__(self):
        self._mutex = threading.Lock()
        self.count = 0  # guarded-by: _mutex

    def done(self, latency):
        with self._mutex:
            self.count += 1
        self.completed.inc()
        self.latency.observe(latency)
"""
        assert run_checker(ObsDisciplineChecker(), good) == []

    def test_generic_record_and_set_do_not_fire(self):
        # .record on a non-telemetry receiver and .set on anything are
        # too generic to match; only slo/tracer record sites count.
        good = """
import threading

class Recorder:
    def __init__(self):
        self._lock = threading.Lock()

    def note(self, value):
        with self._lock:
            self.journal.record(value)
            self.flags.set(value)
"""
        assert run_checker(ObsDisciplineChecker(), good) == []

    def test_suppression_silences(self):
        source = """
import threading

class Service:
    def __init__(self):
        self._mutex = threading.Lock()

    def done(self):
        with self._mutex:
            self.completed.inc()  # analysis: ignore[obs-discipline]
"""
        assert run_checker(ObsDisciplineChecker(), source) == []


# ---------------------------------------------------------------------------
# suppressions, fingerprints, baseline
# ---------------------------------------------------------------------------
class TestEscapeHatches:
    BAD_LINE = """
import time

def span():
    return time.time()  # analysis: ignore[wall-clock] — epoch stamp, not latency
"""

    def test_inline_suppression_silences_named_checker(self):
        assert run_checker(WallClockChecker(), self.BAD_LINE) == []

    def test_bare_suppression_silences_everything(self):
        source = self.BAD_LINE.replace("ignore[wall-clock]", "ignore")
        assert run_checker(WallClockChecker(), source) == []

    def test_suppression_for_other_checker_does_not_silence(self):
        source = self.BAD_LINE.replace("wall-clock", "guarded-by")
        assert len(run_checker(WallClockChecker(), source)) == 1

    def test_fingerprint_is_stable_across_line_drift(self):
        source = "import time\n\ndef span():\n    return time.time()\n"
        shifted = "import time\n\n\n\n\ndef span():\n    return time.time()\n"
        (a,) = run_checker(WallClockChecker(), source)
        (b,) = run_checker(WallClockChecker(), shifted)
        assert a.line != b.line and a.fingerprint == b.fingerprint

    def test_baseline_matches_and_reports_stale_entries(self):
        (finding,) = run_checker(WallClockChecker(), "import time\n\ndef f():\n    return time.time()\n")
        baseline = Baseline({finding.fingerprint, "wall-clock:gone.py:f:deadbeef0000"})
        assert baseline.contains(finding)
        assert baseline.unused == {"wall-clock:gone.py:f:deadbeef0000"}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCLI:
    BAD_FILE = "import time\n\ndef f():\n    return time.time()\n"

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("import time\n\ndef f():\n    return time.monotonic()\n")
        assert analysis_main([str(tmp_path), "--no-baseline", "--fail-on-findings"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_fail_only_with_flag(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(self.BAD_FILE)
        assert analysis_main([str(tmp_path), "--no-baseline"]) == 0
        assert analysis_main([str(tmp_path), "--no-baseline", "--fail-on-findings"]) == 1
        assert "[wall-clock]" in capsys.readouterr().out

    def test_write_baseline_then_clean_then_stale(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(self.BAD_FILE)
        baseline = tmp_path / "baseline.txt"
        assert analysis_main(
            [str(tmp_path), "--baseline", str(baseline), "--write-baseline"]
        ) == 0
        # Baselined: the finding no longer fails CI.
        assert analysis_main(
            [str(tmp_path), "--baseline", str(baseline), "--fail-on-findings"]
        ) == 0
        # Fixing the violation makes the baseline entry stale — exit 2.
        (tmp_path / "bad.py").write_text("def f():\n    return 0\n")
        assert analysis_main(
            [str(tmp_path), "--baseline", str(baseline), "--fail-on-findings"]
        ) == 2
        assert "stale" in capsys.readouterr().err

    def test_json_output_is_machine_readable(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(self.BAD_FILE)
        assert analysis_main([str(tmp_path), "--no-baseline", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        (finding,) = payload["findings"]
        assert finding["checker"] == "wall-clock" and finding["fingerprint"]

    def test_unparseable_file_is_a_finding_not_a_crash(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        assert analysis_main([str(tmp_path), "--no-baseline", "--fail-on-findings"]) == 1


# ---------------------------------------------------------------------------
# the enforcement test: the real tree is clean
# ---------------------------------------------------------------------------
class TestRepoIsClean:
    def test_src_repro_has_zero_findings(self):
        findings = Linter().run_paths([SRC_ROOT], root=SRC_ROOT.parent.parent)
        assert findings == [], "\n" + "\n".join(f.format() for f in findings)


# ---------------------------------------------------------------------------
# runtime lock monitor
# ---------------------------------------------------------------------------
@pytest.mark.threaded
class TestLockMonitor:
    def test_inverted_pair_across_threads_is_caught_without_deadlock(self):
        """Thread 1 takes A→B, thread 2 takes B→A — sequenced so no
        deadlock ever occurs, yet the cycle is detected."""
        monitor = LockMonitor()
        lock_a = monitor.lock("A")
        lock_b = monitor.lock("B")
        first_done = threading.Event()

        def one():
            with lock_a:
                with lock_b:
                    pass
            first_done.set()

        def two():
            first_done.wait(5.0)
            with lock_b:
                with lock_a:
                    pass

        threads = [threading.Thread(target=one), threading.Thread(target=two)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with pytest.raises(LockOrderError, match="lock-order inversion"):
            monitor.check()

    def test_consistent_order_is_clean(self):
        monitor = LockMonitor()
        lock_a = monitor.lock("A")
        lock_b = monitor.lock("B")

        def worker():
            for _ in range(50):
                with lock_a:
                    with lock_b:
                        pass

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        monitor.assert_clean()
        assert monitor.edges() == {"A": {"B"}}

    def test_raise_on_cycle_raises_in_the_acquiring_thread(self):
        monitor = LockMonitor(raise_on_cycle=True)
        lock_a = monitor.lock("A")
        lock_b = monitor.lock("B")
        with lock_a:
            with lock_b:
                pass
        with lock_b:
            with pytest.raises(LockOrderError):
                lock_a.acquire()
        # The failed acquire backed itself out: the lock is free.
        assert lock_a.acquire(timeout=1.0)
        lock_a.release()

    def test_long_hold_is_flagged(self):
        monitor = LockMonitor(max_hold_s=0.01)
        lock = monitor.lock("slow")
        with lock:
            time.sleep(0.05)
        violations = monitor.check()
        assert len(violations) == 1
        assert violations[0].kind == "hold" and violations[0].lock == "slow"
        with pytest.raises(AssertionError, match="lock timing"):
            monitor.assert_clean()

    def test_reentrant_rlock_records_no_self_edge(self):
        monitor = LockMonitor()
        lock = monitor.rlock("R")
        with lock:
            with lock:
                pass
        monitor.assert_clean()
        assert monitor.edges() == {}

    def test_condition_over_traced_lock_keeps_held_set_accurate(self):
        """Condition.wait releases the traced lock; an acquisition during
        the wait must not record a (held → acquired) edge."""
        monitor = LockMonitor()
        traced = monitor.lock("cond-lock")
        other = monitor.lock("other")
        condition = threading.Condition(traced)
        started = threading.Event()

        def waiter():
            with condition:
                started.set()
                condition.wait(5.0)

        def pinger():
            started.wait(5.0)
            # While the waiter sleeps it must NOT count as holding the
            # traced lock on *this* thread either.
            with other:
                pass
            with condition:
                condition.notify_all()

        threads = [threading.Thread(target=waiter), threading.Thread(target=pinger)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        monitor.assert_clean()
        assert monitor.edges() == {}
