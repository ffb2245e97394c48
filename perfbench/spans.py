"""In-memory span recording around the public functions of each layer.

The benchmark attributes time to layers from outside the program: it
replaces a public function (a method on its class, or a name in the
module that calls it) with a wrapper that records a span, and puts the
original back afterwards.  Spans stay in a list until the run ends and
are then written out in one go.

A span is ``[id, parent, root, name, thread, start, end, key]``:
``parent`` is the span that was open on the same thread when it began
(0 for none), ``root`` the outermost such span (the batch or request
the work belongs to), and ``key`` an optional value the wrapper derives
from the call's arguments (used to count distinct estimator inputs).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

ID, PARENT, ROOT, NAME, THREAD, START, END, KEY = range(8)


class SpanRecorder:
    """Collects nested spans from any number of threads."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, key=None) -> list:
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent, root = stack[-1][ID], stack[-1][ROOT]
        else:
            parent, root = 0, span_id
        record = [span_id, parent, root, name, threading.get_ident(), 0.0, 0.0, key]
        stack.append(record)
        record[START] = time.perf_counter()
        return record

    def close(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack().pop()
        self.spans.append(record)

    @contextmanager
    def span(self, name: str, key=None):
        record = self.open(name, key)
        try:
            yield record
        finally:
            self.close(record)

    # -- wrapping ----------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, key=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``key(args)`` (optional) is stored on the span.  Wrapping the same
        attribute twice nests; :meth:`restore` undoes wraps in reverse.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = recorder.open(name, key(args) if key is not None else None)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.close(record)

        # Remember what the owner itself held (a class may inherit attr).
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest wrap first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def wrapped(self, targets):
        """Wrap ``(owner, attr, name[, key])`` targets for the block."""
        try:
            for target in targets:
                self.wrap(*target)
            yield self
        finally:
            self.restore()

    # -- output ------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write every span (without keys) as JSON."""
        names = sorted({span[NAME] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [
            [s[ID], s[PARENT], s[ROOT], index[s[NAME]], s[THREAD],
             round(s[START], 7), round(s[END], 7)]
            for s in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"fields": ["id", "parent", "root", "name", "thread", "start_s", "end_s"],
                       "names": names, "spans": rows}, handle)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class SpanIndex:
    """Queries over a finished span list: self time, ancestry, totals."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.by_id = {span[ID]: span for span in spans}
        children = defaultdict(list)
        for span in spans:
            if span[PARENT]:
                children[span[PARENT]].append((span[START], span[END]))
        self.self_s = {
            span[ID]: (span[END] - span[START])
            - covered_length(children.get(span[ID], ()), span[START], span[END])
            for span in spans
        }

    def root_name(self, span: list) -> str:
        root = self.by_id.get(span[ROOT])
        return root[NAME] if root is not None else span[NAME]

    def parent_name(self, span: list) -> str | None:
        parent = self.by_id.get(span[PARENT])
        return parent[NAME] if parent is not None else None

    def has_ancestor(self, span: list, name: str) -> bool:
        parent = self.by_id.get(span[PARENT])
        while parent is not None:
            if parent[NAME] == name:
                return True
            parent = self.by_id.get(parent[PARENT])
        return False

    def select(self, names, root: str | None = None, not_root: str | None = None):
        names = {names} if isinstance(names, str) else set(names)
        for span in self.spans:
            if span[NAME] not in names:
                continue
            if root is not None and self.root_name(span) != root:
                continue
            if not_root is not None and self.root_name(span) == not_root:
                continue
            yield span

    def count(self, names, **where) -> int:
        return sum(1 for _ in self.select(names, **where))

    def self_ms(self, names, **where) -> float:
        return 1000.0 * sum(self.self_s[s[ID]] for s in self.select(names, **where))

    def inclusive_ms(self, name: str, **where) -> float:
        """Wall time inside ``name``, counting nested calls of it once."""
        return 1000.0 * sum(
            s[END] - s[START] for s in self.select(name, **where)
            if not self.has_ancestor(s, name)
        )
