"""No-tape-in-serving checker: forward passes in decode/serve paths run
under ``nn.no_grad()``.

The autodiff tape records every tensor op while grad is enabled; a
serving path that forgets ``no_grad`` silently allocates tape nodes for
every request — exactly the class of leak PR 5 fixed by making grad
mode thread-local.  This checker pins the convention statically: inside
the registered *serving scopes* (inference methods of the model, the
beam driver, everything under ``serve/``), every call to a registered
*forward op* must sit lexically inside a ``with nn.no_grad():`` (or
bare ``no_grad()``) block.

Training code (``core/trainer.py``, losses) is intentionally outside
the scopes — it needs the tape.

A second checker, :class:`RawKernelChecker`, pins the dual-mode nn
substrate's central invariant from the other side: the raw-ndarray
fast path (``nn.kernels.*`` ops and ``infer_*`` methods) skips all
autograd bookkeeping, so a call site that could run with the tape on
would silently train on garbage gradients (the kernels never record
them).  Every such call must therefore be statically unreachable with
grad enabled: lexically under ``with no_grad():``, inside a branch
guarded by ``no_tape_active()`` / ``not is_grad_enabled()``, or inside
a function that is itself part of the ``infer_*`` namespace (whose
callers carry the same obligation, inductively).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from fnmatch import fnmatch

from ..findings import Finding
from ..linter import SourceModule
from .base import Checker, dotted_name, iter_functions

__all__ = ["GradModeChecker", "GradModeScope", "FORWARD_CALLS", "RawKernelChecker", "KERNEL_OPS"]

# Calls that run module forwards / record tape ops when grad is enabled.
FORWARD_CALLS = frozenset(
    {
        "forward_batch",
        "predict_log_nodes",
        "encode_filter",
        "encode_filters",
        "column_embedding",
        "step_logits_batch",
    }
)


@dataclass(frozen=True)
class GradModeScope:
    """Functions matching ``qualname_glob`` in files matching ``path_glob``."""

    path_glob: str
    qualname_glob: str


# predict_log_nodes / forward_batch are deliberately NOT scopes: they
# are the shared forward building blocks the trainer calls with the
# tape on; the no_grad obligation sits on their inference-side callers.
DEFAULT_SCOPES = (
    GradModeScope("*core/model.py", "MTMLFQO.predict_cardinalities"),
    GradModeScope("*core/model.py", "MTMLFQO.predict_costs"),
    GradModeScope("*core/model.py", "MTMLFQO.predict_join_order"),
    GradModeScope("*core/model.py", "MTMLFQO.predict_join_orders"),
    GradModeScope("*core/model.py", "MTMLFQO._decode_candidate_chunks"),
    GradModeScope("*core/model.py", "MTMLFQO._rerank_by_cost*"),
    GradModeScope("*core/model.py", "MTMLFQO._node_content"),
    GradModeScope("*core/model.py", "MTMLFQO._prefill_filter_encodings"),
    GradModeScope("*core/beam.py", "drive_beam_states"),
    GradModeScope("*/serve/*.py", "*"),
)


class GradModeChecker(Checker):
    name = "grad-mode"
    description = "serving-path forward calls wrapped in nn.no_grad()"

    def __init__(self, scopes=DEFAULT_SCOPES, forward_calls=FORWARD_CALLS):
        self.scopes = tuple(scopes)
        self.forward_calls = frozenset(forward_calls)

    def _in_scope(self, rel_path: str, qualname: str) -> bool:
        return any(
            fnmatch(rel_path, scope.path_glob) and fnmatch(qualname, scope.qualname_glob)
            for scope in self.scopes
        )

    def check(self, module: SourceModule) -> list[Finding]:
        findings: list[Finding] = []
        for qual, _, func in iter_functions(module.tree):
            if not self._in_scope(module.rel_path, qual):
                continue
            self._walk(module, func, under_no_grad=False, symbol=qual, findings=findings)
        return findings

    @staticmethod
    def _enters_no_grad(node: ast.With) -> bool:
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                name = dotted_name(expr.func)
                if name is not None and name.rsplit(".", 1)[-1] == "no_grad":
                    return True
        return False

    def _walk(self, module, node, under_no_grad, symbol, findings) -> None:
        if isinstance(node, ast.With) and self._enters_no_grad(node):
            for child in node.body:
                self._walk(module, child, True, symbol, findings)
            return
        if not under_no_grad and isinstance(node, ast.Call):
            name = dotted_name(node.func)
            leaf = name.rsplit(".", 1)[-1] if name else None
            if leaf in self.forward_calls:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"forward call {leaf}() on a serving path outside "
                        f"nn.no_grad() — this records autodiff tape per request",
                        symbol=symbol,
                    )
                )
        for child in ast.iter_child_nodes(node):
            # Nested defs get their own iter_functions visit.
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            self._walk(module, child, under_no_grad, symbol, findings)


# The raw-ndarray compute kernels of repro.nn.kernels.  A call like
# ``kernels.linear(...)`` / ``nn.kernels.softmax(...)`` is a fast-path
# entry; ScratchArena/profiled/KernelProfile are mode-neutral plumbing.
KERNEL_OPS = frozenset(
    {
        "matmul",
        "linear",
        "layer_norm",
        "relu",
        "sigmoid",
        "softmax",
        "log_softmax",
        "masked_fill",
    }
)

# Predicates that statically prove the tape is off on a branch.
_NO_TAPE_PREDICATES = frozenset({"no_tape_active"})
_GRAD_PREDICATES = frozenset({"is_grad_enabled"})


class RawKernelChecker(Checker):
    """``kernels.*`` / ``infer_*`` call sites must be tape-unreachable.

    A call is accepted when it is

    - lexically inside ``with no_grad():``, or
    - in the then-branch of ``if no_tape_active():`` or
      ``if not is_grad_enabled():`` (also as a conjunct of an ``and``),
      or in the else-branch of ``if is_grad_enabled():``, or
    - inside a function whose own (qual)name marks it ``infer_*`` — its
      callers carry the obligation instead — or a function *defined* on
      an already-guarded line (a nested helper of a guarded branch).

    ``nn.kernels`` itself is exempt: it defines the ops.
    """

    name = "raw-kernel"
    description = "raw kernels / infer_* entry points unreachable with the tape on"

    def __init__(self, exempt_globs=("*nn/kernels.py",), kernel_ops=KERNEL_OPS):
        self.exempt_globs = tuple(exempt_globs)
        self.kernel_ops = frozenset(kernel_ops)

    def check(self, module: SourceModule) -> list[Finding]:
        if any(fnmatch(module.rel_path, glob) for glob in self.exempt_globs):
            return []
        findings: list[Finding] = []
        for child in module.tree.body:
            self._walk(module, child, guarded=False, symbol="<module>", findings=findings)
        return findings

    # -- guard recognition --------------------------------------------------
    @staticmethod
    def _predicate_leaf(expr: ast.AST) -> str | None:
        """Leaf name of a bare or ``nn.``-dotted predicate call."""
        if isinstance(expr, ast.Call) and not expr.args and not expr.keywords:
            name = dotted_name(expr.func)
            if name is not None:
                return name.rsplit(".", 1)[-1]
        return None

    @classmethod
    def _proves_no_tape(cls, test: ast.AST) -> bool:
        """True if ``test`` being truthy implies the tape is off."""
        leaf = cls._predicate_leaf(test)
        if leaf in _NO_TAPE_PREDICATES:
            return True
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            if cls._predicate_leaf(test.operand) in _GRAD_PREDICATES:
                return True
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            return any(cls._proves_no_tape(value) for value in test.values)
        return False

    @classmethod
    def _proves_tape(cls, test: ast.AST) -> bool:
        """True if ``test`` being *falsy* implies the tape is off."""
        return cls._predicate_leaf(test) in _GRAD_PREDICATES

    @staticmethod
    def _is_infer_function(qualname: str) -> bool:
        return any(part.startswith("infer_") for part in qualname.split("."))

    def _is_raw_call(self, node: ast.Call) -> str | None:
        name = dotted_name(node.func)
        if name is None:
            return None
        parts = name.split(".")
        leaf = parts[-1]
        if leaf.startswith("infer_"):
            return leaf
        if len(parts) >= 2 and parts[-2] == "kernels" and leaf in self.kernel_ops:
            return name
        return None

    # -- walk ---------------------------------------------------------------
    def _walk(self, module, node, guarded, symbol, findings) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{symbol}.{node.name}" if symbol != "<module>" else node.name
            # An infer_* function is itself a raw entry point (callers are
            # checked); a helper defined under a guard inherits the guard.
            inner_guarded = guarded or self._is_infer_function(qual)
            for child in node.body:
                self._walk(module, child, inner_guarded, qual, findings)
            return
        if isinstance(node, ast.ClassDef):
            qual = f"{symbol}.{node.name}" if symbol != "<module>" else node.name
            for child in node.body:
                self._walk(module, child, guarded, qual, findings)
            return
        if isinstance(node, ast.With) and GradModeChecker._enters_no_grad(node):
            for child in node.body:
                self._walk(module, child, True, symbol, findings)
            for item in node.items:
                self._walk(module, item.context_expr, guarded, symbol, findings)
            return
        if isinstance(node, ast.If) and not guarded:
            self._walk(module, node.test, guarded, symbol, findings)
            body_guarded = self._proves_no_tape(node.test)
            orelse_guarded = self._proves_tape(node.test)
            for child in node.body:
                self._walk(module, child, body_guarded, symbol, findings)
            for child in node.orelse:
                self._walk(module, child, orelse_guarded, symbol, findings)
            return
        if not guarded and isinstance(node, ast.Call):
            raw = self._is_raw_call(node)
            if raw is not None:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"raw fast-path call {raw}() reachable with the tape on — "
                        f"wrap it in nn.no_grad(), guard it with no_tape_active(), "
                        f"or move it into an infer_* function",
                        symbol=symbol,
                    )
                )
        for child in ast.iter_child_nodes(node):
            self._walk(module, child, guarded, symbol, findings)
