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

A second checker, :class:`RawKernelChecker`, pins the nn substrate's
central invariant from the other side: an ``nn.kernels.*`` op computes
on raw ndarrays and records no gradient, so only the differentiable
ops of ``nn/functional.py`` (a kernel plus its VJP) may call one where
the tape can reach it.  Anywhere else a kernel call must be statically
unreachable with grad enabled — lexically under ``with no_grad():`` or
in a branch guarded by ``not is_grad_enabled()`` — or it would silently
train on missing gradients.
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
# ``kernels.linear(...)`` / ``nn.kernels.softmax(...)`` records no
# gradient; ScratchArena/profiled/KernelProfile are mode-neutral plumbing.
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

# The predicate that statically proves the tape is on or off on a branch.
_GRAD_PREDICATES = frozenset({"is_grad_enabled"})


class RawKernelChecker(Checker):
    """``kernels.*`` call sites outside ``nn/functional.py`` must be
    tape-unreachable.

    A call is accepted when it is lexically inside ``with no_grad():``,
    in the then-branch of ``if not is_grad_enabled():`` (also as a
    conjunct of an ``and``) or the else-branch of
    ``if is_grad_enabled():``, or inside a function *defined* on such a
    guarded line.  ``nn/kernels.py`` (which defines the ops) and
    ``nn/functional.py`` (which pairs each with its VJP) are exempt.
    """

    name = "raw-kernel"
    description = "raw kernel calls outside nn/functional.py unreachable with the tape on"

    def __init__(self, exempt_globs=("*nn/kernels.py", "*nn/functional.py"), kernel_ops=KERNEL_OPS):
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
    def _is_grad_test(expr: ast.AST) -> bool:
        """``is_grad_enabled()``, bare or ``nn.``-dotted."""
        if isinstance(expr, ast.Call) and not expr.args and not expr.keywords:
            name = dotted_name(expr.func)
            return name is not None and name.rsplit(".", 1)[-1] in _GRAD_PREDICATES
        return False

    @classmethod
    def _proves_no_tape(cls, test: ast.AST) -> bool:
        """True if ``test`` being truthy implies the tape is off."""
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return cls._is_grad_test(test.operand)
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            return any(cls._proves_no_tape(value) for value in test.values)
        return False

    def _is_raw_call(self, node: ast.Call) -> str | None:
        name = dotted_name(node.func)
        if name is None:
            return None
        parts = name.split(".")
        if len(parts) >= 2 and parts[-2] == "kernels" and parts[-1] in self.kernel_ops:
            return name
        return None

    # -- walk ---------------------------------------------------------------
    def _walk(self, module, node, guarded, symbol, findings) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # A helper defined under a guard inherits the guard.
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
            for child in node.body:
                self._walk(module, child, self._proves_no_tape(node.test), symbol, findings)
            for child in node.orelse:
                self._walk(module, child, self._is_grad_test(node.test), symbol, findings)
            return
        if not guarded and isinstance(node, ast.Call):
            raw = self._is_raw_call(node)
            if raw is not None:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"raw kernel call {raw}() reachable with the tape on — "
                        f"use the nn.functional op (kernel plus VJP) or wrap "
                        f"the call in nn.no_grad()",
                        symbol=symbol,
                    )
                )
        for child in ast.iter_child_nodes(node):
            self._walk(module, child, guarded, symbol, findings)
