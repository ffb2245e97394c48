"""Raw-ndarray numeric kernels behind the ops of :mod:`repro.nn.functional`.

Each kernel computes one op's forward on plain ndarrays; the functional
op pairs it with a vector-Jacobian product and decides whether to
record.  The float ops follow the primitive ``Tensor`` chain each op
replaces — same numpy calls, same order — so a kernel's output is
bit-identical to that chain's (for example, ``layer_norm`` divides via
``sum * (1.0 / dim)`` because that is what ``Tensor.mean`` does; a plain
``np.mean`` could differ in the last ulp).

Only :mod:`repro.nn.functional` calls kernels: a kernel records no
gradient, so a call the tape could reach anywhere else would train on
missing gradients.  The static ``raw-kernel`` checker enforces this.

Two cross-cutting facilities live here as well:

- :class:`ScratchArena` — a shape-keyed pool of reusable output buffers.
  Decode workloads repeat the same shapes across beam steps and queries,
  so hot matmuls write into preallocated arrays instead of allocating.
  Arenas must be **session-private** (one per ``InferenceSession``);
  the ``scratch-privacy`` hygiene checker rejects module-level
  instances.  A buffer handed out for a ``(tag, shape)`` pair is
  overwritten the next time the same call site runs, so kernel
  outputs must be consumed (or copied) before the next decode step —
  which the beam driver does by construction.

- :func:`profiled` — per-op call/time/alloc counters for the
  ``--profile`` flag of ``bench_batched_decode.py``.  Costs one module
  global integer check per kernel call when inactive.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

import numpy as np

from .spec import shape_spec

__all__ = [
    "ScratchArena",
    "KernelProfile",
    "profiled",
    "matmul",
    "linear",
    "layer_norm",
    "relu",
    "sigmoid",
    "softmax",
    "log_softmax",
    "masked_fill",
]


# ---------------------------------------------------------------------------
# Scratch buffers
# ---------------------------------------------------------------------------
class ScratchArena:
    """Shape-keyed pool of reusable float64 output buffers.

    ``take(tag, shape)`` returns the same C-contiguous array every time
    a call site (identified by ``tag``) asks for the same shape, so
    repeated decode steps reuse their allocations.  Distinct call sites
    use distinct tags, which is what makes intra-forward aliasing
    impossible: no two live intermediates ever share a buffer.

    Not thread-safe by itself — an arena belongs to one
    ``InferenceSession``, whose calls are serialized by the model's
    inference lock.
    """

    __slots__ = ("_buffers", "max_buffers")

    def __init__(self, max_buffers: int = 4096):
        self._buffers: dict[tuple, np.ndarray] = {}
        self.max_buffers = max_buffers

    def take(self, tag: str, shape: tuple) -> np.ndarray:
        key = (tag, shape)
        buf = self._buffers.get(key)
        if buf is None:
            if len(self._buffers) >= self.max_buffers:
                self._buffers.clear()  # shapes drifted; start over
            buf = np.empty(shape, dtype=np.float64)
            self._buffers[key] = buf
        return buf

    def clear(self) -> None:
        self._buffers.clear()

    def __len__(self) -> int:
        return len(self._buffers)


# ---------------------------------------------------------------------------
# Profiling counters
# ---------------------------------------------------------------------------
_PROFILE = threading.local()
# Cheap global gate: when no profiled() block is active anywhere in the
# process, kernels skip even the thread-local lookup (a plain module
# global is markedly cheaper per call than threading.local getattr).
_PROFILE_DEPTH = 0


class KernelProfile:
    """Accumulated per-op counters: calls, seconds, bytes written."""

    def __init__(self):
        self.ops: dict[str, list] = {}  # name -> [calls, seconds, nbytes]

    def record(self, name: str, seconds: float, nbytes: int) -> None:
        entry = self.ops.get(name)
        if entry is None:
            self.ops[name] = [1, seconds, nbytes]
        else:
            entry[0] += 1
            entry[1] += seconds
            entry[2] += nbytes

    def as_dict(self) -> dict:
        return {
            name: {"calls": calls, "seconds": seconds, "bytes": nbytes}
            for name, (calls, seconds, nbytes) in sorted(
                self.ops.items(), key=lambda kv: -kv[1][1]
            )
        }

    def table(self) -> str:
        lines = [f"{'op':<18}{'calls':>8}{'time_ms':>10}{'MB':>9}"]
        for name, stats in self.as_dict().items():
            lines.append(
                f"{name:<18}{stats['calls']:>8}"
                f"{1000 * stats['seconds']:>10.2f}"
                f"{stats['bytes'] / 1e6:>9.2f}"
            )
        return "\n".join(lines)

    def record_into(self, registry, labels=None) -> None:
        """Export accumulated counters into a metrics registry.

        One ``kernel.calls`` / ``kernel.seconds`` / ``kernel.bytes``
        counter per op, labeled ``{"op": name}`` (plus any caller
        labels), so profiles from repeated ``profiled()`` blocks
        accumulate instead of overwriting each other.
        """
        base = dict(labels or {})
        for name, (calls, seconds, nbytes) in self.ops.items():
            op_labels = {**base, "op": name}
            registry.counter("kernel.calls", op_labels).inc(calls)
            registry.counter("kernel.seconds", op_labels).inc(seconds)
            registry.counter("kernel.bytes", op_labels).inc(nbytes)


@contextmanager
def profiled():
    """Collect per-op kernel counters for the duration of the block."""
    global _PROFILE_DEPTH
    profile = KernelProfile()
    previous = getattr(_PROFILE, "active", None)
    _PROFILE.active = profile
    _PROFILE_DEPTH += 1
    try:
        yield profile
    finally:
        _PROFILE_DEPTH -= 1
        _PROFILE.active = previous


def _note(name: str, t0: float, nbytes: int) -> None:
    profile = getattr(_PROFILE, "active", None)
    if profile is not None:
        profile.record(name, time.perf_counter() - t0, nbytes)


# ---------------------------------------------------------------------------
# Kernels
#
# Each kernel checks the module-global ``_PROFILE_DEPTH`` inline and only
# touches the timing helpers when a profiled() block is active: decode
# workloads make thousands of kernel calls per run on small operands, so
# even two extra function calls per kernel are measurable.
# ---------------------------------------------------------------------------
@shape_spec(inputs={"a": "(..., M, K)", "b": "(..., K, N)"}, out="(..., M, N)")
def matmul(a: np.ndarray, b: np.ndarray, scratch: ScratchArena | None = None, tag: str = "") -> np.ndarray:
    """``a @ b`` with an optional preallocated output buffer."""
    t0 = time.perf_counter() if _PROFILE_DEPTH else 0.0
    if scratch is not None:
        out = scratch.take(tag, a.shape[:-1] + b.shape[-1:])
        np.matmul(a, b, out=out)
    else:
        out = a @ b
    if _PROFILE_DEPTH:
        _note("matmul", t0, out.nbytes)
    return out


@shape_spec(inputs={"x": "(..., d_in)", "weight": "(d_in, d_out)", "bias": "(d_out,)"},
            out="(..., d_out)")
def linear(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    scratch: ScratchArena | None = None,
    tag: str = "",
) -> np.ndarray:
    """Affine map: ``x @ W`` then ``+ b``."""
    t0 = time.perf_counter() if _PROFILE_DEPTH else 0.0
    if scratch is not None:
        out = scratch.take(tag, x.shape[:-1] + weight.shape[-1:])
        np.matmul(x, weight, out=out)
        if bias is not None:
            np.add(out, bias, out=out)
    else:
        out = x @ weight
        if bias is not None:
            out = out + bias
    if _PROFILE_DEPTH:
        _note("linear", t0, out.nbytes)
    return out


@shape_spec(inputs={"x": "(..., dim)", "gamma": "(dim,)", "beta": "(dim,)"},
            out="(..., dim)")
def layer_norm(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float, dim: int, keep: bool = False
):
    """``(x - mean) * (var + eps) ** -0.5 * gamma + beta`` over the last axis.

    Means are ``sum * (1/dim)``, as ``Tensor.mean`` computes them, not
    ``np.mean``.  With ``keep`` the VJP's saved intermediates come back
    too, as ``(out, (centered, var + eps, inv_std, normed))``; without
    it the large intermediates are overwritten in place (an ``out=``
    ufunc call computes identical bits; it only skips the allocation).
    """
    t0 = time.perf_counter() if _PROFILE_DEPTH else 0.0
    inv = 1.0 / dim
    mean = x.sum(axis=-1, keepdims=True) * inv
    centered = x - mean
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv
    shifted = np.add(var, eps, out=None if keep else var)
    inv_std = np.power(shifted, -0.5, out=None if keep else shifted)
    normed = np.multiply(centered, inv_std, out=None if keep else centered)
    out = np.multiply(normed, gamma, out=None if keep else normed)
    np.add(out, beta, out=out)
    if _PROFILE_DEPTH:
        _note("layer_norm", t0, out.nbytes)
    return (out, (centered, shifted, inv_std, normed)) if keep else out


@shape_spec(inputs={"x": "(...,)"}, out="(...,)")
def relu(x: np.ndarray) -> np.ndarray:
    """``x * (x > 0)``."""
    t0 = time.perf_counter() if _PROFILE_DEPTH else 0.0
    out = x * (x > 0)
    if _PROFILE_DEPTH:
        _note("relu", t0, out.nbytes)
    return out


@shape_spec(inputs={"x": "(...,)"}, out="(...,)")
def sigmoid(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))``."""
    t0 = time.perf_counter() if _PROFILE_DEPTH else 0.0
    out = 1.0 / (1.0 + np.exp(-x))
    if _PROFILE_DEPTH:
        _note("sigmoid", t0, out.nbytes)
    return out


@shape_spec(inputs={"x": "(...,)"}, out="(...,)")
def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax: shift by the max, exp, normalize."""
    t0 = time.perf_counter() if _PROFILE_DEPTH else 0.0
    shifted = x - x.max(axis=axis, keepdims=True)
    exps = np.exp(shifted, out=shifted)  # in place on the fresh copy
    out = np.divide(exps, exps.sum(axis=axis, keepdims=True), out=exps)
    if _PROFILE_DEPTH:
        _note("softmax", t0, out.nbytes)
    return out


@shape_spec(inputs={"x": "(...,)"}, out="(...,)")
def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Log-softmax: shift by the max, subtract the log-sum-exp."""
    t0 = time.perf_counter() if _PROFILE_DEPTH else 0.0
    shifted = x - x.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - logsumexp
    if _PROFILE_DEPTH:
        _note("log_softmax", t0, out.nbytes)
    return out


@shape_spec(inputs={"x": "(...,)", "mask": "(...,)"}, out="(...,)",
            dtypes={"mask": "bool"})
def masked_fill(x: np.ndarray, mask: np.ndarray, value: float) -> np.ndarray:
    """``value`` where ``mask`` is True, else ``x``."""
    t0 = time.perf_counter() if _PROFILE_DEPTH else 0.0
    out = np.where(mask, value, x)
    if _PROFILE_DEPTH:
        _note("masked_fill", t0, out.nbytes)
    return out
