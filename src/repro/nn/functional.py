"""Functional operations on :class:`repro.nn.Tensor`.

The differentiable ops with a numeric kernel — ``matmul``, ``linear``,
``layer_norm``, ``relu``, ``sigmoid``, ``softmax``, ``log_softmax`` and
``masked_fill`` — are each a kernel from :mod:`repro.nn.kernels` plus a
vector-Jacobian product (VJP), in the manner of
``torch.autograd.Function``.  An op builds its VJP closure only when
grad is enabled and an input requires grad; otherwise it wraps the
kernel's array once.  Only under ``no_grad`` may ``matmul``/``linear``
write into a :class:`~repro.nn.kernels.ScratchArena` buffer: with grad
on, even an unrecorded output can feed a recorded op whose VJP reads it
at backward time, after a later call has overwritten the buffer.

Each VJP replays the float ops and the accumulation order of the
primitive ``Tensor`` chain the op replaces (``x.matmul(W) + b`` for
``linear``; mean → sub → square → mean → add eps → pow(-0.5) → mul
gamma → add beta for ``layer_norm``), so its gradients are bit-identical
to that chain's; ``tests/test_gradients.py`` holds the chains as
references.

The remaining functions combine several tensors (``concat``, ``stack``,
``where``) or have no kernel (``gelu``).
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .tensor import Tensor, _records, _unbroadcast, is_grad_enabled

__all__ = [
    "matmul",
    "linear",
    "layer_norm",
    "relu",
    "sigmoid",
    "softmax",
    "log_softmax",
    "masked_fill",
    "concat",
    "stack",
    "gelu",
    "where",
    "pad_sequences",
    "pad_index_sequences",
    "repeat_batch",
    "one_hot",
]


# ---------------------------------------------------------------------------
# Kernel ops
# ---------------------------------------------------------------------------
def _matmul_vjp(a: Tensor, b: Tensor, grad: np.ndarray) -> None:
    if a.requires_grad:
        if b.data.ndim == 1:
            a._accumulate(np.expand_dims(grad, -1) * b.data)
        else:
            a._accumulate(grad @ np.swapaxes(b.data, -1, -2))
    if b.requires_grad:
        if a.data.ndim == 1:
            b._accumulate(np.outer(a.data, grad))
        else:
            b._accumulate(np.swapaxes(a.data, -1, -2) @ grad)


def matmul(a: Tensor, b, scratch: kernels.ScratchArena | None = None, tag: str = "") -> Tensor:
    """``a @ b``; ``scratch``/``tag`` name an output buffer used under ``no_grad``."""
    b = b if isinstance(b, Tensor) else Tensor(b)
    if not _records(a, b):
        return Tensor._wrap(kernels.matmul(a.data, b.data, None if is_grad_enabled() else scratch, tag))
    return Tensor._make(
        kernels.matmul(a.data, b.data), (a, b), lambda grad: _matmul_vjp(a, b, grad), True
    )


def linear(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    scratch: kernels.ScratchArena | None = None,
    tag: str = "",
) -> Tensor:
    """Affine map ``x @ weight + bias`` over arbitrary leading dims."""
    bias_nd = None if bias is None else bias.data
    if not _records(x, weight, bias):
        return Tensor._wrap(
            kernels.linear(x.data, weight.data, bias_nd, None if is_grad_enabled() else scratch, tag)
        )

    def backward(grad):
        # The add's VJP runs before the matmul's, as on the tape.
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad)
        _matmul_vjp(x, weight, grad)

    return Tensor._make(kernels.linear(x.data, weight.data, bias_nd), (x, weight, bias), backward, True)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalise over the last axis, then scale by ``gamma`` and shift by ``beta``."""
    dim = x.shape[-1]
    if not _records(x, gamma, beta):
        return Tensor._wrap(kernels.layer_norm(x.data, gamma.data, beta.data, eps, dim))
    out, (centered, shifted, inv_std, normed) = kernels.layer_norm(
        x.data, gamma.data, beta.data, eps, dim, keep=True
    )
    inv = 1.0 / dim

    def backward(grad):
        # VJPs of the chain in reverse: add beta, mul gamma, mul inv_std,
        # pow(-0.5), add eps, mean, square, sub mean, mean — x receives
        # the sub's share before the first mean's, as on the tape.
        if beta.requires_grad:
            beta._accumulate(grad)
        if gamma.requires_grad:
            gamma._accumulate(grad * normed)
        if not x.requires_grad:
            return
        g_normed = grad * gamma.data
        g_centered = g_normed * inv_std
        g_inv_std = _unbroadcast(g_normed * centered, inv_std.shape)
        g_var = g_inv_std * -0.5 * shifted ** -1.5
        g_square = np.broadcast_to(g_var * inv, centered.shape)
        g_centered = g_centered + g_square * centered
        g_centered = g_centered + g_square * centered
        x._accumulate(g_centered)
        g_mean = _unbroadcast(g_centered, inv_std.shape) * -1.0
        x._accumulate(np.broadcast_to(g_mean * inv, x.data.shape))

    return Tensor._make(out, (x, gamma, beta), backward, True)


def relu(x: Tensor) -> Tensor:
    """``x * (x > 0)``."""
    data = kernels.relu(x.data)
    if not _records(x):
        return Tensor._wrap(data)
    x_nd = x.data
    return Tensor._make(data, (x,), lambda grad: x._accumulate(grad * (x_nd > 0)), True)


def sigmoid(x: Tensor) -> Tensor:
    """``1 / (1 + exp(-x))``."""
    data = kernels.sigmoid(x.data)
    if not _records(x):
        return Tensor._wrap(data)
    return Tensor._make(data, (x,), lambda grad: x._accumulate(grad * data * (1.0 - data)), True)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    out = kernels.softmax(x.data, axis=axis)
    if not _records(x):
        return Tensor._wrap(out)

    def backward(grad):
        dot = (grad * out).sum(axis=axis, keepdims=True)
        x._accumulate(out * (grad - dot))

    return Tensor._make(out, (x,), backward, True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    out = kernels.log_softmax(x.data, axis=axis)
    if not _records(x):
        return Tensor._wrap(out)

    def backward(grad):
        x._accumulate(grad - np.exp(out) * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out, (x,), backward, True)


def masked_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where ``mask`` is True by ``value`` (no grad there)."""
    mask = np.asarray(mask, dtype=bool)
    data = kernels.masked_fill(x.data, mask, value)
    if not _records(x):
        return Tensor._wrap(data)
    return Tensor._make(data, (x,), lambda grad: x._accumulate(grad * ~mask), True)


# ---------------------------------------------------------------------------
# Combinators and kernel-free ops
# ---------------------------------------------------------------------------
def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    if not _records(*tensors):
        return Tensor._wrap(data)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(index)])

    return Tensor._make(data, tuple(tensors), backward, True)


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    if not _records(*tensors):
        return Tensor._wrap(data)

    def backward(grad):
        slabs = np.split(grad, len(tensors), axis=axis)
        for tensor, slab in zip(tensors, slabs):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(slab, axis=axis))

    return Tensor._make(data, tuple(tensors), backward, True)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    c = np.sqrt(2.0 / np.pi)
    inner = c * (x.data + 0.044715 * x.data ** 3)
    t = np.tanh(inner)
    out = 0.5 * x.data * (1.0 + t)
    if not _records(x):
        return Tensor._wrap(out)

    def backward(grad):
        dt = (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * x.data ** 2)
        x._accumulate(grad * (0.5 * (1.0 + t) + 0.5 * x.data * dt))

    return Tensor._make(out, (x,), backward, True)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select: ``condition ? a : b`` (condition is constant)."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    condition = np.asarray(condition, dtype=bool)
    data = np.where(condition, a.data, b.data)
    if not _records(a, b):
        return Tensor._wrap(data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * condition)
        if b.requires_grad:
            b._accumulate(grad * ~condition)

    return Tensor._make(data, (a, b), backward, True)


def pad_sequences(arrays: list[np.ndarray], pad_value: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Pad a list of ``(length_i, dim)`` arrays to a dense batch.

    Returns ``(batch, mask)`` where ``batch`` has shape
    ``(n, max_len, dim)`` and ``mask`` is True at padded positions.
    """
    if not arrays:
        raise ValueError("pad_sequences requires at least one sequence")
    max_len = max(a.shape[0] for a in arrays)
    dim = arrays[0].shape[1]
    batch = np.full((len(arrays), max_len, dim), pad_value, dtype=np.float64)
    mask = np.ones((len(arrays), max_len), dtype=bool)
    for i, array in enumerate(arrays):
        batch[i, : array.shape[0]] = array
        mask[i, : array.shape[0]] = False
    return batch, mask


def pad_index_sequences(
    sequences: list[list[int]], pad_value: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Pad ragged integer sequences into a dense ``(B, Tmax)`` index batch.

    Returns ``(indices, lengths)``; padded slots hold ``pad_value`` (a
    valid index, so gathers stay in bounds — consumers must read only the
    first ``lengths[i]`` entries of row ``i``).
    """
    lengths = np.asarray([len(s) for s in sequences], dtype=np.int64)
    max_len = int(lengths.max()) if len(sequences) else 0
    indices = np.full((len(sequences), max_len), pad_value, dtype=np.int64)
    for i, seq in enumerate(sequences):
        indices[i, : len(seq)] = seq
    return indices, lengths


def repeat_batch(x: Tensor, repeats: int) -> Tensor:
    """Repeat a ``(1, ...)`` tensor ``repeats`` times along axis 0.

    Gradients sum back over the repeated axis, so this is the
    batched-decoding equivalent of broadcasting one encoder memory
    across every active beam.
    """
    if x.shape[0] != 1:
        raise ValueError(f"repeat_batch expects a leading axis of 1, got shape {x.shape}")
    data = np.ascontiguousarray(np.broadcast_to(x.data, (repeats,) + x.data.shape[1:]))
    if not _records(x):
        return Tensor._wrap(data)
    return Tensor._make(data, (x,), lambda grad: x._accumulate(grad.sum(axis=0, keepdims=True)), True)


def one_hot(indices, depth: int) -> np.ndarray:
    """One-hot encode integer ``indices`` into ``depth`` classes."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros(indices.shape + (depth,), dtype=np.float64)
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out
