"""Gradient tests for the kernel ops of ``repro.nn.functional``.

Two kinds of evidence:

- **bit-identity** — every op that pairs a kernel with a VJP produces
  exactly (``np.array_equal``) the gradients of a reference built here
  from primitive ``Tensor`` ops: the multi-op chain it replaces
  (``x @ W + b`` for ``linear``, the mean/sub/square/pow chain for
  ``layer_norm``), or for the single-node ops the one-node tape op
  written out with ``Tensor._make``.  Inputs have leading batch dims and
  reuse a parameter, so accumulation order into ``.grad`` is exercised.
- **finite differences** — central differences in float64 agree with
  the analytic gradients of the ops and of whole attention / decoder
  blocks under causal and key-padding masks.
"""

import numpy as np
import pytest

import repro.nn as nn
from repro.nn import functional as F
from repro.nn.tensor import Tensor

RNG = np.random.default_rng(1234)


# ---------------------------------------------------------------------------
# Primitive-chain references
# ---------------------------------------------------------------------------
def ref_matmul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data @ b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            b._accumulate(np.swapaxes(a.data, -1, -2) @ grad)

    return Tensor._make(data, (a, b), backward, a.requires_grad or b.requires_grad)


def ref_linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    return ref_matmul(x, weight) + bias


def ref_layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normed = centered * (var + eps) ** -0.5
    return normed * gamma + beta


def ref_relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return Tensor._make(x.data * mask, (x,), lambda grad: x._accumulate(grad * mask), x.requires_grad)


def ref_sigmoid(x: Tensor) -> Tensor:
    data = 1.0 / (1.0 + np.exp(-x.data))
    return Tensor._make(data, (x,), lambda grad: x._accumulate(grad * data * (1.0 - data)), x.requires_grad)


def ref_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out = exps / exps.sum(axis=axis, keepdims=True)

    def backward(grad):
        dot = (grad * out).sum(axis=axis, keepdims=True)
        x._accumulate(out * (grad - dot))

    return Tensor._make(out, (x,), backward, x.requires_grad)


def ref_log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    soft = np.exp(out)

    def backward(grad):
        x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out, (x,), backward, x.requires_grad)


def ref_masked_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    data = np.where(mask, value, x.data)
    return Tensor._make(data, (x,), lambda grad: x._accumulate(grad * ~mask), x.requires_grad)


# ---------------------------------------------------------------------------
# Bit-identity against the references
# ---------------------------------------------------------------------------
def leaves(*arrays):
    return [Tensor(a.copy(), requires_grad=True) for a in arrays]


def grads_of(build, arrays, upstream):
    """Run ``build`` on fresh leaves, backprop ``upstream``; return (out, grads)."""
    tensors = leaves(*arrays)
    out = build(*tensors)
    (out * Tensor(upstream)).sum().backward()
    return out.data, [t.grad for t in tensors]


def assert_same_grads(build, reference, arrays, out_shape):
    upstream = RNG.normal(size=out_shape)
    out, grads = grads_of(build, arrays, upstream)
    ref_out, ref_grads = grads_of(reference, arrays, upstream)
    np.testing.assert_array_equal(out, ref_out)
    for got, want in zip(grads, ref_grads):
        assert got is not None and want is not None
        np.testing.assert_array_equal(got, want)


class TestVJPBitIdentity:
    def test_linear_with_reused_weight(self):
        x, w, b = RNG.normal(size=(3, 4, 6)), RNG.normal(size=(6, 6)), RNG.normal(size=(6,))
        assert_same_grads(
            lambda x, w, b: F.linear(F.linear(x, w, b).relu(), w, b) + x,
            lambda x, w, b: ref_linear(ref_relu(ref_linear(x, w, b)), w, b) + x,
            (x, w, b),
            (3, 4, 6),
        )

    def test_layer_norm_with_reused_gamma_beta_and_residual(self):
        x, g, b = RNG.normal(size=(2, 5, 8)), RNG.normal(size=(8,)), RNG.normal(size=(8,))
        assert_same_grads(
            lambda x, g, b: F.layer_norm(x + F.layer_norm(x, g, b), g, b),
            lambda x, g, b: ref_layer_norm(x + ref_layer_norm(x, g, b), g, b),
            (x, g, b),
            (2, 5, 8),
        )

    def test_matmul_batched_with_reused_operand(self):
        a, b = RNG.normal(size=(2, 3, 4, 5)), RNG.normal(size=(2, 3, 5, 4))
        assert_same_grads(
            lambda a, b: F.matmul(F.matmul(a, b), a),
            lambda a, b: ref_matmul(ref_matmul(a, b), a),
            (a, b),
            (2, 3, 4, 5),
        )

    @pytest.mark.parametrize(
        "op, ref",
        [(F.relu, ref_relu), (F.sigmoid, ref_sigmoid)],
        ids=["relu", "sigmoid"],
    )
    def test_elementwise(self, op, ref):
        x = RNG.normal(size=(3, 4, 5))
        assert_same_grads(lambda x: op(x) * op(x * 2.0), lambda x: ref(x) * ref(x * 2.0), (x,), (3, 4, 5))

    @pytest.mark.parametrize(
        "op, ref",
        [(F.softmax, ref_softmax), (F.log_softmax, ref_log_softmax)],
        ids=["softmax", "log_softmax"],
    )
    @pytest.mark.parametrize("axis", [-1, 1])
    def test_softmaxes(self, op, ref, axis):
        x = RNG.normal(size=(2, 4, 6)) * 3.0
        assert_same_grads(
            lambda x: op(x, axis=axis) + op(x * 0.5, axis=axis),
            lambda x: ref(x, axis=axis) + ref(x * 0.5, axis=axis),
            (x,),
            (2, 4, 6),
        )

    def test_masked_fill(self):
        x = RNG.normal(size=(2, 3, 4, 4))
        mask = RNG.random((2, 3, 4, 4)) < 0.3
        assert_same_grads(
            lambda x: F.masked_fill(x, mask, -1e9) * F.masked_fill(x, ~mask, 0.0),
            lambda x: ref_masked_fill(x, mask, -1e9) * ref_masked_fill(x, ~mask, 0.0),
            (x,),
            (2, 3, 4, 4),
        )

    def test_not_recording_builds_no_graph(self):
        x, w, b = leaves(RNG.normal(size=(2, 3)), RNG.normal(size=(3, 3)), RNG.normal(size=(3,)))
        with nn.no_grad():
            out = F.layer_norm(F.linear(x, w, b), b, b)
        assert not out.requires_grad and out._backward is None and out._prev == ()
        recorded = F.linear(x, w, b)
        assert recorded.requires_grad and {id(p) for p in recorded._prev} == {id(x), id(w), id(b)}


# ---------------------------------------------------------------------------
# Central finite differences (float64)
# ---------------------------------------------------------------------------
H = 1e-6


def check_finite_differences(loss, tensors, samples=6, rtol=1e-6, atol=1e-8):
    """Compare analytic grads of scalar ``loss()`` with central differences
    at ``samples`` random coordinates of each tensor."""
    for t in tensors:
        t.grad = None
    loss().backward()
    analytic = [t.grad.copy() for t in tensors]
    rng = np.random.default_rng(7)
    for tensor, grad in zip(tensors, analytic):
        flat = tensor.data.reshape(-1)
        for index in rng.choice(flat.size, size=min(samples, flat.size), replace=False):
            saved = flat[index]
            flat[index] = saved + H
            up = loss().item()
            flat[index] = saved - H
            down = loss().item()
            flat[index] = saved
            numeric = (up - down) / (2 * H)
            np.testing.assert_allclose(grad.reshape(-1)[index], numeric, rtol=rtol, atol=atol)


class TestFiniteDifferences:
    def setup_method(self):
        self.upstream = Tensor(RNG.normal(size=(2, 3, 5)))

    def test_linear(self):
        x, w, b = leaves(RNG.normal(size=(2, 3, 4)), RNG.normal(size=(4, 5)), RNG.normal(size=(5,)))
        check_finite_differences(lambda: (F.linear(x, w, b) * self.upstream).sum(), [x, w, b])

    def test_layer_norm(self):
        x, g, b = leaves(RNG.normal(size=(2, 3, 5)), RNG.normal(size=(5,)), RNG.normal(size=(5,)))
        check_finite_differences(lambda: (F.layer_norm(x, g, b) * self.upstream).sum(), [x, g, b])

    @pytest.mark.parametrize("op", [F.softmax, F.log_softmax], ids=["softmax", "log_softmax"])
    def test_softmaxes(self, op):
        (x,) = leaves(RNG.normal(size=(2, 3, 5)))
        check_finite_differences(lambda: (op(x) * self.upstream).sum(), [x])

    def test_masked_fill(self):
        (x,) = leaves(RNG.normal(size=(2, 3, 5)))
        mask = RNG.random((2, 3, 5)) < 0.4
        check_finite_differences(lambda: (F.masked_fill(x, mask, -3.0) * self.upstream).sum(), [x])


class TestBlockFiniteDifferences:
    DIM, HEADS = 8, 2

    def test_multi_head_attention_with_causal_and_padding_masks(self):
        rng = np.random.default_rng(11)
        attn = nn.MultiHeadAttention(self.DIM, self.HEADS, rng=rng)
        (query,) = leaves(rng.normal(size=(2, 4, self.DIM)))
        padding = np.array([[False, False, False, True], [False, False, False, False]])
        upstream = Tensor(rng.normal(size=(2, 4, self.DIM)))

        def loss():
            out = attn(query, attn_mask=nn.causal_mask(4), key_padding_mask=padding)
            return (out * upstream).sum()

        check_finite_differences(
            loss, [query, attn.q_proj.weight, attn.k_proj.weight, attn.v_proj.bias, attn.out_proj.weight]
        )

    def test_decoder_layer_with_causal_and_memory_padding_masks(self):
        rng = np.random.default_rng(12)
        layer = nn.TransformerDecoderLayer(self.DIM, self.HEADS, ff_dim=16, rng=rng)
        x, memory = leaves(rng.normal(size=(2, 3, self.DIM)), rng.normal(size=(2, 5, self.DIM)))
        padding = np.array([[False, False, False, True, True], [False] * 5])
        upstream = Tensor(rng.normal(size=(2, 3, self.DIM)))

        def loss():
            return (layer(x, memory, memory_padding_mask=padding) * upstream).sum()

        check_finite_differences(
            loss,
            [x, memory, layer.norm1.gamma, layer.self_attn.q_proj.weight,
             layer.cross_attn.k_proj.weight, layer.ff1.weight, layer.norm3.beta],
        )
