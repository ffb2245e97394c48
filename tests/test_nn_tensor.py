"""Unit tests for the autograd engine: gradients vs finite differences."""

import numpy as np
import pytest

from repro.nn import Tensor, no_grad
from repro.nn import functional as F


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued fn at x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        gflat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(make_output, x_data: np.ndarray, atol: float = 1e-5):
    x = Tensor(x_data.copy(), requires_grad=True)
    out = make_output(x)
    out.backward()
    expected = numeric_grad(lambda arr: float(make_output(Tensor(arr)).data), x_data.copy())
    np.testing.assert_allclose(x.grad, expected, atol=atol, rtol=1e-4)


RNG = np.random.default_rng(7)


class TestBasicOps:
    def test_add_backward(self):
        check_gradient(lambda x: (x + 3.0).sum(), RNG.normal(size=(3, 4)))

    def test_mul_backward(self):
        y = RNG.normal(size=(3, 4))
        check_gradient(lambda x: (x * Tensor(y)).sum(), RNG.normal(size=(3, 4)))

    def test_broadcast_add(self):
        b = RNG.normal(size=(4,))
        check_gradient(lambda x: (x + Tensor(b)).sum(), RNG.normal(size=(3, 4)))

    def test_broadcast_grad_flows_to_small_operand(self):
        big = Tensor(RNG.normal(size=(3, 4)))
        small = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        (big * small).sum().backward()
        np.testing.assert_allclose(small.grad, big.data.sum(axis=0))

    def test_sub_div_pow(self):
        check_gradient(lambda x: ((x - 1.5) / 2.0).sum(), RNG.normal(size=(5,)))
        check_gradient(lambda x: (x ** 3.0).sum(), RNG.normal(size=(5,)) + 2.0)

    def test_matmul_backward(self):
        w = RNG.normal(size=(4, 2))
        check_gradient(lambda x: (x @ Tensor(w)).sum(), RNG.normal(size=(3, 4)))

    def test_matmul_batched(self):
        w = RNG.normal(size=(2, 4, 5))
        check_gradient(lambda x: (x @ Tensor(w)).sum(), RNG.normal(size=(2, 3, 4)))

    def test_matmul_right_grad(self):
        x = Tensor(RNG.normal(size=(3, 4)))
        w = Tensor(RNG.normal(size=(4, 2)), requires_grad=True)
        (x @ w).sum().backward()
        np.testing.assert_allclose(w.grad, x.data.T @ np.ones((3, 2)))

    def test_getitem_backward(self):
        x = Tensor(RNG.normal(size=(4, 5)), requires_grad=True)
        x[1:3, :2].sum().backward()
        expected = np.zeros((4, 5))
        expected[1:3, :2] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_getitem_integer_array_accumulates_duplicates(self):
        x = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
        idx = np.array([0, 0, 2])
        x[idx].sum().backward()
        expected = np.zeros((4, 3))
        expected[0] = 2.0
        expected[2] = 1.0
        np.testing.assert_allclose(x.grad, expected)


class TestReductionsAndShape:
    def test_sum_axis(self):
        check_gradient(lambda x: (x.sum(axis=0) ** 2.0).sum(), RNG.normal(size=(3, 4)))

    def test_mean(self):
        check_gradient(lambda x: x.mean(), RNG.normal(size=(6, 2)))

    def test_mean_axis_keepdims(self):
        check_gradient(lambda x: (x - x.mean(axis=-1, keepdims=True)).abs().sum(), RNG.normal(size=(3, 4)))

    def test_max_backward_routes_to_argmax(self):
        x = Tensor(np.array([[1.0, 5.0, 2.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.0, 1.0, 0.0]])

    def test_reshape_transpose(self):
        check_gradient(lambda x: (x.reshape(2, 6).transpose() ** 2.0).sum(), RNG.normal(size=(3, 4)))

    def test_swapaxes(self):
        x = Tensor(RNG.normal(size=(2, 3, 4)), requires_grad=True)
        y = x.swapaxes(1, 2)
        assert y.shape == (2, 4, 3)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3, 4)))


class TestNonlinearities:
    @pytest.mark.parametrize("op", ["tanh", "sigmoid", "relu", "exp", "abs"])
    def test_elementwise_grads(self, op):
        data = RNG.normal(size=(4, 3)) + 0.1
        check_gradient(lambda x: getattr(x, op)().sum(), data)

    def test_log_grad(self):
        check_gradient(lambda x: x.log().sum(), RNG.uniform(0.5, 3.0, size=(5,)))

    def test_clip_grad(self):
        x = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(RNG.normal(size=(3, 7)))
        s = F.softmax(x)
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(3), atol=1e-12)

    def test_softmax_grad(self):
        data = RNG.normal(size=(2, 5))
        weights = RNG.normal(size=(2, 5))
        check_gradient(lambda x: (F.softmax(x) * Tensor(weights)).sum(), data)

    def test_log_softmax_grad(self):
        data = RNG.normal(size=(2, 5))
        weights = RNG.normal(size=(2, 5))
        check_gradient(lambda x: (F.log_softmax(x) * Tensor(weights)).sum(), data)

    def test_gelu_grad(self):
        check_gradient(lambda x: F.gelu(x).sum(), RNG.normal(size=(6,)))


class TestGraphMechanics:
    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x + x * 3.0
        y.backward()
        np.testing.assert_allclose(x.grad, [2 * 2.0 + 3.0])

    def test_no_grad_context(self):
        with no_grad():
            x = Tensor(np.ones(3), requires_grad=True)
            assert not x.requires_grad

    def test_backward_on_nograd_tensor_raises(self):
        x = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            x.backward()

    def test_detach_stops_gradient(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x.detach() * 2.0
        assert not y.requires_grad

    def test_diamond_graph(self):
        x = Tensor(np.array([1.5]), requires_grad=True)
        a = x * 2.0
        b = x * 3.0
        (a * b).backward()
        np.testing.assert_allclose(x.grad, [2 * 6.0 * 1.5])

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.0
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0])


class TestFunctionalCombinators:
    def test_concat_grads(self):
        a = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
        F.concat([a, b], axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, np.ones((2, 2)))

    def test_stack_grads(self):
        tensors = [Tensor(RNG.normal(size=(3,)), requires_grad=True) for _ in range(4)]
        F.stack(tensors, axis=0).sum().backward()
        for t in tensors:
            np.testing.assert_allclose(t.grad, np.ones(3))

    def test_where_routes_gradient(self):
        cond = np.array([True, False, True])
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        F.where(cond, a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0, 0.0])

    def test_masked_fill(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        mask = np.array([False, True, False, True])
        out = F.masked_fill(x, mask, -99.0)
        np.testing.assert_allclose(out.data, [0.0, -99.0, 2.0, -99.0])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0, 0.0, 1.0, 0.0])

    def test_pad_sequences(self):
        batch, mask = F.pad_sequences([np.ones((2, 3)), np.ones((4, 3))])
        assert batch.shape == (2, 4, 3)
        assert mask[0].tolist() == [False, False, True, True]
        assert mask[1].tolist() == [False, False, False, False]

    def test_one_hot(self):
        out = F.one_hot(np.array([0, 2]), 3)
        np.testing.assert_allclose(out, [[1, 0, 0], [0, 0, 1]])


class TestFastPathBitIdentity:
    """A forward that is not recorded must be *bit-identical* to the same
    forward recorded on the tape.

    Every layer is run twice on the same inputs in eval mode — once with
    grad on (its parameters require grad, so each op records its VJP)
    and once under ``nn.no_grad()`` (each op wraps its kernel's output,
    possibly in a scratch buffer) — and the outputs compared with exact
    equality, not allclose: beam search ranks candidates by log-prob,
    and a last-ulp divergence can reorder a beam.
    """

    @staticmethod
    def _fast_vs_tape(module, *args, **kwargs):
        import repro.nn as nn

        module.eval()
        tape = module(*args, **kwargs)
        assert tape.requires_grad  # really recorded
        with nn.no_grad():
            fast = module(*args, **kwargs)
        assert not fast.requires_grad
        return tape, fast

    def test_linear_layernorm_mlp(self):
        from repro.nn import MLP, LayerNorm, Linear

        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(5, 4, 16)))
        for module in (Linear(16, 16, rng=rng), LayerNorm(16), MLP([16, 32, 16], rng=rng)):
            tape, fast = self._fast_vs_tape(module, x)
            np.testing.assert_array_equal(fast.data, tape.data)

    def test_attention_with_and_without_masks(self):
        from repro.nn import MultiHeadAttention, causal_mask

        rng = np.random.default_rng(4)
        attn = MultiHeadAttention(16, 4, rng=rng)
        q = Tensor(rng.normal(size=(3, 6, 16)))
        padding = rng.random((3, 6)) < 0.3
        for kwargs in (
            {},
            {"attn_mask": causal_mask(6)},
            {"key_padding_mask": padding},
            {"attn_mask": causal_mask(6), "key_padding_mask": padding},
        ):
            tape, fast = self._fast_vs_tape(attn, q, **kwargs)
            np.testing.assert_array_equal(fast.data, tape.data)

    def test_attention_cross_with_cached_kv(self):
        import repro.nn as nn
        from repro.nn import MultiHeadAttention

        rng = np.random.default_rng(5)
        attn = MultiHeadAttention(16, 4, rng=rng)
        attn.eval()
        q = Tensor(rng.normal(size=(2, 3, 16)))
        memory = Tensor(rng.normal(size=(2, 7, 16)))
        tape = attn(q, memory, memory)
        with nn.no_grad():
            inline = attn(q, memory, memory)
            kv = attn.project_kv(memory)
            cached = attn(q, None, None, static_kv=kv)
        np.testing.assert_array_equal(inline.data, tape.data)
        np.testing.assert_array_equal(cached.data, tape.data)

    def test_transformer_encoder_and_decoder_blocks(self):
        from repro.nn import TransformerDecoder, TransformerEncoder

        rng = np.random.default_rng(6)
        encoder = TransformerEncoder(16, 4, num_layers=2, rng=rng)
        decoder = TransformerDecoder(16, 4, num_layers=2, rng=rng)
        x = Tensor(rng.normal(size=(2, 5, 16)))
        memory = Tensor(rng.normal(size=(2, 7, 16)))
        padding = rng.random((2, 7)) < 0.3

        tape, fast = self._fast_vs_tape(encoder, x)
        np.testing.assert_array_equal(fast.data, tape.data)

        tape, fast = self._fast_vs_tape(decoder, x, memory, memory_padding_mask=padding)
        np.testing.assert_array_equal(fast.data, tape.data)

    def test_decoder_with_projected_memory_kv(self):
        import repro.nn as nn
        from repro.nn import TransformerDecoder

        rng = np.random.default_rng(7)
        decoder = TransformerDecoder(16, 4, num_layers=2, rng=rng)
        decoder.eval()
        x = Tensor(rng.normal(size=(2, 5, 16)))
        memory = Tensor(rng.normal(size=(2, 7, 16)))
        tape = decoder(x, memory)
        with nn.no_grad():
            kv = decoder.project_memory_kv(memory)
            fast = decoder(x, None, memory_kv=kv)
        np.testing.assert_array_equal(fast.data, tape.data)

    def test_lstm(self):
        from repro.nn import LSTM

        rng = np.random.default_rng(8)
        lstm = LSTM(12, 10, rng=rng)
        x = Tensor(rng.normal(size=(3, 6, 12)))
        tape, fast = self._fast_vs_tape(lstm, x)
        np.testing.assert_array_equal(fast.data, tape.data)

    def test_embedding_blocks_cells_and_tree(self):
        import repro.nn as nn
        from repro.nn import (
            ChildSumTreeLSTM,
            Embedding,
            LSTMCell,
            TransformerDecoderLayer,
            TransformerEncoderLayer,
        )

        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(2, 5, 16)))
        memory = Tensor(rng.normal(size=(2, 7, 16)))
        padding = rng.random((2, 7)) < 0.3
        tape, fast = self._fast_vs_tape(Embedding(9, 16, rng=rng), rng.integers(0, 9, size=(2, 5)))
        np.testing.assert_array_equal(fast.data, tape.data)
        tape, fast = self._fast_vs_tape(TransformerEncoderLayer(16, 4, rng=rng), memory, key_padding_mask=padding)
        np.testing.assert_array_equal(fast.data, tape.data)
        tape, fast = self._fast_vs_tape(
            TransformerDecoderLayer(16, 4, rng=rng), x, memory, memory_padding_mask=padding
        )
        np.testing.assert_array_equal(fast.data, tape.data)

        cell = LSTMCell(16, 8, rng=rng)
        (h_tape, c_tape) = cell(x[:, 0, :])
        with nn.no_grad():
            h_fast, c_fast = cell(x[:, 0, :])
        np.testing.assert_array_equal(h_fast.data, h_tape.data)
        np.testing.assert_array_equal(c_fast.data, c_tape.data)

        tree = ChildSumTreeLSTM(16, 8, rng=rng)
        features = {i: rng.normal(size=(1, 16)) for i in range(5)}
        children = {4: [2, 3], 3: [0, 1]}
        h_tape = tree.encode_tree(features, children, 4)
        with nn.no_grad():
            h_fast = tree.encode_tree(features, children, 4)
        assert h_tape.requires_grad and not h_fast.requires_grad
        np.testing.assert_array_equal(h_fast.data, h_tape.data)

    def test_softmax_and_log_softmax_kernels(self):
        import repro.nn as nn
        from repro.nn import kernels

        rng = np.random.default_rng(9)
        for shape in ((7,), (3, 5), (2, 4, 8, 6)):
            x = rng.normal(size=shape) * 10.0
            tape_sm = F.softmax(Tensor(x, requires_grad=True), axis=-1).data
            tape_lsm = F.log_softmax(Tensor(x, requires_grad=True), axis=-1).data
            with nn.no_grad():
                np.testing.assert_array_equal(kernels.softmax(x, axis=-1), tape_sm)
                np.testing.assert_array_equal(kernels.log_softmax(x, axis=-1), tape_lsm)
                np.testing.assert_array_equal(F.softmax(Tensor(x), axis=-1).data, tape_sm)
                np.testing.assert_array_equal(F.log_softmax(Tensor(x), axis=-1).data, tape_lsm)

    def test_tree_path_encoding_cache_is_bitwise_stable(self):
        from repro.nn.positional import TreePosition, _TREE_PATH_CACHE, tree_path_encoding

        position = TreePosition((0, 1, 1, 0))
        _TREE_PATH_CACHE.clear()
        first = tree_path_encoding(position, 16)
        again = tree_path_encoding(position, 16)
        assert again is first  # memoized, not recomputed
        assert not first.flags.writeable  # consumers cannot corrupt it
        _TREE_PATH_CACHE.clear()
        recomputed = tree_path_encoding(TreePosition((0, 1, 1, 0)), 16)
        np.testing.assert_array_equal(recomputed, first)

    def test_eval_dropout_is_identity_object_both_paths(self):
        import repro.nn as nn
        from repro.nn import Dropout

        drop = Dropout(0.5)
        drop.eval()
        x = Tensor(RNG.normal(size=(4, 4)), requires_grad=True)
        assert drop(x) is x
        with nn.no_grad():
            assert drop(x) is x
