"""LSTM cells, sequence LSTM and the child-sum Tree-LSTM.

The Tree-LSTM is used by the baseline plan-cost estimator
(:class:`repro.baselines.treelstm.TreeLSTMEstimator`), mirroring the
"Tree-LSTM" SOTA row of the paper's Table 1 (Sun & Li, 2019).
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .layers import Linear, Module
from .spec import shape_spec
from .tensor import Tensor

__all__ = ["LSTMCell", "LSTM", "ChildSumTreeLSTM"]


class LSTMCell(Module):
    """Single LSTM step for (batch, dim) inputs."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.ih = Linear(input_dim, 4 * hidden_dim, rng=rng)
        self.hh = Linear(hidden_dim, 4 * hidden_dim, rng=rng)

    @shape_spec(inputs={"x": "(B, input_dim)",
                        "state": ("(B, hidden_dim)", "(B, hidden_dim)")},
                out=("(B, hidden_dim)", "(B, hidden_dim)"),
                params=("ih", "hh"))
    def forward(self, x: Tensor, state: tuple[Tensor, Tensor] | None = None) -> tuple[Tensor, Tensor]:
        batch = x.shape[0]
        if state is None:
            h = Tensor(np.zeros((batch, self.hidden_dim)))
            c = Tensor(np.zeros((batch, self.hidden_dim)))
        else:
            h, c = state
        gates = self.ih(x) + self.hh(h)
        d = self.hidden_dim
        i = gates[:, 0 * d: 1 * d].sigmoid()
        f = gates[:, 1 * d: 2 * d].sigmoid()
        g = gates[:, 2 * d: 3 * d].tanh()
        o = gates[:, 3 * d: 4 * d].sigmoid()
        c_new = f * c + i * g
        h_new = o * c_new.tanh()
        return h_new, c_new


class LSTM(Module):
    """Unidirectional sequence LSTM over (batch, seq, dim) tensors."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator | None = None):
        super().__init__()
        self.cell = LSTMCell(input_dim, hidden_dim, rng=rng)
        self.hidden_dim = hidden_dim

    @shape_spec(inputs={"x": "(B, L, input_dim)"},
                out="(B, L, hidden_dim)",
                params=("cell",))
    def forward(self, x: Tensor) -> Tensor:
        """Return the stacked hidden states, shape (batch, seq, hidden)."""
        state = None
        outputs = []
        for t in range(x.shape[1]):
            h, c = self.cell(x[:, t, :], state)
            state = (h, c)
            outputs.append(h)
        return F.stack(outputs, axis=1)


class ChildSumTreeLSTM(Module):
    """Child-sum Tree-LSTM (Tai et al. 2015) for binary plan trees.

    ``forward`` consumes a node-feature tensor plus explicit child links
    so whole plan trees can be encoded bottom-up.  For a plan-tree node
    with children states ``(h_l, c_l)`` and ``(h_r, c_r)``, the update is
    the standard child-sum rule with per-child forget gates.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.iou_x = Linear(input_dim, 3 * hidden_dim, rng=rng)
        self.iou_h = Linear(hidden_dim, 3 * hidden_dim, bias=False, rng=rng)
        self.f_x = Linear(input_dim, hidden_dim, rng=rng)
        self.f_h = Linear(hidden_dim, hidden_dim, bias=False, rng=rng)

    @shape_spec(inputs={"x": "(B, input_dim)"},
                out=("(B, hidden_dim)", "(B, hidden_dim)"),
                params=("iou_x", "iou_h", "f_x", "f_h"))
    def node_forward(self, x: Tensor, child_states: list[tuple[Tensor, Tensor]]) -> tuple[Tensor, Tensor]:
        """Compute the (h, c) state of one node given its children's states.

        ``x`` has shape (1, input_dim); children may be empty (leaves).
        """
        if child_states:
            h_sum = child_states[0][0]
            for h, _ in child_states[1:]:
                h_sum = h_sum + h
        else:
            h_sum = Tensor(np.zeros((x.shape[0], self.hidden_dim)))

        iou = self.iou_x(x) + self.iou_h(h_sum)
        d = self.hidden_dim
        i = iou[:, 0 * d: 1 * d].sigmoid()
        o = iou[:, 1 * d: 2 * d].sigmoid()
        u = iou[:, 2 * d: 3 * d].tanh()

        c = i * u
        fx = self.f_x(x)
        for h_child, c_child in child_states:
            f = (fx + self.f_h(h_child)).sigmoid()
            c = c + f * c_child
        h = o * c.tanh()
        return h, c

    def encode_tree(self, features: dict, children: dict, root) -> Tensor:
        """Encode a tree given per-node features and a children mapping.

        Parameters
        ----------
        features:
            Mapping node-id -> (1, input_dim) feature array or Tensor.
        children:
            Mapping node-id -> list of child node-ids.
        root:
            Id of the root node.

        Returns the root hidden state, shape (1, hidden_dim).
        """
        memo: dict = {}

        def visit(node) -> tuple[Tensor, Tensor]:
            if node in memo:
                return memo[node]
            child_states = [visit(c) for c in children.get(node, [])]
            feat = features[node]
            if not isinstance(feat, Tensor):
                feat = Tensor(np.asarray(feat, dtype=np.float64))
            state = self.node_forward(feat.reshape(1, -1), child_states)
            memo[node] = state
            return state

        h, _ = visit(root)
        return h
