"""``repro.nn`` — a small numpy autograd + neural network framework.

Substitutes for PyTorch in this reproduction (no deep-learning framework
is available offline).  Provides reverse-mode autodiff tensors, standard
layers, multi-head attention, transformer encoder/decoder stacks, LSTMs
and the child-sum Tree-LSTM, optimizers and loss functions.
"""

from . import functional, kernels
from .attention import KVCache, MultiHeadAttention, causal_mask
from .kernels import ScratchArena
from .layers import MLP, Dropout, Embedding, LayerNorm, Linear, Module, ModuleList, Parameter, Sequential
from .losses import cross_entropy, kl_divergence, mse_loss, q_error, q_error_loss
from .lstm import LSTM, ChildSumTreeLSTM, LSTMCell
from .optim import SGD, Adam, clip_grad_norm
from .positional import TreePosition, sinusoidal_encoding, tree_path_encoding
from .serialize import load_module, save_module
from .spec import shape_spec
from .tensor import Tensor, is_grad_enabled, no_grad
from .transformer import TransformerDecoder, TransformerDecoderLayer, TransformerEncoder, TransformerEncoderLayer

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "kernels",
    "KVCache",
    "ScratchArena",
    "Module",
    "ModuleList",
    "Parameter",
    "Linear",
    "LayerNorm",
    "Embedding",
    "Dropout",
    "Sequential",
    "MLP",
    "MultiHeadAttention",
    "causal_mask",
    "TransformerEncoder",
    "TransformerEncoderLayer",
    "TransformerDecoder",
    "TransformerDecoderLayer",
    "LSTM",
    "LSTMCell",
    "ChildSumTreeLSTM",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "q_error",
    "q_error_loss",
    "cross_entropy",
    "kl_divergence",
    "mse_loss",
    "sinusoidal_encoding",
    "tree_path_encoding",
    "TreePosition",
    "save_module",
    "load_module",
    "shape_spec",
]
