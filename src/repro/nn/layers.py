"""Neural-network layers built on the autograd :class:`Tensor`.

Provides the ``Module`` base class (parameter registration, train/eval
mode, state dicts) and the standard layers used by MTMLF-QO: ``Linear``,
``LayerNorm``, ``Embedding``, ``Dropout``, ``Sequential`` and ``MLP``.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .spec import shape_spec
from .tensor import Tensor, is_grad_enabled

__all__ = ["Module", "Parameter", "Linear", "LayerNorm", "Embedding", "Dropout", "Sequential", "MLP", "ModuleList"]


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as a trainable parameter."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class with recursive parameter discovery and (de)serialization."""

    def __init__(self):
        self.training = True

    # -- parameter traversal -------------------------------------------------
    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        found: list[tuple[str, Parameter]] = []
        for key, value in vars(self).items():
            path = f"{prefix}{key}"
            if isinstance(value, Parameter):
                found.append((path, value))
            elif isinstance(value, Module):
                found.extend(value.named_parameters(prefix=path + "."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        found.append((f"{path}.{i}", item))
                    elif isinstance(item, Module):
                        found.extend(item.named_parameters(prefix=f"{path}.{i}."))
            elif isinstance(value, dict):
                # Sorted so parameter order (and thus state-dict layout and
                # optimizer alignment) never depends on insertion order.
                for sub_key, item in sorted(value.items(), key=lambda kv: str(kv[0])):
                    if isinstance(item, Parameter):
                        found.append((f"{path}.{sub_key}", item))
                    elif isinstance(item, Module):
                        found.extend(item.named_parameters(prefix=f"{path}.{sub_key}."))
        return found

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    # -- train / eval mode ----------------------------------------------------
    def train(self) -> "Module":
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for value in vars(self).values():
            if isinstance(value, Module):
                value._set_mode(training)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item._set_mode(training)
            elif isinstance(value, dict):
                for item in value.values():
                    if isinstance(item, Module):
                        item._set_mode(training)

    # -- serialization ----------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {param.data.shape}")
            param.data = value.copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class ModuleList(Module):
    """A list of sub-modules whose parameters are tracked."""

    def __init__(self, modules: list[Module] | None = None):
        super().__init__()
        self.items = list(modules or [])

    def append(self, module: Module) -> None:
        self.items.append(module)

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index: int) -> Module:
        return self.items[index]


def xavier_uniform(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialisation."""
    fan_in, fan_out = shape[0], shape[-1]
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Linear(Module):
    """Affine layer ``y = x W + b`` supporting arbitrary leading dims."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    @shape_spec(inputs={"x": "(..., in_features)"},
                out="(..., out_features)",
                params=("weight", "bias"))
    def forward(self, x: Tensor, scratch=None, tag: str = "") -> Tensor:
        return F.linear(x, self.weight, self.bias, scratch=scratch, tag=tag)


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    @shape_spec(inputs={"x": "(..., dim)"},
                out="(..., dim)",
                params=("gamma", "beta"))
    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.gamma, self.beta, self.eps)


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(num_embeddings, dim)))

    @shape_spec(inputs={"indices": "(B, L)"},
                out="(B, L, dim)",
                params=("weight",),
                dtypes={"indices": "int64"})
    def forward(self, indices) -> Tensor:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.min(initial=0) < 0 or (indices.size and indices.max() >= self.num_embeddings):
            raise IndexError("embedding index out of range")
        return self.weight[indices]


class Dropout(Module):
    """Inverted dropout; identity when the module is in eval mode."""

    def __init__(self, p: float = 0.1, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self.rng = rng or np.random.default_rng(0)

    @shape_spec(inputs={"x": "(...,)"}, out="(...,)")
    def forward(self, x: Tensor) -> Tensor:
        # Inference-mode dropout is a *true* no-op: the input object
        # passes through untouched — no pass-through tensor on the tape,
        # no copy when not recording (tests assert identity).
        if not self.training or self.p == 0.0 or not is_grad_enabled():
            return x
        keep = 1.0 - self.p
        mask = self.rng.random(x.shape) < keep
        return x * Tensor(mask.astype(np.float64) / keep)


class Sequential(Module):
    """Apply sub-modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.steps = ModuleList(list(modules))

    def forward(self, x: Tensor) -> Tensor:
        for module in self.steps:
            x = module(x)
        return x


class MLP(Module):
    """Multi-layer perceptron with ReLU activations between layers.

    Used for the paper's task heads ``M_CardEst`` and ``M_CostEst``
    (two-layer MLPs in the case study).
    """

    def __init__(self, dims: list[int], rng: np.random.Generator | None = None, dropout: float = 0.0):
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        rng = rng or np.random.default_rng(0)
        self.layers = ModuleList([Linear(a, b, rng=rng) for a, b in zip(dims[:-1], dims[1:])])
        self.dropout = Dropout(dropout, rng=rng) if dropout > 0 else None

    @shape_spec(inputs={"x": "(..., d_in)"},
                out="(..., d_out)",
                params=("layers",))
    def forward(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = x.relu()
                if self.dropout is not None:
                    x = self.dropout(x)
        return x
