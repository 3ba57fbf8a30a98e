"""Small dense-network building blocks shared by transforms and forecasters."""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def prefixed(children: dict, method: str = "parameters") -> dict[str, Tensor]:
    """Name each child's tensors `<prefix>.<name>`, in the children's order.

    `children` maps a prefix to an object whose `method` returns its own named
    tensors; this is how every checkpoint tensor name is built.
    """
    return {f"{prefix}.{k}": t for prefix, child in children.items()
            for k, t in getattr(child, method)().items()}


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Dense:
    """Affine map over the trailing axis: y = x @ W + b."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None, zero_init: bool = False):
        if zero_init or rng is None:
            w = np.zeros((in_features, out_features))
        else:
            w = xavier_uniform(rng, in_features, out_features)
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.mlp(x, [(self.weight, self.bias)], [None])

    def parameters(self) -> dict[str, Tensor]:
        return {"weight": self.weight, "bias": self.bias}


class MLP:
    """Stack of Dense layers with a fixed activation between them, run as one op.

    The output layer is linear unless `activate_last` gives it the activation
    too; `zero_init_last` starts it at the zero map, which is how coupling
    networks and residual heads begin as identities.
    """

    def __init__(self, sizes: list[int], activation: str,
                 rng: np.random.Generator | None = None, zero_init_last: bool = False,
                 activate_last: bool = False):
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        if activation not in ad.MLP_ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.activations = [activation] * (len(sizes) - 2) + [
            activation if activate_last else None]
        self.layers = []
        for i in range(len(sizes) - 1):
            last = i == len(sizes) - 2
            self.layers.append(
                Dense(sizes[i], sizes[i + 1], rng=rng, zero_init=zero_init_last and last)
            )

    def __call__(self, x: Tensor) -> Tensor:
        return ad.mlp(x, [(layer.weight, layer.bias) for layer in self.layers],
                      self.activations)

    def parameters(self) -> dict[str, Tensor]:
        return prefixed({f"layer{i}": layer for i, layer in enumerate(self.layers)})
