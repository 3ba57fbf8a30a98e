"""Invertible window transforms built from normalization and coupling layers.

Layers map [batch, length, variates] tensors and expose an exact inverse.
Normalization layers cache the statistics of their most recent forward input
so the inverse can be applied to a window of a different length (the forecast
horizon) while restoring the lookback's location and scale.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError
from .nn import MLP

VARIANTS = ("pre_norm", "post_norm", "coupling_only", "batch_norm")

# BatchNormLayer's variance floor and the weight of each batch in its running averages
BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def _check_window(h: Tensor, op: str, num_variates: int | None = None) -> None:
    """Check h is a [batch, length, variates] window, of num_variates if given."""
    if h.ndim != 3:
        raise ContractError(f"{op} expects [batch, length, variates], got {h.shape}")
    if num_variates is not None and h.shape[2] != num_variates:
        raise ContractError(f"layer built for {num_variates} variates, input has {h.shape[2]}")


class InstanceNormLayer:
    """Standardize each window per variate over its own time axis.

    Forward uses the input's per-instance mean/variance and a learnable
    affine (exp(log_scale), shift); both statistics are kept on the tape so
    gradients flow through them. The inverse consumes the cached statistics,
    so it can restore a window of any length.
    """

    def __init__(self, num_variates: int, eps: float = 1e-5, affine: bool = True):
        if eps <= 0:
            raise ConfigError(f"eps must be positive, got {eps}")
        self.num_variates = num_variates
        self.eps = eps
        self.affine = affine
        self.log_scale = Tensor(np.zeros(num_variates), requires_grad=affine)
        self.shift = Tensor(np.zeros(num_variates), requires_grad=affine)
        self._cache: tuple[Tensor, Tensor, int] | None = None

    def forward(self, h: Tensor) -> Tensor:
        _check_window(h, "instance norm forward", self.num_variates)
        mu = ad.mean_axis(h, axis=1, keepdims=True)
        var = ad.var_axis(h, axis=1, keepdims=True)
        self._cache = (mu, var, h.shape[0])
        inv_std = ad.power(var + self.eps, -0.5)
        return (h - mu) * inv_std * ad.exp(self.log_scale) + self.shift

    def inverse(self, h: Tensor) -> Tensor:
        _check_window(h, "instance norm inverse", self.num_variates)
        if self._cache is None:
            raise ContractError("instance norm inverse called before any forward")
        mu, var, batch = self._cache
        if h.shape[0] != batch:
            raise ContractError(
                f"inverse batch {h.shape[0]} does not match cached forward batch {batch}"
            )
        std = ad.power(var + self.eps, 0.5)
        return (h - self.shift) * ad.exp(-self.log_scale) * std + mu

    def parameters(self) -> dict[str, Tensor]:
        if not self.affine:
            return {}
        return {"log_scale": self.log_scale, "shift": self.shift}

    def buffers(self) -> dict[str, Tensor]:
        return {} if self.affine else {"log_scale": self.log_scale, "shift": self.shift}


class BatchNormLayer:
    """Normalize by statistics pooled over batch and time, per variate.

    In training mode the forward normalizes by the batch's own statistics,
    folds them into the running averages, and the inverse replays them. In
    evaluation mode, which is also how a frozen transform runs, both
    directions use the running averages and leave them unchanged. The trainer
    freezes the transform in every pass that does not train phi, so the
    running averages come only from batches phi is trained on.
    """

    def __init__(self, num_variates: int):
        self.num_variates = num_variates
        self.log_scale = Tensor(np.zeros(num_variates), requires_grad=True)
        self.shift = Tensor(np.zeros(num_variates), requires_grad=True)
        self.running_mean = Tensor(np.zeros(num_variates))
        self.running_var = Tensor(np.ones(num_variates))
        self.training = True
        self._cache: tuple[Tensor, Tensor] | None = None

    def _batch_stats(self, h: Tensor) -> tuple[Tensor, Tensor]:
        flat = ad.reshape(h, (h.shape[0] * h.shape[1], h.shape[2]))
        mu = ad.mean_axis(flat, axis=0)
        var = ad.var_axis(flat, axis=0)
        return mu, var

    def forward(self, h: Tensor) -> Tensor:
        _check_window(h, "batch norm forward", self.num_variates)
        if self.training:
            mu, var = self._batch_stats(h)
            self._cache = (mu, var)
            m = BN_MOMENTUM
            self.running_mean.data = (1 - m) * self.running_mean.data + m * mu.data
            self.running_var.data = (1 - m) * self.running_var.data + m * var.data
        else:
            mu, var = self.running_mean, self.running_var
        inv_std = ad.power(var + BN_EPS, -0.5)
        return (h - mu) * inv_std * ad.exp(self.log_scale) + self.shift

    def inverse(self, h: Tensor) -> Tensor:
        _check_window(h, "batch norm inverse", self.num_variates)
        if self.training:
            if self._cache is None:
                raise ContractError("batch norm inverse called before any forward")
            mu, var = self._cache
        else:
            mu, var = self.running_mean, self.running_var
        std = ad.power(var + BN_EPS, 0.5)
        return (h - self.shift) * ad.exp(-self.log_scale) * std + mu

    def parameters(self) -> dict[str, Tensor]:
        return {"log_scale": self.log_scale, "shift": self.shift}

    def buffers(self) -> dict[str, Tensor]:
        return {"running_mean": self.running_mean, "running_var": self.running_var}


class CouplingLayer:
    """Affine coupling over the variate axis, applied per time step.

    The first ceil(D/2) channels pass through untouched and condition the
    scale/translate networks for the rest. The raw scale output goes through
    exp(tanh(.)), keeping the multiplier inside [1/e, e] so the layer is
    always invertible. Both networks start at zero, so a fresh layer is the
    identity map.
    """

    def __init__(self, num_variates: int, hidden: int = 128,
                 rng: np.random.Generator | None = None, warn_degenerate: bool = True):
        self.num_variates = num_variates
        self.split_index = math.ceil(num_variates / 2)
        n_out = num_variates - self.split_index
        if n_out == 0:
            if warn_degenerate:
                warnings.warn(
                    "coupling layer with a single variate has no channels to transform "
                    "and acts as the identity",
                    stacklevel=2,
                )
            self.scale_net = None
            self.translate_net = None
        else:
            sizes = [self.split_index, hidden, hidden, n_out]
            self.scale_net = MLP(sizes, "tanh", rng=rng, zero_init_last=True,
                                 activate_last=True)
            self.translate_net = MLP(sizes, "tanh", rng=rng, zero_init_last=True)

    def _split(self, h: Tensor) -> tuple[Tensor, Tensor]:
        d_c = self.split_index
        return (
            ad.slice_axis(h, axis=2, start=0, stop=d_c),
            ad.slice_axis(h, axis=2, start=d_c, stop=self.num_variates),
        )

    def _scale(self, conditioner: Tensor) -> Tensor:
        return ad.exp(self.scale_net(conditioner))

    def forward(self, h: Tensor) -> Tensor:
        _check_window(h, "coupling forward", self.num_variates)
        if self.scale_net is None:
            return h
        h1, h2 = self._split(h)
        out2 = h2 * self._scale(h1) + self.translate_net(h1)
        return ad.concat([h1, out2], axis=2)

    def inverse(self, h: Tensor) -> Tensor:
        _check_window(h, "coupling inverse", self.num_variates)
        if self.scale_net is None:
            return h
        h1, h2 = self._split(h)
        out2 = (h2 - self.translate_net(h1)) / self._scale(h1)
        return ad.concat([h1, out2], axis=2)

    def parameters(self) -> dict[str, Tensor]:
        if self.scale_net is None:
            return {}
        out = {}
        for prefix, net in (("scale", self.scale_net), ("translate", self.translate_net)):
            for k, p in net.parameters().items():
                out[f"{prefix}.{k}"] = p
        return out

    def buffers(self) -> dict[str, Tensor]:
        return {}


class PermuteLayer:
    """Reverse the variate order; parameter-free and its own inverse."""

    def forward(self, h: Tensor) -> Tensor:
        _check_window(h, "permute")
        return ad.flip_axis(h, axis=2)

    def inverse(self, h: Tensor) -> Tensor:
        _check_window(h, "permute")
        return ad.flip_axis(h, axis=2)

    def parameters(self) -> dict[str, Tensor]:
        return {}

    def buffers(self) -> dict[str, Tensor]:
        return {}


def _build_block(variant: str, num_variates: int, hidden: int,
                 rng: np.random.Generator | None, warn_degenerate: bool) -> list:
    coupling = CouplingLayer(num_variates, hidden=hidden, rng=rng,
                             warn_degenerate=warn_degenerate)
    permute = PermuteLayer()
    if variant == "pre_norm":
        return [InstanceNormLayer(num_variates), coupling, permute]
    if variant == "post_norm":
        return [coupling, permute, InstanceNormLayer(num_variates)]
    if variant == "coupling_only":
        return [coupling, permute]
    if variant == "batch_norm":
        return [BatchNormLayer(num_variates), coupling, permute]
    raise ConfigError(f"unknown flow variant {variant!r}; choose from {VARIANTS}")


class FlowStack:
    """Stacked invertible blocks; one network serves both window lengths.

    Because per-instance statistics are cached at forward time and the
    coupling networks act per time step, the same stack transforms a
    length-L lookback forward and a length-H prediction backward.
    """

    def __init__(self, num_variates: int, num_blocks: int, variant: str = "pre_norm",
                 hidden: int = 128, rng: np.random.Generator | None = None):
        self.check(num_blocks, hidden)
        if rng is None:
            rng = np.random.default_rng(0)
        self.num_variates = num_variates
        self.layers: list = []
        for block in range(num_blocks):
            # a degenerate single-variate coupling warns once per stack, not per block
            self.layers.extend(
                _build_block(variant, num_variates, hidden, rng,
                             warn_degenerate=block == 0)
            )

    @staticmethod
    def check(num_blocks: int, hidden: int) -> None:
        """Reject sizes no stack can be built with; each message starts with the argument."""
        if num_blocks < 0:
            raise ConfigError(f"num_blocks must be >= 0, got {num_blocks}")
        if hidden < 1:
            raise ConfigError(f"hidden must be >= 1, got {hidden}")

    @classmethod
    def from_layers(cls, layers: list, num_variates: int) -> "FlowStack":
        stack = cls.__new__(cls)
        stack.num_variates = num_variates
        stack.layers = list(layers)
        return stack

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def inverse(self, y: Tensor) -> Tensor:
        for layer in reversed(self.layers):
            y = layer.inverse(y)
        return y

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for i, layer in enumerate(self.layers):
            for k, p in layer.parameters().items():
                out[f"layers.{i}.{k}"] = p
        return out

    def buffers(self) -> dict[str, Tensor]:
        out = {}
        for i, layer in enumerate(self.layers):
            for k, p in layer.buffers().items():
                out[f"layers.{i}.{k}"] = p
        return out

    def train_mode(self, flag: bool = True) -> None:
        for layer in self.layers:
            if isinstance(layer, BatchNormLayer):
                layer.training = flag
