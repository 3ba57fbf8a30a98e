"""Backbone models mapping a lookback window to a horizon window.

All backbones take [batch, lookback, variates] and return
[batch, horizon, variates]. Multivariate inputs are handled by moving the
variate axis ahead of time, so each variate is processed as an independent
univariate sample by shared weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DimensionError
from .nn import MLP, Dense, prefixed


@dataclass
class ForecasterConfig:
    kind: str = "linear"
    lookback: int = 48
    horizon: int = 48
    num_variates: int = 1
    hidden_width: int = 256
    depth: int | None = None  # trunk layers: mlp defaults to 3, nbeats_lite to 4
    num_blocks: int = 3

    def __post_init__(self):
        # each message starts with the field it names; RunConfig.validate keys on that
        if self.kind not in KINDS:
            raise ConfigError(f"kind {self.kind!r} is not a forecaster")
        if self.depth is None:
            self.depth = 4 if self.kind == "nbeats_lite" else 3
        for name in ("lookback", "horizon", "num_variates", "hidden_width", "depth",
                     "num_blocks"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")


def _check_input(x: Tensor, cfg: ForecasterConfig) -> None:
    expected = (x.shape[0], cfg.lookback, cfg.num_variates)
    if x.ndim != 3 or x.shape != expected:
        raise DimensionError(f"forecaster expects {expected}, got {x.shape}")


def _fold_variates(x: Tensor) -> Tensor:
    """[B, L, D] -> [B, D, L] so each variate is a sample of its own."""
    return ad.swap_last_axes(x)


def _unfold_variates(y: Tensor) -> Tensor:
    """[B, D, H] -> [B, H, D], inverse of _fold_variates."""
    return ad.swap_last_axes(y)


class LinearForecaster:
    """Single affine [L, H] map, applied to every variate."""

    def __init__(self, cfg: ForecasterConfig, rng: np.random.Generator | None = None):
        self.cfg = cfg
        self.head = Dense(cfg.lookback, cfg.horizon, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        _check_input(x, self.cfg)
        return _unfold_variates(self.head(_fold_variates(x)))

    def parameters(self) -> dict[str, Tensor]:
        return prefixed({"head": self.head})


class MLPForecaster:
    """Fully-connected trunk with relu activations and an affine head."""

    def __init__(self, cfg: ForecasterConfig, rng: np.random.Generator | None = None):
        self.cfg = cfg
        sizes = [cfg.lookback] + [cfg.hidden_width] * cfg.depth + [cfg.horizon]
        self.net = MLP(sizes, "relu", rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        _check_input(x, self.cfg)
        return _unfold_variates(self.net(_fold_variates(x)))

    def parameters(self) -> dict[str, Tensor]:
        return prefixed({"net": self.net})


class NBeatsLiteBlock:
    """Dense trunk feeding zero-initialized backcast and forecast heads."""

    def __init__(self, lookback: int, horizon: int, width: int, depth: int,
                 rng: np.random.Generator | None = None):
        sizes = [lookback] + [width] * depth
        self.trunk = MLP(sizes, "relu", rng=rng, activate_last=True)
        self.backcast_head = Dense(width, lookback, zero_init=True)
        self.forecast_head = Dense(width, horizon, zero_init=True)

    def __call__(self, x: Tensor) -> tuple[Tensor, Tensor]:
        h = self.trunk(x)
        return self.backcast_head(h), self.forecast_head(h)

    def parameters(self) -> dict[str, Tensor]:
        return prefixed({"trunk": self.trunk, "backcast": self.backcast_head,
                         "forecast": self.forecast_head})


class NBeatsLite:
    """Doubly-residual stack: each block explains part of the input and adds
    its own forecast; the unexplained residual feeds the next block."""

    def __init__(self, cfg: ForecasterConfig, rng: np.random.Generator | None = None):
        self.cfg = cfg
        self.blocks = [
            NBeatsLiteBlock(cfg.lookback, cfg.horizon, cfg.hidden_width, cfg.depth, rng=rng)
            for _ in range(cfg.num_blocks)
        ]

    def forward(self, x: Tensor) -> Tensor:
        _check_input(x, self.cfg)
        b, _, d = x.shape
        residual = _fold_variates(x)
        forecast = Tensor(np.zeros((b, d, self.cfg.horizon)))
        for block in self.blocks:
            backcast, block_forecast = block(residual)
            residual = residual - backcast
            forecast = forecast + block_forecast
        return _unfold_variates(forecast)

    def parameters(self) -> dict[str, Tensor]:
        return prefixed({f"blocks.{i}": block for i, block in enumerate(self.blocks)})


KINDS = {"linear": LinearForecaster, "mlp": MLPForecaster, "nbeats_lite": NBeatsLite}


def build_forecaster(cfg: ForecasterConfig, rng: np.random.Generator | None = None):
    return KINDS[cfg.kind](cfg, rng=rng)
