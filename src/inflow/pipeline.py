"""Composition of transform and backbone: transform in, forecast, invert out."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import ContractError
from .nn import prefixed


class ForecastPipeline:
    """transform.forward -> forecaster -> transform.inverse.

    Parameters are split into two named groups: `theta` (the forecaster) and
    `phi` (the transform), which the trainer updates on different batches.
    """

    def __init__(self, transform, forecaster):
        self.transform = transform
        self.forecaster = forecaster

    def predict(self, x: Tensor) -> Tensor:
        return self.predict_stages(x)[-1]

    def predict_stages(self, x: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """Return (transformed input, raw forecast, inverse-transformed forecast)."""
        x_t = self.transform.forward(x)
        y_t = self.forecaster.forward(x_t)
        y_hat = self.transform.inverse(y_t)
        return x_t, y_t, y_hat

    def theta_parameters(self) -> dict[str, Tensor]:
        return prefixed({"theta": self.forecaster})

    def phi_parameters(self) -> dict[str, Tensor]:
        return prefixed({"phi": self.transform})

    def parameters(self) -> dict[str, Tensor]:
        out = self.theta_parameters()
        out.update(self.phi_parameters())
        return out

    def state_tensors(self) -> dict[str, Tensor]:
        """All tensors a checkpoint must carry: parameters plus buffers."""
        out = self.parameters()
        out.update(prefixed({"phi_buffer": self.transform}, "buffers"))
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        tensors = self.state_tensors()
        missing, extra = sorted(set(tensors) - set(arrays)), sorted(set(arrays) - set(tensors))
        if missing or extra:
            raise ContractError(f"checkpoint does not match the model: missing tensors "
                                f"{missing}, tensors the model lacks {extra}")
        for name, tensor in tensors.items():
            value = arrays[name]
            if value.shape != tensor.data.shape:
                raise ContractError(
                    f"checkpoint tensor {name!r} has shape {value.shape}, "
                    f"model expects {tensor.data.shape}"
                )
            tensor.data[...] = value

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.state_tensors().items()}

    def train_mode(self, flag: bool = True) -> None:
        self.transform.train_mode(flag)

    def eval_mode(self) -> None:
        self.train_mode(False)
