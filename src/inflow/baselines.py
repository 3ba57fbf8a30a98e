"""Reference transforms: plain pass-through and reversible instance norm."""

from __future__ import annotations

from .autodiff import Tensor
from .flow import InstanceNormLayer


class RevInTransform:
    """One reversible instance-normalization layer with optional affine.

    Normalizes each lookback window by its own statistics and restores them
    onto the horizon prediction. Identical math to a flow stack holding a
    single normalization layer and nothing else.
    """

    def __init__(self, num_variates: int, eps: float = 1e-5, affine: bool = True):
        self._norm = InstanceNormLayer(num_variates, eps=eps, affine=affine)

    def normalize(self, x: Tensor) -> Tensor:
        return self._norm.forward(x)

    def denormalize(self, y: Tensor) -> Tensor:
        return self._norm.inverse(y)

    # pipeline-facing aliases
    def forward(self, x: Tensor) -> Tensor:
        return self.normalize(x)

    def inverse(self, y: Tensor) -> Tensor:
        return self.denormalize(y)

    def parameters(self) -> dict[str, Tensor]:
        return {f"norm.{k}": p for k, p in self._norm.parameters().items()}

    def buffers(self) -> dict[str, Tensor]:
        return {f"norm.{k}": p for k, p in self._norm.buffers().items()}

    def train_mode(self, flag: bool = True) -> None:
        pass


class IdentityTransform:
    """No-op transform; the backbone sees raw windows."""

    def forward(self, x: Tensor) -> Tensor:
        return x

    def inverse(self, y: Tensor) -> Tensor:
        return y

    def parameters(self) -> dict[str, Tensor]:
        return {}

    def buffers(self) -> dict[str, Tensor]:
        return {}

    def train_mode(self, flag: bool = True) -> None:
        pass
