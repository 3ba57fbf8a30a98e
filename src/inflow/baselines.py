"""Reference transforms as flow stacks: RevIN is the one-layer stack, the identity the empty one."""

from __future__ import annotations

from .flow import FlowStack, InstanceNormLayer


class RevInTransform(FlowStack):
    """Reversible instance normalization: a flow stack of one instance-norm layer.

    Normalizes each lookback window by its own statistics and restores them
    onto the horizon prediction.
    """

    def __init__(self, num_variates: int):
        self._norm = InstanceNormLayer(num_variates)
        self.layers = [self._norm]

    # bound on the class itself, so a profiler that wraps this class's own
    # methods times the RevIN arm apart from every other stack
    forward = normalize = FlowStack.forward
    inverse = denormalize = FlowStack.inverse


class IdentityTransform(FlowStack):
    """No-op transform: a flow stack with no layers; the backbone sees raw windows."""

    def __init__(self):
        self.layers = []
