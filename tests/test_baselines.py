import numpy as np
import pytest

from inflow.autodiff import Tape, Tensor
from inflow.baselines import IdentityTransform, RevInTransform
from inflow.errors import ContractError
from inflow.flow import FlowStack, InstanceNormLayer
from inflow import autodiff as ad


class TestRevIn:
    def test_hand_computed_normalization(self):
        t = RevInTransform(1)  # log_scale and shift start at 0
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1))
        out = t.normalize(x).numpy().ravel()
        # mean 2.5, biased variance 1.25, default eps 1e-5
        expected = np.array([-1.5, -0.5, 0.5, 1.5]) / np.sqrt(1.25 + 1e-5)
        np.testing.assert_allclose(out, expected, atol=1e-4)

    def test_constant_window_to_zeros(self):
        t = RevInTransform(2)
        x = Tensor(np.full((1, 5, 2), 7.0))
        np.testing.assert_array_equal(t.normalize(x).numpy(), 0.0)

    def test_roundtrip_identity_affine(self):
        rng = np.random.default_rng(0)
        t = RevInTransform(3)
        x = Tensor(rng.normal(size=(4, 8, 3)))
        back = t.denormalize(t.normalize(x))
        np.testing.assert_allclose(back.numpy(), x.numpy(), atol=1e-6)

    def test_denormalize_zeros_gives_mean(self):
        rng = np.random.default_rng(1)
        t = RevInTransform(2)
        x = Tensor(rng.normal(size=(3, 6, 2)))
        t.normalize(x)
        out = t.denormalize(Tensor(np.zeros((3, 4, 2)))).numpy()
        mu = x.numpy().mean(axis=1, keepdims=True)
        np.testing.assert_allclose(out, np.broadcast_to(mu, out.shape), atol=1e-12)

    def test_denormalize_ones_gives_mean_plus_std(self):
        rng = np.random.default_rng(2)
        t = RevInTransform(2)
        x = Tensor(rng.normal(size=(3, 8, 2)))
        t.normalize(x)
        out = t.denormalize(Tensor(np.ones((3, 4, 2)))).numpy()
        mu = x.numpy().mean(axis=1, keepdims=True)
        sd = np.sqrt(x.numpy().var(axis=1, keepdims=True) + 1e-5)  # default eps
        np.testing.assert_allclose(out, np.broadcast_to(mu + sd, out.shape), atol=1e-6)

    def test_denormalize_before_normalize_is_contract_error(self):
        t = RevInTransform(2)
        with pytest.raises(ContractError):
            t.denormalize(Tensor(np.zeros((1, 3, 2))))

    def test_agrees_with_single_layer_stack_exactly(self):
        rng = np.random.default_rng(3)
        revin = RevInTransform(4)
        layer = InstanceNormLayer(4)
        stack = FlowStack.from_layers([layer])
        gamma = rng.normal(size=4)
        beta = rng.normal(size=4)
        revin._norm.log_scale.data[:] = gamma
        revin._norm.shift.data[:] = beta
        layer.log_scale.data[:] = gamma
        layer.shift.data[:] = beta
        x = Tensor(rng.normal(size=(2, 10, 4)))
        a = revin.normalize(x).numpy()
        b = stack.forward(x).numpy()
        np.testing.assert_allclose(a, b, atol=1e-12, rtol=0)
        h = Tensor(rng.normal(size=(2, 6, 4)))
        np.testing.assert_allclose(
            revin.denormalize(h).numpy(), stack.inverse(h).numpy(), atol=1e-12, rtol=0
        )


class TestIdentity:
    def test_passthrough_both_directions(self):
        t = IdentityTransform()
        x = Tensor(np.arange(6.0).reshape(1, 2, 3))
        assert t.forward(x) is x
        assert t.inverse(x) is x

    def test_no_parameters(self):
        assert IdentityTransform().parameters() == {}

    def test_no_buffers_and_either_mode(self):
        t = IdentityTransform()
        assert t.buffers() == {}
        t.train_mode(True)
        t.train_mode(False)

    def test_gradients_pass_through_unchanged(self):
        t = IdentityTransform()
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with Tape() as tape:
            loss = ad.sum_all(t.forward(x) * 3.0)
        tape.backward(loss)
        np.testing.assert_array_equal(tape.grad(x), [3.0, 3.0])
