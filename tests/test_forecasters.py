import numpy as np
import pytest

from inflow import autodiff as ad
from inflow.autodiff import Tape, Tensor
from inflow.errors import ConfigError, DimensionError
from inflow.forecasters import (
    ForecasterConfig,
    LinearForecaster,
    NBeatsLite,
    NBeatsLiteBlock,
    build_forecaster,
)
from inflow.nn import MLP

from gradcheck import check_gradients


def small_cfg(kind, **kw):
    defaults = dict(kind=kind, lookback=6, horizon=4, num_variates=3,
                    hidden_width=8, depth=2, num_blocks=2)
    defaults.update(kw)
    return ForecasterConfig(**defaults)


@pytest.mark.parametrize("kind", ["linear", "mlp", "nbeats_lite"])
def test_output_shape_contract(kind):
    rng = np.random.default_rng(0)
    model = build_forecaster(small_cfg(kind), rng=rng)
    x = Tensor(rng.normal(size=(5, 6, 3)))
    assert model.forward(x).shape == (5, 4, 3)


def test_config_validation():
    with pytest.raises(ConfigError):
        ForecasterConfig(kind="linear", lookback=0)
    with pytest.raises(ConfigError):
        ForecasterConfig(kind="transformer")


def test_mlp_rejects_unknown_activation():
    with pytest.raises(ValueError, match="sigmoid"):
        MLP([3, 4, 2], "sigmoid")


def test_input_shape_mismatch():
    model = build_forecaster(small_cfg("linear"), rng=np.random.default_rng(0))
    with pytest.raises(DimensionError):
        model.forward(Tensor(np.zeros((2, 7, 3))))


class TestLinear:
    def test_zero_weights_give_zero_forecast(self):
        model = LinearForecaster(small_cfg("linear"))
        model.head.weight.data[:] = 0.0
        model.head.bias.data[:] = 0.0
        x = Tensor(np.random.default_rng(1).normal(size=(4, 6, 3)))
        np.testing.assert_array_equal(model.forward(x).numpy(), 0.0)

    def test_identity_weights_repeat_lookback(self):
        cfg = small_cfg("linear", lookback=5, horizon=5)
        model = LinearForecaster(cfg)
        model.head.weight.data[:] = np.eye(5)
        model.head.bias.data[:] = 0.0
        x = Tensor(np.random.default_rng(2).normal(size=(3, 5, 3)))
        np.testing.assert_allclose(model.forward(x).numpy(), x.numpy(), atol=1e-12)


@pytest.mark.parametrize("kind", ["linear", "mlp", "nbeats_lite"])
def test_per_variate_independence(kind):
    rng = np.random.default_rng(4)
    model = build_forecaster(small_cfg(kind), rng=rng)
    # give zero-initialized heads something to say
    for p in model.parameters().values():
        if np.all(p.data == 0.0):
            p.data[:] = rng.normal(size=p.shape) * 0.1
    x = rng.normal(size=(2, 6, 3))
    base = model.forward(Tensor(x)).numpy()
    x2 = x.copy()
    x2[:, :, 1] += 0.5
    bumped = model.forward(Tensor(x2)).numpy()
    np.testing.assert_array_equal(bumped[:, :, 0], base[:, :, 0])
    np.testing.assert_array_equal(bumped[:, :, 2], base[:, :, 2])
    assert np.any(bumped[:, :, 1] != base[:, :, 1])


@pytest.mark.parametrize("kind", ["linear", "mlp", "nbeats_lite"])
def test_forward_folds_variates_without_reshape(kind):
    rng = np.random.default_rng(9)
    model = build_forecaster(small_cfg(kind), rng=rng)
    x = Tensor(rng.normal(size=(5, 6, 3)), requires_grad=True)
    with Tape() as tape:
        out = model.forward(x)
    ops = [node.op for node in tape.nodes]
    assert "reshape" not in ops
    assert ops[0] == ops[-1] == "swap_last_axes"
    if kind == "mlp":
        # one row per (window, variate) gives the same forecast, bit for bit
        rows = np.swapaxes(x.numpy(), 1, 2).reshape(15, 6)
        want = model.net(Tensor(rows)).numpy().reshape(5, 3, 4).swapaxes(1, 2)
        np.testing.assert_array_equal(out.numpy(), want)


class TestNBeatsLite:
    def test_zero_heads_give_zero_forecast_and_full_residual(self):
        rng = np.random.default_rng(5)
        block = NBeatsLiteBlock(lookback=6, horizon=4, width=8, depth=2, rng=rng)
        x = Tensor(rng.normal(size=(3, 6)))
        backcast, forecast = block(x)
        np.testing.assert_array_equal(forecast.numpy(), 0.0)
        np.testing.assert_array_equal(backcast.numpy(), 0.0)
        residual = x - backcast
        np.testing.assert_array_equal(residual.numpy(), x.numpy())

    def test_trunk_relu_is_folded_into_the_trunk(self):
        rng = np.random.default_rng(4)
        block = NBeatsLiteBlock(lookback=6, horizon=4, width=8, depth=2, rng=rng)
        x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        with Tape() as tape:
            h = block.trunk(x)
        assert [node.op for node in tape.nodes] == ["mlp"]
        want = x.numpy()
        for dense in block.trunk.layers:
            want = np.maximum(want @ dense.weight.numpy() + dense.bias.numpy(), 0.0)
        np.testing.assert_array_equal(h.numpy(), want)

    def test_fresh_model_forecasts_zero(self):
        rng = np.random.default_rng(6)
        model = NBeatsLite(small_cfg("nbeats_lite"), rng=rng)
        x = Tensor(rng.normal(size=(2, 6, 3)))
        np.testing.assert_array_equal(model.forward(x).numpy(), 0.0)

    def test_forecasts_sum_over_blocks(self):
        rng = np.random.default_rng(7)
        cfg = small_cfg("nbeats_lite", num_blocks=2)
        model = NBeatsLite(cfg, rng=rng)
        x = Tensor(rng.normal(size=(2, 6, 3)))
        for b in model.blocks:
            b.forecast_head.bias.data[:] = 1.0  # each block adds a constant
        np.testing.assert_allclose(model.forward(x).numpy(), 2.0, atol=1e-12)


@pytest.mark.parametrize("kind", ["linear", "mlp", "nbeats_lite"])
def test_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(8)
    model = build_forecaster(small_cfg(kind), rng=rng)
    for p in model.parameters().values():
        if np.all(p.data == 0.0):
            p.data[:] = rng.normal(size=p.shape) * 0.2
    x = Tensor(rng.uniform(-2, 2, size=(3, 6, 3)), requires_grad=True)
    tensors = [x] + list(model.parameters().values())

    def loss_fn():
        out = model.forward(x)
        return ad.mean_all(out * out)

    check_gradients(loss_fn, tensors, rng, num_probes=50)
