import math

import numpy as np
import pytest

from inflow import autodiff as ad
from inflow.autodiff import Tape, Tensor
from inflow.errors import ConfigError, ContractError, NumericError
from inflow.flow import (
    VARIANTS,
    BatchNormLayer,
    CouplingLayer,
    FlowStack,
    InstanceNormLayer,
    PermuteLayer,
)

from gradcheck import check_gradients


def rand_window(rng, batch=3, length=16, variates=4):
    return Tensor(rng.uniform(-2, 2, size=(batch, length, variates)))


class TestInstanceNorm:
    def test_hand_computed_standardization(self):
        layer = InstanceNormLayer(1, eps=1e-12)
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1))
        out = layer.forward(x).numpy().ravel()
        np.testing.assert_allclose(
            out, [-1.3416, -0.4472, 0.4472, 1.3416], atol=1e-4
        )

    def test_output_statistics(self):
        rng = np.random.default_rng(0)
        layer = InstanceNormLayer(4)
        out = layer.forward(rand_window(rng)).numpy()
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-6)
        var = out.var(axis=1)
        assert np.all(var <= 1.0 + 1e-12)
        assert np.all(var >= 1.0 - 10 * layer.eps)

    def test_constant_window_maps_to_zeros(self):
        layer = InstanceNormLayer(1, eps=1e-5)
        x = Tensor(np.full((1, 4, 1), 5.0))
        np.testing.assert_array_equal(layer.forward(x).numpy(), 0.0)

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        layer = InstanceNormLayer(4)
        layer.log_scale.data[:] = rng.normal(size=4)
        layer.shift.data[:] = rng.normal(size=4)
        x = rand_window(rng)
        back = layer.inverse(layer.forward(x))
        np.testing.assert_allclose(back.numpy(), x.numpy(), atol=1e-9)

    def test_inverse_uses_cached_lookback_stats(self):
        layer = InstanceNormLayer(1, eps=1e-12)
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1))
        layer.forward(x)
        horizon = Tensor(np.zeros((1, 6, 1)))  # different length than forward
        out = layer.inverse(horizon).numpy()
        np.testing.assert_allclose(out, 2.5, atol=1e-9)

    def test_inverse_of_shift_value_returns_mean(self):
        rng = np.random.default_rng(2)
        layer = InstanceNormLayer(3)
        layer.shift.data[:] = rng.normal(size=3)
        x = rand_window(rng, variates=3)
        layer.forward(x)
        h = Tensor(np.broadcast_to(layer.shift.data, (3, 5, 3)).copy())
        out = layer.inverse(h).numpy()
        expected = x.numpy().mean(axis=1, keepdims=True)
        np.testing.assert_allclose(out, np.broadcast_to(expected, out.shape), atol=1e-9)

    def test_inverse_before_forward_is_contract_error(self):
        layer = InstanceNormLayer(2)
        with pytest.raises(ContractError):
            layer.inverse(Tensor(np.zeros((1, 3, 2))))

    def test_batch_mismatch_is_contract_error(self):
        rng = np.random.default_rng(3)
        layer = InstanceNormLayer(2)
        layer.forward(rand_window(rng, batch=3, variates=2))
        with pytest.raises(ContractError):
            layer.inverse(Tensor(np.zeros((5, 3, 2))))

    def test_eps_must_be_positive(self):
        with pytest.raises(ConfigError):
            InstanceNormLayer(2, eps=0.0)

    def test_gradients_flow_through_statistics(self):
        rng = np.random.default_rng(4)
        layer = InstanceNormLayer(3)
        x = Tensor(rng.uniform(-2, 2, size=(2, 8, 3)), requires_grad=True)
        tensors = [x, layer.log_scale, layer.shift]

        def loss_fn():
            out = layer.forward(x)
            return ad.mean_all(out * out * out)  # asymmetric so mu/var matter

        check_gradients(loss_fn, tensors, rng, num_probes=40)


class TestCoupling:
    def test_pass_through_channels_bit_identical(self):
        rng = np.random.default_rng(5)
        layer = CouplingLayer(5, hidden=8, rng=rng)
        for net in (layer.scale_net, layer.translate_net):
            for p in net.parameters().values():
                p.data[:] = rng.normal(size=p.shape) * 0.3
        x = rand_window(rng, variates=5)
        out = layer.forward(x)
        d_c = layer.split_index
        assert np.array_equal(out.numpy()[:, :, :d_c], x.numpy()[:, :, :d_c])

    def test_identity_at_zero_init(self):
        rng = np.random.default_rng(6)
        layer = CouplingLayer(4, hidden=8, rng=rng)  # last layers zero-initialized
        x = rand_window(rng)
        np.testing.assert_allclose(layer.forward(x).numpy(), x.numpy(), atol=1e-12)

    def test_forced_scale_and_translate(self):
        # zero all net weights, then bias the raw outputs so that the
        # effective scale is exactly 2 and the shift exactly 3
        layer = CouplingLayer(2, hidden=4)
        for net, bias in ((layer.scale_net, math.atanh(math.log(2.0))),
                          (layer.translate_net, 3.0)):
            for p in net.parameters().values():
                p.data[:] = 0.0
            net.layers[-1].bias.data[:] = bias
        x = Tensor(np.array([[[1.5, -0.5]]]))
        out = layer.forward(x).numpy()
        np.testing.assert_allclose(out, [[[1.5, 2 * -0.5 + 3]]], atol=1e-12)
        back = layer.inverse(Tensor(out)).numpy()
        np.testing.assert_allclose(back, x.numpy(), atol=1e-12)

    def test_roundtrip_random_params(self):
        rng = np.random.default_rng(7)
        layer = CouplingLayer(7, hidden=16, rng=rng)
        for net in (layer.scale_net, layer.translate_net):
            for p in net.parameters().values():
                p.data[:] = rng.normal(size=p.shape) * 0.5
        x = rand_window(rng, variates=7)
        back = layer.inverse(layer.forward(x))
        np.testing.assert_allclose(back.numpy(), x.numpy(), atol=1e-6)

    def test_single_variate_degenerates_to_identity_with_warning(self):
        with pytest.warns(UserWarning, match="single variate"):
            layer = CouplingLayer(1, hidden=8)
        x = Tensor(np.ones((1, 3, 1)))
        assert layer.forward(x) is x

    def test_gradients(self):
        rng = np.random.default_rng(8)
        layer = CouplingLayer(4, hidden=6, rng=rng)
        for net in (layer.scale_net, layer.translate_net):
            for p in net.parameters().values():
                p.data[:] = rng.normal(size=p.shape) * 0.4
        x = Tensor(rng.uniform(-2, 2, size=(2, 5, 4)), requires_grad=True)
        tensors = [x] + list(layer.parameters().values())

        def loss_fn():
            out = layer.forward(x)
            return ad.mean_all(out * out)

        check_gradients(loss_fn, tensors, rng, num_probes=50)

    @staticmethod
    def _random_layer(rng, variates=5, hidden=16):
        layer = CouplingLayer(variates, hidden=hidden, rng=rng)
        for p in layer.parameters().values():
            p.data[:] = rng.normal(size=p.shape) * 0.4
        return layer

    @staticmethod
    def _taped(run, x, params, weights):
        """run(x)'s output, its op names, and the gradients of sum(out * weights)."""
        with Tape() as tape:
            out = run(x)
            loss = ad.sum_all(out * weights)
        ops = [node.op for node in tape.nodes]
        tape.backward(loss)
        return out.data, ops, [tape.grad(t) for t in [x] + params]

    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
    def test_scale_tanh_is_folded_into_the_net(self, inverse):
        rng = np.random.default_rng(9)
        layer = self._random_layer(rng)
        x = Tensor(rng.uniform(-2, 2, size=(40, 48, 5)), requires_grad=True)
        params = list(layer.parameters().values())
        assert len(params) == 12
        weights = Tensor(rng.normal(size=x.shape))
        s_layers, s_acts = layer.scale_net.spec()

        def squashed_scale(h1):  # the scale's tanh as its own op, outside the net
            return ad.tanh(ad.mlp(h1, s_layers, s_acts[:-1] + [None]))

        out, ops, grads = self._taped(layer.inverse if inverse else layer.forward,
                                      x, params, weights)
        chain_out, chain_ops, chain_grads = self._taped(
            lambda h: _chain_coupling(h, layer.split_index, squashed_scale,
                                      layer.translate_net, inverse),
            x, params, weights)
        assert ops == ["affine_coupling", "mul", "sum_all"]
        assert chain_ops.count("tanh") == 1
        np.testing.assert_array_equal(out, chain_out)
        for got, want in zip(grads, chain_grads):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
    def test_frozen_nets_get_no_gradient(self, inverse):
        rng = np.random.default_rng(10)
        layer = self._random_layer(rng)
        x = Tensor(rng.uniform(-2, 2, size=(6, 48, 5)), requires_grad=True)
        params = list(layer.parameters().values())
        for p in params:
            p.requires_grad = False
        weights = Tensor(rng.normal(size=x.shape))
        run = layer.inverse if inverse else layer.forward
        with Tape() as tape:
            run(x)
        (node,) = tape.nodes
        grads = node.backward(weights.data)
        assert grads[0] is not None and all(g is None for g in grads[1:])
        assert len(grads) == 13
        _, _, fused = self._taped(run, x, params, weights)
        _, _, chain = self._taped(
            lambda h: _chain_coupling(h, layer.split_index, layer.scale_net,
                                      layer.translate_net, inverse),
            x, params, weights)
        np.testing.assert_array_equal(fused[0], chain[0])
        np.testing.assert_array_equal(grads[0], chain[0])

    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
    @pytest.mark.parametrize("fault", ["overflow", "underflow", "nan_conditioner",
                                       "nan_transformed"])
    def test_non_finite_is_named_as_the_chain_names_it(self, fault, inverse):
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(-2, 2, size=(3, 8, 4)))
        layer = self._random_layer(rng, variates=4, hidden=6)
        # a linear scale output, so exp can overflow or underflow
        s_layers, s_acts = layer.scale_net.spec()
        s_acts = s_acts[:-1] + [None]
        if fault in ("overflow", "underflow"):
            s_layers[-1][1].data[:] = 800.0 if fault == "overflow" else -800.0
        else:
            x.data[1, 2, 0 if fault == "nan_conditioner" else 3] = np.nan
        names = []
        for run in (
                lambda: ad.affine_coupling(x, 2, (s_layers, s_acts),
                                           layer.translate_net.spec(), inverse=inverse),
                lambda: _chain_coupling(x, 2, lambda h1: ad.mlp(h1, s_layers, s_acts),
                                        layer.translate_net, inverse)):
            if fault == "underflow" and not inverse:  # a zero scale is finite
                run()
                continue
            with pytest.raises(NumericError) as err:
                run()
            names.append(str(err.value))
        assert names[:1] == names[1:]
        want = {"overflow": "exp (overflow)",
                "underflow": "div (zero or overflowing denominator)",
                "nan_conditioner": "mlp layer 0",
                "nan_transformed": "sub" if inverse else "mul"}[fault]
        assert all(name.endswith(f"produced by {want}") for name in names)


def _chain_coupling(h, split, scale, translate, inverse):
    """The op chain that one affine_coupling node replaces; scale(h1) is the
    exponent of the scale."""
    h1 = ad.slice_axis(h, axis=2, start=0, stop=split)
    h2 = ad.slice_axis(h, axis=2, start=split, stop=h.shape[2])
    if inverse:
        out2 = (h2 - translate(h1)) / ad.exp(scale(h1))
    else:
        out2 = h2 * ad.exp(scale(h1)) + translate(h1)
    return ad.concat([h1, out2], axis=2)


class TestPermute:
    def test_reverses_channels(self):
        x = Tensor(np.arange(6.0).reshape(1, 2, 3))
        out = PermuteLayer().forward(x).numpy()
        np.testing.assert_array_equal(out[0, 0], [2.0, 1.0, 0.0])

    def test_involution(self):
        rng = np.random.default_rng(9)
        x = rand_window(rng)
        layer = PermuteLayer()
        np.testing.assert_array_equal(
            layer.forward(layer.forward(x)).numpy(), x.numpy()
        )

    def test_single_channel_identity(self):
        x = Tensor(np.ones((2, 3, 1)))
        np.testing.assert_array_equal(PermuteLayer().forward(x).numpy(), x.numpy())


class TestBatchNorm:
    def test_train_mode_uses_batch_stats(self):
        rng = np.random.default_rng(10)
        layer = BatchNormLayer(3)
        x = rand_window(rng, batch=4, length=6, variates=3)
        out = layer.forward(x).numpy()
        flat = out.reshape(-1, 3)
        np.testing.assert_allclose(flat.mean(axis=0), 0.0, atol=1e-9)

    def test_running_stats_updated_with_momentum(self):
        rng = np.random.default_rng(11)
        layer = BatchNormLayer(2)
        x = rand_window(rng, variates=2)
        flat = x.numpy().reshape(-1, 2)
        layer.forward(x)
        np.testing.assert_allclose(layer.running_mean.numpy(),
                                   0.1 * flat.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(layer.running_var.numpy(),
                                   0.9 * 1.0 + 0.1 * flat.var(axis=0), atol=1e-12)

    def test_eval_mode_roundtrip_without_cache(self):
        rng = np.random.default_rng(12)
        layer = BatchNormLayer(2)
        layer.forward(rand_window(rng, variates=2))  # populate running stats
        layer.training = False
        x = rand_window(rng, variates=2)
        back = layer.inverse(layer.forward(x))
        np.testing.assert_allclose(back.numpy(), x.numpy(), atol=1e-9)

    def test_train_inverse_requires_cache(self):
        layer = BatchNormLayer(2)
        with pytest.raises(ContractError):
            layer.inverse(Tensor(np.zeros((1, 3, 2))))

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_gradcheck_forward_and_inverse(self, training):
        rng = np.random.default_rng(13)
        layer = _norm_layer("batch_norm_train" if training else "batch_norm_eval", 3, rng)
        x = Tensor(rng.uniform(-2, 2, size=(3, 6, 3)), requires_grad=True)
        y = Tensor(rng.uniform(-2, 2, size=(3, 4, 3)), requires_grad=True)

        def loss_fn():
            # pooled batch statistics in training mode, constant running ones in eval
            out, back = layer.forward(x), layer.inverse(y)
            return ad.mean_all(out * out * out) + ad.mean_all(back * back * back)

        check_gradients(loss_fn, [x, y, layer.log_scale, layer.shift], rng, num_probes=40)


NORM_KINDS = ["instance_norm", "batch_norm_train", "batch_norm_eval"]


def _norm_layer(kind, num_variates, rng):
    """A normalization layer with a random affine and, in eval, random running statistics."""
    layer = InstanceNormLayer(num_variates) if kind == "instance_norm" \
        else BatchNormLayer(num_variates)
    layer.log_scale.data[:] = rng.normal(size=num_variates) * 0.5
    layer.shift.data[:] = rng.normal(size=num_variates)
    if kind == "batch_norm_eval":
        layer.running_mean.data[:] = rng.normal(size=num_variates)
        layer.running_var.data[:] = rng.uniform(0.5, 2.0, size=num_variates)
        layer.training = False
    return layer


def _chain_norm(layer, h, mu, var, inverse):
    """A normalization layer's affine map as the chain of elementwise ops it replaced."""
    if inverse:
        return (h - layer.shift) * ad.exp(-layer.log_scale) * ad.power(var + layer.eps, 0.5) + mu
    return (h - mu) * ad.power(var + layer.eps, -0.5) * ad.exp(layer.log_scale) + layer.shift


def _assert_gradients_close(fused, chain):
    for g, ref in zip(fused, chain):
        np.testing.assert_allclose(g, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("kind", NORM_KINDS)
def test_norm_layer_equals_op_chain(kind, batch):
    rng = np.random.default_rng(14)
    layer = _norm_layer(kind, 3, rng)
    # a level far from zero, a lookback of 7 and a horizon of 5
    x = Tensor(rng.uniform(-2, 2, size=(batch, 7, 3)) + 10.0, requires_grad=True)
    y = Tensor(rng.uniform(-2, 2, size=(batch, 5, 3)), requires_grad=True)
    leaves = [x, y, layer.log_scale, layer.shift]

    def run(fused):
        with Tape() as tape:
            if fused:
                out, back = layer.forward(x), layer.inverse(y)
            else:
                mu, var, _ = layer._statistics(x)
                out = _chain_norm(layer, x, mu, var, inverse=False)
                back = _chain_norm(layer, y, mu, var, inverse=True)
            loss = ad.mean_all(out * out * out) + ad.mean_all(back * back * back)
        tape.backward(loss)
        return out.data, back.data, [tape.grad(t).copy() for t in leaves]

    out, back, grads = run(fused=True)
    chain_out, chain_back, chain_grads = run(fused=False)
    np.testing.assert_array_equal(out, chain_out)
    np.testing.assert_array_equal(back, chain_back)
    _assert_gradients_close(grads, chain_grads)


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize("stats_shape", [(2, 1, 3), (3,)], ids=["window", "pooled"])
def test_affine_norm_statistics_gradients_equal_op_chain(stats_shape, inverse):
    rng = np.random.default_rng(15)
    layer = _norm_layer("instance_norm", 3, rng)
    h = Tensor(rng.uniform(-2, 2, size=(2, 5, 3)), requires_grad=True)
    mu = Tensor(rng.normal(size=stats_shape), requires_grad=True)
    var = Tensor(rng.uniform(0.5, 2.0, size=stats_shape), requires_grad=True)
    weight = rng.normal(size=h.shape)
    leaves = [h, mu, var, layer.log_scale, layer.shift]

    def grads(fn):
        with Tape() as tape:
            out = fn(h, mu, var)
            loss = ad.mean_all(out * weight)
        tape.backward(loss)
        return out.data, [tape.grad(t).copy() for t in leaves]

    out, fused = grads(lambda *t: ad.affine_norm(*t, layer.log_scale, layer.shift, layer.eps,
                                                 inverse=inverse))
    chain_out, chain = grads(lambda *t: _chain_norm(layer, *t, inverse))
    np.testing.assert_array_equal(out, chain_out)
    _assert_gradients_close(fused, chain)


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
def test_affine_norm_gives_idle_inputs_no_gradient(inverse):
    rng = np.random.default_rng(16)
    inputs = [Tensor(rng.uniform(0.5, 2.0, size=shape), requires_grad=True)
              for shape in [(2, 5, 3), (2, 1, 3), (2, 1, 3), (3,), (3,)]]
    with Tape() as tape:
        out = ad.affine_norm(*inputs, eps=1e-5, inverse=inverse)
    (node,) = tape.nodes
    g = np.ones_like(out.data)
    for idle in inputs:
        # read when backward runs, so a group frozen after the forward gets nothing
        idle.requires_grad = False
        grads = node.backward(g)
        idle.requires_grad = True
        assert [gi is None for gi in grads] == [t is idle for t in inputs]


@pytest.mark.parametrize("make", [InstanceNormLayer, BatchNormLayer,
                                  lambda n: CouplingLayer(n, hidden=4)],
                         ids=["instance_norm", "batch_norm", "coupling"])
def test_wrong_variate_count_is_contract_error(make):
    rng = np.random.default_rng(9)
    layer = make(3)
    layer.forward(rand_window(rng, variates=3))  # fills a norm layer's cache
    wide = rand_window(rng, variates=5)
    for direction in (layer.forward, layer.inverse):
        with pytest.raises(ContractError, match="layer built for 3 variates, input has 5"):
            direction(wide)


def randomize_stack(stack: FlowStack, rng, scale=0.5):
    for p in stack.parameters().values():
        p.data[:] = rng.normal(size=p.shape) * scale


def shift_redundant_biases(stack: FlowStack) -> set[str]:
    """Translate-net final biases that some later normalization absorbs."""
    norm_positions = [
        i for i, layer in enumerate(stack.layers)
        if isinstance(layer, (InstanceNormLayer, BatchNormLayer))
    ]
    dead = set()
    for i, layer in enumerate(stack.layers):
        if isinstance(layer, CouplingLayer) and layer.scale_net is not None:
            if any(pos > i for pos in norm_positions):
                last = len(layer.translate_net.layers) - 1
                dead.add(f"layers.{i}.translate.layer{last}.bias")
    return dead


class TestFlowStack:
    def test_zero_blocks_is_identity(self):
        stack = FlowStack(3, num_blocks=0)
        x = Tensor(np.ones((2, 4, 3)))
        assert stack.forward(x) is x
        assert stack.inverse(x) is x

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("num_blocks", [2, 8])
    def test_roundtrip_random_params(self, variant, num_blocks):
        rng = np.random.default_rng(13)
        stack = FlowStack(4, num_blocks=num_blocks, variant=variant, hidden=8,
                          rng=np.random.default_rng(14))
        randomize_stack(stack, rng)
        x = rand_window(rng)
        back = stack.inverse(stack.forward(x))
        assert np.max(np.abs(back.numpy() - x.numpy())) < 1e-5

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_variable_length_inverse(self, variant):
        # every layer acts per time step or with statistics cached at forward
        # time, so the inverse of a prefix of the output is that prefix of x
        rng = np.random.default_rng(15)
        stack = FlowStack(3, num_blocks=2, variant=variant, hidden=8,
                          rng=np.random.default_rng(16))
        randomize_stack(stack, rng)
        x = rand_window(rng, length=24, variates=3)
        z = stack.forward(x).numpy()
        for k in (1, 12):
            back = stack.inverse(Tensor(z[:, :k])).numpy()
            assert back.shape == (3, k, 3)
            assert np.max(np.abs(back - x.numpy()[:, :k])) < 1e-5

    def test_block_layout_per_variant(self):
        layouts = {
            "pre_norm": [InstanceNormLayer, CouplingLayer, PermuteLayer],
            "post_norm": [CouplingLayer, PermuteLayer, InstanceNormLayer],
            "coupling_only": [CouplingLayer, PermuteLayer],
            "batch_norm": [BatchNormLayer, CouplingLayer, PermuteLayer],
        }
        for variant, layout in layouts.items():
            stack = FlowStack(4, num_blocks=2, variant=variant, hidden=8)
            assert [type(l) for l in stack.layers] == layout * 2

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            FlowStack(4, num_blocks=1, variant="norm_free")

    def test_fresh_stack_standardizes_per_variate(self):
        # zero couplings plus unit affine: the stack is a chain of
        # standardizations and channel reversals
        rng = np.random.default_rng(17)
        stack = FlowStack(3, num_blocks=1, hidden=8)
        out = stack.forward(rand_window(rng, variates=3)).numpy()
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-9)
        var = out.var(axis=1)
        assert np.all(var <= 1.0 + 1e-12) and np.all(var >= 1.0 - 1e-4)

    def test_inverse_restores_lookback_scale_on_horizon(self):
        layer = InstanceNormLayer(1, eps=1e-12)
        stack = FlowStack.from_layers([layer])
        x = Tensor(np.array([2.0, 4.0, 6.0, 8.0]).reshape(1, 4, 1))
        stack.forward(x)
        mu, sigma = 5.0, np.std([2.0, 4.0, 6.0, 8.0])
        standardized_truth = Tensor((np.array([10.0, 12.0]) - mu).reshape(1, 2, 1) / sigma)
        out = stack.inverse(standardized_truth).numpy().ravel()
        np.testing.assert_allclose(out, [10.0, 12.0], atol=1e-9)

    def test_every_parameter_receives_gradient(self):
        # One provable exception: a coupling's final translate bias adds a
        # constant per-channel shift, and any normalization layer after it
        # absorbs that shift into its cached mean, so forward output and the
        # cache-driven inverse cancel it exactly. Those biases stay at zero
        # gradient by construction; everything else must be reached.
        rng = np.random.default_rng(18)
        for variant in VARIANTS:
            stack = FlowStack(4, num_blocks=2, variant=variant, hidden=8,
                              rng=np.random.default_rng(19))
            randomize_stack(stack, rng)
            dead = shift_redundant_biases(stack)
            x = rand_window(rng)
            with Tape() as tape:
                out = stack.forward(x)
                back = stack.inverse(out * 0.9)
                loss = ad.mean_all(back * back)
            tape.backward(loss)
            for name, p in stack.parameters().items():
                if name in dead:
                    assert np.max(np.abs(tape.grad(p))) < 1e-10, (
                        f"{variant}: {name} should be shift-redundant"
                    )
                else:
                    assert np.any(tape.grad(p) != 0.0), f"{variant}: no gradient for {name}"

    def test_full_stack_gradcheck(self):
        rng = np.random.default_rng(20)
        stack = FlowStack(4, num_blocks=2, hidden=6, rng=np.random.default_rng(21))
        randomize_stack(stack, rng, scale=0.4)
        x = Tensor(rng.uniform(-2, 2, size=(2, 6, 4)), requires_grad=True)
        tensors = [x] + list(stack.parameters().values())

        def loss_fn():
            y = stack.forward(x)
            back = stack.inverse(y * 0.5)
            return ad.mean_all(back * back)

        check_gradients(loss_fn, tensors, rng, num_probes=60)
