import ctypes
import mmap
import os
import subprocess
import sys
import types
import zlib
from pathlib import Path

import numpy as np
import pytest

from inflow import autodiff as ad
from inflow.autodiff import Adam, AdamState, Tape, Tensor, adam_step
from inflow.errors import ContractError, DimensionError, NumericError

from gradcheck import check_gradients


def test_add_elementwise():
    out = ad.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    np.testing.assert_array_equal(out.numpy(), [4.0, 6.0])


def test_mean_axis_time():
    out = ad.mean_axis(Tensor([[1.0, 2.0, 3.0, 4.0]]), axis=1)
    assert out.item() == pytest.approx(2.5)


def test_exp_of_zeros_is_ones():
    out = ad.exp(Tensor(np.zeros((2, 3))))
    np.testing.assert_array_equal(out.numpy(), np.ones((2, 3)))


def test_backward_sum_is_ones():
    p = Tensor([1.0, 5.0, -2.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(p)
    tape.backward(loss)
    np.testing.assert_array_equal(tape.grad(p), [1.0, 1.0, 1.0])


def test_backward_square_doubles():
    p = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(p * p)
    tape.backward(loss)
    np.testing.assert_allclose(tape.grad(p), [2.0, 4.0, 6.0])


def test_backward_unreachable_param_zero_grad():
    p = Tensor([1.0, 2.0], requires_grad=True)
    q = Tensor([3.0, 4.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(p * 2.0)
    tape.backward(loss)
    np.testing.assert_array_equal(tape.grad(q), [0.0, 0.0])


def test_backward_rejects_non_scalar_loss():
    p = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        out = p * p
    with pytest.raises(ContractError):
        tape.backward(out)


def test_backward_rejects_foreign_loss():
    p = Tensor([1.0], requires_grad=True)
    with Tape():
        pass
    other = Tape()
    with other:
        loss = ad.sum_all(p)
    fresh = Tape()
    with pytest.raises(ContractError):
        fresh.backward(loss)


def test_backward_linearity():
    rng = np.random.default_rng(7)
    p = Tensor(rng.normal(size=(4, 3)), requires_grad=True)

    def loss_a():
        return ad.sum_all(p * p)

    def loss_b():
        return ad.mean_all(ad.tanh(p))

    with Tape() as ta:
        la = loss_a()
    ta.backward(la)
    with Tape() as tb:
        lb = loss_b()
    tb.backward(lb)
    with Tape() as tc:
        lc = loss_a() + loss_b()
    tc.backward(lc)
    np.testing.assert_allclose(tc.grad(p), ta.grad(p) + tb.grad(p), rtol=1e-12)


def test_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError) as e:
        ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))
    assert "(2, 3)" in str(e.value) and "(2, 4)" in str(e.value)


def test_rank_limit_enforced():
    with pytest.raises(DimensionError):
        Tensor(np.zeros((2, 2, 2, 2)))


def test_division_by_zero_raises_numeric_error():
    with pytest.raises(NumericError):
        ad.div(Tensor([1.0]), Tensor([0.0]))


def test_non_finite_construction_rejected():
    with pytest.raises(NumericError):
        Tensor([np.nan])


def test_matmul_batched_against_numpy():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 5, 3))
    b = rng.normal(size=(3, 2))
    out = ad.matmul(Tensor(a), Tensor(b))
    np.testing.assert_allclose(out.numpy(), a @ b)


def test_matmul_inner_dim_mismatch():
    with pytest.raises(DimensionError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def test_slice_and_concat_roundtrip():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(2, 4, 6)))
    left = ad.slice_axis(x, axis=2, start=0, stop=3)
    right = ad.slice_axis(x, axis=2, start=3, stop=6)
    back = ad.concat([left, right], axis=2)
    np.testing.assert_array_equal(back.numpy(), x.numpy())


def test_slice_bounds_checked():
    x = Tensor(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        ad.slice_axis(x, axis=1, start=1, stop=5)


def test_flip_is_involution():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(2, 3, 5)))
    np.testing.assert_array_equal(
        ad.flip_axis(ad.flip_axis(x, 2), 2).numpy(), x.numpy()
    )


def test_var_axis_is_biased():
    x = Tensor([[1.0, 2.0, 3.0, 4.0]])
    out = ad.var_axis(x, axis=1)
    assert out.numpy()[0] == pytest.approx(1.25)  # divide by N, not N-1


# instance norm's per-window statistics, then batch norm's pooled ones
@pytest.mark.parametrize("shape,axis,keepdims", [((4, 6, 3), 1, True), ((24, 3), 0, False)])
def test_var_axis_given_mean_is_bit_identical(shape, axis, keepdims):
    x = Tensor(np.random.default_rng(11).normal(3.0, 2.0, size=shape), requires_grad=True)

    def run(mean_keepdims=None):
        with Tape() as tape:
            mean = None
            if mean_keepdims is not None:
                mean = ad.mean_axis(x, axis, keepdims=mean_keepdims)
            var = ad.var_axis(x, axis, keepdims=keepdims, mean=mean)
            loss = ad.mean_all(var * var)
        (node,) = [n for n in tape.nodes if n.op == "var_axis"]
        assert len(node.inputs) == 1 and node.inputs[0] is x
        tape.backward(loss)
        return var.data, tape.grad(x)

    value, grad = run()
    for mean_keepdims in (True, False):
        given_value, given_grad = run(mean_keepdims)
        assert given_value.tobytes() == value.tobytes()
        assert given_grad.tobytes() == grad.tobytes()


def test_var_axis_rejects_a_mean_of_the_wrong_shape():
    x = Tensor(np.ones((4, 6, 3)))
    for shape in ((4, 3, 1), (1, 6, 3), (6, 3), (3,)):
        with pytest.raises(DimensionError, match="var_axis"):
            ad.var_axis(x, 1, mean=np.zeros(shape))


def test_broadcast_middle_axis():
    x = Tensor(np.ones((2, 4, 3)))
    mu = Tensor(np.full((2, 1, 3), 0.5))
    out = x - mu
    assert out.shape == (2, 4, 3)
    np.testing.assert_allclose(out.numpy(), 0.5)


# (test id, the autodiff op, a call of that op alone, arity)
PRIMITIVE_CASES = [
    ("add", "add", lambda a, b: a + b, 2),
    ("sub", "sub", lambda a, b: a - b, 2),
    ("mul", "mul", lambda a, b: a * b, 2),
    ("div", "div", lambda a, b: a / b, 2),
    ("neg", "neg", lambda a: -a, 1),
    ("exp", "exp", ad.exp, 1),
    ("tanh", "tanh", ad.tanh, 1),
    ("relu", "relu", ad.relu, 1),
    ("power2", "power", lambda a: ad.power(a, 1.7), 1),
    ("matmul", "matmul", ad.matmul, 2),
    ("mean_axis", "mean_axis", lambda a: ad.mean_axis(a, axis=1, keepdims=True), 1),
    # reduces axis 1 and drops it, so the gradient needs its axis put back
    ("mean_axis_drop", "mean_axis", lambda a: ad.mean_axis(a, axis=1), 1),
    ("var_axis", "var_axis", lambda a: ad.var_axis(a, axis=1, keepdims=True), 1),
    # a given mean is data: the node records a alone
    ("var_axis_given_mean", "var_axis",
     lambda a: ad.var_axis(a, axis=1, mean=a.data.mean(axis=1)), 1),
    ("sum_all", "sum_all", ad.sum_all, 1),
    ("mean_all", "mean_all", ad.mean_all, 1),
    ("slice", "slice_axis", lambda a: ad.slice_axis(a, axis=1, start=1, stop=3), 1),
    ("concat", "concat", lambda a, b: ad.concat([a, b], axis=1), 2),
    ("reshape", "reshape", lambda a: ad.reshape(a, (a.data.size,)), 1),
    ("broadcast", "broadcast_to", lambda a: ad.broadcast_to(a, (2, 3, 4)), 1),
    ("flip", "flip_axis", lambda a: ad.flip_axis(a, 1), 1),
    ("swap", "swap_last_axes", ad.swap_last_axes, 1),
    # affine_norm over (h, mu, var, log_scale, shift): per-window statistics, as
    # instance norm has, or pooled ones, as batch norm has
    ("affine_norm", "affine_norm", lambda *t: ad.affine_norm(*t, eps=1e-5), 5),
    ("affine_norm_inverse", "affine_norm",
     lambda *t: ad.affine_norm(*t, eps=1e-5, inverse=True), 5),
    ("affine_norm_pooled", "affine_norm", lambda *t: ad.affine_norm(*t, eps=1e-5), 5),
    ("affine_norm_pooled_inverse", "affine_norm",
     lambda *t: ad.affine_norm(*t, eps=1e-5, inverse=True), 5),
]

_WINDOW_STATS = [(2, 4, 3), (2, 1, 3), (2, 1, 3), (3,), (3,)]
_POOLED_STATS = [(2, 4, 3), (3,), (3,), (3,), (3,)]

# inputs are drawn from (-2, 2) except here, away from a pole or a negative
# base or variance
PRIMITIVE_DOMAINS = {"div": (0.5, 2.5), "power2": (0.5, 2.5),
                     **{c[0]: (0.5, 2.5) for c in PRIMITIVE_CASES if c[1] == "affine_norm"}}
# inputs are (3, 4) except here; mul, div and broadcast sum a gradient back
# over a missing leading axis and over a size-1 axis
PRIMITIVE_SHAPES = {"matmul": [(3, 4), (4, 2)], "mul": [(3, 4), (4,)],
                    "div": [(3, 1), (3, 4)], "broadcast": [(3, 1)],
                    "affine_norm": _WINDOW_STATS, "affine_norm_inverse": _WINDOW_STATS,
                    "affine_norm_pooled": _POOLED_STATS,
                    "affine_norm_pooled_inverse": _POOLED_STATS}


def _primitive_inputs(name, arity, rng, requires_grad=True):
    low, high = PRIMITIVE_DOMAINS.get(name, (-2.0, 2.0))
    shapes = PRIMITIVE_SHAPES.get(name, [(3, 4), (3, 4)])
    return [Tensor(rng.uniform(low, high, size=shape), requires_grad=requires_grad)
            for shape in shapes[:arity]]


@pytest.mark.parametrize("name,op,fn,arity", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients_match_finite_differences(name, op, fn, arity):
    # crc32, unlike hash(), gives the same seed in every process
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    tensors = _primitive_inputs(name, arity, rng)

    def loss_fn():
        out = fn(*tensors)
        return ad.mean_all(out * out)

    check_gradients(loss_fn, tensors, rng, num_probes=30)


@pytest.mark.parametrize("name,op,fn,arity", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_op_records_one_node_named_after_it(name, op, fn, arity):
    assert getattr(ad, op).__name__ == op
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    with Tape() as tape:
        out = fn(*_primitive_inputs(name, arity, rng))
        assert [node.op for node in tape.nodes] == [op]
        assert tape.nodes[0].output is out and out.requires_grad
        frozen = fn(*_primitive_inputs(name, arity, rng, requires_grad=False))
    assert len(tape.nodes) == 1
    assert not frozen.requires_grad
    # the rule reads requires_grad when backward runs, as the idle-group freeze needs
    (node,) = tape.nodes
    for t in node.inputs:
        t.requires_grad = False
    assert all(g is None for g in node.backward(np.ones_like(out.data)))


def test_determinism_same_seed_same_everything():
    def run():
        rng = np.random.default_rng(42)
        p = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(5, 3)))
        with Tape() as tape:
            loss = ad.mean_all(ad.tanh(ad.matmul(x, p)))
        tape.backward(loss)
        return loss.item(), tape.grad(p).copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(g1, g2)


class TestAdam:
    def test_zero_grad_leaves_param_unchanged(self):
        p = Tensor([1.0, -2.0])
        state = AdamState.for_param(p)
        adam_step(state, p, np.zeros(2))
        np.testing.assert_array_equal(p.numpy(), [1.0, -2.0])
        assert state.step_count == 1

    def test_first_step_matches_hand_expansion(self):
        # m_hat = g, v_hat = g^2, update = -lr * g / (|g| + eps)
        p = Tensor([1.0])
        state = AdamState.for_param(p, lr=1e-3)
        adam_step(state, p, np.array([0.5]))
        expected = 1.0 - 1e-3 * 0.5 / (0.5 + 1e-8)
        assert p.numpy()[0] == pytest.approx(expected, abs=1e-12)
        assert p.numpy()[0] == pytest.approx(0.999, abs=1e-6)

    def test_two_steps_move_against_gradient_sign(self):
        p = Tensor([1.0])
        state = AdamState.for_param(p, lr=1e-2)
        values = [1.0]
        for _ in range(2):
            adam_step(state, p, np.array([0.5]))
            values.append(p.numpy()[0])
        assert values[2] < values[1] < values[0]

    def test_non_finite_grad_refused(self):
        p = Tensor([1.0])
        state = AdamState.for_param(p)
        with pytest.raises(NumericError):
            adam_step(state, p, np.array([np.inf]))
        assert state.step_count == 0
        assert p.numpy()[0] == 1.0

    def test_shape_mismatch_rejected(self):
        p = Tensor([1.0, 2.0])
        state = AdamState.for_param(p)
        with pytest.raises(DimensionError):
            adam_step(state, p, np.zeros(3))

    def test_group_optimizer_steps_all_params(self):
        params = {"a": Tensor([1.0]), "b": Tensor([2.0])}
        opt = Adam(params, lr=0.1)
        opt.step({"a": np.array([1.0]), "b": np.array([-1.0])})
        assert params["a"].numpy()[0] < 1.0
        assert params["b"].numpy()[0] > 2.0


DENSE_ACTS = ["tanh", "relu", None]


def _dense(x, w, b, activation):
    """One dense layer: a one-layer mlp."""
    return ad.mlp(x, [(w, b)], [activation])


def _dense_inputs(rng, x_shape, zero_rows=False):
    x = rng.uniform(-2, 2, size=x_shape)
    w = rng.uniform(-1, 1, size=(x_shape[-1], 4))
    b = rng.uniform(-1, 1, size=4)
    if zero_rows:  # exact-zero pre-activations: x @ W = 0 on these rows, and b = 0
        x.reshape(-1, x_shape[-1])[::2] = 0.0
        b[:] = 0.0
    return (Tensor(x, requires_grad=True), Tensor(w, requires_grad=True),
            Tensor(b, requires_grad=True))


def _unfused(x, layers, activations):
    """The matmul + add + activation chain that mlp fuses."""
    for (w, b), activation in zip(layers, activations):
        x = ad.matmul(x, w) + b
        if activation is not None:
            x = {"tanh": ad.tanh, "relu": ad.relu}[activation](x)
    return x


def _run_taped(op, x, layers, activations, out_weights):
    """Output, then the gradients of x and of each weight and bias."""
    with Tape() as tape:
        out = op(x, layers, activations)
        loss = ad.sum_all(out * out_weights)
    tape.backward(loss)
    return [out.data, tape.grad(x)] + [tape.grad(t) for pair in layers for t in pair]


@pytest.mark.parametrize("x_shape", [(6, 3), (2, 5, 3)], ids=["rank2", "rank3"])
@pytest.mark.parametrize("activation", DENSE_ACTS + ["relu_zeros"])
def test_dense_equals_unfused_chain(activation, x_shape):
    zero_rows = activation == "relu_zeros"
    activation = "relu" if zero_rows else activation
    rng = np.random.default_rng(11)
    x, w, b = _dense_inputs(rng, x_shape, zero_rows)
    weights = Tensor(rng.normal(size=x_shape[:-1] + (4,)))
    fused, chain = (_run_taped(op, x, [(w, b)], [activation], weights)
                    for op in (ad.mlp, _unfused))
    if zero_rows:
        assert np.all((x.data @ w.data + b.data).reshape(-1, 4)[::2] == 0.0)
    for got, want in zip(fused, chain):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("x_shape", [(6, 3), (2, 5, 3)], ids=["rank2", "rank3"])
@pytest.mark.parametrize("activation", DENSE_ACTS)
def test_dense_gradients_match_finite_differences(activation, x_shape):
    rng = np.random.default_rng(13)
    tensors = list(_dense_inputs(rng, x_shape))

    def loss_fn():
        out = _dense(*tensors, activation)
        return ad.mean_all(out * out)

    check_gradients(loss_fn, tensors, rng, num_probes=30)


@pytest.mark.parametrize("x_shape", [(6, 3), (2, 5, 3)], ids=["rank2", "rank3"])
@pytest.mark.parametrize("activation", DENSE_ACTS)
def test_dense_overflow_raises_numeric_error(activation, x_shape):
    x, w, b = _dense_inputs(np.random.default_rng(17), x_shape)
    x.data[:] = 1e200  # with weights of 1e200, every product overflows
    w.data[:] = 1e200
    with pytest.raises(NumericError, match="mlp layer 0"):
        _dense(x, w, b, activation)


@pytest.mark.parametrize("activation", DENSE_ACTS)
def test_dense_shape_errors(activation):
    x, w, b = _dense_inputs(np.random.default_rng(19), (2, 5, 3))
    with pytest.raises(DimensionError):
        _dense(x, w, Tensor(np.zeros(5)), activation)
    with pytest.raises(DimensionError):
        _dense(x, w, Tensor(np.zeros((1, 4))), activation)
    with pytest.raises(DimensionError):
        _dense(x, Tensor(np.zeros((2, 4))), b, activation)


def test_dense_rejects_unknown_activation():
    x, w, b = _dense_inputs(np.random.default_rng(23), (6, 3))
    with pytest.raises(ContractError):
        _dense(x, w, b, "sigmoid")


def _mlp_inputs(rng, lead, sizes, requires_grad=True):
    x = Tensor(rng.uniform(-2, 2, size=lead + (sizes[0],)), requires_grad=True)
    layers = [(Tensor(rng.uniform(-1.5, 1.5, size=(n_in, n_out)) / np.sqrt(n_in),
                      requires_grad=requires_grad),
               Tensor(rng.uniform(-0.5, 0.5, size=n_out), requires_grad=requires_grad))
              for n_in, n_out in zip(sizes[:-1], sizes[1:])]
    return x, layers


# a coupling net's and the backbone's widths; each row count spans several
# row blocks of MLP_BLOCK_BYTES plus a ragged remainder
MLP_CASES = {
    "coupling-rank2": ([3, 16, 16, 2], (3 * 2048 + 5,)),
    "coupling-rank3": ([3, 16, 16, 2], (139, 48)),
    "backbone-rank2": ([48, 128, 128, 48], (4 * 256 + 5,)),
    "backbone-rank3": ([48, 128, 128, 48], (23, 48)),
}


@pytest.mark.parametrize("activate_last", [False, True], ids=["linear_last", "act_last"])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("case", list(MLP_CASES))
def test_mlp_equals_unfused_chain(case, activation, activate_last):
    sizes, lead = MLP_CASES[case]
    rng = np.random.default_rng(31)
    x, layers = _mlp_inputs(rng, lead, sizes)
    acts = [activation] * (len(layers) - 1) + [activation if activate_last else None]
    weights = Tensor(rng.normal(size=lead + (sizes[-1],)))
    fused, chain = (_run_taped(op, x, layers, acts, weights) for op in (ad.mlp, _unfused))
    assert len(fused) == 2 + 2 * len(layers)
    for got, want in zip(fused, chain):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(ad.mlp(x, layers, acts).data, fused[0])  # no tape


@pytest.mark.parametrize("rows", [1000, 1024, 1283, 2049, 4099, 8917])
def test_mlp_wide_input_gradient_equals_unfused_chain(rows):
    # 128-row blocks at hidden width 256; a blocked (rows x 256) @ (256 x 3)
    # product rounds differently from one over all rows
    rng = np.random.default_rng(59)
    x, layers = _mlp_inputs(rng, (rows,), [3, 256, 256, 2])
    acts = ["tanh", "tanh", None]
    weights = Tensor(rng.normal(size=(rows, 2)))
    fused, chain = (_run_taped(op, x, layers, acts, weights) for op in (ad.mlp, _unfused))
    np.testing.assert_array_equal(fused[1], chain[1])


def test_mlp_records_one_node():
    rng = np.random.default_rng(37)
    x, layers = _mlp_inputs(rng, (5, 4), [3, 6, 6, 2])
    with Tape() as tape:
        out = ad.mlp(x, layers, ["tanh", "tanh", "tanh"])
    assert [node.op for node in tape.nodes] == ["mlp"]
    assert out.requires_grad and out.shape == (5, 4, 2)


def test_mlp_frozen_weights_get_no_gradient():
    rng = np.random.default_rng(41)
    x, layers = _mlp_inputs(rng, (4 * 256 + 5,), [48, 128, 128, 48], requires_grad=False)
    acts = ["relu", "relu", None]
    weights = Tensor(rng.normal(size=(4 * 256 + 5, 48)))
    with Tape() as tape:
        out = ad.mlp(x, layers, acts)
        loss = ad.sum_all(out * weights)
    (node,) = [n for n in tape.nodes if n.op == "mlp"]
    grads = node.backward(weights.data)
    assert grads[0] is not None and all(g is None for g in grads[1:])
    tape.backward(loss)
    assert set(tape.gradients) == {x.uid}
    chain = _run_taped(_unfused, x, layers, acts, weights)
    np.testing.assert_array_equal(tape.grad(x), chain[1])


def test_mlp_gradients_match_finite_differences(monkeypatch):
    # blocks of 2 rows over 7 rows: the backward crosses block edges
    monkeypatch.setattr(ad, "MLP_BLOCK_BYTES", 2 * 8 * 5)
    rng = np.random.default_rng(43)
    x, layers = _mlp_inputs(rng, (7,), [3, 5, 4, 2])
    tensors = [x] + [t for pair in layers for t in pair]

    def loss_fn():
        out = ad.mlp(x, layers, ["tanh", "relu", "tanh"])
        return ad.mean_all(out * out)

    check_gradients(loss_fn, tensors, rng, num_probes=40)


def test_mlp_overflow_in_a_later_block_names_the_layer():
    rng = np.random.default_rng(47)
    x, layers = _mlp_inputs(rng, (3 * 2048 + 5,), [3, 16, 16, 2])
    x.data[-3:] = 1e155  # only these rows, in the last block, overflow layer 1
    layers[1][0].data[:] *= 1e155
    with pytest.raises(NumericError, match="mlp layer 1"):
        ad.mlp(x, layers, ["relu", "relu", None])


def test_mlp_contract_errors():
    rng = np.random.default_rng(53)
    x, layers = _mlp_inputs(rng, (6,), [3, 5, 2])
    with pytest.raises(ContractError):
        ad.mlp(x, layers, ["tanh"])
    with pytest.raises(ContractError):
        ad.mlp(x, [], [])
    with pytest.raises(ContractError):
        ad.mlp(x, layers, ["tanh", "sigmoid"])
    with pytest.raises(DimensionError):
        ad.mlp(x, layers[::-1], ["tanh", None])
    with pytest.raises(DimensionError):
        ad.mlp(Tensor(np.zeros(3)), layers, ["tanh", None])


def test_backward_keeps_only_leaf_gradients():
    rng = np.random.default_rng(29)
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    with Tape() as tape:
        h = ad.mlp(x, [(w, b)], ["tanh"])
        loss = ad.mean_all(ad.exp(h) * h)
    grads = tape.backward(loss)
    produced = {node.output.uid for node in tape.nodes}
    assert set(grads) == set(tape.gradients) == {x.uid, w.uid, b.uid}
    assert produced.isdisjoint(tape.gradients)


def test_backward_accumulates_fan_out_before_use():
    # y = 2p is read by two consumers; d/dp sum(y*y + 3y) = 2 * (2y + 3)
    p = Tensor([1.0, -2.0, 0.5], requires_grad=True)
    with Tape() as tape:
        y = p * 2.0
        loss = ad.sum_all(y * y) + ad.sum_all(y * 3.0)
    tape.backward(loss)
    np.testing.assert_array_equal(tape.grad(p), [14.0, -10.0, 10.0])
    np.testing.assert_array_equal(tape.grad(y), [0.0, 0.0, 0.0])


@pytest.mark.parametrize("shapes", [
    [(2, 4), (3,), (3,), (3,), (3,)],           # h is not a window
    [(2, 4, 3), (2, 4, 3), (3,), (3,), (3,)],   # statistics not reduced over time
    [(2, 4, 3), (3,), (1, 1, 3), (3,), (3,)],   # statistics of another batch
    [(2, 4, 3), (3,), (3,), (2, 1, 3), (3,)],   # a per-window affine
], ids=["rank", "unreduced", "batch", "affine"])
def test_affine_norm_shape_errors(shapes):
    with pytest.raises(DimensionError, match="affine_norm"):
        ad.affine_norm(*[Tensor(np.ones(s)) for s in shapes], eps=1e-5)


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
def test_affine_norm_overflow_raises_numeric_error(inverse):
    log_scale = np.full(3, -800.0 if inverse else 800.0)
    with pytest.raises(NumericError, match="affine_norm"):
        ad.affine_norm(np.ones((2, 4, 3)), np.zeros(3), np.ones(3), log_scale, np.zeros(3),
                       eps=1e-5, inverse=inverse)


# ---------------------------------------------------------------------------
# the heap policy


# Run in a fresh process: glibc's default mmap threshold rises with each large
# block freed, so how often it faults in this one depends on the tests before.
_REUSE_PROBE = """
import resource
import numpy as np
import inflow.autodiff

n = 2**20  # an 8 MiB array
np.ones(n)  # freed at once
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
again = np.ones(n)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(os.name != "posix" or not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="libc has no mallopt")
def test_freed_memory_is_reused_without_page_faults():
    src = str(Path(ad.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _REUSE_PROBE], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    pages = 8 * 2**20 // mmap.PAGESIZE
    faults = int(proc.stdout)
    assert faults < 0.05 * pages, f"{faults} minor faults of {pages} pages"


def test_heap_policy_leaves_a_libc_without_mallopt_alone():
    libc = types.SimpleNamespace()
    assert ad._hold_freed_memory(libc) is False
    assert vars(libc) == {}


@pytest.mark.parametrize("status", [1, 0])
def test_heap_policy_sets_both_thresholds_or_reports_refusal(status):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return status

    assert ad._hold_freed_memory(types.SimpleNamespace(mallopt=mallopt)) is bool(status)
    both = [(-3, ad.MMAP_THRESHOLD_BYTES), (-1, ad.TRIM_THRESHOLD_BYTES)]
    assert calls == (both if status else both[:1])


def _flow_setup(seed=0):
    """A flow stack and MLP backbone with inner_train and outer_val batches."""
    from inflow.data import SyntheticConfig, generate_synthetic, make_windows, \
        split_windows, zscore_fit_apply
    from inflow.flow import FlowStack
    from inflow.forecasters import ForecasterConfig, build_forecaster
    from inflow.pipeline import ForecastPipeline
    from inflow.training import BiLevelState, TrainConfig, stack_windows

    ds, stats = zscore_fit_apply(generate_synthetic(
        SyntheticConfig(tau=24, total_length=600, num_series=3, seed=seed)))
    groups = split_windows(make_windows(ds, 16, 8, use_bilevel=True))
    pipe = ForecastPipeline(
        FlowStack(3, num_blocks=2, hidden=8, rng=np.random.default_rng(seed)),
        build_forecaster(ForecasterConfig(kind="mlp", lookback=16, horizon=8, num_variates=3,
                                          hidden_width=32, depth=2),
                         rng=np.random.default_rng(seed + 1)))
    state = BiLevelState.for_pipeline(pipe, TrainConfig())
    return (pipe, state, stack_windows(groups["inner_train"]),
            stack_windows(groups["outer_val"]), groups, stats)


def test_prediction_is_unchanged_by_later_steps_and_evaluations():
    from inflow.evaluation import evaluate
    from inflow.training import bilevel_step

    pipe, state, inner, outer, groups, stats = _flow_setup()
    pipe.eval_mode()
    y = pipe.predict(Tensor(inner.x.data)).numpy()
    kept = y.copy()
    for _ in range(2):
        bilevel_step(state, pipe, inner, outer)
        evaluate(pipe, groups["val"], stats)
    np.testing.assert_array_equal(y, kept)
