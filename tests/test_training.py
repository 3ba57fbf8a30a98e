import numpy as np
import pytest

from inflow.autodiff import Adam, Tape, Tensor
from inflow.baselines import IdentityTransform, RevInTransform
from inflow.data import SeriesDataset, make_windows, split_windows
from inflow.errors import ConfigError, ContractError, DimensionError, NumericError
from inflow.flow import BN_MOMENTUM, BatchNormLayer, FlowStack
from inflow.forecasters import ForecasterConfig, build_forecaster
from inflow.pipeline import ForecastPipeline
from inflow.training import (
    BiLevelState,
    TrainConfig,
    bilevel_step,
    loss_l2,
    stack_windows,
    train,
)


def ramp_dataset(total=60, slope=0.05, num_variates=1):
    t = np.arange(total, dtype=np.float64)
    values = np.stack([slope * (t + 10 * d) for d in range(num_variates)], axis=1)
    return SeriesDataset(values=values, train_end=int(total * 0.6),
                         val_end=int(total * 0.8))


def linear_pipeline(lookback=4, horizon=2, num_variates=1, transform=None, seed=0):
    cfg = ForecasterConfig(kind="linear", lookback=lookback, horizon=horizon,
                           num_variates=num_variates)
    forecaster = build_forecaster(cfg, rng=np.random.default_rng(seed))
    return ForecastPipeline(transform or IdentityTransform(), forecaster)


class TestLossL2:
    def test_perfect_prediction_is_zero(self):
        y = Tensor(np.ones((2, 3, 1)))
        assert loss_l2(y, y).item() == 0.0

    def test_hand_value(self):
        y = Tensor(np.array([1.0, 2.0]).reshape(1, 2, 1))
        y_hat = Tensor(np.array([1.0, 3.0]).reshape(1, 2, 1))
        assert loss_l2(y_hat, y).item() == pytest.approx(0.5)

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(0)
        y = Tensor(rng.normal(size=(2, 4, 3)))
        r = Tensor(rng.normal(size=(2, 4, 3)))
        base = loss_l2(y + r, y).item()
        scaled = loss_l2(y + r * 3.0, y).item()
        assert scaled == pytest.approx(9.0 * base)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            loss_l2(Tensor(np.zeros((1, 2, 1))), Tensor(np.zeros((1, 3, 1))))


def bilevel_batches(ds, lookback=4, horizon=2):
    groups = split_windows(make_windows(ds, lookback, horizon, use_bilevel=True))
    return (stack_windows(groups["inner_train"]), stack_windows(groups["outer_val"]),
            groups)


class TestBilevelStep:
    def test_provenance_enforced(self):
        ds = ramp_dataset()
        inner, outer, groups = bilevel_batches(ds)
        pipe = linear_pipeline()
        state = BiLevelState.for_pipeline(pipe, TrainConfig())
        with pytest.raises(ContractError):
            bilevel_step(state, pipe, outer, outer)
        with pytest.raises(ContractError):
            bilevel_step(state, pipe, inner, inner)

    def test_update_order_theta_then_phi(self):
        ds = ramp_dataset()
        inner, outer, _ = bilevel_batches(ds)
        pipe = linear_pipeline(transform=RevInTransform(1))
        state = BiLevelState.for_pipeline(pipe, TrainConfig())
        bilevel_step(state, pipe, inner, outer)
        bilevel_step(state, pipe, inner, outer)
        assert state.update_log == [("theta", "inner_train"), ("phi", "outer_val")] * 2

    def test_zero_gradients_leave_parameters_unchanged(self):
        ds = ramp_dataset()
        inner, outer, _ = bilevel_batches(ds)
        pipe = linear_pipeline()
        # make both batches exactly solvable by the current parameters
        inner = type(inner)(x=inner.x, y=pipe.predict(inner.x), anchors=inner.anchors,
                            split=inner.split)
        outer = type(outer)(x=outer.x, y=pipe.predict(outer.x), anchors=outer.anchors,
                            split=outer.split)
        before = pipe.snapshot()
        state = BiLevelState.for_pipeline(pipe, TrainConfig())
        loss = bilevel_step(state, pipe, inner, outer)
        assert loss == 0.0
        for name, arr in pipe.snapshot().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_single_repeated_batch_descends(self):
        ds = ramp_dataset()
        inner, outer, _ = bilevel_batches(ds)
        pipe = linear_pipeline(seed=3)
        cfg = TrainConfig(inner_lr=1e-4)
        state = BiLevelState.for_pipeline(pipe, cfg)
        first = bilevel_step(state, pipe, inner, outer, cfg.clip_norm)
        second = bilevel_step(state, pipe, inner, outer, cfg.clip_norm)
        assert second <= first

    def test_optimizer_groups_are_disjoint(self):
        pipe = linear_pipeline(transform=RevInTransform(1))
        state = BiLevelState.for_pipeline(pipe, TrainConfig())
        theta_names = set(pipe.theta_parameters())
        assert set(state.theta_opt.params) == theta_names
        assert set(state.phi_opt.params).isdisjoint(theta_names)
        assert len(state.phi_opt.params) == 2

    def test_non_finite_loss_names_substep_and_anchors(self):
        ds = ramp_dataset()
        inner, outer, _ = bilevel_batches(ds)
        pipe = linear_pipeline()
        pipe.forecaster.head.weight.data[:] = 1e200  # force overflow in the loss
        state = BiLevelState.for_pipeline(pipe, TrainConfig())
        with pytest.raises(NumericError, match="theta.*anchors"):
            bilevel_step(state, pipe, inner, outer)


def batch_norm_pipeline(num_variates=2, lookback=4, horizon=2):
    stack = FlowStack(num_variates, num_blocks=2, variant="batch_norm", hidden=4,
                      rng=np.random.default_rng(5))
    return linear_pipeline(lookback, horizon, num_variates, transform=stack)


class TestFrozenTransform:
    """Passes that do not train phi run the transform frozen, buffers included."""

    def test_bilevel_step_moves_running_stats_by_outer_batch_only(self):
        ds = ramp_dataset(num_variates=2)
        inner, outer, _ = bilevel_batches(ds)
        pipe = batch_norm_pipeline()
        bn = pipe.transform.layers[0]
        assert isinstance(bn, BatchNormLayer)
        mean0, var0 = bn.running_mean.numpy().copy(), bn.running_var.numpy().copy()
        state = BiLevelState.for_pipeline(pipe, TrainConfig())
        bilevel_step(state, pipe, inner, outer)
        flat = outer.x.numpy().reshape(-1, 2)
        m = BN_MOMENTUM
        np.testing.assert_allclose(bn.running_mean.numpy(),
                                   (1 - m) * mean0 + m * flat.mean(axis=0),
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(bn.running_var.numpy(),
                                   (1 - m) * var0 + m * flat.var(axis=0),
                                   rtol=1e-12, atol=1e-15)
        assert bn.training  # the phi pass runs, and leaves, the transform in training mode

    def test_backbone_only_leaves_phi_and_buffers_bit_identical(self):
        ds = ramp_dataset(total=100, num_variates=2)
        windows = make_windows(ds, 4, 2, use_bilevel=True)
        pipe = batch_norm_pipeline()
        before = pipe.snapshot()
        cfg = TrainConfig(max_epochs=1, mode="backbone_only", batch_size=16)
        pipe, report = train(pipe, windows, cfg)
        assert {k for k, _ in report.update_log} == {"theta"}
        after = pipe.snapshot()
        phi_names = [n for n in before if n.startswith("phi")]
        assert any(n.startswith("phi_buffer.") for n in phi_names)
        for name in phi_names:
            np.testing.assert_array_equal(after[name], before[name])
        assert any(not np.array_equal(after[n], before[n])
                   for n in before if n.startswith("theta."))


def pre_norm_pipeline(num_variates=2):
    stack = FlowStack(num_variates, num_blocks=1, variant="pre_norm", hidden=4,
                      rng=np.random.default_rng(5))
    return linear_pipeline(num_variates=num_variates, transform=stack)


class TestUpdateStep:
    """Every mode's one epoch of `train`: which groups move, and the update log."""

    EXPECTED_LOG = {
        "bilevel": [("theta", "inner_train"), ("phi", "outer_val")],
        "joint": [("joint", "inner_train")],
        "backbone_only": [("theta", "inner_train")],
    }

    @pytest.mark.parametrize("mode", ["bilevel", "joint", "backbone_only"])
    def test_one_epoch_moves_the_updated_groups(self, mode):
        ds = ramp_dataset(total=100, num_variates=2)
        windows = make_windows(ds, 4, 2, use_bilevel=True)
        pipe = pre_norm_pipeline()
        before = pipe.snapshot()
        cfg = TrainConfig(max_epochs=1, mode=mode, batch_size=16)
        pipe, report = train(pipe, windows, cfg)
        after = pipe.snapshot()

        def moved(prefix):
            return any(not np.array_equal(after[n], before[n])
                       for n in before if n.startswith(prefix))

        assert moved("theta.")
        assert moved("phi.") == (mode != "backbone_only")
        steps = -(-len(split_windows(windows)["inner_train"]) // cfg.batch_size)
        assert report.update_log == self.EXPECTED_LOG[mode] * steps


class TestIdleGroup:
    """The group a step does not update is neither recorded nor differentiated."""

    def test_freeze_changes_no_gradient(self, monkeypatch):
        inner, outer, _ = bilevel_batches(ramp_dataset(num_variates=2))
        pipe = pre_norm_pipeline()
        state = BiLevelState.for_pipeline(pipe, TrainConfig())
        idle_uids = {id(state.theta_opt): {p.uid for p in state.phi_opt.params.values()},
                     id(state.phi_opt): {p.uid for p in state.theta_opt.params.values()}}
        differentiated = []
        backward, step = Tape.backward, Adam.step

        def recording_backward(tape, loss):
            grads = backward(tape, loss)
            differentiated.append(set(grads))
            return grads

        def checked_step(opt, grads):
            # the reference: every parameter requires grad, from the same pre-step values
            batch = inner if opt is state.theta_opt else outer
            tape = Tape()
            with tape:
                loss = loss_l2(pipe.predict(batch.x), batch.y)
            backward(tape, loss)
            assert set(grads) == set(opt.params)
            for name, p in opt.params.items():
                np.testing.assert_array_equal(grads[name], tape.grad(p))
            assert differentiated[-1].isdisjoint(idle_uids[id(opt)])
            assert idle_uids[id(opt)] & set(tape.gradients)  # the reference does the work
            step(opt, grads)

        monkeypatch.setattr(Tape, "backward", recording_backward)
        monkeypatch.setattr(Adam, "step", checked_step)
        bilevel_step(state, pipe, inner, outer, clip_norm=np.inf)
        assert len(differentiated) == 2
        assert all(p.requires_grad for p in pipe.parameters().values())

    def test_flags_restored_after_non_finite_loss(self):
        inner, outer, _ = bilevel_batches(ramp_dataset(num_variates=2))
        pipe = pre_norm_pipeline()
        pipe.forecaster.head.weight.data[:] = 1e200  # force overflow in the loss
        state = BiLevelState.for_pipeline(pipe, TrainConfig())
        with pytest.raises(NumericError, match="theta.*anchors"):
            bilevel_step(state, pipe, inner, outer)
        assert all(p.requires_grad for p in pipe.parameters().values())

    @pytest.mark.filterwarnings("ignore:coupling layer with a single variate")
    def test_update_over_an_empty_group_runs_and_changes_nothing(self):
        ds = ramp_dataset(total=100)
        windows = make_windows(ds, 4, 2, use_bilevel=True)
        pipe = linear_pipeline(transform=FlowStack(1, 2, "coupling_only"))
        assert pipe.phi_parameters() == {}
        before = pipe.snapshot()
        cfg = TrainConfig(max_epochs=1, mode="bilevel", batch_size=16)
        pipe, report = train(pipe, windows, cfg)
        steps = -(-len(split_windows(windows)["inner_train"]) // cfg.batch_size)
        assert report.update_log == [("theta", "inner_train"), ("phi", "outer_val")] * steps
        after = pipe.snapshot()
        assert any(not np.array_equal(after[n], before[n]) for n in before)


class TestStackWindows:
    def test_rejects_mixed_splits(self):
        ds = ramp_dataset()
        windows = make_windows(ds, 4, 2, use_bilevel=True)
        with pytest.raises(ContractError):
            stack_windows(windows)

    def test_shapes(self):
        ds = ramp_dataset(num_variates=2)
        groups = split_windows(make_windows(ds, 4, 2))
        batch = stack_windows(groups["test"])
        assert batch.x.shape == (len(groups["test"]), 4, 2)
        assert batch.y.shape == (len(groups["test"]), 2, 2)


class TestTrain:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(patience=0)
        with pytest.raises(ConfigError):
            TrainConfig(mode="alternating")
        with pytest.raises(ConfigError):
            TrainConfig(inner_lr=0.0)
        with pytest.raises(ConfigError, match="batch_size"):
            TrainConfig(batch_size=0)

    def test_max_epochs_zero_returns_untrained(self):
        ds = ramp_dataset()
        windows = make_windows(ds, 4, 2, use_bilevel=True)
        pipe = linear_pipeline()
        before = pipe.snapshot()
        pipe, report = train(pipe, windows, TrainConfig(max_epochs=0))
        assert report.loss_history == []
        assert report.best_epoch is None
        for name, arr in pipe.snapshot().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_empty_split_is_config_error(self):
        ds = ramp_dataset()
        windows = make_windows(ds, 4, 2, use_bilevel=False)  # no outer_val cut
        with pytest.raises(ConfigError, match="outer_val"):
            train(linear_pipeline(), windows, TrainConfig(mode="bilevel"))

    def test_descent_on_linear_toy(self):
        ds = ramp_dataset(total=100)
        windows = make_windows(ds, 4, 2, use_bilevel=True)
        cfg = TrainConfig(inner_lr=2e-2, batch_size=64, max_epochs=150,
                          patience=150, mode="backbone_only", seed=1)
        pipe, report = train(linear_pipeline(seed=1), windows, cfg)
        assert report.loss_history[-1][0] < 1e-3

    def test_alternation_and_split_discipline(self):
        ds = ramp_dataset(total=100)
        windows = make_windows(ds, 4, 2, use_bilevel=True)
        cfg = TrainConfig(inner_lr=1e-3, batch_size=16, max_epochs=3, mode="bilevel")
        pipe, report = train(linear_pipeline(transform=RevInTransform(1)), windows, cfg)
        kinds = [k for k, _ in report.update_log]
        assert kinds == ["theta", "phi"] * (len(kinds) // 2)
        assert all(s == "inner_train" for k, s in report.update_log if k == "theta")
        assert all(s == "outer_val" for k, s in report.update_log if k == "phi")

    def test_joint_mode_single_family(self):
        ds = ramp_dataset(total=100)
        windows = make_windows(ds, 4, 2, use_bilevel=True)
        cfg = TrainConfig(max_epochs=2, mode="joint", batch_size=32)
        pipe, report = train(linear_pipeline(transform=RevInTransform(1)), windows, cfg)
        assert {k for k, _ in report.update_log} == {"joint"}
        assert {s for _, s in report.update_log} == {"inner_train"}

    def test_backbone_only_with_identity_is_plain_supervised(self):
        ds = ramp_dataset(total=100)
        windows = make_windows(ds, 4, 2, use_bilevel=True)
        cfg = TrainConfig(max_epochs=2, mode="backbone_only", batch_size=32)
        pipe, report = train(linear_pipeline(), windows, cfg)
        assert {k for k, _ in report.update_log} == {"theta"}
        assert pipe.phi_parameters() == {}

    def test_early_stop_patience_one_on_worsening_val(self):
        # one window per region, identical inputs, opposite targets: every
        # step toward the training target strictly worsens validation
        values = np.array([1, 1, 1, 1, 5, 5,
                           1, 1, 1, 1, -1, -1,
                           1, 1, 1, 1, 0, 0], dtype=float).reshape(-1, 1)
        ds = SeriesDataset(values=values, train_end=6, val_end=12)
        windows = make_windows(ds, 4, 2, use_bilevel=False)
        pipe = linear_pipeline()
        pipe.forecaster.head.weight.data[:] = 0.0
        pipe.forecaster.head.bias.data[:] = 0.0
        cfg = TrainConfig(inner_lr=0.1, max_epochs=50, patience=1,
                          mode="backbone_only", seed=2)
        pipe, report = train(pipe, windows, cfg)
        assert len(report.loss_history) == 2
        assert report.best_epoch == 1

    def test_best_model_restored(self):
        ds = ramp_dataset(total=100)
        windows = make_windows(ds, 4, 2, use_bilevel=True)
        cfg = TrainConfig(inner_lr=5e-3, batch_size=32, max_epochs=12, patience=3,
                          mode="bilevel", seed=3)
        pipe, report = train(linear_pipeline(seed=3, transform=RevInTransform(1)),
                             windows, cfg)
        vals = [v for _, v in report.loss_history]
        assert report.best_val_loss == pytest.approx(min(vals))
        from inflow.evaluation import evaluate
        groups = split_windows(windows)
        re_eval = evaluate(pipe, groups["val"])
        assert re_eval.mse == pytest.approx(report.best_val_loss, abs=1e-12)

    def test_identical_seed_identical_history(self):
        ds = ramp_dataset(total=100)
        windows = make_windows(ds, 4, 2, use_bilevel=True)
        cfg = TrainConfig(inner_lr=1e-3, batch_size=16, max_epochs=4, seed=7)

        def run():
            pipe = linear_pipeline(seed=7, transform=RevInTransform(1))
            _, report = train(pipe, windows, cfg)
            return report.loss_history

        assert run() == run()
