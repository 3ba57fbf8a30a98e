import numpy as np
import pytest

from inflow.autodiff import Tensor
from inflow.baselines import IdentityTransform, RevInTransform
from inflow.data import SeriesDataset, WindowPair, make_windows, split_windows, zscore_fit_apply
from inflow.errors import ContractError
from inflow.evaluation import dump_forecast_trace, evaluate
from inflow.forecasters import ForecasterConfig, build_forecaster
from inflow.pipeline import ForecastPipeline


class ConstantForecaster:
    """Predicts a fixed value everywhere; handy as a known-error oracle."""

    def __init__(self, lookback, horizon, num_variates, value=0.0):
        self.horizon = horizon
        self.num_variates = num_variates
        self.value = value

    def forward(self, x):
        b = x.shape[0]
        return Tensor(np.full((b, self.horizon, self.num_variates), self.value))

    def parameters(self):
        return {}


def window_list(rng, n=7, lookback=4, horizon=3, num_variates=2, split="test"):
    return [
        WindowPair(
            x=rng.normal(size=(lookback, num_variates)),
            y=rng.normal(size=(horizon, num_variates)),
            anchor=i + lookback,
            split=split,
        )
        for i in range(n)
    ]


def brute_force_mse_mae(pipeline, windows):
    """Window-at-a-time naive recomputation, independent of evaluate()."""
    sq, ab, n = 0.0, 0.0, 0
    for w in windows:
        pred = pipeline.predict(Tensor(w.x[None])).numpy()[0]
        for i in range(pred.shape[0]):
            for j in range(pred.shape[1]):
                d = pred[i, j] - w.y[i, j]
                sq += d * d
                ab += abs(d)
                n += 1
    return sq / n, ab / n


class TestEvaluate:
    def test_perfect_oracle_scores_zero(self):
        rng = np.random.default_rng(0)
        windows = window_list(rng)
        pipe = ForecastPipeline(IdentityTransform(),
                                ConstantForecaster(4, 3, 2, value=0.0))
        for w in windows:
            w.y[:] = 0.0
        report = evaluate(pipe, windows)
        assert report.mse == 0.0 and report.mae == 0.0

    def test_constant_zero_on_constant_target(self):
        rng = np.random.default_rng(1)
        windows = window_list(rng)
        for w in windows:
            w.y[:] = -2.5
        pipe = ForecastPipeline(IdentityTransform(), ConstantForecaster(4, 3, 2))
        report = evaluate(pipe, windows)
        assert report.mse == pytest.approx(6.25)
        assert report.mae == pytest.approx(2.5)

    def test_matches_brute_force_recomputation(self):
        rng = np.random.default_rng(2)
        windows = window_list(rng, n=23)
        cfg = ForecasterConfig(kind="mlp", lookback=4, horizon=3, num_variates=2,
                               hidden_width=8, depth=2)
        pipe = ForecastPipeline(IdentityTransform(), build_forecaster(cfg, rng=rng))
        report = evaluate(pipe, windows, batch_size=5)
        mse_bf, mae_bf = brute_force_mse_mae(pipe, windows)
        assert report.mse == pytest.approx(mse_bf, abs=1e-10)
        assert report.mae == pytest.approx(mae_bf, abs=1e-10)

    def test_zscored_windows_require_stats(self):
        rng = np.random.default_rng(4)
        windows = window_list(rng)
        for w in windows:
            w.zscored = True
        pipe = ForecastPipeline(IdentityTransform(), ConstantForecaster(4, 3, 2))
        with pytest.raises(ContractError):
            evaluate(pipe, windows)

    def test_stats_for_raw_windows_rejected(self):
        values = np.linspace(0.0, 10.0, 40).reshape(-1, 1)
        ds = SeriesDataset(values=values, train_end=24, val_end=32)
        _, stats = zscore_fit_apply(ds)
        raw = split_windows(make_windows(ds, 4, 2))["test"]
        pipe = ForecastPipeline(IdentityTransform(), ConstantForecaster(4, 2, 1))
        with pytest.raises(ContractError, match="raw dataset"):
            evaluate(pipe, raw, zscore_stats=stats)
        with pytest.raises(ContractError, match="raw dataset"):
            dump_forecast_trace(pipe, raw[0], stats)

    def test_zscore_inverse_applied(self):
        values = np.linspace(0.0, 10.0, 40).reshape(-1, 1)
        ds = SeriesDataset(values=values, train_end=24, val_end=32)
        zds, stats = zscore_fit_apply(ds)
        windows = split_windows(make_windows(zds, 4, 2))["test"]
        pipe = ForecastPipeline(IdentityTransform(), ConstantForecaster(4, 2, 1))
        report = evaluate(pipe, windows, zscore_stats=stats)
        # constant forecast of 0 in z-space is the train mean in raw units
        raw = split_windows(make_windows(ds, 4, 2))["test"]
        expected = np.mean([(w.y - stats.mean[0]) ** 2 for w in raw])
        assert report.mse == pytest.approx(expected, rel=1e-12)


class TestTrace:
    def test_identity_transform_stages_coincide(self):
        rng = np.random.default_rng(7)
        w = window_list(rng, n=1)[0]
        cfg = ForecasterConfig(kind="linear", lookback=4, horizon=3, num_variates=2)
        pipe = ForecastPipeline(IdentityTransform(), build_forecaster(cfg, rng=rng))
        trace = dump_forecast_trace(pipe, w)
        np.testing.assert_array_equal(trace.x, trace.x_transformed)
        np.testing.assert_array_equal(trace.y_hat, trace.y_transformed)

    def test_step_count_is_lookback_plus_horizon(self):
        rng = np.random.default_rng(8)
        w = window_list(rng, n=1)[0]
        pipe = ForecastPipeline(IdentityTransform(), ConstantForecaster(4, 3, 2))
        trace = dump_forecast_trace(pipe, w)
        assert trace.num_steps == 4 + 3

    def test_revin_transformed_input_centers_on_shift(self):
        rng = np.random.default_rng(9)
        w = window_list(rng, n=1, num_variates=2)[0]
        revin = RevInTransform(2)
        revin._norm.shift.data[:] = [0.5, -0.25]
        pipe = ForecastPipeline(revin, ConstantForecaster(4, 3, 2))
        trace = dump_forecast_trace(pipe, w)
        np.testing.assert_allclose(trace.x_transformed.mean(axis=0), [0.5, -0.25],
                                   atol=1e-9)

    def test_csv_layout(self, tmp_path):
        rng = np.random.default_rng(10)
        w = window_list(rng, n=1)[0]
        pipe = ForecastPipeline(IdentityTransform(), ConstantForecaster(4, 3, 2))
        trace = dump_forecast_trace(pipe, w)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step_index,stage,variate,value"
        # 2 lookback stages over 4 steps + 3 horizon stages over 3 steps, 2 variates
        assert len(lines) - 1 == (2 * 4 + 3 * 3) * 2
        stages = {line.split(",")[1] for line in lines[1:]}
        assert stages == {"input", "input_transformed", "forecast_transformed",
                          "forecast", "target"}
