"""Forecast quality metrics and stage traces."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, empty, stack
from .data import WindowPair, ZScoreStats
from .errors import ContractError
from .pipeline import ForecastPipeline


@dataclass
class MetricReport:
    """Original-scale MSE/MAE of one pipeline over a set of windows.

    `to_dict` repeats them as `reported_mse`/`reported_mae`, because
    `metrics.json` written by `inflow eval` carries those keys.
    """

    mse: float
    mae: float
    num_windows: int

    def to_dict(self) -> dict:
        return {
            "mse": self.mse,
            "mae": self.mae,
            "reported_mse": self.mse,
            "reported_mae": self.mae,
            "num_windows": self.num_windows,
        }


def _check_stats(windows: list[WindowPair], stats: ZScoreStats | None) -> None:
    """Stats must be given exactly when the windows were cut from a z-scored dataset."""
    if stats is None and any(w.zscored for w in windows):
        raise ContractError(
            "windows come from a z-scored dataset; pass the fitted statistics"
        )
    if stats is not None and not all(w.zscored for w in windows):
        raise ContractError(
            "z-score statistics given for windows of a raw dataset; "
            "un-standardizing them would report metrics in the wrong units"
        )


def _predict_batch(pipeline: ForecastPipeline, windows: list[WindowPair],
                   stats: ZScoreStats | None) -> tuple[np.ndarray, np.ndarray]:
    x = Tensor(stack([w.x for w in windows]))
    y_hat = pipeline.predict(x).numpy()
    y = stack([w.y for w in windows])
    if stats is not None:
        y_hat = stats.inverse(y_hat, out=empty(y_hat.shape))
        y = stats.inverse(y, out=y)
    return y_hat, y


def evaluate(pipeline: ForecastPipeline, windows: list[WindowPair],
             zscore_stats: ZScoreStats | None = None,
             batch_size: int = 1024) -> MetricReport:
    """Original-scale MSE/MAE over every element of the given windows.

    Runs outside any tape, so no gradients are recorded. The fitted
    statistics are required if the windows were cut from a standardized
    dataset, and refused if not; metrics are computed after undoing the
    standardization.
    """
    if not windows:
        raise ContractError("evaluate needs at least one window")
    _check_stats(windows, zscore_stats)
    sq_sum = 0.0
    abs_sum = 0.0
    count = 0
    for lo in range(0, len(windows), batch_size):
        chunk = windows[lo:lo + batch_size]
        y_hat, y = _predict_batch(pipeline, chunk, zscore_stats)
        # y is this function's own; y_hat may be an array the pipeline keeps
        diff = np.subtract(y_hat, y, out=y)
        sq = np.multiply(diff, diff, out=empty(diff.shape))
        sq_sum += float(np.sum(sq))
        abs_sum += float(np.sum(np.abs(diff, out=sq)))
        count += diff.size
    return MetricReport(mse=sq_sum / count, mae=abs_sum / count, num_windows=len(windows))


@dataclass
class ForecastTrace:
    """The four stages of one forecast plus the ground truth.

    Lookback rows carry the raw and transformed input; horizon rows carry
    the raw-space forecast, the model-space forecast, and the target.
    """

    x: np.ndarray          # [L, D] raw input
    x_transformed: np.ndarray  # [L, D]
    y_transformed: np.ndarray  # [H, D] forecast before the inverse transform
    y_hat: np.ndarray      # [H, D] final forecast
    y_true: np.ndarray     # [H, D]
    anchor: int

    @property
    def num_steps(self) -> int:
        return self.x.shape[0] + self.y_hat.shape[0]

    def write_csv(self, path) -> None:
        lookback = self.x.shape[0]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("step_index,stage,variate,value\n")
            stages = [
                ("input", self.x, 0),
                ("input_transformed", self.x_transformed, 0),
                ("forecast_transformed", self.y_transformed, lookback),
                ("forecast", self.y_hat, lookback),
                ("target", self.y_true, lookback),
            ]
            for stage, arr, offset in stages:
                for step in range(arr.shape[0]):
                    for variate in range(arr.shape[1]):
                        fh.write(
                            f"{offset + step},{stage},{variate},{arr[step, variate]!r}\n"
                        )


def dump_forecast_trace(pipeline: ForecastPipeline, window: WindowPair,
                        zscore_stats: ZScoreStats | None = None) -> ForecastTrace:
    """Run one window through the pipeline and capture every stage."""
    _check_stats([window], zscore_stats)
    x = Tensor(window.x[None, :, :])
    x_t, y_t, y_hat = pipeline.predict_stages(x)
    x_raw, y_raw, y_true = window.x, y_hat.numpy()[0], window.y
    if zscore_stats is not None:
        x_raw = zscore_stats.inverse(x_raw)
        y_raw = zscore_stats.inverse(y_raw)
        y_true = zscore_stats.inverse(y_true)
    return ForecastTrace(
        x=x_raw,
        x_transformed=x_t.numpy()[0],
        y_transformed=y_t.numpy()[0],
        y_hat=y_raw,
        y_true=y_true,
        anchor=window.anchor,
    )
