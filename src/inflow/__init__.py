"""Decoupled transform-then-forecast toolkit for shifted time series.

An invertible per-instance normalization network maps raw windows into a
shift-reduced space, a backbone forecasts there, and the inverse transform
maps predictions back. The transform is trained on held-out windows while
the backbone is trained on the rest, via alternating first-order updates.
"""

from .autodiff import Adam, AdamState, Tape, Tensor, adam_step
from .baselines import IdentityTransform, RevInTransform
from .data import (
    SeriesDataset,
    SyntheticConfig,
    WindowPair,
    ZScoreStats,
    generate_synthetic,
    load_csv,
    make_windows,
    zscore_fit_apply,
)
from .errors import ConfigError, ContractError, DimensionError, NumericError
from .evaluation import MetricReport, dump_forecast_trace, evaluate
from .flow import CouplingLayer, FlowStack, InstanceNormLayer, PermuteLayer
from .forecasters import ForecasterConfig, build_forecaster
from .pipeline import ForecastPipeline
from .training import BiLevelState, RunReport, TrainConfig, bilevel_step, loss_l2, train

__all__ = [
    "Adam",
    "AdamState",
    "BiLevelState",
    "ConfigError",
    "ContractError",
    "CouplingLayer",
    "DimensionError",
    "FlowStack",
    "ForecastPipeline",
    "ForecasterConfig",
    "IdentityTransform",
    "InstanceNormLayer",
    "MetricReport",
    "NumericError",
    "PermuteLayer",
    "RevInTransform",
    "RunReport",
    "SeriesDataset",
    "SyntheticConfig",
    "Tape",
    "Tensor",
    "TrainConfig",
    "WindowPair",
    "ZScoreStats",
    "adam_step",
    "bilevel_step",
    "build_forecaster",
    "dump_forecast_trace",
    "evaluate",
    "generate_synthetic",
    "load_csv",
    "loss_l2",
    "make_windows",
    "train",
    "zscore_fit_apply",
]
