"""Series sources and window preparation.

Synthetic series are piecewise cosines: time is cut into segments of `tau`
steps and each segment draws fresh amplitude, period, phase and level
parameters, so the generating distribution shifts at every boundary. The
level range drifts downward with the timestamp, which makes later data
live in a range the training region never saw.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError

SPLIT_TAGS = ("inner_train", "outer_val", "val", "test")

SYNTHETIC_PRESETS = {
    "synthetic-1": 24,
    "synthetic-2": 12,
    "synthetic-3": 48,
}


@dataclass
class SyntheticConfig:
    """Parameters of the piecewise-cosine generator."""

    tau: int
    total_length: int = 10000
    num_series: int = 5
    seed: int = 0
    amplitude_range: tuple[float, float] = (-1000.0, 1000.0)
    period_range: tuple[float, float] = (0.0, 100.0)
    phase_range: tuple[float, float] = (0.0, 100.0)
    level_scale: tuple[float, float] = (50.0, 100.0)
    # a sampled period below 2 steps aliases into noise; clamp unless disabled
    min_period: float | None = 2.0

    def __post_init__(self):
        if self.tau < 1:
            raise ConfigError(f"tau must be >= 1, got {self.tau}")
        if self.total_length < self.tau:
            raise ConfigError(
                f"total_length {self.total_length} shorter than segment length {self.tau}"
            )
        if self.num_series < 1:
            raise ConfigError(f"num_series must be >= 1, got {self.num_series}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def preset(cls, name: str, seed: int = 0, **overrides) -> "SyntheticConfig":
        if name not in SYNTHETIC_PRESETS:
            raise ConfigError(
                f"unknown preset {name!r}; choose from {sorted(SYNTHETIC_PRESETS)}"
            )
        return cls(tau=SYNTHETIC_PRESETS[name], seed=seed, **overrides)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SeriesDataset:
    """A multivariate series with fixed train/validation/test boundaries."""

    values: np.ndarray  # [T, D] float64
    train_end: int
    val_end: int
    provenance: dict = field(default_factory=dict)
    columns: list[str] = field(default_factory=list)
    zscored: bool = False

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ConfigError(f"series values must be [T, D], got {self.values.shape}")
        t = self.values.shape[0]
        if not (0 < self.train_end < self.val_end <= t):
            raise ConfigError(
                f"split boundaries (train_end={self.train_end}, val_end={self.val_end}) "
                f"invalid for length {t}"
            )
        if not self.columns:
            self.columns = [f"series_{d}" for d in range(self.values.shape[1])]

    @property
    def num_steps(self) -> int:
        return self.values.shape[0]

    @property
    def num_variates(self) -> int:
        return self.values.shape[1]


@dataclass
class WindowPair:
    """One (lookback, horizon) sample; `anchor` is the first horizon index.

    Windows cut by `make_windows` are read-only views of their dataset's
    values, so neighbouring windows share memory and no window can be written.
    """

    x: np.ndarray  # [L, D]
    y: np.ndarray  # [H, D]
    anchor: int
    split: str
    zscored: bool = False


def check_split_ratio(ratio, label: str = "split_ratio") -> None:
    """Reject a ratio with a negative entry or no train share: it splits no series."""
    if min(ratio) < 0 or ratio[0] <= 0:
        raise ConfigError(f"{label} needs entries >= 0 and a positive train share, "
                          f"got {list(ratio)}")


def _split_points(total: int, ratio: tuple[int, int, int]) -> tuple[int, int]:
    r_total = sum(ratio)
    train_end = total * ratio[0] // r_total
    val_end = total * (ratio[0] + ratio[1]) // r_total
    return train_end, val_end


def generate_synthetic(cfg: SyntheticConfig) -> SeriesDataset:
    """Draw the piecewise-cosine series; one independent stream per variate.

    Timestamps are 1-based inside the value law, and each segment's level
    range is fixed at the segment's first timestamp. The sampled bounds are
    ordered before drawing because the lower one scales faster than the
    upper one.

    Each variate draws its segments' amplitude, period, phase and level as
    one (segments, 4) block of uniforms from its own stream, and maps them
    the way `Generator.uniform` does, `low + (high - low) * u`: the values
    equal those of four scalar `uniform` calls per segment, bit for bit.
    """
    t_total = cfg.total_length
    num_segments = math.ceil(t_total / cfg.tau)
    starts = np.arange(num_segments) * cfg.tau
    stops = np.minimum(starts + cfg.tau, t_total)
    # per segment, the (low, high) of amplitude, period, phase and level
    low = np.empty((num_segments, 4))
    high = np.empty((num_segments, 4))
    low[:, :3], high[:, :3] = zip(cfg.amplitude_range, cfg.period_range, cfg.phase_range)
    scale = np.ceil((starts + 1) / 100)
    level_bounds = (-scale * cfg.level_scale[0], -scale * cfg.level_scale[1])
    low[:, 3], high[:, 3] = np.minimum(*level_bounds), np.maximum(*level_bounds)
    draws = np.stack([np.random.default_rng([cfg.seed, d]).random((num_segments, 4))
                      for d in range(cfg.num_series)], axis=1)
    # [segment, variate] arrays
    amp, period, phase, level = np.moveaxis(
        low[:, None] + (high - low)[:, None] * draws, 2, 0)
    if cfg.min_period is not None:
        period = np.maximum(period, cfg.min_period)
    # [segment, step, variate]: each segment's parameters broadcast over its
    # steps, in place, so the law allocates one array of the series' size
    t = np.arange(1, num_segments * cfg.tau + 1, dtype=np.float64)
    values = 2.0 * np.pi * t.reshape(num_segments, cfg.tau, 1) / period[:, None]
    values += phase[:, None]
    np.cos(values, out=values)
    values *= amp[:, None]
    values += level[:, None]
    values = values.reshape(-1, cfg.num_series)[:t_total]
    # provenance holds Python ints and floats, so it stays JSON-serializable
    segment_params = []
    for d in range(cfg.num_series):
        columns = (col[:, d].tolist() for col in (amp, period, phase, level))
        segment_params.append([
            {"start": start, "stop": stop, "amplitude": a, "period": p, "phase": ph,
             "level": lv}
            for start, stop, a, p, ph, lv in zip(starts.tolist(), stops.tolist(), *columns)
        ])
    train_end, val_end = _split_points(t_total, (6, 2, 2))
    return SeriesDataset(
        values=values,
        train_end=train_end,
        val_end=val_end,
        provenance={"kind": "synthetic", "config": cfg.to_dict(),
                    "segments": segment_params},
    )


def load_csv(path: str | Path, columns: list[str] | None = None,
             split_ratio: tuple[int, int, int] = (6, 2, 2)) -> SeriesDataset:
    """Read a comma-separated file with a header row into a dataset.

    Selected columns must be fully numeric; missing values are an error
    rather than silently imputed.
    """
    check_split_ratio(split_ratio)
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: cannot read CSV: {e}") from e
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError(f"{path}: file is empty") from None
    header = [h.strip() for h in header]
    if columns is None:
        columns = header
    missing = [c for c in columns if c not in header]
    if missing:
        raise ConfigError(f"{path}: columns not found: {missing}")
    idx = [header.index(c) for c in columns]
    rows = []
    for row_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        parsed = []
        for c, j in zip(columns, idx):
            cell = row[j].strip() if j < len(row) else ""
            try:
                value = float(cell)
            except ValueError:
                raise ConfigError(
                    f"{path}: non-numeric value {cell!r} at row {row_no}, column {c!r}"
                ) from None
            if math.isnan(value) or math.isinf(value):
                raise ConfigError(
                    f"{path}: missing or non-finite value at row {row_no}, column {c!r}"
                )
            parsed.append(value)
        rows.append(parsed)
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    values = np.asarray(rows, dtype=np.float64)
    train_end, val_end = _split_points(len(rows), tuple(split_ratio))
    return SeriesDataset(
        values=values,
        train_end=train_end,
        val_end=val_end,
        provenance={"kind": "csv", "path": str(path), "columns": list(columns),
                    "split_ratio": list(split_ratio)},
        columns=list(columns),
    )


def save_csv(ds: SeriesDataset, path: str | Path) -> None:
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.columns)
        for row in ds.values:
            writer.writerow([repr(float(v)) for v in row])


def write_manifest(ds: SeriesDataset, path: str | Path) -> None:
    manifest = {
        "provenance": {k: v for k, v in ds.provenance.items() if k != "segments"},
        "columns": ds.columns,
        "num_steps": ds.num_steps,
        "num_variates": ds.num_variates,
        "train_end": ds.train_end,
        "val_end": ds.val_end,
        "zscored": ds.zscored,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def window_anchors(start: int, stop: int, lookback: int, horizon: int) -> list[int]:
    """Anchors t with [t - lookback, t + horizon) fully inside [start, stop)."""
    return list(range(start + lookback, stop - horizon + 1))


def make_windows(ds: SeriesDataset, lookback: int, horizon: int,
                 use_bilevel: bool = False) -> list[WindowPair]:
    """Cut stride-1 windows that lie fully inside each split region.

    With `use_bilevel`, the first 90% of training anchors (in time order)
    are tagged inner_train and the trailing 10% outer_val; the dataset's own
    validation region keeps the `val` tag for early stopping.
    """
    # every window views this read-only view of the series: no copies, and a
    # write into any window raises instead of changing its neighbours
    values = ds.values.view()
    values.flags.writeable = False
    zscored = ds.zscored
    windows: list[WindowPair] = []
    append = windows.append
    for region, start, stop in (("train", 0, ds.train_end), ("val", ds.train_end, ds.val_end),
                                ("test", ds.val_end, ds.num_steps)):
        if stop - start < lookback + horizon:
            raise ConfigError(
                f"region {region!r} has {stop - start} steps, "
                f"needs at least lookback + horizon = {lookback + horizon}"
            )
        anchors = window_anchors(start, stop, lookback, horizon)
        if region == "train" and use_bilevel:
            n_inner = int(len(anchors) * 0.9)
            tags = ["inner_train"] * n_inner + ["outer_val"] * (len(anchors) - n_inner)
        elif region == "train":
            tags = ["inner_train"] * len(anchors)
        else:
            tags = [region] * len(anchors)
        for anchor, tag in zip(anchors, tags):
            append(WindowPair(values[anchor - lookback:anchor],
                              values[anchor:anchor + horizon], anchor, tag, zscored))
    return windows


def split_windows(windows: list[WindowPair]) -> dict[str, list[WindowPair]]:
    out: dict[str, list[WindowPair]] = {tag: [] for tag in SPLIT_TAGS}
    for w in windows:
        if w.split not in out:
            raise ContractError(f"unknown split tag {w.split!r}")
        out[w.split].append(w)
    return out


@dataclass
class ZScoreStats:
    """Per-variate location/scale fitted on the training region only."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, arr: np.ndarray) -> np.ndarray:
        return (arr - self.mean) / self.std

    def inverse(self, arr: np.ndarray) -> np.ndarray:
        return arr * self.std + self.mean


def zscore_fit_apply(ds: SeriesDataset) -> tuple[SeriesDataset, ZScoreStats]:
    """Standardize all regions by training-region statistics."""
    train = ds.values[:ds.train_end]
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    flat = np.flatnonzero(std == 0.0)
    if flat.size:
        names = [ds.columns[i] for i in flat]
        raise ConfigError(
            f"zero-variance training region for columns {names}; exclude them"
        )
    stats = ZScoreStats(mean=mean, std=std)
    out = SeriesDataset(
        values=stats.apply(ds.values),
        train_end=ds.train_end,
        val_end=ds.val_end,
        provenance=dict(ds.provenance),
        columns=list(ds.columns),
        zscored=True,
    )
    return out, stats
