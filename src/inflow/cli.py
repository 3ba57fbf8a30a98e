"""Command line interface: synth, train, eval, ablate.

Owns the on-disk formats: JSON run configs (flag > config file > default
precedence), checkpoints (JSON header with per-tensor byte offsets followed
by little-endian float64 data), run manifests with content hashes, and the
ablation comparison table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import struct
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from itertools import repeat
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .baselines import IdentityTransform, RevInTransform
from .data import (
    SYNTHETIC_PRESETS,
    SeriesDataset,
    SyntheticConfig,
    ZScoreStats,
    check_split_ratio,
    generate_synthetic,
    load_csv,
    make_windows,
    save_csv,
    split_windows,
    write_manifest,
    zscore_fit_apply,
)
from .errors import ConfigError, ContractError, DimensionError, NumericError
from .evaluation import dump_forecast_trace, evaluate
from .flow import FlowStack
from .forecasters import KINDS, ForecasterConfig, build_forecaster
from .pipeline import ForecastPipeline
from .training import TrainConfig, train


def _flow(kind: str):
    """A builder of FlowStacks of `kind` blocks (a flow.VARIANTS entry) sized by the model."""
    return lambda model, num_variates, seed: FlowStack(
        num_variates, num_blocks=model.num_blocks, variant=kind, hidden=model.flow_hidden,
        rng=np.random.default_rng([seed, 10]))


# roster variant -> (transform builder, the mode "auto" resolves to, whether that
# mode is the only one the variant accepts)
_VARIANTS = {
    "inflow": (_flow("pre_norm"), "bilevel", False),
    "inflow_t": (_flow("post_norm"), "bilevel", False),
    "inflow_j": (_flow("pre_norm"), "joint", True),
    "realnvp": (_flow("batch_norm"), "bilevel", False),
    "realnvp_c": (_flow("coupling_only"), "bilevel", False),
    "revin": (lambda model, num_variates, seed: RevInTransform(num_variates), "joint", False),
    "none": (lambda model, num_variates, seed: IdentityTransform(), "backbone_only", True),
}
VARIANTS = tuple(_VARIANTS)


def _variant(name: str) -> tuple:
    if name not in _VARIANTS:
        raise ConfigError(f"unknown variant {name!r}; choose from {VARIANTS}")
    return _VARIANTS[name]


# ---------------------------------------------------------------------------
# configuration


@dataclass
class DatasetSection:
    preset: str | None = None
    tau: int | None = None
    total_length: int = 10000
    num_series: int = 5
    seed: int = 0
    csv_path: str | None = None
    columns: list[str] | None = None
    split_ratio: tuple[int, int, int] = (6, 2, 2)
    zscore: bool = True


@dataclass
class ModelSection:
    variant: str = "inflow"
    num_blocks: int = 2
    flow_hidden: int = 128
    backbone: str = "mlp"
    lookback: int = 48
    horizon: int = 48
    hidden_width: int = 256
    depth: int | None = None  # per-backbone default when omitted
    nbeats_blocks: int = 3


@dataclass
class TrainSection:
    inner_lr: float = 1e-3
    outer_lr: float = 1e-4
    batch_size: int = 1024
    patience: int = 5
    max_epochs: int = 100
    mode: str = "auto"
    clip_norm: float = 5.0


@dataclass
class RunConfig:
    dataset: DatasetSection = field(default_factory=DatasetSection)
    model: ModelSection = field(default_factory=ModelSection)
    train: TrainSection = field(default_factory=TrainSection)
    out_dir: str = "runs"
    seeds: list[int] = field(default_factory=lambda: [0])

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        cfg = cls()
        if not isinstance(d, dict):
            raise ConfigError(f"a config must be a JSON object, got {type(d).__name__}")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown key {', '.join(unknown)}")
        for section_name, section in (("dataset", cfg.dataset), ("model", cfg.model),
                                      ("train", cfg.train)):
            values = d.get(section_name, {})
            if not isinstance(values, dict):
                raise ConfigError(f"config section {section_name!r} must be a JSON object")
            for k, v in values.items():
                if not hasattr(section, k):
                    raise ConfigError(f"unknown key {section_name}.{k}")
                setattr(section, k, _checked(type(section), k, v, f"{section_name}.{k}"))
        cfg.dataset.split_ratio = tuple(cfg.dataset.split_ratio)
        if "out_dir" in d:
            cfg.out_dir = _checked(cls, "out_dir", d["out_dir"], "out_dir")
        if "seeds" in d:
            cfg.seeds = list(_checked(cls, "seeds", d["seeds"], "seeds"))
        return cfg

    def hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def validate(self) -> None:
        _variant(self.model.variant)
        check_split_ratio(self.dataset.split_ratio, "dataset.split_ratio")
        if self.dataset.columns == []:
            raise ConfigError("dataset.columns must name at least one column")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {self.seeds}")
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"seeds must not repeat, got {self.seeds}")
        # train() accepts zero epochs, but a run with none has no model to report
        if self.train.max_epochs < 1:
            raise ConfigError(f"train.max_epochs must be >= 1, got {self.train.max_epochs}")
        # the checks of the objects each command builds, run before any file is written
        _named("train", self.train, lambda: _train_config(self, self.seeds[0]))
        _named("model", self.model, lambda: _forecaster_config(self.model, num_variates=1),
               {"kind": "backbone", "num_blocks": "nbeats_blocks"})
        _named("model", self.model,
               lambda: FlowStack.check(self.model.num_blocks, self.model.flow_hidden),
               {"hidden": "flow_hidden"})
        _named("dataset", self.dataset, lambda: _synthetic_config(self.dataset))


def _named(section: str, values, check, renames: dict[str, str] | None = None) -> None:
    """Run `check`; name the config key in a ConfigError whose message starts with a field."""
    try:
        check()
    except ConfigError as e:
        name, _, rest = str(e).partition(" ")
        key = (renames or {}).get(name, name)
        if not hasattr(values, key):
            raise
        raise ConfigError(f"{section}.{key} {rest}") from None


def _fits(value, hint) -> bool:
    """Whether a JSON value has the annotated type: an int fits a float, None an X | None."""
    if get_origin(hint) in (list, tuple):
        if not isinstance(value, (list, tuple)):
            return False
        items = get_args(hint) * len(value) if get_origin(hint) is list else get_args(hint)
        return len(items) == len(value) and all(map(_fits, value, items))
    if get_args(hint):
        return any(_fits(value, a) for a in get_args(hint))
    kinds = (int, float) if hint is float else hint
    return isinstance(value, kinds) and (hint is bool or not isinstance(value, bool))


def _checked(owner: type, key: str, value, label: str):
    """Return `value` if it fits the annotation of `owner.key`, else raise a ConfigError."""
    if not _fits(value, get_type_hints(owner)[key]):
        raise ConfigError(f"{label} must be {owner.__annotations__[key]}, got {value!r}")
    return value


def resolve_mode(variant: str, requested: str) -> str:
    """Map a variant plus a requested mode to a concrete training mode."""
    _, mode, forced = _variant(variant)
    if forced and requested not in ("auto", mode):
        raise ConfigError(f"variant {variant!r} requires mode {mode!r}, got {requested!r}")
    return mode if requested == "auto" else requested


def load_config(path: str | Path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
    except (OSError, ValueError) as e:  # ValueError covers JSON and UTF-8 decoding
        raise ConfigError(f"{path}: cannot read config: {e}") from e
    return RunConfig.from_dict(d)


def _write_json(path: str | Path, payload) -> None:
    """Write an artifact as indented JSON with sorted keys, so reruns match byte for byte."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def save_config(cfg: RunConfig, path: str | Path) -> None:
    _write_json(path, cfg.to_dict())


# ---------------------------------------------------------------------------
# checkpoint format


def save_checkpoint(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    """Write named float64 tensors: u64 header length, JSON header, raw data."""
    header = {}
    offset = 0
    blobs = []
    for name in sorted(arrays):  # canonical layout: same tensors, same bytes
        data = np.asarray(arrays[name], dtype="<f8")
        header[name] = {"offset": offset, "shape": list(data.shape)}
        blobs.append(data.tobytes())  # tobytes always emits C order
        offset += len(blobs[-1])
    header_bytes = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Read a checkpoint; a missing, truncated or corrupt file is a ConfigError."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise ConfigError(f"{path}: cannot read checkpoint: {e}") from e
    if len(raw) < 8:
        raise ConfigError(f"{path}: not a checkpoint file")
    header_len = struct.unpack("<Q", raw[:8])[0]
    if header_len > len(raw) - 8:
        raise ConfigError(f"{path}: header length {header_len} exceeds the file")
    try:
        header = json.loads(raw[8:8 + header_len].decode())
        spans = {name: (tuple(int(n) for n in meta["shape"]), int(meta["offset"]))
                 for name, meta in header.items()}
    except (ValueError, TypeError, KeyError, AttributeError) as e:
        raise ConfigError(f"{path}: corrupt checkpoint header: {e!r}") from e
    payload = raw[8 + header_len:]
    out = {}
    for name, (shape, start) in spans.items():
        count = math.prod(shape)
        if min(shape, default=0) < 0 or start < 0 or start + 8 * count > len(payload):
            raise ConfigError(f"{path}: tensor {name!r} lies outside the file")
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=start)
        out[name] = arr.reshape(shape).astype(np.float64)
    return out


def file_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# pipeline assembly


def build_transform(model: ModelSection, num_variates: int, seed: int) -> FlowStack:
    build, _, _ = _variant(model.variant)
    return build(model, num_variates, seed)


def _forecaster_config(model: ModelSection, num_variates: int) -> ForecasterConfig:
    return ForecasterConfig(
        kind=model.backbone,
        lookback=model.lookback,
        horizon=model.horizon,
        num_variates=num_variates,
        hidden_width=model.hidden_width,
        depth=model.depth,
        num_blocks=model.nbeats_blocks,
    )


def build_pipeline(model: ModelSection, num_variates: int, seed: int) -> ForecastPipeline:
    transform = build_transform(model, num_variates, seed)
    forecaster = build_forecaster(_forecaster_config(model, num_variates),
                                  rng=np.random.default_rng([seed, 11]))
    return ForecastPipeline(transform, forecaster)


def _synthetic_config(section: DatasetSection) -> SyntheticConfig | None:
    """The generator's settings, or None for a CSV dataset."""
    if section.csv_path is not None:
        return None
    if section.preset is not None:
        return SyntheticConfig.preset(
            section.preset, seed=section.seed,
            total_length=section.total_length, num_series=section.num_series,
        )
    if section.tau is not None:
        return SyntheticConfig(tau=section.tau, seed=section.seed,
                               total_length=section.total_length,
                               num_series=section.num_series)
    raise ConfigError("dataset section needs a preset, a tau, or a csv_path")


def build_dataset(section: DatasetSection) -> SeriesDataset:
    synthetic = _synthetic_config(section)
    if synthetic is None:
        return load_csv(section.csv_path, columns=section.columns,
                        split_ratio=section.split_ratio)
    return generate_synthetic(synthetic)


def prepare_windows(cfg: RunConfig):
    """Dataset -> optional z-score -> windows. Shared by every command."""
    ds = build_dataset(cfg.dataset)
    stats: ZScoreStats | None = None
    if cfg.dataset.zscore:
        ds, stats = zscore_fit_apply(ds)
    windows = make_windows(ds, cfg.model.lookback, cfg.model.horizon, use_bilevel=True)
    return ds, windows, stats


def anchor_hash(windows) -> str:
    blob = json.dumps([[w.anchor, w.split] for w in windows]).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# commands


def _run_dir(cfg: RunConfig, out_dir: str | Path | None = None) -> Path:
    """The command's output directory, `out_dir` or else `cfg.out_dir`, created."""
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"{out}: cannot create output directory: {e}") from None
    return out


def cmd_synth(cfg: RunConfig) -> Path:
    ds = build_dataset(cfg.dataset)
    out = _run_dir(cfg)
    save_csv(ds, out / "series.csv")
    write_manifest(ds, out / "dataset_manifest.json")
    print(f"wrote {out / 'series.csv'} ({ds.num_steps} steps, {ds.num_variates} variates)")
    return out


def _train_config(cfg: RunConfig, seed: int) -> TrainConfig:
    mode = resolve_mode(cfg.model.variant, cfg.train.mode)
    return TrainConfig(**{**asdict(cfg.train), "seed": seed, "mode": mode})


def _train_one_seed(cfg: RunConfig, windows, stats, seed: int, num_variates: int,
                    out: Path) -> tuple[dict, list[str]]:
    """Train one seed into `out`: its manifest record, and the names of the files written."""
    pipeline = build_pipeline(cfg.model, num_variates, seed)
    pipeline, report = train(pipeline, windows, _train_config(cfg, seed), zscore_stats=stats)
    names = [f"checkpoint_seed{seed}.bin", f"report_seed{seed}.json", f"loss_seed{seed}.csv"]
    save_checkpoint(out / names[0], {k: t.data for k, t in pipeline.state_tensors().items()})
    (out / names[1]).write_text(report.to_json(), encoding="utf-8")
    report.write_loss_csv(out / names[2])
    test_report = evaluate(pipeline, split_windows(windows)["test"], stats,
                           batch_size=cfg.train.batch_size)
    return {
        "seed": seed,
        "checkpoint": names[0],
        "best_val_loss": report.best_val_loss,
        "test_mse": test_report.mse,
        "test_mae": test_report.mae,
    }, names


def cmd_train(cfg: RunConfig, out_dir: str | Path | None = None) -> Path:
    cfg.validate()
    ds, windows, stats = prepare_windows(cfg)
    out = _run_dir(cfg, out_dir)
    save_config(cfg, out / "config.json")
    results, written = [], ["config.json"]
    for seed in cfg.seeds:
        result, names = _train_one_seed(cfg, windows, stats, seed, ds.num_variates, out)
        results.append(result)
        written += names
        print(f"seed {seed}: best_val={result['best_val_loss']:.6g} "
              f"test_mse={result['test_mse']:.6g}")
    # only this run's files: a reused directory may hold other seeds' artifacts
    manifest = {
        "config_hash": cfg.hash(),
        "anchor_hash": anchor_hash(windows),
        "seeds": cfg.seeds,
        "results": results,
        "files": {name: file_sha256(out / name) for name in sorted(written)},
    }
    _write_json(out / "manifest.json", manifest)
    return out


def cmd_eval(cfg: RunConfig, checkpoint: str | Path, out_dir: str | Path | None = None,
             trace_windows: list[int] | None = None) -> Path:
    cfg.validate()
    ds, windows, stats = prepare_windows(cfg)
    seed = cfg.seeds[0]
    pipeline = build_pipeline(cfg.model, ds.num_variates, seed)
    pipeline.load_state(load_checkpoint(checkpoint))
    pipeline.eval_mode()
    groups = split_windows(windows)
    trace_windows = trace_windows or []
    for idx in trace_windows:
        if not 0 <= idx < len(groups["test"]):
            raise ConfigError(f"trace window {idx} out of range "
                              f"(test split has {len(groups['test'])} windows)")
    out = _run_dir(cfg, out_dir)
    test_report = evaluate(pipeline, groups["test"], stats, batch_size=cfg.train.batch_size)
    val_report = evaluate(pipeline, groups["val"], stats, batch_size=cfg.train.batch_size)
    payload = test_report.to_dict()
    payload["val_mse"] = val_report.mse
    payload["val_mae"] = val_report.mae
    payload["checkpoint"] = str(checkpoint)
    metrics_path = out / "metrics.json"
    _write_json(metrics_path, payload)
    for idx in trace_windows:
        trace = dump_forecast_trace(pipeline, groups["test"][idx], stats)
        trace.write_csv(out / f"trace_{idx}.csv")
    print(f"test_mse={test_report.mse:.6g} test_mae={test_report.mae:.6g} "
          f"-> {metrics_path}")
    return out


def _ablate_variant(cfg_dict: dict, variant: str, out_root: Path) -> dict:
    """Run one roster entry across all seeds in a worker process."""
    cfg = RunConfig.from_dict(cfg_dict)
    cfg.model.variant = variant
    cfg.train.mode = "auto"
    out = out_root / variant
    try:
        cmd_train(cfg, out_dir=out)
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        per_seed = [(r["seed"], r["test_mse"], r["test_mae"]) for r in manifest["results"]]
        return {"variant": variant, "status": "ok", "per_seed": per_seed,
                "anchor_hash": manifest["anchor_hash"]}
    except Exception as e:  # keep the remaining variants running
        return {"variant": variant, "status": "failed", "error": f"{type(e).__name__}: {e}"}


# read by OpenBLAS, OpenMP and MKL when numpy loads them
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_roster(cfg: RunConfig, variants, out: Path) -> list[dict]:
    """Train each variant over `cfg.seeds` into `out/<variant>`; one record per variant.

    Variants run in a spawn pool of min(len(variants), CPU count) workers with
    one BLAS thread each. Workers read the BLAS settings when they start, so
    they are set in this process's environment for the pool's lifetime and
    then restored. Multi-threaded BLAS in each of several workers oversubscribes
    the cores and sums products in a thread-dependent order, so a worker would
    neither be faster than a serial run nor give its figures bit for bit.
    """
    saved = {k: os.environ.get(k) for k in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(max_workers=min(len(variants), os.cpu_count() or 1),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(_ablate_variant, repeat(cfg.to_dict()), variants,
                                 repeat(out)))
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def cmd_ablate(cfg: RunConfig, out_dir: str | Path | None = None) -> Path:
    cfg.validate()
    prepare_windows(cfg)  # an unreadable dataset fails here, before any file is written
    out = _run_dir(cfg, out_dir)
    save_config(cfg, out / "config.json")
    results = run_roster(cfg, VARIANTS, out)

    hashes = {r["anchor_hash"] for r in results if r["status"] == "ok"}
    if len(hashes) > 1:
        raise ConfigError("variants saw different window sets; ablation is not comparable")

    table = []
    for r in results:
        row = {"variant": r["variant"], "status": r["status"]}
        if r["status"] == "ok":
            mses = np.array([m for _, m, _ in r["per_seed"]])
            maes = np.array([a for _, _, a in r["per_seed"]])
            row.update({
                "mse_mean": float(mses.mean()), "mse_std": float(mses.std()),
                "mae_mean": float(maes.mean()), "mae_std": float(maes.std()),
                "per_seed": [[s, m, a] for s, m, a in r["per_seed"]],
            })
        else:
            row["error"] = r["error"]
        table.append(row)
    _write_json(out / "ablation.json",
                {"anchor_hash": hashes.pop() if hashes else None, "table": table})
    with open(out / "ablation.csv", "w", encoding="utf-8") as fh:
        fh.write("variant,status,mse_mean,mse_std,mae_mean,mae_std\n")
        for row in table:
            if row["status"] == "ok":
                fh.write(f"{row['variant']},ok,{row['mse_mean']!r},{row['mse_std']!r},"
                         f"{row['mae_mean']!r},{row['mae_std']!r}\n")
            else:
                fh.write(f"{row['variant']},failed,,,,\n")
    for row in table:
        if row["status"] == "ok":
            print(f"{row['variant']:10s} mse={row['mse_mean']:.6g}±{row['mse_std']:.3g} "
                  f"mae={row['mae_mean']:.6g}±{row['mae_std']:.3g}")
        else:
            print(f"{row['variant']:10s} FAILED: {row['error']}")
    return out


# ---------------------------------------------------------------------------
# argument parsing


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None, help="JSON config file")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--seed", type=int, action="append", default=None,
                   help="training seed (repeatable)")
    p.add_argument("--preset", type=str, default=None, choices=sorted(SYNTHETIC_PRESETS))
    p.add_argument("--variant", type=str, default=None, choices=VARIANTS)
    p.add_argument("--backbone", type=str, default=None, choices=KINDS)
    p.add_argument("--lookback", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)


# flag -> the config section whose key of the same name it overrides
_FLAG_SECTIONS = {"preset": "dataset", "variant": "model", "backbone": "model",
                  "lookback": "model", "horizon": "model"}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.out is not None:
        cfg.out_dir = args.out
    if args.seed:
        cfg.seeds = list(args.seed)
    for flag, section in _FLAG_SECTIONS.items():
        if getattr(args, flag) is not None:
            setattr(getattr(cfg, section), flag, getattr(args, flag))
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="inflow",
        description="Train and evaluate invertible-transform forecasting pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, doc in (
        ("synth", "generate a synthetic shifted dataset"),
        ("train", "train a pipeline per seed and save checkpoints"),
        ("eval", "evaluate a saved checkpoint"),
        ("ablate", "run the full variant roster and tabulate results"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_shared_flags(p)
        if name == "eval":
            p.add_argument("--checkpoint", type=str, required=True)
            p.add_argument("--trace", type=int, action="append", default=None,
                           help="test-window index to dump a stage trace for (repeatable)")

    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "synth":
            cmd_synth(cfg)
        elif args.command == "train":
            cmd_train(cfg)
        elif args.command == "eval":
            cmd_eval(cfg, args.checkpoint, trace_windows=args.trace)
        elif args.command == "ablate":
            cmd_ablate(cfg)
    except (ConfigError, ContractError, DimensionError, NumericError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
