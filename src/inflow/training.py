"""Alternating two-group optimization, joint training, and early stopping.

In `bilevel` mode every optimization step is a strict pair: the forecaster
group (theta) descends on an inner_train batch with the transform frozen,
then the transform group (phi) descends on an outer_val batch with the
just-updated forecaster frozen. No gradient is propagated through the
forecaster's update itself, only through the fresh loss.

`joint` mode updates both groups from the same inner_train loss (each group
keeps its own learning rate); `backbone_only` updates theta alone.

A frozen transform is frozen whole: its batch-norm layers normalize with
their running statistics and do not update them. Running statistics thus
come only from batches phi is trained on: the outer_val batch of each
bilevel step, or the inner_train batch of each joint step.

The idle group of a step (phi in theta and `backbone_only` passes, theta in
phi passes) is neither recorded nor differentiated: its parameters stop
requiring gradients until backward has run. A theta pass thus records none
of the transform's forward, and a phi pass computes no forecaster weight
gradient. The updated group's gradients are the same, bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import evaluation
from .autodiff import Adam, Tape, Tensor, mean_all
from .data import WindowPair, split_windows
from .errors import ConfigError, ContractError, DimensionError, NumericError
from .pipeline import ForecastPipeline

MODES = ("bilevel", "joint", "backbone_only")


@dataclass
class TrainConfig:
    inner_lr: float = 1e-3
    outer_lr: float = 1e-4
    batch_size: int = 1024
    patience: int = 5
    max_epochs: int = 100
    seed: int = 0
    mode: str = "bilevel"
    clip_norm: float = 5.0

    def __post_init__(self):
        # each message starts with the field it names; RunConfig.validate keys on that
        for name in ("inner_lr", "outer_lr"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("patience", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.mode not in MODES:
            raise ConfigError(f"mode {self.mode!r} is unknown; choose from {MODES}")

    def hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class Batch:
    x: Tensor
    y: Tensor
    anchors: list[int]
    split: str


def stack_windows(windows: list[WindowPair]) -> Batch:
    if not windows:
        raise ContractError("cannot stack an empty window list")
    tags = {w.split for w in windows}
    if len(tags) != 1:
        raise ContractError(f"batch mixes split tags {sorted(tags)}")
    x = Tensor(np.stack([w.x for w in windows]))
    y = Tensor(np.stack([w.y for w in windows]))
    return Batch(x=x, y=y, anchors=[w.anchor for w in windows], split=tags.pop())


class _Loader:
    """Deterministic shuffled batches; reshuffles each time it wraps around."""

    def __init__(self, windows: list[WindowPair], batch_size: int,
                 rng: np.random.Generator):
        self.windows = windows
        self.batch_size = min(batch_size, len(windows))
        self.rng = rng
        self._order: list[int] = []
        self._pos = 0

    def _reshuffle(self) -> None:
        self._order = list(self.rng.permutation(len(self.windows)))
        self._pos = 0

    def next_batch(self) -> Batch:
        if self._pos >= len(self._order):
            self._reshuffle()
        idx = self._order[self._pos:self._pos + self.batch_size]
        self._pos += self.batch_size
        return stack_windows([self.windows[i] for i in idx])

    def epoch_batches(self):
        self._reshuffle()
        while self._pos < len(self._order):
            yield self.next_batch()


def loss_l2(y_hat: Tensor, y: Tensor) -> Tensor:
    """Mean squared error over every element of the batch."""
    if y_hat.shape != y.shape:
        raise DimensionError(f"loss_l2: shapes {y_hat.shape} and {y.shape} differ")
    diff = y_hat - y
    return mean_all(diff * diff)


def clip_by_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> tuple[dict, bool]:
    if max_norm <= 0 or not grads:
        return grads, False
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total <= max_norm:
        return grads, False
    scale = max_norm / total
    return {k: g * scale for k, g in grads.items()}, True


@dataclass
class BiLevelState:
    """Optimizer state for both parameter groups plus run bookkeeping."""

    theta_opt: Adam
    phi_opt: Adam
    update_log: list[tuple[str, str]] = field(default_factory=list)
    best_val_loss: float = float("inf")
    best_epoch: int | None = None
    epochs_since_improve: int = 0
    clipped_steps: int = 0

    @classmethod
    def for_pipeline(cls, pipeline: ForecastPipeline, cfg: TrainConfig) -> "BiLevelState":
        return cls(
            theta_opt=Adam(pipeline.theta_parameters(), lr=cfg.inner_lr),
            phi_opt=Adam(pipeline.phi_parameters(), lr=cfg.outer_lr),
        )


def _group_grads(tape: Tape, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {name: tape.grad(p) for name, p in params.items()}


def _apply_update(state: BiLevelState, opt: Adam, tape: Tape, clip_norm: float) -> None:
    grads, clipped = clip_by_global_norm(_group_grads(tape, opt.params), clip_norm)
    if clipped:
        state.clipped_steps += 1
    opt.step(grads)


def _batch_loss(pipeline: ForecastPipeline, batch: Batch, sub_step: str) -> tuple[Tape, Tensor]:
    tape = Tape()
    try:
        with tape:
            loss = loss_l2(pipeline.predict(batch.x), batch.y)
    except NumericError as e:
        lo, hi = min(batch.anchors), max(batch.anchors)
        raise NumericError(
            f"non-finite loss in {sub_step} update on {batch.split} batch "
            f"(anchors {lo}..{hi}): {e}"
        ) from e
    return tape, loss


def _update_step(state: BiLevelState, pipeline: ForecastPipeline, batch: Batch,
                 opts: tuple[Adam, ...], sub_step: str, clip_norm: float) -> float:
    """One forward and backward on `batch`, then a step of each optimizer in `opts`.

    Without the phi optimizer the transform runs frozen. The idle group, whose
    optimizer is not in `opts`, stops requiring gradients until backward has
    run: the tape records no op that depends on it alone, and backward computes
    no gradient for it. The updated group's gradients are unchanged. Returns
    the batch loss, or NaN if no optimizer in `opts` holds a parameter: such an
    update runs nothing, as a group without parameters has no batch-norm state.
    """
    if not any(opt.params for opt in opts):
        state.update_log.append((sub_step, batch.split))
        return float("nan")
    pipeline.train_mode(state.phi_opt in opts)
    idle = [p for opt in (state.theta_opt, state.phi_opt) if opt not in opts
            for p in opt.params.values() if p.requires_grad]
    for p in idle:
        p.requires_grad = False
    try:
        # grad rules read requires_grad when backward runs, so restore it only after
        tape, loss = _batch_loss(pipeline, batch, sub_step)
        tape.backward(loss)
    finally:
        for p in idle:
            p.requires_grad = True
    for opt in opts:
        _apply_update(state, opt, tape, clip_norm)
    state.update_log.append((sub_step, batch.split))
    return loss.item()


def bilevel_step(state: BiLevelState, pipeline: ForecastPipeline,
                 inner_batch: Batch, outer_batch: Batch,
                 clip_norm: float = 5.0) -> float:
    """One strict theta-then-phi update pair. Returns the inner-batch loss."""
    if inner_batch.split != "inner_train":
        raise ContractError(
            f"theta update requires an inner_train batch, got {inner_batch.split!r}"
        )
    if outer_batch.split != "outer_val":
        raise ContractError(
            f"phi update requires an outer_val batch, got {outer_batch.split!r}"
        )
    inner_loss = _update_step(state, pipeline, inner_batch, (state.theta_opt,), "theta",
                              clip_norm)
    _update_step(state, pipeline, outer_batch, (state.phi_opt,), "phi", clip_norm)
    return inner_loss


@dataclass
class RunReport:
    """Everything a finished run reports; serializes deterministically."""

    loss_history: list[tuple[float, float]]
    best_epoch: int | None
    best_val_loss: float | None
    seed: int
    mode: str
    config_hash: str
    clip_norm: float
    clipped_steps: int
    update_log: list[tuple[str, str]]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    def write_loss_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,train_loss,val_loss\n")
            for epoch, (t, v) in enumerate(self.loss_history, start=1):
                fh.write(f"{epoch},{t!r},{v!r}\n")


def _required_splits(mode: str) -> tuple[str, ...]:
    if mode == "bilevel":
        return ("inner_train", "outer_val", "val")
    return ("inner_train", "val")


def train(pipeline: ForecastPipeline, windows: list[WindowPair], cfg: TrainConfig,
          zscore_stats=None) -> tuple[ForecastPipeline, RunReport]:
    """Run epochs of updates with validation-driven early stopping.

    An epoch is one pass over the inner_train anchors. The validation metric
    is the same original-scale MSE the evaluator reports, so a saved model
    re-evaluated on the validation split reproduces `best_val_loss`.
    """
    groups = split_windows(windows)
    for tag in _required_splits(cfg.mode):
        if not groups[tag]:
            raise ConfigError(f"mode {cfg.mode!r} needs a non-empty {tag!r} split")
    state = BiLevelState.for_pipeline(pipeline, cfg)
    inner = _Loader(groups["inner_train"], cfg.batch_size,
                    np.random.default_rng([cfg.seed, 1]))
    outer = None
    if cfg.mode == "bilevel":
        outer = _Loader(groups["outer_val"], cfg.batch_size,
                        np.random.default_rng([cfg.seed, 2]))

    history: list[tuple[float, float]] = []
    best_snapshot = None
    opts = (state.theta_opt, state.phi_opt) if cfg.mode == "joint" else (state.theta_opt,)
    sub_step = "joint" if cfg.mode == "joint" else "theta"
    for epoch in range(1, cfg.max_epochs + 1):
        epoch_losses = []
        for inner_batch in inner.epoch_batches():
            if cfg.mode == "bilevel":
                step_loss = bilevel_step(state, pipeline, inner_batch,
                                         outer.next_batch(), cfg.clip_norm)
            else:
                step_loss = _update_step(state, pipeline, inner_batch, opts, sub_step,
                                         cfg.clip_norm)
            epoch_losses.append(step_loss)
        pipeline.eval_mode()
        val_report = evaluation.evaluate(pipeline, groups["val"], zscore_stats,
                                         batch_size=cfg.batch_size)
        val_loss = val_report.mse
        history.append((float(np.mean(epoch_losses)), val_loss))
        if val_loss < state.best_val_loss:
            state.best_val_loss = val_loss
            state.best_epoch = epoch
            state.epochs_since_improve = 0
            best_snapshot = pipeline.snapshot()
        else:
            state.epochs_since_improve += 1
            if state.epochs_since_improve >= cfg.patience:
                break
    if best_snapshot is not None:
        pipeline.load_state(best_snapshot)
    pipeline.eval_mode()
    report = RunReport(
        loss_history=history,
        best_epoch=state.best_epoch,
        best_val_loss=None if state.best_epoch is None else state.best_val_loss,
        seed=cfg.seed,
        mode=cfg.mode,
        config_hash=cfg.hash(),
        clip_norm=cfg.clip_norm,
        clipped_steps=state.clipped_steps,
        update_log=list(state.update_log),
    )
    return pipeline, report
