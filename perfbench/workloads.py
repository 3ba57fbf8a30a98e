"""The benchmark's workloads: set-up, training, evaluation and forecast requests.

Every workload is a closed loop with one caller: a researcher's run waits for
each update step or forecast to finish before it sends the next. A run has
four activities, and the workload's seed draws everything they use: the
synthetic-1 series, the model init, the batch order, and the request order.
How many times each activity runs is fixed by the workload's plan and
`--seconds`, never by the clock, so two commits do the same work.

- set-up: data generation, z-score, windowing, pipeline build and request
  generation;
- training trials: each is one `training.train` call of a fixed number of
  epochs, with patience equal to that number so that early stopping never
  shortens it;
- evaluation passes: `evaluation.evaluate` of the val split with the last
  trained parameters, as training runs it after each epoch, so that
  eval_windows_per_s has more samples than the trials' few epochs give;
- forecast blocks: BLOCK_REQUESTS requests of REQUEST_WINDOWS test windows
  each, sent back to back to the last trained pipeline with no tape.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

from inflow import cli, evaluation, training
from inflow.autodiff import Tensor
from inflow.data import split_windows

from tracer import KINDS, OPS, Tracer, self_times, unit_times


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    mode: str
    lookback: int
    horizon: int
    batch_size: int
    epochs: int          # per training trial
    plan: dict           # activity -> how many times it runs in PLAN_SECONDS
    primary: str         # the unit per-layer figures are given per: "step" or "request"
    subset: tuple[int, int] | None = None  # inner_train, outer_val windows to train on
    random_flow: bool = False


WORKLOADS = {w.name: w for w in (
    # the paper's method at the acceptance shape: coupling MLPs over B*L rows dominate
    Workload(
        "bilevel-flow",
        variant="inflow", mode="bilevel", lookback=48, horizon=48, batch_size=1024,
        epochs=1, plan={"setup": 15, "train": 4, "eval": 6, "forecast": 40},
        primary="step"),
    # backbone, Adam and batching only: no coupling runs and no parameter group idles
    Workload(
        "joint-revin",
        variant="revin", mode="joint", lookback=48, horizon=48, batch_size=1024,
        epochs=4, plan={"setup": 15, "train": 10, "eval": 30, "forecast": 100},
        primary="step"),
    # inference with no tape, where per-op Python overhead dominates; the flow
    # weights are drawn so the coupling nets are not the identity, and the
    # inverse runs at another length than the forward
    Workload(
        "forecast-small-batch",
        variant="inflow", mode="bilevel", lookback=96, horizon=24, batch_size=8,
        epochs=1, plan={"setup": 15, "train": 5, "eval": 3, "forecast": 78},
        primary="request", subset=(256, 64),
        random_flow=True),
)}

# The plans are sized to take about this long on a 2-vCPU Xeon (Sapphire
# Rapids, KVM) guest; `--seconds` scales them linearly.
PLAN_SECONDS = 36
# at least this many of each activity, whatever `--seconds` says: five set-ups
# for a median, two evaluations, and 1000 requests so that the p99 has ten
# samples above it; a traced run traces every other one, so it needs two
MINIMUM = {"setup": 5, "train": 1, "eval": 2, "forecast": 10}


def minimum(activity: str, traced: bool) -> int:
    return max(MINIMUM[activity], 2 if traced else 1)

# Past CAP_FACTOR * `--seconds` only the minimum still runs, so that a run of a
# much slower commit still ends in time; it is reported, not hidden.
CAP_FACTOR = 2.0
REQUEST_WINDOWS = 8
REQUEST_POOL = 256
BLOCK_REQUESTS = 100
ROUNDTRIP_WINDOWS = 64
ROUNDTRIP_TOL = 1e-5
RANDOM_FLOW_STD = 0.1

# end-to-end metric -> unit
E2E_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "train_windows_per_s": "windows/s",
    "step_ms_p50": "ms",
    "eval_windows_per_s": "windows/s",
    "val_mse_rel": "ratio",
    "forecast_ms_p50": "ms",
    "forecast_ms_p90": "ms",
    "forecast_windows_per_s": "windows/s",
    "peak_rss_mb": "MiB",
    "success_rate": "ok/attempted",
}

# printed with the end-to-end metrics, but without a bound: on a shared host,
# preemptions of the VM (a scheduler tick, ~4 ms, on 1-2% of requests) decide
# whether the p99 reads 4 or 9 ms, and its quartile spread over ten seeds
# reached 0.5 of the median (0.28 even in thread CPU time)
PRINTED_ONLY_UNITS = {"forecast_ms_p99": "ms"}

# what one update step must log, by training mode: a backward pass per loss,
# then one optimizer step per group it updates
STEP_EVENTS = {
    "bilevel": ("backward", "theta", "backward", "phi"),
    "joint": ("backward", "theta", "phi"),
}

# per-layer self-time metric -> the span names it sums; together they cover every span
# of a step or request, so they add up to its traced wall time
SELF_METRICS = {
    **{f"autodiff.{op}.fwd_ms": (f"autodiff.{op}.fwd",) for op in OPS},
    **{f"autodiff.{op}.bwd_ms": (f"autodiff.{op}.bwd",) for op in OPS},
    "autodiff.backward_ms": ("autodiff.backward",),
    "autodiff.adam_ms": ("autodiff.adam",),
    "flow.stack.forward_ms": ("flow.stack.forward",),
    "flow.stack.inverse_ms": ("flow.stack.inverse",),
    "flow.instance_norm.forward_ms": ("flow.instance_norm.forward",),
    "flow.instance_norm.inverse_ms": ("flow.instance_norm.inverse",),
    "flow.coupling.forward_ms": ("flow.coupling.forward",),
    "flow.coupling.inverse_ms": ("flow.coupling.inverse",),
    "flow.permute.forward_ms": ("flow.permute.forward",),
    "flow.permute.inverse_ms": ("flow.permute.inverse",),
    "baselines.revin.forward_ms": ("baselines.revin.forward",),
    "baselines.revin.inverse_ms": ("baselines.revin.inverse",),
    "nn.mlp_ms": ("nn.mlp",),
    "forecasters.forward_ms": ("forecasters.forward",),
    "pipeline.predict_ms": ("pipeline.predict",),
    "training.stack_windows_ms": ("training.stack_windows",),
    "training.self_ms": ("training.step", "training.forward", "training.optimizer"),
    "trace.caller_ms": ("forecast.request",),
}

# inclusive time of a phase of the update step
PHASE_METRICS = {
    "training.forward_ms": "training.forward",
    "training.backward_ms": "autodiff.backward",
    "training.optimizer_ms": "training.optimizer",
}

# inclusive ms per call: (span name, unit kind the call runs in)
CALL_METRICS = {
    "evaluation.evaluate_ms": ("evaluation.evaluate", "eval"),
    "data.generate_ms": ("data.generate", "setup"),
    "data.zscore_ms": ("data.zscore", "setup"),
    "data.make_windows_ms": ("data.make_windows", "setup"),
    "cli.prepare_windows_ms": ("cli.prepare_windows", "setup"),
    "cli.build_pipeline_ms": ("cli.build_pipeline", "setup"),
}

PER_LAYER_UNITS = {
    **{f"autodiff.{op}.calls": "count" for op in OPS},
    **{name: "ms" for name in SELF_METRICS},
    "autodiff.tape_nodes": "count",
    "autodiff.tape_mb": "MiB",
    **{name: "ms" for name in PHASE_METRICS},
    **{name: "ms" for name in CALL_METRICS},
    "training.clipped_steps": "count",
    "training.theta.backward_useful_ratio": "ratio",
    "training.phi.backward_useful_ratio": "ratio",
    "training.joint.backward_useful_ratio": "ratio",
    "training.idle_group_grad_elems": "count",
    "trace.units": "count",
    "trace.unit_ms_untraced": "ms",
    "trace.unit_ms_traced": "ms",
    "trace.overhead_ms": "ms",
    "trace.unattributed_share": "ratio",
}

# self-time metrics of code that belongs to no layer below the trainer: the
# trainer's own lines and the benchmark's request loop
UNATTRIBUTED = ("training.self_ms", "trace.caller_ms")


@dataclass
class Setup:
    seed: int
    cfg: cli.RunConfig
    num_variates: int
    windows: list
    stats: object
    initial: dict
    val: list
    requests: list
    roundtrip_x: np.ndarray
    steps_per_trial: int


class Checks:
    """Counts correctness checks and failed units; keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.error(message)

    def error(self, message: str) -> None:
        """A unit that is already counted as attempted raised or gave a bad output."""
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(message)


def run_config(wl: Workload, seed: int) -> cli.RunConfig:
    return cli.RunConfig.from_dict({
        "dataset": {"preset": "synthetic-1", "seed": seed},
        "model": {"variant": wl.variant, "num_blocks": 2, "flow_hidden": 16,
                  "backbone": "mlp", "lookback": wl.lookback, "horizon": wl.horizon,
                  "hidden_width": 128, "depth": 2},
    })


def set_up(wl: Workload, seed: int) -> Setup:
    cfg = run_config(wl, seed)
    ds, windows, stats = cli.prepare_windows(cfg)
    pipe = cli.build_pipeline(cfg.model, ds.num_variates, seed)
    if wl.random_flow:
        rng = np.random.default_rng([seed, 8])
        for _, param in sorted(pipe.phi_parameters().items()):
            param.data[...] = rng.normal(0.0, RANDOM_FLOW_STD, param.data.shape)
    groups = split_windows(windows)
    if wl.subset is not None:
        rng = np.random.default_rng([seed, 9])
        windows = list(groups["val"])
        for tag, count in zip(("inner_train", "outer_val"), wl.subset):
            picks = np.sort(rng.choice(len(groups[tag]), size=count, replace=False))
            windows.extend(groups[tag][i] for i in picks)
    rng = np.random.default_rng([seed, 7])
    test = groups["test"]
    picks = rng.integers(len(test), size=(REQUEST_POOL, REQUEST_WINDOWS))
    requests = [np.stack([test[i].x for i in row]) for row in picks]
    roundtrip_x = np.stack([w.x for w in groups["val"][:ROUNDTRIP_WINDOWS]])
    # an epoch is one pass over the inner_train windows the trial trains on
    inner = len(split_windows(windows)["inner_train"])
    steps = wl.epochs * -(-inner // min(wl.batch_size, inner))
    return Setup(seed, cfg, ds.num_variates, windows, stats, pipe.snapshot(), groups["val"],
                 requests, roundtrip_x, steps)


def reference_mse(st: Setup) -> float:
    """Original-scale val MSE of repeating each lookback's mean over the horizon.

    val_mse follows the seed's series (its quartiles span 6-13% of the median
    over ten seeds); val_mse divided by this spans about 2%, so a bound on the
    ratio can tell a change in learning from a change of seed.
    """
    x = np.stack([w.x for w in st.val])
    y = np.stack([w.y for w in st.val])
    guess = np.broadcast_to(x.mean(axis=1, keepdims=True), y.shape)
    if st.stats is not None:
        guess, y = st.stats.inverse(guess), st.stats.inverse(y)
    return float(np.mean((guess - y) ** 2))


def new_pipeline(st: Setup, state: dict):
    pipe = cli.build_pipeline(st.cfg.model, st.num_variates, st.seed)
    pipe.load_state(state)
    return pipe


def digest(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


@dataclass
class Trial:
    train_s: float
    val_mse: float
    clipped: int
    params_digest: str
    state: dict


def train_trial(wl: Workload, st: Setup, tracer: Tracer, checks: Checks) -> Trial | None:
    pipe = new_pipeline(st, st.initial)
    cfg = training.TrainConfig(batch_size=wl.batch_size, max_epochs=wl.epochs,
                               patience=wl.epochs, seed=st.seed, mode=wl.mode)
    first_unit = len(tracer.unit_kind)
    t0 = time.perf_counter()
    try:
        pipe, report = training.train(pipe, st.windows, cfg, zscore_stats=st.stats)
    except Exception as e:  # a step raised: count it and keep measuring
        checks.error(f"training raised {type(e).__name__}: {e}")
        return None
    train_s = time.perf_counter() - t0
    check_units(wl, st, tracer, first_unit, checks)
    losses = [v for pair in report.loss_history for v in pair]
    checks.expect(report.best_val_loss is not None and all(map(math.isfinite, losses)),
                  f"non-finite loss in {report.loss_history}")
    x = Tensor(st.roundtrip_x)
    back = pipe.transform.inverse(pipe.transform.forward(x)).numpy()
    err = float(np.max(np.abs(back - st.roundtrip_x)))
    checks.expect(err <= ROUNDTRIP_TOL, f"flow round trip error {err:.3e} > {ROUNDTRIP_TOL}")
    state = pipe.snapshot()
    return Trial(train_s, float(report.best_val_loss), report.clipped_steps,
                 digest(state[k] for k in sorted(state)), state)


def check_units(wl: Workload, st: Setup, tracer: Tracer, first_unit: int,
                checks: Checks) -> None:
    """A trial must record exactly its steps and evaluations, each one whole.

    If a change to the trainer renamed, merged or split its step functions,
    the step figures would time something else; this makes that fail the run.
    """
    kinds = tracer.unit_kind[first_unit:]
    steps = [first_unit + i for i, k in enumerate(kinds) if k == KINDS.index("step")]
    evals = kinds.count(KINDS.index("eval"))
    checks.expect(len(steps) == st.steps_per_trial and evals == wl.epochs,
                  f"trial recorded {len(steps)} steps and {evals} evaluations, expected "
                  f"{st.steps_per_trial} and {wl.epochs}; update perfbench/tracer.py")
    want = list(STEP_EVENTS[wl.mode])
    logged = [tracer.unit_events.get(u) for u in steps]
    wrong = [events for events in logged if events != want]
    checks.expect(not wrong, f"a step logged {wrong[:1]}, expected {want}; "
                             f"update perfbench/tracer.py")


def eval_pass(wl: Workload, st: Setup, trial: Trial | None, checks: Checks) -> None:
    """One `evaluation.evaluate` of the val split, as training runs it after an epoch.

    Evaluating the trained state must reproduce the trial's best val loss bit
    for bit.
    """
    pipe = new_pipeline(st, trial.state if trial else st.initial)
    pipe.eval_mode()
    try:
        mse = evaluation.evaluate(pipe, st.val, st.stats, batch_size=wl.batch_size).mse
    except Exception as e:  # counted as a failed check; the run goes on
        checks.expect(False, f"evaluate raised {type(e).__name__}: {e}")
        return
    checks.expect(math.isfinite(mse) and (trial is None or mse == trial.val_mse),
                  f"evaluate gave val mse {mse!r}, the trial's best was "
                  f"{trial.val_mse if trial else None!r}")


def forecast_block(st: Setup, state: dict, tracer: Tracer, checks: Checks, first: int,
                   count: int, predictions) -> None:
    pipe = new_pipeline(st, state)
    pipe.eval_mode()
    expected = (REQUEST_WINDOWS, st.cfg.model.horizon, st.num_variates)
    for k in range(first, first + count):
        x = st.requests[k % len(st.requests)]
        try:
            with tracer.unit("request", "forecast.request", len(x)):
                y = pipe.predict(Tensor(x)).numpy()
        except Exception as e:  # a failed request is counted, the loop goes on
            checks.error(f"request {k} raised {type(e).__name__}: {e}")
            continue
        if y.shape != expected or not np.all(np.isfinite(y)):
            checks.error(f"request {k}: shape {y.shape} (want {expected}) or non-finite")
        elif k < len(st.requests):
            predictions.update(y.tobytes())


def plan(wl: Workload, seconds: float, traced: bool) -> list[str]:
    """The run's activities in order: the plan scaled to `seconds`, interleaved.

    The first set-up and the first trial come first, since the rest use them.
    The others are spread evenly over the run, so a slow spell of the host
    lands on every activity alike, not on one of them.
    """
    counts = {a: max(minimum(a, traced), round(n * seconds / PLAN_SECONDS))
              for a, n in wl.plan.items()}
    counts["setup"] -= 1
    counts["train"] -= 1
    spread = sorted(((i + 0.5) / n, order, a) for order, (a, n) in enumerate(counts.items())
                    for i in range(n))
    return ["setup", "train"] + [a for _, _, a in spread]


def run(wl: Workload, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload's plan, scaled to `seconds`.

    In a traced run every other set-up, trial, evaluation pass and request
    block is traced.
    """
    tracer = Tracer()
    checks = Checks()
    predictions = hashlib.sha256()
    trials: list[tuple[bool, Trial | None]] = []
    setups: list[Setup] = []
    latest = {}

    def do_setup(_):
        with tracer.unit("setup", "bench.setup"):
            st = set_up(wl, seed)
        if not setups:  # the run uses the first; the rest are only timed
            setups.append(st)

    def do_trial(trace_now):
        trial = train_trial(wl, setups[0], tracer, checks)
        trials.append((trace_now, trial))
        if trial is not None:
            latest["trial"] = trial

    def do_block(_):
        first = (counts["forecast"] - 1) * BLOCK_REQUESTS
        trial = latest.get("trial")
        forecast_block(setups[0], trial.state if trial else setups[0].initial, tracer, checks,
                       first, BLOCK_REQUESTS, predictions)

    actions = {"setup": do_setup, "train": do_trial,
               "eval": lambda _: eval_pass(wl, setups[0], latest.get("trial"), checks),
               "forecast": do_block}
    counts = dict.fromkeys(actions, 0)
    schedule = plan(wl, seconds, traced)
    cap = time.perf_counter() + CAP_FACTOR * seconds
    for act in schedule:
        if time.perf_counter() > cap and counts[act] >= minimum(act, traced):
            continue
        counts[act] += 1
        trace_now = traced and counts[act] % 2 == 0
        with tracer.installed(trace_now):
            actions[act](trace_now)

    st = setups[0]
    done = [t for _, t in trials if t is not None]
    for t in done[1:]:
        checks.expect(t.params_digest == done[0].params_digest and t.val_mse == done[0].val_mse,
                      "trials of one seed gave different parameters or val_mse")

    a = tracer.arrays()
    times = unit_times(a)
    n_steps = int(np.sum(a["unit_kind"] == KINDS.index("step")))
    n_requests = int(np.sum(a["unit_kind"] == KINDS.index("request")))
    attempted = checks.attempted + n_steps + n_requests
    base_mse = reference_mse(st)
    e2e = end_to_end(a, times, [t for was_traced, t in trials if t and not was_traced],
                     base_mse, checks, attempted)
    result = {
        "workload": wl.name,
        "seed": seed,
        "traced": traced,
        "attempted": attempted,
        "failed": checks.failed,
        "errors": checks.messages,
        "trials": len(trials),
        "activities": counts,
        "planned": len(schedule),
        "digests": {
            "params": done[0].params_digest if done else None,
            "predictions": predictions.hexdigest()[:16],
        },
        "val_mse": done[0].val_mse if done else None,
        "reference_mse": base_mse,
        "e2e": e2e,
        "tracer": tracer,
    }
    if traced:
        result["per_layer"] = per_layer(wl, tracer, a, times, done)
    return result


def _units(a, kind: str, traced: bool) -> np.ndarray:
    return np.flatnonzero((a["unit_kind"] == KINDS.index(kind)) & (a["unit_traced"] == traced))


# No sample is an error, not a 0: a timing of 0 would pass any bound.
def _rate(a, times, idx) -> float:
    return float(a["unit_windows"][idx].sum()) / float(times[idx].sum())


def _median(values) -> float:
    return float(statistics.median(values))


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q))


def end_to_end(a, times, trials: list[Trial], reference_mse: float, checks: Checks,
               attempted: int) -> dict:
    """Untraced figures as (value, sample count)."""
    setups = _units(a, "setup", False)
    steps = _units(a, "step", False)
    evals = _units(a, "eval", False)
    requests = _units(a, "request", False)
    req_ms = times[requests] * 1e3
    return {
        "setup_s": (_median(times[setups]), len(setups)),
        "train_s": (_median([t.train_s for t in trials]), len(trials)),
        "train_windows_per_s": (_rate(a, times, steps), len(steps)),
        "step_ms_p50": (_median(times[steps] * 1e3), len(steps)),
        "eval_windows_per_s": (_rate(a, times, evals), len(evals)),
        "val_mse_rel": (trials[0].val_mse / reference_mse, len(trials)),
        "forecast_ms_p50": (_percentile(req_ms, 50), len(requests)),
        "forecast_ms_p90": (_percentile(req_ms, 90), len(requests)),
        "forecast_ms_p99": (_percentile(req_ms, 99), len(requests)),
        "forecast_windows_per_s": (_rate(a, times, requests), len(requests)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "success_rate": ((attempted - checks.failed) / attempted, attempted),
    }


def per_layer(wl: Workload, tracer: Tracer, a, times, trials: list[Trial]) -> dict:
    """Traced figures: ms or counts per primary unit, ratios, and ms per call."""
    names = tracer.names
    span_unit = a["unit"]
    valid = span_unit >= 0
    span_kind = np.where(valid, a["unit_kind"][np.maximum(span_unit, 0)], -1)
    span_traced = valid & a["unit_traced"][np.maximum(span_unit, 0)]
    dur = a["end"] - a["start"]
    own = self_times(a)

    primary = _units(a, wl.primary, True)
    n = max(len(primary), 1)
    in_primary = span_traced & (span_kind == KINDS.index(wl.primary))
    by_name = {}
    for label, weights in (("self", own), ("incl", dur), ("calls", None)):
        sums = np.bincount(a["name"][in_primary], weights=None if weights is None
                           else weights[in_primary], minlength=len(names))
        by_name[label] = dict(zip(names, sums))

    out = {}
    for op in OPS:
        out[f"autodiff.{op}.calls"] = by_name["calls"].get(f"autodiff.{op}.fwd", 0.0) / n
    for metric, spans in SELF_METRICS.items():
        out[metric] = sum(by_name["self"].get(s, 0.0) for s in spans) / n * 1e3
    for metric, span in PHASE_METRICS.items():
        out[metric] = by_name["incl"].get(span, 0.0) / n * 1e3
    for metric, (span, kind) in CALL_METRICS.items():
        mask = span_traced & (span_kind == KINDS.index(kind))
        if span in names:
            mask &= a["name"] == names.index(span)
        else:
            mask &= False
        out[metric] = float(dur[mask].mean()) * 1e3 if mask.any() else 0.0

    out["autodiff.tape_nodes"] = sum(tracer.unit_tape_nodes.get(u, 0) for u in primary) / n
    out["autodiff.tape_mb"] = sum(tracer.unit_tape_bytes.get(u, 0) for u in primary) / n / 2**20
    steps = np.flatnonzero(a["unit_kind"] == KINDS.index("step"))
    traced_steps = _units(a, "step", True)
    out["training.clipped_steps"] = sum(t.clipped for t in trials) / max(len(steps), 1)
    for kind in ("theta", "phi", "joint"):
        visited = tracer.visited_nodes[kind]
        out[f"training.{kind}.backward_useful_ratio"] = (
            tracer.useful_nodes[kind] / visited if visited else 0.0)
    out["training.idle_group_grad_elems"] = sum(
        tracer.unit_idle_elems.get(u, 0) for u in traced_steps) / max(len(traced_steps), 1)

    untraced = _units(a, wl.primary, False)
    out["trace.units"] = float(len(primary))
    # medians: the run's first step runs cold, and it is never traced
    out["trace.unit_ms_untraced"] = _median(times[untraced]) * 1e3
    out["trace.unit_ms_traced"] = _median(times[primary]) * 1e3
    out["trace.overhead_ms"] = out["trace.unit_ms_traced"] - out["trace.unit_ms_untraced"]
    # the self times of a unit add up to its traced time, so this is the share
    # of that time that no layer metric accounts for
    out["trace.unattributed_share"] = (sum(out[m] for m in UNATTRIBUTED)
                                       / sum(out[m] for m in SELF_METRICS))
    return {k: float(v) for k, v in out.items()}
