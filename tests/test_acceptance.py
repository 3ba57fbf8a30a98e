"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The directional synthetic experiment (criteria 6 and 7) trains five pipeline
variants on the same shifted piecewise-cosine dataset with shared seeds and
window sets; it dominates the suite's runtime.
"""

import json
import time

import numpy as np
import pytest

from inflow import autodiff as ad
from inflow.autodiff import AdamState, Tape, Tensor, adam_step
from inflow.baselines import IdentityTransform, RevInTransform
from inflow.cli import RunConfig, cmd_train, run_roster
from inflow.data import SeriesDataset, make_windows, split_windows, zscore_fit_apply
from inflow.evaluation import evaluate
from inflow.flow import VARIANTS as FLOW_VARIANTS
from inflow.flow import CouplingLayer, FlowStack, InstanceNormLayer
from inflow.forecasters import ForecasterConfig, build_forecaster
from inflow.pipeline import ForecastPipeline
from inflow.training import BiLevelState, TrainConfig, bilevel_step, train

from gradcheck import check_gradients


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def randomize(stack: FlowStack, rng, scale: float = 0.3) -> None:
    # every inverse layer multiplies accumulated roundoff by its local
    # Lipschitz factor, so 48-layer stacks need draws in the operational
    # (near-trained) range to stay inside the 1e-5 roundtrip bound
    for p in stack.parameters().values():
        p.data[:] = rng.normal(size=p.shape) * scale


# ---------------------------------------------------------------------------
# criterion 1: invertibility


@pytest.mark.filterwarnings("ignore:coupling layer with a single variate")
def test_criterion_1_invertibility_suite():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    trials = 50
    for variant in FLOW_VARIANTS:
        for num_blocks in (2, 8, 16):
            for num_variates in (1, 2, 7, 21):
                stack = FlowStack(num_variates, num_blocks=num_blocks,
                                  variant=variant, hidden=16,
                                  rng=np.random.default_rng(102))
                for _ in range(trials):
                    randomize(stack, rng)
                    x = Tensor(rng.uniform(-2, 2, size=(2, 12, num_variates)))
                    back = stack.inverse(stack.forward(x))
                    err = float(np.max(np.abs(back.numpy() - x.numpy())))
                    worst = max(worst, err)
                    assert err < 1e-5, (
                        f"{variant} K={num_blocks} D={num_variates}: err={err:.3e}"
                    )
    elapsed = time.time() - t0
    _report(1, "invertibility of all variants, K in {2,8,16}, D in {1,2,7,21}",
            worst < 1e-5 and elapsed < 60.0,
            f"max |g^-1(g(x)) - x| = {worst:.3e}, {trials} trials each, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: gradient suite


def _primitive_checks(rng):
    """(name, tensors, loss_fn) for every primitive operation."""
    def pair(shape=(3, 4)):
        return (Tensor(rng.uniform(-2, 2, size=shape), requires_grad=True),
                Tensor(rng.uniform(-2, 2, size=shape), requires_grad=True))

    a1, b1 = pair()
    a2, b2 = pair()
    a3, b3 = pair()
    m1 = Tensor(rng.uniform(-2, 2, size=(3, 4)), requires_grad=True)
    m2 = Tensor(rng.uniform(-2, 2, size=(4, 2)), requires_grad=True)
    singles = [Tensor(rng.uniform(-2, 2, size=(3, 4)), requires_grad=True)
               for _ in range(12)]

    def sq(t):
        return ad.mean_all(t * t)

    return [
        ("add", [a1, b1], lambda: sq(a1 + b1)),
        ("sub", [a2, b2], lambda: sq(a2 - b2)),
        ("mul", [a3, b3], lambda: sq(a3 * b3)),
        ("div", [singles[0]], lambda: sq(singles[0] / 3.7)),
        ("matmul", [m1, m2], lambda: sq(ad.tanh(ad.matmul(m1, m2)))),
        ("exp", [singles[1]], lambda: sq(ad.exp(singles[1]))),
        ("tanh", [singles[2]], lambda: sq(ad.tanh(singles[2]))),
        ("relu", [singles[3]], lambda: sq(ad.relu(singles[3]))),
        ("power", [singles[4]],
         lambda: sq(ad.power(singles[4] * singles[4] + 0.5, 1.3))),
        ("mean_axis", [singles[5]],
         lambda: sq(singles[5] - ad.mean_axis(singles[5], 1, keepdims=True))),
        ("var_axis", [singles[6]],
         lambda: sq(ad.var_axis(singles[6], 1, keepdims=True) + 1.0)),
        ("slice", [singles[7]],
         lambda: sq(ad.slice_axis(singles[7], 1, 1, 3))),
        ("concat", [singles[8], singles[9]],
         lambda: sq(ad.concat([singles[8], singles[9] * 2.0], axis=1))),
        ("reshape", [singles[10]],
         lambda: sq(ad.reshape(singles[10] * singles[10], (2, 6)))),
        ("broadcast", [singles[11]],
         lambda: sq(ad.broadcast_to(ad.mean_axis(singles[11], 0, keepdims=True),
                                    (3, 4)))),
    ]


def _layer_checks(rng):
    """(name, tensors, loss_fn) for every layer and the full pipeline."""
    checks = []

    norm = InstanceNormLayer(3)
    norm.log_scale.data[:] = rng.normal(size=3) * 0.3
    norm.shift.data[:] = rng.normal(size=3) * 0.3
    xn = Tensor(rng.uniform(-2, 2, size=(2, 7, 3)), requires_grad=True)
    checks.append((
        "instance_norm", [xn, norm.log_scale, norm.shift],
        lambda: ad.mean_all(ad.power(norm.inverse(norm.forward(xn) * 0.7), 2.0)),
    ))

    coup = CouplingLayer(4, hidden=6, rng=rng)
    for net in (coup.scale_net, coup.translate_net):
        for p in net.parameters().values():
            p.data[:] = rng.normal(size=p.shape) * 0.4
    xc = Tensor(rng.uniform(-2, 2, size=(2, 5, 4)), requires_grad=True)
    coup_tensors = [xc] + list(coup.parameters().values())
    checks.append((
        "coupling", coup_tensors,
        lambda: ad.mean_all(ad.power(coup.forward(xc), 2.0)),
    ))

    revin = RevInTransform(3)
    revin._norm.log_scale.data[:] = rng.normal(size=3) * 0.3
    xr = Tensor(rng.uniform(-2, 2, size=(2, 6, 3)), requires_grad=True)
    checks.append((
        "revin", [xr] + list(revin.parameters().values()),
        lambda: ad.mean_all(ad.power(revin.denormalize(revin.normalize(xr) * 0.5), 2.0)),
    ))

    for kind in ("linear", "mlp", "nbeats_lite"):
        cfg = ForecasterConfig(kind=kind, lookback=6, horizon=4, num_variates=3,
                               hidden_width=8, depth=2, num_blocks=2)
        model = build_forecaster(cfg, rng=rng)
        for p in model.parameters().values():
            if np.all(p.data == 0.0):
                p.data[:] = rng.normal(size=p.shape) * 0.2
        xf = Tensor(rng.uniform(-2, 2, size=(2, 6, 3)), requires_grad=True)

        def loss_fn(model=model, xf=xf):
            out = model.forward(xf)
            return ad.mean_all(out * out)

        checks.append((kind, [xf] + list(model.parameters().values()), loss_fn))

    stack = FlowStack(3, num_blocks=2, hidden=6, rng=np.random.default_rng(103))
    randomize(stack, rng)
    fc = ForecasterConfig(kind="mlp", lookback=6, horizon=4, num_variates=3,
                          hidden_width=8, depth=2)
    pipeline = ForecastPipeline(stack, build_forecaster(fc, rng=rng))
    xp = Tensor(rng.uniform(-2, 2, size=(2, 6, 3)), requires_grad=True)
    yp = Tensor(rng.uniform(-2, 2, size=(2, 4, 3)))

    def pipeline_loss():
        diff = pipeline.predict(xp) - yp
        return ad.mean_all(diff * diff)

    checks.append((
        "pipeline", [xp] + list(pipeline.parameters().values()), pipeline_loss,
    ))
    return checks


def test_criterion_2_gradient_suite():
    rng = np.random.default_rng(104)
    t0 = time.time()
    worst = 0.0
    for name, tensors, loss_fn in _primitive_checks(rng) + _layer_checks(rng):
        worst = max(worst, check_gradients(loss_fn, tensors, rng, num_probes=100))
    elapsed = time.time() - t0
    _report(2, "finite-difference gradients for all primitives, layers, pipeline",
            worst < 1e-4 and elapsed < 300.0,
            f"max rel err {worst:.2e} over 100 probes each, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: normalization statistics


def test_criterion_3_normalization_statistics():
    rng = np.random.default_rng(105)
    eps = 1e-5
    worst_mean, worst_var_low = 0.0, 1.0
    for _ in range(20):
        layer = InstanceNormLayer(4, eps=eps)  # log_scale and shift start at 0
        x = Tensor(rng.uniform(-2, 2, size=(3, 32, 4)))
        out = layer.forward(x).numpy()
        worst_mean = max(worst_mean, float(np.max(np.abs(out.mean(axis=1)))))
        var = out.var(axis=1)
        assert np.all(var <= 1.0 + 1e-15)
        worst_var_low = min(worst_var_low, float(np.min(var)))
    stats_ok = worst_mean < 1e-6 and worst_var_low >= 1.0 - 10 * eps

    revin = RevInTransform(4)
    layer = InstanceNormLayer(4)
    gamma, beta = rng.normal(size=4), rng.normal(size=4)
    for obj in (revin._norm, layer):
        obj.log_scale.data[:] = gamma
        obj.shift.data[:] = beta
    stack = FlowStack.from_layers([layer])
    x = Tensor(rng.uniform(-2, 2, size=(2, 16, 4)))
    fwd_gap = float(np.max(np.abs(revin.normalize(x).numpy()
                                  - stack.forward(x).numpy())))
    h = Tensor(rng.uniform(-2, 2, size=(2, 9, 4)))
    inv_gap = float(np.max(np.abs(revin.denormalize(h).numpy()
                                  - stack.inverse(h).numpy())))
    agree_ok = fwd_gap <= 1e-12 and inv_gap <= 1e-12
    _report(3, "instance-norm statistics and RevIN/FlowStack agreement",
            stats_ok and agree_ok,
            f"max |mean| {worst_mean:.1e}, min var {worst_var_low:.6f}, "
            f"agreement gap {max(fwd_gap, inv_gap):.1e}")


# ---------------------------------------------------------------------------
# criterion 4: bi-level contract


def test_criterion_4_bilevel_contract():
    t = np.arange(140, dtype=np.float64)
    ds = SeriesDataset(values=(0.05 * t).reshape(-1, 1), train_end=84, val_end=112)
    windows = make_windows(ds, 6, 3, use_bilevel=True)
    fc = ForecasterConfig(kind="linear", lookback=6, horizon=3, num_variates=1)
    pipe = ForecastPipeline(RevInTransform(1),
                            build_forecaster(fc, rng=np.random.default_rng(106)))
    cfg = TrainConfig(batch_size=16, max_epochs=3, patience=3, mode="bilevel", seed=0)
    pipe, report = train(pipe, windows, cfg)
    kinds = [k for k, _ in report.update_log]
    alternates = (kinds == ["theta", "phi"] * (len(kinds) // 2) and len(kinds) > 0)
    theta_splits = {s for k, s in report.update_log if k == "theta"}
    phi_splits = {s for k, s in report.update_log if k == "phi"}
    discipline = theta_splits == {"inner_train"} and phi_splits == {"outer_val"}

    # zero gradients must leave parameters untouched
    groups = split_windows(windows)
    pipe2 = ForecastPipeline(
        IdentityTransform(),
        build_forecaster(fc, rng=np.random.default_rng(107)),
    )
    from inflow.training import stack_windows
    inner = stack_windows(groups["inner_train"][:8])
    outer = stack_windows(groups["outer_val"][:4])
    inner = type(inner)(x=inner.x, y=pipe2.predict(inner.x), anchors=inner.anchors,
                        split=inner.split)
    outer = type(outer)(x=outer.x, y=pipe2.predict(outer.x), anchors=outer.anchors,
                        split=outer.split)
    before = pipe2.snapshot()
    state = BiLevelState.for_pipeline(pipe2, TrainConfig())
    bilevel_step(state, pipe2, inner, outer)
    unchanged = all(np.array_equal(arr, before[name])
                    for name, arr in pipe2.snapshot().items())

    p = Tensor([2.0])
    st = AdamState.for_param(p)
    adam_step(st, p, np.zeros(1))
    unchanged = unchanged and p.numpy()[0] == 2.0 and st.step_count == 1

    _report(4, "bi-level alternation, split provenance, zero-grad no-op",
            alternates and discipline and unchanged,
            f"{len(kinds)} updates logged")


# ---------------------------------------------------------------------------
# criterion 5: descent sanity


def test_criterion_5_descent_sanity():
    t0 = time.time()
    steps = np.arange(150, dtype=np.float64)
    ds = SeriesDataset(values=(0.05 * steps).reshape(-1, 1), train_end=90, val_end=120)
    windows = make_windows(ds, 8, 4, use_bilevel=True)
    fc = ForecasterConfig(kind="linear", lookback=8, horizon=4, num_variates=1)
    pipe = ForecastPipeline(IdentityTransform(),
                            build_forecaster(fc, rng=np.random.default_rng(108)))
    cfg = TrainConfig(inner_lr=2e-2, batch_size=64, max_epochs=200, patience=200,
                      mode="backbone_only", seed=0)
    pipe, report = train(pipe, windows, cfg)
    elapsed = time.time() - t0
    final = report.loss_history[-1][0]
    epochs = len(report.loss_history)
    _report(5, "linear toy task reaches train MSE < 1e-3",
            final < 1e-3 and epochs <= 200 and elapsed < 30.0,
            f"train MSE {final:.2e} after {epochs} epochs, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 6 and 7: synthetic directional experiment


EXPERIMENT_SEEDS = [0, 1, 2, 3]
# longest training first, so that the roster pool's workers finish close together
EXPERIMENT_VARIANTS = ["inflow", "realnvp_c", "realnvp", "revin", "none"]


@pytest.fixture(scope="session")
def synthetic_experiment(tmp_path_factory):
    """Train the variant roster on synthetic-1 with shared windows and seeds."""
    cfg = RunConfig.from_dict({
        "dataset": {"preset": "synthetic-1", "seed": 0},
        "model": {"num_blocks": 2, "flow_hidden": 16, "backbone": "mlp",
                  "lookback": 48, "horizon": 48, "hidden_width": 128, "depth": 2},
        "train": {"batch_size": 1024, "max_epochs": 10, "patience": 3},
        "seeds": EXPERIMENT_SEEDS,
    })
    t0 = time.time()
    records = run_roster(cfg, EXPERIMENT_VARIANTS, tmp_path_factory.mktemp("roster"))
    elapsed = time.time() - t0
    failed = [r for r in records if r["status"] != "ok"]
    assert not failed, failed
    results: dict[str, dict[int, float]] = {}
    for r in records:
        results[r["variant"]] = {seed: mse for seed, mse, _ in r["per_seed"]}
        for seed, mse, _ in r["per_seed"]:
            print(f"  {r['variant']} seed {seed}: test_mse {mse!r}", flush=True)
    results["elapsed"] = elapsed
    return results


@pytest.mark.roster
def test_criterion_6_synthetic_directional(synthetic_experiment):
    r = synthetic_experiment
    wins_none = sum(r["inflow"][s] <= r["none"][s] for s in EXPERIMENT_SEEDS)
    wins_revin = sum(r["inflow"][s] <= r["revin"][s] for s in EXPERIMENT_SEEDS)
    ok = wins_none >= 3 and wins_revin >= 3
    _report(6, "synthetic-1 directional: inflow beats none and revin per seed",
            ok,
            f"inflow<=none {wins_none}/4, inflow<=revin {wins_revin}/4, "
            f"roster wall time {r['elapsed']:.0f}s")


@pytest.mark.roster
def test_criterion_7_ablation_ordering(synthetic_experiment):
    r = synthetic_experiment
    mean_nvp = float(np.mean(list(r["realnvp"].values())))
    mean_nvp_c = float(np.mean(list(r["realnvp_c"].values())))
    _report(7, "batch-norm flow is no better than coupling-only flow",
            mean_nvp >= mean_nvp_c,
            f"realnvp mean {mean_nvp:.4g} vs realnvp_c mean {mean_nvp_c:.4g}")


# ---------------------------------------------------------------------------
# criterion 8: metric oracle


def test_criterion_8_metric_oracle():
    rng = np.random.default_rng(109)
    values = rng.normal(size=(80, 2)) * 3.0 + 1.0
    ds = SeriesDataset(values=values, train_end=48, val_end=64)
    zds, stats = zscore_fit_apply(ds)
    windows = split_windows(make_windows(zds, 5, 3))["test"]
    fc = ForecasterConfig(kind="mlp", lookback=5, horizon=3, num_variates=2,
                          hidden_width=8, depth=2)
    pipe = ForecastPipeline(RevInTransform(2), build_forecaster(fc, rng=rng))
    report = evaluate(pipe, windows, zscore_stats=stats, batch_size=4)

    sq, ab, n = 0.0, 0.0, 0
    for w in windows:  # naive per-window recomputation
        pred = stats.inverse(pipe.predict(Tensor(w.x[None])).numpy()[0])
        truth = stats.inverse(w.y)
        for i in range(pred.shape[0]):
            for j in range(pred.shape[1]):
                d = pred[i, j] - truth[i, j]
                sq += d * d
                ab += abs(d)
                n += 1
    mse_gap = abs(report.mse - sq / n)
    mae_gap = abs(report.mae - ab / n)

    roundtrip = float(np.max(np.abs(stats.inverse(stats.apply(values)) - values)))
    _report(8, "MSE/MAE match brute force; z-score roundtrip exact",
            mse_gap < 1e-10 and mae_gap < 1e-10 and roundtrip < 1e-9,
            f"metric gaps ({mse_gap:.1e}, {mae_gap:.1e}), roundtrip {roundtrip:.1e}")


# ---------------------------------------------------------------------------
# criterion 9: reproducibility


def test_criterion_9_reproducibility(tmp_path):
    def run_cfg(out):
        return RunConfig.from_dict({
            "dataset": {"preset": "synthetic-2", "total_length": 600,
                        "num_series": 3, "seed": 5},
            "model": {"variant": "inflow", "num_blocks": 2, "flow_hidden": 8,
                      "backbone": "mlp", "lookback": 12, "horizon": 12,
                      "hidden_width": 16, "depth": 2},
            "train": {"batch_size": 128, "max_epochs": 3, "patience": 3},
            "out_dir": str(out),
            "seeds": [0, 1],
        })

    out_a = cmd_train(run_cfg(tmp_path / "a"))
    out_b = cmd_train(run_cfg(tmp_path / "b"))
    identical = True
    for name in ("checkpoint_seed0.bin", "checkpoint_seed1.bin",
                 "report_seed0.json", "report_seed1.json",
                 "loss_seed0.csv", "loss_seed1.csv"):
        identical = identical and (
            (out_a / name).read_bytes() == (out_b / name).read_bytes()
        )
    histories_match = (
        json.loads((out_a / "report_seed0.json").read_text())["loss_history"]
        == json.loads((out_b / "report_seed0.json").read_text())["loss_history"]
    )
    _report(9, "identical config and seed give byte-identical artifacts",
            identical and histories_match, "checkpoints, reports, loss curves")
