"""The benchmark wraps named inflow functions; each of them must still exist."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from inflow import autodiff
from inflow.cli import ModelSection, build_pipeline
from inflow.data import SeriesDataset, make_windows
from inflow.training import TrainConfig, train


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("tracer")


def test_tracer_installs_and_restores_every_target(tracer):
    original = vars(autodiff.Tape)["backward"]
    with tracer.Tracer().installed(traced=True):  # raises TargetMissing if one is gone
        assert vars(autodiff.Tape)["backward"] is not original
    assert vars(autodiff.Tape)["backward"] is original


def test_bilevel_backward_does_no_idle_work(tracer):
    t = np.arange(120, dtype=np.float64)
    ds = SeriesDataset(values=np.stack([np.sin(t / 5), np.cos(t / 7)], axis=1),
                       train_end=72, val_end=96)
    windows = make_windows(ds, 8, 4, use_bilevel=True)
    trace = tracer.Tracer()
    with trace.installed(traced=True):
        model = ModelSection(variant="inflow", num_blocks=1, flow_hidden=4,
                             lookback=8, horizon=4, hidden_width=8, depth=1)
        pipe = build_pipeline(model, num_variates=2, seed=0)
        train(pipe, windows, TrainConfig(max_epochs=1, batch_size=16))
    assert trace.visited_nodes["theta"] > 0 and trace.visited_nodes["phi"] > 0
    assert sum(trace.unit_idle_elems.values()) == 0
    assert trace.useful_nodes["theta"] == trace.visited_nodes["theta"]
    assert trace.useful_nodes["phi"] == trace.visited_nodes["phi"]
