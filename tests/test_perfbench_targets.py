"""The benchmark wraps named inflow functions; each of them must still exist."""

import importlib
from pathlib import Path

from inflow import autodiff


def test_tracer_installs_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    original = vars(autodiff.Tape)["backward"]
    with tracer.Tracer().installed(traced=True):  # raises TargetMissing if one is gone
        assert vars(autodiff.Tape)["backward"] is not original
    assert vars(autodiff.Tape)["backward"] is original
