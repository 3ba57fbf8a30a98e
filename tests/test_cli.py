import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from inflow import cli
from inflow.cli import (
    VARIANTS,
    ModelSection,
    RunConfig,
    build_pipeline,
    build_transform,
    cmd_ablate,
    cmd_eval,
    cmd_synth,
    cmd_train,
    load_checkpoint,
    load_config,
    main,
    resolve_mode,
    save_checkpoint,
    save_config,
)
from inflow.data import load_csv
from inflow.errors import ConfigError, ContractError
from inflow.flow import FlowStack


def tiny_config(out_dir, **train_overrides):
    cfg = RunConfig.from_dict({
        "dataset": {"preset": "synthetic-1", "total_length": 400, "num_series": 3,
                    "seed": 0},
        "model": {"variant": "inflow", "num_blocks": 2, "flow_hidden": 8,
                  "backbone": "mlp", "lookback": 8, "horizon": 8,
                  "hidden_width": 16, "depth": 2},
        "train": {"batch_size": 128, "max_epochs": 2, "patience": 2,
                  **train_overrides},
        "out_dir": str(out_dir),
        "seeds": [0],
    })
    return cfg


class TestConfig:
    def test_round_trip(self):
        cfg = tiny_config("somewhere")
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = tiny_config(tmp_path)
        save_config(cfg, tmp_path / "c.json")
        assert load_config(tmp_path / "c.json") == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="model.widht"):
            RunConfig.from_dict({"model": {"widht": 3}})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="seed, trian"):
            RunConfig.from_dict({"seed": [5], "trian": {"max_epochs": 1}})
        with pytest.raises(ConfigError, match="train"):
            RunConfig.from_dict({"train": 3})
        with pytest.raises(ConfigError, match="JSON object"):
            RunConfig.from_dict([1, 2])

    @pytest.mark.parametrize("section, key, value", [
        ("train", "batch_size", "8"),
        ("model", "lookback", 4.5),
        ("dataset", "tau", "24"),
    ])
    def test_value_of_wrong_type_names_key(self, section, key, value):
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            RunConfig.from_dict({section: {key: value}})

    @pytest.mark.parametrize("ratio", [[0, 0, 0], [6, -2, 2]])
    def test_split_ratio_without_train_share_or_negative_rejected(self, tmp_path, capsys,
                                                                 ratio):
        csv = tmp_path / "series.csv"
        csv.write_text("a\n" + "\n".join(str(i) for i in range(100)) + "\n")
        with pytest.raises(ConfigError, match="split_ratio"):
            load_csv(csv, split_ratio=tuple(ratio))
        cfg = tiny_config(tmp_path / "run")
        cfg.dataset.csv_path = str(csv)
        cfg.dataset.split_ratio = tuple(ratio)
        with pytest.raises(ConfigError, match="dataset.split_ratio"):
            cfg.validate()
        save_config(cfg, tmp_path / "cfg.json")
        assert main(["train", "--config", str(tmp_path / "cfg.json")]) == 2
        assert "dataset.split_ratio" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_batch_size_below_one_rejected(self):
        cfg = tiny_config("x", batch_size=0)
        with pytest.raises(ConfigError, match="batch_size"):
            cfg.validate()

    @pytest.mark.parametrize("command, overrides, flags, key", [
        ("train", {}, ["--seed", "-1"], "seeds"),
        ("train", {"dataset": {"seed": -3}}, [], "dataset.seed"),
        ("synth", {"dataset": {"seed": -3}}, [], "seed"),
        ("train", {"model": {"flow_hidden": -1}}, [], "model.flow_hidden"),
        ("train", {"model": {"hidden_width": 0}}, [], "model.hidden_width"),
        ("train", {"model": {"hidden_width": -2}}, [], "model.hidden_width"),
        ("train", {"model": {"backbone": "nbeats_lite", "nbeats_blocks": -1}}, [],
         "model.nbeats_blocks"),
        ("train", {}, ["--seed", "1", "--seed", "1"], "seeds"),
    ], ids=["seed_flag", "dataset_seed", "synth_dataset_seed", "flow_hidden",
            "hidden_width_zero", "hidden_width_negative", "nbeats_blocks", "seed_repeated"])
    def test_out_of_range_value_exits_2_before_writing(self, tmp_path, capsys, command,
                                                       overrides, flags, key):
        cfg = tiny_config(tmp_path / "run").to_dict()
        for section, values in overrides.items():
            cfg[section].update(values)
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main([command, "--config", str(tmp_path / "cfg.json"), *flags]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("overrides, key", [
        ({"train": {"max_epochs": 0}}, "train.max_epochs"),
        ({"model": {"num_blocks": -1}}, "model.num_blocks"),
        ({"model": {"depth": 0}}, "model.depth"),
        ({"model": {"depth": -1}}, "model.depth"),
        ({"model": {"lookback": 0}}, "model.lookback"),
        ({"model": {"horizon": -4}}, "model.horizon"),
        ({"train": {"patience": 0}}, "train.patience"),
        ({"train": {"inner_lr": -1e-3}}, "train.inner_lr"),
        ({"dataset": {"num_series": 0}}, "dataset.num_series"),
        ({"dataset": {"preset": None, "tau": 0}}, "dataset.tau"),
        ({"dataset": {"total_length": 10}}, "dataset.total_length"),
    ], ids=["max_epochs_zero", "num_blocks", "depth_zero", "depth_negative", "lookback",
            "horizon", "patience", "inner_lr", "num_series", "tau", "total_length"])
    def test_constructor_check_fails_before_writing(self, tmp_path, capsys, overrides, key):
        cfg = tiny_config(tmp_path / "run").to_dict()
        for section, values in overrides.items():
            cfg[section].update(values)
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", str(tmp_path / "cfg.json")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_mode_resolution(self):
        assert resolve_mode("inflow", "auto") == "bilevel"
        assert resolve_mode("inflow_t", "auto") == "bilevel"
        assert resolve_mode("realnvp", "auto") == "bilevel"
        assert resolve_mode("inflow_j", "auto") == "joint"
        assert resolve_mode("revin", "auto") == "joint"
        assert resolve_mode("revin", "bilevel") == "bilevel"
        assert resolve_mode("none", "auto") == "backbone_only"

    def test_unknown_variant_is_config_error(self):
        model = tiny_config("x").model
        model.variant = "bogus"
        with pytest.raises(ConfigError, match="unknown variant 'bogus'"):
            resolve_mode("bogus", "auto")
        with pytest.raises(ConfigError, match="unknown variant 'bogus'"):
            build_transform(model, num_variates=3, seed=0)

    def test_inconsistent_mode_is_preflight_error(self):
        with pytest.raises(ConfigError):
            resolve_mode("inflow_j", "bilevel")
        cfg = tiny_config("x", mode="bilevel")
        cfg.model.variant = "none"
        with pytest.raises(ConfigError):
            cfg.validate()


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_variant_builds_a_flow_stack(variant):
    model = tiny_config("x").model
    model.variant = variant
    assert isinstance(build_transform(model, num_variates=3, seed=0), FlowStack)


def test_revin_state_names_its_one_layer():
    model = tiny_config("x").model
    model.variant = "revin"
    pipe = build_pipeline(model, num_variates=3, seed=0)
    assert set(pipe.state_tensors()) == {"phi.layers.0.log_scale", "phi.layers.0.shift",
                                         *pipe.theta_parameters()}


# the twelve tensors of the coupling layer at index 1 of a one-block stack
_COUPLING_NAMES = [f"phi.layers.1.{net}.layer{i}.{kind}" for net in ("scale", "translate")
                   for i in range(3) for kind in ("bias", "weight")]


@pytest.mark.parametrize("variant,backbone,names", [
    ("inflow", "nbeats_lite",
     ["phi.layers.0.log_scale", "phi.layers.0.shift", *_COUPLING_NAMES,
      "theta.blocks.0.backcast.bias", "theta.blocks.0.backcast.weight",
      "theta.blocks.0.forecast.bias", "theta.blocks.0.forecast.weight",
      "theta.blocks.0.trunk.layer0.bias", "theta.blocks.0.trunk.layer0.weight"]),
    ("realnvp", "mlp",
     ["phi.layers.0.log_scale", "phi.layers.0.shift", *_COUPLING_NAMES,
      "phi_buffer.layers.0.running_mean", "phi_buffer.layers.0.running_var",
      "theta.net.layer0.bias", "theta.net.layer0.weight",
      "theta.net.layer1.bias", "theta.net.layer1.weight"]),
    ("none", "linear", ["theta.head.bias", "theta.head.weight"]),
])
def test_checkpoint_tensor_names_are_pinned(variant, backbone, names):
    model = ModelSection(variant=variant, num_blocks=1, flow_hidden=2, backbone=backbone,
                         lookback=4, horizon=2, hidden_width=3, depth=1, nbeats_blocks=1)
    assert sorted(build_pipeline(model, num_variates=2, seed=0).state_tensors()) == names


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {
            "theta.w": rng.normal(size=(4, 3)),
            "theta.b": rng.normal(size=3),
            "phi.scalar": np.asarray(rng.normal()),
        }
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(p1, arrays)
        loaded = load_checkpoint(p1)
        for k, v in arrays.items():
            np.testing.assert_array_equal(loaded[k], v)
            assert loaded[k].shape == v.shape
        save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_shape_mismatch_names_parameter(self, tmp_path):
        cfg = tiny_config(tmp_path)
        pipe = build_pipeline(cfg.model, num_variates=3, seed=0)
        state = {k: t.data for k, t in pipe.state_tensors().items()}
        bad = dict(state)
        name = next(iter(bad))
        bad[name] = np.zeros((1, 1))
        path = tmp_path / "bad.bin"
        save_checkpoint(path, bad)
        with pytest.raises(ContractError, match=name.replace(".", r"\.")):
            pipe.load_state(load_checkpoint(path))

    def test_missing_tensor_detected(self, tmp_path):
        cfg = tiny_config(tmp_path)
        pipe = build_pipeline(cfg.model, num_variates=3, seed=0)
        state = {k: t.data for k, t in pipe.state_tensors().items()}
        state.pop(next(iter(state)))
        path = tmp_path / "short.bin"
        save_checkpoint(path, state)
        with pytest.raises(ContractError, match="missing"):
            pipe.load_state(load_checkpoint(path))


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-8])


def _corrupt_header(path):
    raw = bytearray(path.read_bytes())
    raw[8] = ord("[")  # the header's opening brace
    path.write_bytes(bytes(raw))


def _bogus_header_length(path):
    raw = path.read_bytes()
    path.write_bytes(struct.pack("<Q", 2 ** 40) + raw[8:])


@pytest.mark.parametrize("damage", [Path.unlink, _truncate, _corrupt_header,
                                    _bogus_header_length],
                         ids=["missing", "truncated", "corrupt", "bogus_header_length"])
def test_bad_checkpoint_is_config_error_naming_path(tmp_path, damage):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, {"theta.w": np.arange(6.0).reshape(2, 3), "phi.b": np.ones(2)})
    damage(path)
    with pytest.raises(ConfigError, match="ckpt.bin"):
        load_checkpoint(path)


@pytest.mark.parametrize("command", ["synth", "train", "eval", "ablate"])
def test_uncreatable_out_dir_exits_2_naming_it(tmp_path, capsys, command):
    # an existing file as the directory, or as a parent of it
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "sub" if command == "eval" else taken
    cfg = tiny_config(out)
    save_config(cfg, tmp_path / "cfg.json")
    flags = []
    if command == "eval":
        state = build_pipeline(cfg.model, num_variates=3, seed=0).state_tensors()
        save_checkpoint(tmp_path / "ckpt.bin", {k: t.data for k, t in state.items()})
        flags = ["--checkpoint", str(tmp_path / "ckpt.bin")]
    assert main([command, "--config", str(tmp_path / "cfg.json"), *flags]) == 2
    err = capsys.readouterr().err
    assert str(out) in err and "Traceback" not in err


class TestSynth:
    def test_same_seed_identical_bytes(self, tmp_path):
        cfg_a = tiny_config(tmp_path / "a")
        cfg_b = tiny_config(tmp_path / "b")
        cmd_synth(cfg_a)
        cmd_synth(cfg_b)
        assert (tmp_path / "a" / "series.csv").read_bytes() == \
               (tmp_path / "b" / "series.csv").read_bytes()

    def test_manifest_records_preset_tau(self, tmp_path):
        for preset, tau in (("synthetic-1", 24), ("synthetic-2", 12),
                            ("synthetic-3", 48)):
            out = tmp_path / preset
            cfg = tiny_config(out)
            cfg.dataset.preset = preset
            cfg.dataset.total_length = 400
            cmd_synth(cfg)
            manifest = json.loads((out / "dataset_manifest.json").read_text())
            assert manifest["provenance"]["config"]["tau"] == tau


class TestTrainEval:
    def test_artifacts_written_per_seed(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        cfg.seeds = [1, 2]
        out = cmd_train(cfg)
        for seed in (1, 2):
            assert (out / f"checkpoint_seed{seed}.bin").exists()
            assert (out / f"report_seed{seed}.json").exists()
            assert (out / f"loss_seed{seed}.csv").exists()
        assert (out / "config.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["files"]) >= {"checkpoint_seed1.bin", "report_seed1.json"}
        assert manifest["config_hash"] == cfg.hash()

    def test_manifest_lists_only_this_runs_files(self, tmp_path):
        cfg = tiny_config(tmp_path / "run", max_epochs=1)
        cfg.seeds = [0, 1]
        cmd_train(cfg)
        cfg.seeds = [0]
        out = cmd_train(cfg)
        manifest = json.loads((out / "manifest.json").read_text())
        assert (out / "checkpoint_seed1.bin").exists()
        assert sorted(manifest["files"]) == ["checkpoint_seed0.bin", "config.json",
                                             "loss_seed0.csv", "report_seed0.json"]
        assert [r["seed"] for r in manifest["results"]] == [0]

    def test_checkpoint_contains_both_parameter_groups(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        out = cmd_train(cfg)
        names = set(load_checkpoint(out / "checkpoint_seed0.bin"))
        assert any(n.startswith("theta.") for n in names)
        assert any(n.startswith("phi.") for n in names)

    def test_eval_reproduces_best_val_loss(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        out = cmd_train(cfg)
        report = json.loads((out / "report_seed0.json").read_text())
        eval_out = cmd_eval(cfg, out / "checkpoint_seed0.bin",
                            out_dir=tmp_path / "eval")
        metrics = json.loads((eval_out / "metrics.json").read_text())
        assert metrics["val_mse"] == pytest.approx(report["best_val_loss"], abs=1e-9)

    def test_trace_flag_emits_csv_per_window(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        out = cmd_train(cfg)
        eval_out = cmd_eval(cfg, out / "checkpoint_seed0.bin",
                            out_dir=tmp_path / "eval", trace_windows=[0, 3])
        assert (eval_out / "trace_0.csv").exists()
        assert (eval_out / "trace_3.csv").exists()

    def test_bad_trace_index_or_checkpoint_exits_2_before_writing(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path / "run")
        save_config(cfg, tmp_path / "cfg.json")
        cmd_train(cfg)
        checkpoint = str(tmp_path / "run" / "checkpoint_seed0.bin")
        for flags, message in ((["--checkpoint", checkpoint, "--trace", "99999"], "trace window"),
                               (["--checkpoint", checkpoint, "--trace", "-1"], "trace window"),
                               (["--checkpoint", str(tmp_path / "absent.bin")], "absent.bin")):
            rc = main(["eval", "--config", str(tmp_path / "cfg.json"),
                       "--out", str(tmp_path / "eval")] + flags)
            assert rc == 2
            assert message in capsys.readouterr().err
            assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("case", ["missing", "directory", "not_utf8", "no_columns"])
    def test_bad_csv_exits_2_before_writing(self, tmp_path, capsys, case):
        csv_path = tmp_path / "series.csv"
        if case == "directory":
            csv_path.mkdir()
        elif case == "not_utf8":
            csv_path.write_bytes(b"a,b\n1.0,\xff\n")
        elif case == "no_columns":
            csv_path.write_text("a,b\n" + "1.0,2.0\n" * 100)
        cfg = tiny_config(tmp_path / "run").to_dict()
        cfg["dataset"] = {"csv_path": str(csv_path),
                          **({"columns": []} if case == "no_columns" else {})}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", str(tmp_path / "cfg.json")]) == 2
        name = "dataset.columns" if case == "no_columns" else str(csv_path)
        assert name in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_a = tiny_config(tmp_path / "a")
        cfg_b = tiny_config(tmp_path / "b")
        out_a, out_b = cmd_train(cfg_a), cmd_train(cfg_b)
        assert (out_a / "checkpoint_seed0.bin").read_bytes() == \
               (out_b / "checkpoint_seed0.bin").read_bytes()
        assert (out_a / "report_seed0.json").read_bytes() == \
               (out_b / "report_seed0.json").read_bytes()
        assert (out_a / "loss_seed0.csv").read_bytes() == \
               (out_b / "loss_seed0.csv").read_bytes()

    def test_main_entry_train(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path / "run")
        save_config(cfg, tmp_path / "cfg.json")
        rc = main(["train", "--config", str(tmp_path / "cfg.json"),
                   "--out", str(tmp_path / "cli_run"), "--variant", "none"])
        assert rc == 0
        assert (tmp_path / "cli_run" / "checkpoint_seed0.bin").exists()

    def test_main_maps_package_errors_to_exit_code_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"max_epoch": 3}}))
        assert main(["train", "--config", str(bad)]) == 2
        assert "train.max_epoch" in capsys.readouterr().err
        assert main(["train", "--config", str(tmp_path / "absent.json")]) == 2
        # a checkpoint of the plain backbone lacks the flow's tensors: ContractError
        cfg = tiny_config(tmp_path / "run")
        save_config(cfg, tmp_path / "cfg.json")
        assert main(["train", "--config", str(tmp_path / "cfg.json"),
                     "--variant", "none"]) == 0
        rc = main(["eval", "--config", str(tmp_path / "cfg.json"), "--variant", "inflow",
                   "--checkpoint", str(tmp_path / "run" / "checkpoint_seed0.bin"),
                   "--out", str(tmp_path / "eval")])
        assert rc == 2
        assert "missing tensor" in capsys.readouterr().err
        # and a flow checkpoint has tensors the plain backbone lacks
        assert main(["train", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "run_inflow")]) == 0
        rc = main(["eval", "--config", str(tmp_path / "cfg.json"), "--variant", "none",
                   "--checkpoint", str(tmp_path / "run_inflow" / "checkpoint_seed0.bin"),
                   "--out", str(tmp_path / "eval")])
        assert rc == 2
        assert "phi." in capsys.readouterr().err
        # revin tensors are named after the stack's one layer; the old names fail
        cfg.model.variant = "revin"
        state = {k.replace("phi.layers.0.", "phi.norm."): t.data
                 for k, t in build_pipeline(cfg.model, num_variates=3, seed=0)
                 .state_tensors().items()}
        save_checkpoint(tmp_path / "old_revin.bin", state)
        rc = main(["eval", "--config", str(tmp_path / "cfg.json"), "--variant", "revin",
                   "--checkpoint", str(tmp_path / "old_revin.bin"),
                   "--out", str(tmp_path / "eval")])
        assert rc == 2
        assert "phi.norm.log_scale" in capsys.readouterr().err

    def test_flag_precedence_over_config(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        save_config(cfg, tmp_path / "cfg.json")
        rc = main(["synth", "--config", str(tmp_path / "cfg.json"),
                   "--preset", "synthetic-2", "--out", str(tmp_path / "s2")])
        assert rc == 0
        manifest = json.loads((tmp_path / "s2" / "dataset_manifest.json").read_text())
        assert manifest["provenance"]["config"]["tau"] == 12


class TestAblate:
    def test_roster_and_fairness(self, tmp_path):
        cfg = tiny_config(tmp_path / "ablation", max_epochs=1)
        cfg.train.mode = "auto"
        environ = dict(os.environ)
        out = cmd_ablate(cfg)
        assert dict(os.environ) == environ  # the BLAS pin is lifted after the pool
        table = json.loads((out / "ablation.json").read_text())["table"]
        assert [row["variant"] for row in table] == list(VARIANTS)
        ok = [row for row in table if row["status"] == "ok"]
        assert len(ok) == len(VARIANTS)
        csv_lines = (out / "ablation.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 1 + len(VARIANTS)
        hashes = {
            json.loads((out / v / "manifest.json").read_text())["anchor_hash"]
            for v in VARIANTS
        }
        assert len(hashes) == 1  # identical window sets across variants
        # a worker process computes the same numbers as a run in this process
        cmd_train(cfg, out_dir=tmp_path / "in_process")
        results = json.loads((tmp_path / "in_process" / "manifest.json").read_text())["results"]
        inflow_row = next(row for row in table if row["variant"] == "inflow")
        assert inflow_row["per_seed"] == [[r["seed"], r["test_mse"], r["test_mae"]]
                                          for r in results]

    def test_workers_start_with_one_blas_thread(self, tmp_path, monkeypatch):
        # the roster's tiny shapes start no BLAS threads, so a real pool cannot show the pin
        blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        seen = []

        class RecordingPool:
            def __init__(self, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):  # spawn workers read the environment here
                seen.append({k: os.environ.get(k) for k in blas_vars})
                return []

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        environ = dict(os.environ)
        cli.run_roster(tiny_config(tmp_path), ["none"], tmp_path)
        assert seen == [dict.fromkeys(blas_vars, "1")]
        assert dict(os.environ) == environ

    def test_unreadable_csv_exits_2_before_writing(self, tmp_path, capsys):
        csv_path = tmp_path / "absent.csv"
        cfg = tiny_config(tmp_path / "ablation").to_dict()
        cfg["dataset"] = {"csv_path": str(csv_path)}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["ablate", "--config", str(tmp_path / "cfg.json")]) == 2
        assert str(csv_path) in capsys.readouterr().err
        assert not (tmp_path / "ablation").exists()
