import json
import math

import numpy as np
import pytest

from inflow.data import (
    SeriesDataset,
    SyntheticConfig,
    generate_synthetic,
    load_csv,
    make_windows,
    save_csv,
    split_windows,
    window_anchors,
    zscore_fit_apply,
)
from inflow.errors import ConfigError


def make_dataset(total, train_end, val_end, num_variates=1, seed=0):
    rng = np.random.default_rng(seed)
    return SeriesDataset(
        values=rng.normal(size=(total, num_variates)),
        train_end=train_end,
        val_end=val_end,
    )


def loop_synthetic(cfg):
    """The generator as a loop over segments with four scalar `uniform` calls
    each: the reference generate_synthetic must equal bit for bit."""
    num_segments = math.ceil(cfg.total_length / cfg.tau)
    values = np.empty((cfg.total_length, cfg.num_series))
    segments = []
    for d in range(cfg.num_series):
        rng = np.random.default_rng([cfg.seed, d])
        series = []
        for u in range(num_segments):
            start = u * cfg.tau
            stop = min(start + cfg.tau, cfg.total_length)
            amp = rng.uniform(*cfg.amplitude_range)
            period = rng.uniform(*cfg.period_range)
            if cfg.min_period is not None:
                period = max(period, cfg.min_period)
            phase = rng.uniform(*cfg.phase_range)
            scale = math.ceil((start + 1) / 100)
            level = rng.uniform(*sorted((-scale * cfg.level_scale[0],
                                         -scale * cfg.level_scale[1])))
            t = np.arange(start + 1, stop + 1, dtype=np.float64)
            values[start:stop, d] = amp * np.cos(2.0 * np.pi * t / period + phase) + level
            series.append({"start": start, "stop": stop, "amplitude": amp,
                           "period": period, "phase": phase, "level": level})
        segments.append(series)
    return values, segments


def generated_segments(cfg):
    """The oracle's segment parameters, once generate_synthetic is checked to draw
    the oracle's values: the generator keeps no per-segment record of its own."""
    values, segments = loop_synthetic(cfg)
    assert generate_synthetic(cfg).values.tobytes() == values.tobytes()
    return segments


SYNTHETIC_CASES = [
    *(SyntheticConfig.preset(name, seed=seed)
      for name in ("synthetic-1", "synthetic-2", "synthetic-3") for seed in (0, 1, 7)),
    SyntheticConfig(tau=24, total_length=1001, seed=2),  # a short last segment
    SyntheticConfig(tau=2, total_length=2000, seed=7, min_period=None),
    SyntheticConfig(tau=12, total_length=500, num_series=1, seed=3),
]


class TestSynthetic:
    @pytest.mark.parametrize("cfg", SYNTHETIC_CASES,
                             ids=[f"tau{c.tau}-T{c.total_length}-D{c.num_series}-seed{c.seed}"
                                  f"-minp{c.min_period}" for c in SYNTHETIC_CASES])
    def test_equals_the_segment_loop_bit_for_bit(self, cfg):
        values, _ = loop_synthetic(cfg)
        ds = generate_synthetic(cfg)
        assert ds.values.shape == values.shape
        assert ds.values.tobytes() == values.tobytes()
        json.dumps(ds.provenance)

    def test_preset_segment_layout(self):
        cfg = SyntheticConfig.preset("synthetic-1", seed=1)
        assert cfg.tau == 24
        segments = generated_segments(cfg)[0]
        assert len(segments) == 417
        assert segments[-1]["stop"] - segments[-1]["start"] == 16

    def test_preset_names(self):
        assert SyntheticConfig.preset("synthetic-2").tau == 12
        assert SyntheticConfig.preset("synthetic-3").tau == 48
        with pytest.raises(ConfigError):
            SyntheticConfig.preset("synthetic-9")

    def test_values_follow_cosine_law(self):
        cfg = SyntheticConfig(tau=10, total_length=200, num_series=2, seed=3)
        ds = generate_synthetic(cfg)
        for d, series in enumerate(generated_segments(cfg)):
            for seg in series:
                t = np.arange(seg["start"] + 1, seg["stop"] + 1, dtype=float)
                expected = (seg["amplitude"]
                            * np.cos(2 * np.pi * t / seg["period"] + seg["phase"])
                            + seg["level"])
                np.testing.assert_array_equal(ds.values[seg["start"]:seg["stop"], d],
                                              expected)

    def test_periodicity_within_segment(self):
        cfg = SyntheticConfig(tau=50, total_length=100, seed=4)
        seg = generated_segments(cfg)[0][0]
        period = seg["period"]
        t = float(seg["start"] + 1)
        law = lambda ts: (seg["amplitude"]
                          * math.cos(2 * math.pi * ts / period + seg["phase"])
                          + seg["level"])
        assert law(t + period) == pytest.approx(law(t), rel=1e-9)

    def test_determinism(self):
        cfg = SyntheticConfig(tau=12, total_length=500, num_series=3, seed=9)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert np.array_equal(a.values, b.values)
        c = generate_synthetic(SyntheticConfig(tau=12, total_length=500,
                                               num_series=3, seed=10))
        assert not np.array_equal(a.values, c.values)

    def test_series_are_distinct(self):
        ds = generate_synthetic(SyntheticConfig(tau=12, total_length=300,
                                                num_series=2, seed=5))
        assert not np.array_equal(ds.values[:, 0], ds.values[:, 1])

    def test_split_is_6_2_2(self):
        ds = generate_synthetic(SyntheticConfig(tau=24, seed=0))
        assert (ds.train_end, ds.val_end, ds.num_steps) == (6000, 8000, 10000)
        small = generate_synthetic(SyntheticConfig(tau=5, total_length=100, seed=0))
        assert (small.train_end, small.val_end) == (60, 80)

    def test_level_range_drifts_down_with_time(self):
        cfg = SyntheticConfig(tau=10, total_length=1000, num_series=4, seed=6)
        for series in generated_segments(cfg):
            for seg in series:
                scale = math.ceil((seg["start"] + 1) / 100)
                assert -100 * scale <= seg["level"] <= -50 * scale

    def test_period_clamped_by_default(self):
        cfg = SyntheticConfig(tau=2, total_length=2000, seed=7)
        periods = [s["period"] for s in generated_segments(cfg)[0]]
        assert min(periods) >= 2.0
        raw = SyntheticConfig(tau=2, total_length=2000, seed=7, min_period=None)
        raw_periods = [s["period"] for s in generated_segments(raw)[0]]
        assert min(raw_periods) < 2.0

    def test_tau_longer_than_series_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(tau=200, total_length=100)

    def test_csv_roundtrip_bytes(self, tmp_path):
        cfg = SyntheticConfig(tau=12, total_length=100, num_series=2, seed=8)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(generate_synthetic(cfg), p1)
        save_csv(generate_synthetic(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = load_csv(p1)
        np.testing.assert_array_equal(loaded.values, generate_synthetic(cfg).values)


class TestLoadCsv:
    def write(self, tmp_path, text):
        p = tmp_path / "data.csv"
        p.write_text(text, encoding="utf-8")
        return p

    def test_split_arithmetic(self, tmp_path):
        rows = "\n".join(f"{i},{i * 2},{i * 3}" for i in range(10))
        p = self.write(tmp_path, "a,b,c\n" + rows + "\n")
        ds = load_csv(p)
        assert (ds.train_end, ds.val_end) == (6, 8)
        assert ds.num_variates == 3

    def test_weather_style_ratio(self, tmp_path):
        rows = "\n".join(str(i) for i in range(10))
        p = self.write(tmp_path, "a\n" + rows + "\n")
        ds = load_csv(p, split_ratio=(7, 1, 2))
        assert (ds.train_end, ds.val_end) == (7, 8)

    def test_column_subset(self, tmp_path):
        rows = "\n".join(",".join(str(i + j) for j in range(5)) for i in range(6))
        p = self.write(tmp_path, "a,b,c,d,e\n" + rows + "\n")
        ds = load_csv(p, columns=["b", "d"])
        assert ds.num_variates == 2
        assert ds.columns == ["b", "d"]

    def test_missing_column_named(self, tmp_path):
        p = self.write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(ConfigError, match="zz"):
            load_csv(p, columns=["a", "zz"])

    def test_non_numeric_cell_located(self, tmp_path):
        p = self.write(tmp_path, "a,b\n1,2\n3,oops\n")
        with pytest.raises(ConfigError, match=r"row 3.*'b'"):
            load_csv(p)

    def test_nan_cell_rejected(self, tmp_path):
        p = self.write(tmp_path, "a\n1\nnan\n")
        with pytest.raises(ConfigError, match="row 3"):
            load_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = self.write(tmp_path, "")
        with pytest.raises(ConfigError):
            load_csv(p)


class TestWindows:
    def test_anchor_enumeration(self):
        assert window_anchors(0, 10, 3, 2) == [3, 4, 5, 6, 7, 8]

    def test_exact_fit_single_window(self):
        assert window_anchors(0, 5, 3, 2) == [3]

    def test_window_contents_reconstruct_series(self):
        ds = make_dataset(40, 20, 30, num_variates=2)
        for w in make_windows(ds, lookback=4, horizon=3):
            stitched = np.concatenate([w.x, w.y])
            np.testing.assert_array_equal(
                stitched, ds.values[w.anchor - 4:w.anchor + 3]
            )

    def test_bilevel_cut_is_90_10_contiguous(self):
        # 104-step train region with L=3, H=2 gives exactly 100 anchors
        ds = make_dataset(114, 104, 109)
        groups = split_windows(make_windows(ds, 3, 2, use_bilevel=True))
        assert len(groups["inner_train"]) == 90
        assert len(groups["outer_val"]) == 10
        inner_anchors = [w.anchor for w in groups["inner_train"]]
        outer_anchors = [w.anchor for w in groups["outer_val"]]
        assert inner_anchors == sorted(inner_anchors)
        assert max(inner_anchors) < min(outer_anchors)

    def test_without_bilevel_all_train_windows_inner(self):
        ds = make_dataset(40, 20, 30)
        groups = split_windows(make_windows(ds, 3, 2, use_bilevel=False))
        assert groups["outer_val"] == []
        assert len(groups["inner_train"]) == 16

    def test_region_too_short_names_region(self):
        ds = make_dataset(40, 20, 24)
        with pytest.raises(ConfigError, match="'val'"):
            make_windows(ds, 4, 3)

    def test_windows_are_read_only_views_of_the_series(self):
        ds = make_dataset(40, 20, 30, num_variates=2)
        before = ds.values.copy()
        first, second = make_windows(ds, lookback=4, horizon=3)[:2]
        next_x = second.x.copy()
        assert np.shares_memory(first.x, ds.values) and np.shares_memory(first.y, ds.values)
        for arr in (first.x, first.y):
            with pytest.raises(ValueError):
                arr[:] = 99.0
        np.testing.assert_array_equal(ds.values, before)
        np.testing.assert_array_equal(second.x, next_x)

    def test_split_tags_partition_regions(self):
        ds = make_dataset(60, 30, 45)
        groups = split_windows(make_windows(ds, 4, 2, use_bilevel=True))
        for w in groups["val"]:
            assert 30 + 4 <= w.anchor <= 45 - 2
        for w in groups["test"]:
            assert 45 + 4 <= w.anchor <= 60 - 2


class TestZScore:
    def test_hand_arithmetic(self):
        values = np.array([[0.0], [10.0], [3.0], [4.0]])
        ds = SeriesDataset(values=values, train_end=2, val_end=3)
        out, stats = zscore_fit_apply(ds)
        assert stats.mean[0] == 5.0 and stats.std[0] == 5.0
        np.testing.assert_allclose(out.values[:2, 0], [-1.0, 1.0])
        assert out.zscored

    def test_roundtrip(self):
        ds = make_dataset(50, 30, 40, num_variates=3, seed=1)
        out, stats = zscore_fit_apply(ds)
        np.testing.assert_allclose(stats.inverse(out.values), ds.values, atol=1e-9)

    def test_already_standardized_is_near_identity(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=(5000, 1))
        ds = SeriesDataset(values=vals, train_end=4000, val_end=4500)
        out, stats = zscore_fit_apply(ds)
        assert abs(stats.mean[0]) < 0.1 and abs(stats.std[0] - 1.0) < 0.1

    def test_zero_variance_names_column(self):
        values = np.column_stack([np.ones(20), np.arange(20.0)])
        ds = SeriesDataset(values=values, train_end=10, val_end=15,
                           columns=["flat", "ramp"])
        with pytest.raises(ConfigError, match="flat"):
            zscore_fit_apply(ds)

    def test_no_leakage_from_test_region(self):
        ds = make_dataset(60, 30, 45, seed=3)
        _, stats_a = zscore_fit_apply(ds)
        tampered = SeriesDataset(values=ds.values.copy(), train_end=30, val_end=45)
        tampered.values[50:] += 1000.0
        windows_a = make_windows(ds, 3, 2, use_bilevel=True)
        windows_b = make_windows(tampered, 3, 2, use_bilevel=True)
        _, stats_b = zscore_fit_apply(tampered)
        np.testing.assert_array_equal(stats_a.mean, stats_b.mean)
        np.testing.assert_array_equal(stats_a.std, stats_b.std)
        tags_a = [(w.anchor, w.split) for w in windows_a]
        tags_b = [(w.anchor, w.split) for w in windows_b]
        assert tags_a == tags_b
