import contextlib
import dataclasses
import errno
import io
import itertools
import json
import os
import shutil
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import capeskit.attention as attn
import capeskit.cli as cli
from capeskit import ensemble, grid
from capeskit.attention import AttentionConfig
from capeskit.cli import ATTN_BENCH, GENERATE, GRAD_CHECK, SCALING, _cfg_for_length, main
from capeskit.errors import CapeskitError
from capeskit.grid import (
    AnomalyField,
    GridField,
    GridSpec,
    read_grid,
    write_anomaly,
    write_grid,
)

SPEC = GridSpec(2, 2)


@pytest.fixture(autouse=True)
def no_thread_outlives_a_test():
    """A command leaves no thread behind: a writer thread that is not
    joined fails the test that started it."""
    before = threading.active_count()
    yield
    assert threading.active_count() <= before, threading.enumerate()


def write_mm(path, values, spec=SPEC):
    write_grid(GridField(spec, values, units="mm"), path)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


@pytest.fixture
def score_files(tmp_path):
    # anomalies vs clim=100: obs [30,-60,10,120], forecast [25,-55,-5,40]
    write_mm(tmp_path / "clim.grd", [[100.0, 100.0], [100.0, 100.0]])
    write_mm(tmp_path / "obs.grd", [[130.0, 40.0], [110.0, 220.0]])
    write_mm(tmp_path / "fc.grd", [[125.0, 45.0], [95.0, 140.0]])
    return tmp_path


class TestScore:
    def test_perfect_forecast(self, tmp_path, score_files):
        out = tmp_path / "scores.csv"
        rc = main(["score", "--forecast", str(tmp_path / "obs.grd"),
                   "--obs", str(tmp_path / "obs.grd"),
                   "--clim", str(tmp_path / "clim.grd"), "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["N", "N0", "N1", "N2", "M", "PS", "ACC", "RMSE"]
        assert rows[0][5] == "100.000"
        assert rows[0][7] == "0.000"

    def test_worked_example(self, tmp_path, score_files):
        out = tmp_path / "scores.csv"
        rc = main(["score", "--forecast", str(tmp_path / "fc.grd"),
                   "--obs", str(tmp_path / "obs.grd"),
                   "--clim", str(tmp_path / "clim.grd"), "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        n, n0, n1, n2, m, ps = rows[0][:6]
        assert [n, n0, n1, n2, m] == ["4", "3", "1", "1", "1"]
        assert ps == "85.714"
        assert (tmp_path / "scores.csv.manifest.json").exists()

    def test_temp_files_of_a_killed_run_with_this_pid_are_not_in_the_way(self, tmp_path,
                                                                          score_files):
        # a run killed before its renames, whose process had this one's id
        stale = [tmp_path / f".{name}.{os.getpid()}.tmp"
                 for name in ("scores.csv", "scores.csv.manifest.json")]
        for path in stale:
            path.write_bytes(b"stale\n")
        rc = main(["score", "--forecast", str(tmp_path / "fc.grd"),
                   "--obs", str(tmp_path / "obs.grd"),
                   "--clim", str(tmp_path / "clim.grd"), "--out", str(tmp_path / "scores.csv")])
        assert rc == 0
        assert read_csv(tmp_path / "scores.csv")[1][0][5] == "85.714"
        assert (tmp_path / "scores.csv.manifest.json").exists()
        assert sorted(tmp_path.glob(".*.tmp")) == sorted(stale)  # this run left none
        assert all(path.read_bytes() == b"stale\n" for path in stale)

    def test_mismatched_grids_exit_2(self, tmp_path, score_files):
        write_mm(tmp_path / "small.grd", [[1.0]], spec=GridSpec(1, 1))
        rc = main(["score", "--forecast", str(tmp_path / "small.grd"),
                   "--obs", str(tmp_path / "obs.grd"),
                   "--clim", str(tmp_path / "clim.grd"),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_missing_file_names_path(self, tmp_path, capsys):
        rc = main(["score", "--forecast", str(tmp_path / "nope.grd"),
                   "--obs", str(tmp_path / "nope.grd"),
                   "--clim", str(tmp_path / "nope.grd"),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "nope.grd" in capsys.readouterr().err

    def test_clim_floor_flag(self, tmp_path, score_files):
        # zero climatology: floor dominates the anomaly denominators
        write_mm(tmp_path / "zclim.grd", [[0.0, 0.0], [0.0, 0.0]])
        out = tmp_path / "scores.csv"
        rc = main(["score", "--forecast", str(tmp_path / "obs.grd"),
                   "--obs", str(tmp_path / "obs.grd"),
                   "--clim", str(tmp_path / "zclim.grd"),
                   "--clim-floor", "50.0", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((tmp_path / "scores.csv.manifest.json").read_text())
        assert manifest["config"]["clim_floor"] == 50.0
        rc = main(["score", "--forecast", str(tmp_path / "obs.grd"),
                   "--obs", str(tmp_path / "obs.grd"),
                   "--clim", str(tmp_path / "zclim.grd"),
                   "--clim-floor", "0", "--out", str(out)])
        assert rc == 2

    def test_mask(self, tmp_path, score_files):
        write_grid(GridField(SPEC, [[1.0, 1.0], [0.0, 0.0]], units="unitless"),
                   tmp_path / "mask.grd")
        out = tmp_path / "scores.csv"
        rc = main(["score", "--forecast", str(tmp_path / "fc.grd"),
                   "--obs", str(tmp_path / "obs.grd"),
                   "--clim", str(tmp_path / "clim.grd"),
                   "--mask", str(tmp_path / "mask.grd"), "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert rows[0][0] == "2"


def make_member_dir(tmp_path, fields):
    from capeskit.ensemble import write_ensemble_dir
    from capeskit.fusion import EnsembleSet, MemberMeta

    members = []
    for i, vals in enumerate(fields):
        meta = MemberMeta(id=f"ai-{i:04d}", track="ai", init_seed=i, latent_seed=i)
        members.append((meta, AnomalyField(SPEC, vals)))
    d = tmp_path / "ens"
    write_ensemble_dir(d, EnsembleSet.from_members(members))
    return d


class TestFuse:
    def test_single_member_identity(self, tmp_path):
        vals = np.array([[30.0, -40.0], [5.0, 90.0]])
        d = make_member_dir(tmp_path, [vals])
        rc = main(["fuse", "--ensemble-dir", str(d),
                   "--out-field", str(tmp_path / "fused.grd"),
                   "--out-weights", str(tmp_path / "w.csv")])
        assert rc == 0
        fused = read_grid(tmp_path / "fused.grd")
        assert np.array_equal(fused.values, vals)

    def test_duplicate_members_uniform_weights(self, tmp_path):
        vals = np.array([[30.0, -40.0], [5.0, 90.0]])
        d = make_member_dir(tmp_path, [vals, vals, vals])
        rc = main(["fuse", "--ensemble-dir", str(d),
                   "--out-field", str(tmp_path / "fused.grd"),
                   "--out-weights", str(tmp_path / "w.csv")])
        assert rc == 0
        header, rows = read_csv(tmp_path / "w.csv")
        assert header == ["member_id", "track", "s1", "s2", "weight"]
        weights = [float(r[4]) for r in rows]
        assert weights == pytest.approx([1 / 3] * 3, abs=1e-6)

    def test_sign_flipped_member_gets_smallest_weight(self, tmp_path):
        base = np.array([[40.0, -30.0], [25.0, 110.0]])
        d = make_member_dir(tmp_path, [base, base * 1.1, -base])
        rc = main(["fuse", "--ensemble-dir", str(d),
                   "--out-field", str(tmp_path / "fused.grd"),
                   "--out-weights", str(tmp_path / "w.csv")])
        assert rc == 0
        _, rows = read_csv(tmp_path / "w.csv")
        weights = {r[0]: float(r[4]) for r in rows}
        flipped = weights["ai-0002"]
        assert all(flipped < w for mid, w in weights.items() if mid != "ai-0002")

    def test_missing_dir_exit_2(self, tmp_path):
        rc = main(["fuse", "--ensemble-dir", str(tmp_path / "nothing"),
                   "--out-field", str(tmp_path / "f.grd"),
                   "--out-weights", str(tmp_path / "w.csv")])
        assert rc == 2

    def test_weights_csv_round_trips_into_fuse(self, tmp_path):
        # emitted weights must satisfy fuse()'s own normalization contract
        rng = np.random.default_rng(3)
        fields = [rng.uniform(-100, 100, (2, 2)) for _ in range(150)]
        d = make_member_dir(tmp_path, fields)
        rc = main(["fuse", "--ensemble-dir", str(d),
                   "--out-field", str(tmp_path / "fused.grd"),
                   "--out-weights", str(tmp_path / "w.csv")])
        assert rc == 0
        _, rows = read_csv(tmp_path / "w.csv")
        weights = np.array([float(r[4]) for r in rows])
        from capeskit.ensemble import read_ensemble_dir
        from capeskit.fusion import fuse as fuse_op

        refused = fuse_op(read_ensemble_dir(d), weights)
        assert np.array_equal(refused.values, read_grid(tmp_path / "fused.grd").values)


GEN_CONFIG = """
# degenerate hybrid layout
nlat = 16
nlon = 16
n_init = 2
n_latent = 2
start_dates = d0
schemes = s0
param_grid = 1x1
"""


class TestGenerate:
    def test_degenerate_hybrid_counts(self, tmp_path):
        cfgp = tmp_path / "gen.cfg"
        cfgp.write_text(GEN_CONFIG)
        out = tmp_path / "ens"
        rc = main(["generate", "--mode", "hybrid", "--seed", "5",
                   "--config", str(cfgp), "--out-dir", str(out)])
        assert rc == 0
        grds = sorted(p.name for p in out.glob("*.grd"))
        assert len(grds) == 6  # 2 numerical + 4 ai
        assert (out / "manifest.tsv").exists()
        manifest = json.loads((tmp_path / "ens.manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["base_seed"] == 5

    def test_same_seed_byte_identical_trees(self, tmp_path):
        cfgp = tmp_path / "gen.cfg"
        cfgp.write_text(GEN_CONFIG)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["generate", "--mode", "hybrid", "--seed", "9",
                       "--config", str(cfgp), "--out-dir", str(out)])
            assert rc == 0
            outs.append(out)
        fa = sorted(p.name for p in outs[0].iterdir())
        fb = sorted(p.name for p in outs[1].iterdir())
        assert fa == fb
        for name in fa:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_numerical_over_hybrid_leaves_only_the_new_members(self, tmp_path):
        cfgp = tmp_path / "gen.cfg"
        cfgp.write_text(GEN_CONFIG)
        out = tmp_path / "ens"
        for mode in ("hybrid", "numerical"):
            assert main(["generate", "--mode", mode, "--seed", "5",
                         "--config", str(cfgp), "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.tsv", "num-d0-p0-0.grd", "num-d0-s0.grd"]

    @pytest.mark.parametrize("old", [b"m0\trowboat\t\n", b"m0\tai\tinit_seed=\xff\n"])
    def test_unreadable_old_manifest_is_no_error_and_removes_nothing(self, tmp_path, old):
        cfgp = tmp_path / "gen.cfg"
        cfgp.write_text(GEN_CONFIG)
        out = tmp_path / "ens"
        out.mkdir()
        (out / "manifest.tsv").write_bytes(old)
        (out / "m0.grd").write_text("mine\n")
        assert main(["generate", "--mode", "numerical", "--seed", "5",
                     "--config", str(cfgp), "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "m0.grd", "manifest.tsv", "num-d0-p0-0.grd", "num-d0-s0.grd"]

    def test_ai_mode_only(self, tmp_path):
        cfgp = tmp_path / "gen.cfg"
        cfgp.write_text(GEN_CONFIG)
        out = tmp_path / "ens"
        rc = main(["generate", "--mode", "ai", "--seed", "1",
                   "--config", str(cfgp), "--out-dir", str(out)])
        assert rc == 0
        assert len(list(out.glob("*.grd"))) == 4

    def test_bad_config_exit_2(self, tmp_path):
        cfgp = tmp_path / "gen.cfg"
        cfgp.write_text("nlat = not-a-number\n")
        rc = main(["generate", "--mode", "ai", "--config", str(cfgp),
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 2

    def test_unknown_key_exit_2(self, tmp_path):
        cfgp = tmp_path / "gen.cfg"
        cfgp.write_text("nlta = 16\n")
        rc = main(["generate", "--mode", "ai", "--config", str(cfgp),
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 2


class TestAttnBench:
    def test_flop_csv_ratios(self, tmp_path):
        out = tmp_path / "flops.csv"
        rc = main(["attn-bench", "--lengths", "48,96", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["level", "L", "flops"]
        table = {(r[0], int(r[1])): int(r[2]) for r in rows}
        assert table[("tri_level", 96)] == 2 * table[("tri_level", 48)]
        assert table[("dense", 96)] == 4 * table[("dense", 48)]

    def test_unrealizable_length_exit_2(self, tmp_path):
        rc = main(["attn-bench", "--lengths", "50", "--out", str(tmp_path / "f.csv")])
        assert rc == 2

    @pytest.mark.parametrize("window,domains,layout", [
        (1, 3, "sequence_concat"), (2, 3, "sequence_concat"), (3, 2, "sequence_concat"),
        (2, 3, "channel_stack"), (4, 1, "sequence_concat"),
    ])
    def test_tiling_is_the_most_square_grid(self, window, domains, layout):
        base = {f.name: f.default for f in dataclasses.fields(AttentionConfig)
                if f.name not in ("nlat", "nlon", "num_layers")}
        base.update(window_size=window, num_domains=domains, layout=layout)
        p = base["patch_size"]
        for length in range(-4, 800):
            # every multiple-of-window row count, closest to square, first on ties
            v = domains if layout == "sequence_concat" else 1
            best = None
            if length % v == 0:
                patches = length // v
                for a in range(window, patches + 1, window):
                    b = patches // a
                    if patches % a == 0 and b % window == 0 and (
                            best is None or abs(a - b) < abs(best[0] - best[1])):
                        best = (a, b)
            if best is None:
                with pytest.raises(CapeskitError):
                    _cfg_for_length(length, base)
            else:
                cfg = _cfg_for_length(length, base)
                assert (cfg.nlat, cfg.nlon) == (best[0] * p, best[1] * p)
                assert cfg.seq_len == length


class TestGradCheckCmd:
    def test_default_toy_passes(self, capsys):
        rc = main(["grad-check", "--seed", "3"])
        assert rc == 0
        assert "max relative error" in capsys.readouterr().out

    def test_non_divisible_grid_exit_2(self, tmp_path):
        cfgp = tmp_path / "g.cfg"
        cfgp.write_text("nlat = 20\n")
        rc = main(["grad-check", "--config", str(cfgp)])
        assert rc == 2


SCALING_CONFIG = """
sizes = 11,22
trials = 2
n_numerical = 4
n_ai = 40
"""


class TestScalingCmd:
    def test_csv_and_svg(self, tmp_path):
        cfgp = tmp_path / "s.cfg"
        cfgp.write_text(SCALING_CONFIG)
        out = tmp_path / "curve.csv"
        svg = tmp_path / "curve.svg"
        rc = main(["scaling", "--config", str(cfgp), "--seed", "2",
                   "--out", str(out), "--svg", str(svg)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["size", "n_num", "n_ai", "trials",
                          "ps_mean", "ps_std", "acc_mean", "acc_std"]
        assert [r[0] for r in rows] == ["11", "22"]
        assert svg.read_text().startswith("<svg")

    def test_rerun_byte_identical_csv(self, tmp_path):
        cfgp = tmp_path / "s.cfg"
        cfgp.write_text(SCALING_CONFIG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["scaling", "--config", str(cfgp), "--seed", "2", "--out", str(a)]) == 0
        assert main(["scaling", "--config", str(cfgp), "--seed", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_capeskit_threads_is_not_read(self, tmp_path, monkeypatch):
        # nothing reads the variable, so even a non-integer changes nothing
        cfgp = tmp_path / "s.cfg"
        cfgp.write_text("sizes = 11,22,44\ntrials = 8\nn_numerical = 8\nn_ai = 80\n")
        outputs = []
        for threads in (None, "2", "abc"):
            if threads is None:
                monkeypatch.delenv("CAPESKIT_THREADS", raising=False)
            else:
                monkeypatch.setenv("CAPESKIT_THREADS", threads)
            out = tmp_path / f"threads-{threads}"
            out.mkdir()
            rc, err = run_cli(["scaling", "--config", str(cfgp), "--seed", "4",
                               "--out", str(out / "c.csv"), "--svg", str(out / "c.svg")])
            assert rc == 0, err
            outputs.append([(out / name).read_bytes() for name in ("c.csv", "c.svg")])
        assert outputs[0] == outputs[1] == outputs[2]


class TestRender:
    def test_zero_field_single_color_with_legend(self, tmp_path):
        write_anomaly(AnomalyField(SPEC, np.zeros((2, 2))), tmp_path / "a.grd")
        svg = tmp_path / "a.svg"
        rc = main(["render", "--field", str(tmp_path / "a.grd"), "--svg", str(svg)])
        assert rc == 0
        text = svg.read_text()
        cell_colors = {seg.split('fill="')[1][:7]
                       for seg in text.split("<rect")[2:6]}
        assert len(cell_colors) == 1
        assert "anomaly %" in text
        for thr in ("+20", "+50", "+100", "-20", "-50", "-100"):
            assert thr in text

    def test_byte_identical_rerun(self, tmp_path):
        rng = np.random.default_rng(0)
        write_anomaly(AnomalyField(SPEC, rng.uniform(-140, 140, (2, 2))),
                      tmp_path / "a.grd")
        s1, s2 = tmp_path / "1.svg", tmp_path / "2.svg"
        assert main(["render", "--field", str(tmp_path / "a.grd"), "--svg", str(s1)]) == 0
        assert main(["render", "--field", str(tmp_path / "a.grd"), "--svg", str(s2)]) == 0
        assert s1.read_bytes() == s2.read_bytes()

    def test_mm_field_rejected(self, tmp_path):
        write_mm(tmp_path / "m.grd", [[1.0, 2.0], [3.0, 4.0]])
        rc = main(["render", "--field", str(tmp_path / "m.grd"),
                   "--svg", str(tmp_path / "m.svg")])
        assert rc == 2


class TestPipeline:
    def test_generate_fuse_score_render_chain(self, tmp_path):
        cfgp = tmp_path / "gen.cfg"
        cfgp.write_text(GEN_CONFIG)
        ens = tmp_path / "ens"
        assert main(["generate", "--mode", "hybrid", "--seed", "3",
                     "--config", str(cfgp), "--out-dir", str(ens)]) == 0

        fused = tmp_path / "fused.grd"
        assert main(["fuse", "--ensemble-dir", str(ens),
                     "--out-field", str(fused),
                     "--out-weights", str(tmp_path / "w.csv")]) == 0

        # convert the fused anomaly and a truth pattern back to mm, then score
        from capeskit.scaling import truth_pattern
        from capeskit.seeds import mix

        spec = GridSpec(16, 16)
        clim_mm = 300.0
        write_mm(tmp_path / "clim.grd", np.full((16, 16), clim_mm), spec=spec)
        fused_anom = read_grid(fused)
        write_mm(tmp_path / "forecast.grd",
                 clim_mm * (1.0 + fused_anom.values / 100.0), spec=spec)
        truth = truth_pattern(spec, mix(3, "truth"), 130.0, 3.0)
        write_mm(tmp_path / "obs.grd",
                 clim_mm * (1.0 + truth.values / 100.0), spec=spec)
        out = tmp_path / "scores.csv"
        assert main(["score", "--forecast", str(tmp_path / "forecast.grd"),
                     "--obs", str(tmp_path / "obs.grd"),
                     "--clim", str(tmp_path / "clim.grd"), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        ps = float(rows[0][5])
        assert 0.0 <= ps <= 100.0

        assert main(["render", "--field", str(fused),
                     "--svg", str(tmp_path / "fused.svg")]) == 0
        assert (tmp_path / "fused.svg").read_text().startswith("<svg")


class TestConfigParsing:
    def test_comments_and_whitespace(self):
        from capeskit.config import parse_config_text

        cfg = parse_config_text("# full comment\n a = 1 # trailing\n\nb=two\n")
        assert cfg == {"a": "1", "b": "two"}

    def test_duplicate_key_rejected(self):
        from capeskit.config import parse_config_text
        from capeskit.errors import CapeskitError

        with pytest.raises(CapeskitError):
            parse_config_text("a = 1\na = 2\n")

    def test_missing_equals_rejected(self):
        from capeskit.config import parse_config_text
        from capeskit.errors import CapeskitError

        with pytest.raises(CapeskitError):
            parse_config_text("just-a-token\n")


# Each command's config keys, as the schema in capeskit.cli binds them.
KEY_SETS = {
    "generate": {
        "nlat", "nlon", "clim_mm", "n_init", "n_latent", "field_sigma",
        "spectral_slope", "latent_sigma", "start_dates", "schemes", "param_grid",
        "truth_amplitude", "truth_slope", "bias_sigma", "noise_sigma",
        "embed_dim", "num_heads", "num_layers", "patch_size", "window_size",
        "num_anchors", "num_domains", "channels", "layout",
    },
    "attn-bench": {
        "embed_dim", "num_heads", "patch_size", "window_size",
        "num_anchors", "num_domains", "channels", "layout",
    },
    "grad-check": {
        "embed_dim", "num_heads", "patch_size", "window_size", "num_anchors",
        "num_domains", "channels", "layout", "nlat", "nlon", "num_layers", "probes", "step",
    },
    "scaling": {
        "sizes", "ratio", "trials", "nlat", "nlon", "clim_mm", "amplitude",
        "slope", "n_numerical", "n_ai", "alpha", "bias_sigma_numerical",
        "noise_sigma_numerical", "bias_sigma_ai", "noise_sigma_ai",
    },
}

SCHEMAS = {"generate": GENERATE, "attn-bench": ATTN_BENCH,
           "grad-check": GRAD_CHECK, "scaling": SCALING}

# Small base configs, and every other accepted key written out at its default.
BASE_AND_DEFAULTS = {
    "generate": (
        "nlat = 16\nnlon = 16\nn_init = 2\nn_latent = 2\n",
        """
clim_mm = 300.0
field_sigma = 5.0
spectral_slope = 3.0
latent_sigma = 0.1
start_dates = 0301,0311,0321
schemes = s0,s1,s2,s3,s4,s5,s6,s7,s8
param_grid = 7x7
truth_amplitude = 130.0
truth_slope = 3.0
bias_sigma = 15.0
noise_sigma = 40.0
embed_dim = 32
num_heads = 4
num_layers = 2
patch_size = 8
window_size = 2
num_anchors = 8
num_domains = 3
channels = 4
layout = sequence_concat
""",
    ),
    "scaling": (
        SCALING_CONFIG,
        """
ratio = 1:10
nlat = 32
nlon = 32
clim_mm = 300.0
amplitude = 130.0
slope = 3.0
alpha = 0.5
bias_sigma_numerical = 15.0
noise_sigma_numerical = 40.0
bias_sigma_ai = 15.0
noise_sigma_ai = 40.0
""",
    ),
    "attn-bench": (
        "",
        """
embed_dim = 32
num_heads = 4
patch_size = 8
window_size = 2
num_anchors = 8
num_domains = 3
channels = 4
layout = sequence_concat
""",
    ),
    "grad-check": (
        "",
        """
embed_dim = 32
num_heads = 4
patch_size = 8
window_size = 2
num_anchors = 8
num_domains = 3
channels = 4
layout = sequence_concat
nlat = 32
nlon = 32
num_layers = 2
probes = 20
step = 1e-05
""",
    ),
}


def _command_argv(command, out):
    """argv of one small run of ``command`` writing under ``out``."""
    return {
        "generate": ["generate", "--mode", "hybrid", "--seed", "5", "--out-dir", str(out / "ens")],
        "scaling": ["scaling", "--seed", "2", "--out", str(out / "c.csv"),
                    "--svg", str(out / "c.svg")],
        "attn-bench": ["attn-bench", "--lengths", "48,96", "--out", str(out / "f.csv")],
        "grad-check": ["grad-check", "--seed", "3"],
    }[command]


def _run_outputs(command, out, cfg_text, capsys):
    """Exit code, output file bytes, manifest config and stdout of one run."""
    out.mkdir()
    cfgp = out / "run.cfg"
    cfgp.write_text(cfg_text)
    rc = main(_command_argv(command, out) + ["--config", str(cfgp)])
    stdout = capsys.readouterr().out.replace(str(out), "<out>")
    files, config = {}, None
    for p in sorted(out.rglob("*")):
        if p.name.endswith(".manifest.json"):
            config = json.loads(p.read_text())["config"]
        elif p.is_file() and p != cfgp:
            files[p.relative_to(out).as_posix()] = p.read_bytes()
    if command == "attn-bench":
        stdout = None  # block timings vary run to run
    return rc, files, config, stdout


class TestConfigSchemas:
    @pytest.mark.parametrize("command", sorted(KEY_SETS))
    def test_pinned_key_sets(self, command):
        from capeskit.config import keys

        names = set(keys(SCHEMAS[command]))
        assert names == KEY_SETS[command]
        assert len(names) == {"generate": 24, "attn-bench": 8,
                              "grad-check": 13, "scaling": 15}[command]

    @pytest.mark.parametrize("command", sorted(KEY_SETS))
    def test_unknown_key_exit_2(self, tmp_path, command, capsys):
        cfgp = tmp_path / "u.cfg"
        cfgp.write_text("not_a_key = 1\n")
        rc = main(_command_argv(command, tmp_path) + ["--config", str(cfgp)])
        assert rc == 2
        assert "unknown keys ['not_a_key']" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(BASE_AND_DEFAULTS))
    def test_defaults_written_out_change_nothing(self, tmp_path, command, capsys):
        from capeskit.config import parse_config_text

        base, defaults = BASE_AND_DEFAULTS[command]
        assert set(parse_config_text(base + defaults)) == KEY_SETS[command]
        a = _run_outputs(command, tmp_path / "base", base, capsys)
        b = _run_outputs(command, tmp_path / "full", base + defaults, capsys)
        assert a[0] == 0
        assert a == b

    def test_numerical_mode_does_not_build_the_backbone(self, tmp_path):
        # 20 is not divisible by the patch size; only the AI track needs that
        cfgp = tmp_path / "n.cfg"
        cfgp.write_text("nlat = 20\nnlon = 20\nstart_dates = d0\nschemes = s0\nparam_grid = 1x1\n")
        rc = main(["generate", "--mode", "numerical", "--config", str(cfgp),
                   "--out-dir", str(tmp_path / "ens")])
        assert rc == 0
        assert len(list((tmp_path / "ens").glob("*.grd"))) == 2


# (argv, config text, message) triples that must exit 2 with one line
# holding the message: bad values reaching a validator, and outputs that
# cannot be written. "{cfg}" is the config file path, "{tmp}" the test's
# scratch directory; it holds the member directory "ens", an mm field "g.grd"
# and an mm climatology "c.grd".
GEN_AI = ["generate", "--mode", "ai", "--config", "{cfg}", "--out-dir", "{tmp}/o"]
ATTN_48 = ["attn-bench", "--lengths", "48", "--config", "{cfg}", "--out", "{tmp}/f.csv"]
TOO_BIG = "do not fit in memory"
BAD_VALUES = [
    (GEN_AI, "nlat = 0\n", "error: grid must be at least 1x1, got 0x32"),
    (GEN_AI, "clim_mm = nan\n",
     "bad.cfg: config key 'clim_mm': expected a finite number, got 'nan'"),
    (GEN_AI, "field_sigma = nan\n",
     "bad.cfg: config key 'field_sigma': expected a finite number, got 'nan'"),
    (["scaling", "--config", "{cfg}", "--out", "{tmp}/c.csv"], "alpha = 2\n",
     "error: alpha must be in [0,1], got 2.0"),
    (["scaling", "--config", "{cfg}", "--out", "{tmp}/c.csv"], "n_ai = -40\n",
     "error: member counts must be >= 0, got 174, -40"),
    (["scaling", "--config", "{cfg}", "--out", "{tmp}/c.csv"], "n_numerical = -4\n",
     "error: member counts must be >= 0, got -4, 1600"),
    (["scaling", "--config", "{cfg}", "--out", "{tmp}/c.csv", "--svg", "{tmp}/c.svg"],
     "sizes = ,\n", "error: sizes must list at least one ensemble size"),
    (["fuse", "--ensemble-dir", "{tmp}/ens", "--alpha", "2",
      "--out-field", "{tmp}/f.grd", "--out-weights", "{tmp}/w.csv"], "",
     "error: alpha must be in [0,1], got 2.0"),
    (ATTN_48, "num_heads = 0\n", "error: num_heads must be >= 1, got 0"),
    (ATTN_48, "patch_size = 0\n", "error: patch_size must be >= 1, got 0"),
    (ATTN_48, "window_size = 0\n", "error: window_size must be >= 1, got 0"),
    (ATTN_48, "embed_dim = 0\n", "error: embed_dim must be >= 1, got 0"),
    (["grad-check", "--config", "{cfg}"], "step = 0\n",
     "error: grad_check needs probe_count >= 1 and step > 0, got 20 and 0.0"),
    (["grad-check", "--config", "{cfg}"], "probes = 0\n",
     "error: grad_check needs probe_count >= 1 and step > 0, got 0 and 1e-05"),
    (["grad-check", "--config", "{cfg}"], "nlat = -16\n", "error: nlat must be >= 1, got -16"),
    (["grad-check", "--config", "{cfg}"], "nlon = 0\n", "error: nlon must be >= 1, got 0"),
    (["score", "--forecast", "{tmp}/g.grd", "--obs", "{tmp}/g.grd", "--clim", "{tmp}/c.grd",
      "--clim-floor", "inf", "--out", "{tmp}/s.csv"], "",
     "error: climatology floor must be finite and positive, got inf"),
    # sizes beyond the address space: every allocation fails at once
    (ATTN_48, "embed_dim = 1099511627776\nnum_heads = 1\n",
     "error: 48 tokens of width 1099511627776 " + TOO_BIG),
    (["grad-check", "--config", "{cfg}"], "embed_dim = 1099511627776\nnum_heads = 1\n",
     "error: out of memory: "),
    # lengths that are not integers
    (["attn-bench", "--lengths", "48,abc", "--out", "{tmp}/f.csv"], "",
     "error: --lengths must list integers, got '48,abc'"),
    (["attn-bench", "--lengths", "48.0", "--out", "{tmp}/f.csv"], "",
     "error: --lengths must list integers, got '48.0'"),
    (["attn-bench", "--lengths", "1e3", "--out", "{tmp}/f.csv"], "",
     "error: --lengths must list integers, got '1e3'"),
    # lengths whose tokens cannot fit in physical memory, rejected before the
    # grid search: one beyond the address space, one just under the old
    # address-space bound (a grid search of seconds), one beyond any float64 array
    (["attn-bench", "--lengths", str(3 * 2**40), "--out", "{tmp}/f.csv"], "",
     f"error: {3 * 2**40} tokens of width 32 " + TOO_BIG),
    (["attn-bench", "--lengths", "34800000000000204", "--out", "{tmp}/f.csv"], "",
     "error: 34800000000000204 tokens of width 32 " + TOO_BIG),
    (["attn-bench", "--lengths", str(12 * 10**18), "--out", "{tmp}/f.csv"], "",
     f"error: {12 * 10**18} tokens of width 32 " + TOO_BIG),
    (GEN_AI, "channels = 1099511627776\n", "error: out of memory: "),
    (["generate", "--mode", "numerical", "--config", "{cfg}", "--out-dir", "{tmp}/o"],
     "nlat = 4294967296\nnlon = 4294967296\n",
     "error: grid 4294967296x4294967296 has too many cells"),
    (["scaling", "--config", "{cfg}", "--out", "{tmp}/c.csv"],
     "nlat = 4294967296\nnlon = 4294967296\n",
     "error: grid 4294967296x4294967296 has too many cells"),
    # member counts whose fields cannot fit: rejected before any member is made
    (["generate", "--mode", "numerical", "--config", "{cfg}", "--out-dir", "{tmp}/o"],
     "param_grid = 1048576x1048576\n", "error: 3298534883355 fields of 32x32 " + TOO_BIG),
    (["scaling", "--config", "{cfg}", "--out", "{tmp}/c.csv"], "n_ai = 1099511627776\n",
     "error: 1099511627950 fields of 32x32 " + TOO_BIG),
    # outputs that cannot be written: a directory at the path, a missing
    # directory, a file where the ensemble directory goes
    (["scaling", "--out", "{tmp}/ens"], "", "error: cannot write {tmp}/ens: Is a directory"),
    (["score", "--forecast", "{tmp}/g.grd", "--obs", "{tmp}/g.grd", "--clim", "{tmp}/c.grd",
      "--out", "{tmp}/nodir/s.csv"], "",
     "error: cannot write {tmp}/nodir/s.csv: No such file or directory"),
    (["fuse", "--ensemble-dir", "{tmp}/ens", "--out-weights", "{tmp}/w.csv",
      "--out-field", "{tmp}/nodir/f.grd"], "",
     "error: cannot write {tmp}/nodir/f.grd: No such file or directory"),
    (["render", "--field", "{tmp}/ens/ai-0000.grd", "--svg", "{tmp}/nodir/a.svg"], "",
     "error: cannot write {tmp}/nodir/a.svg: No such file or directory"),
    (["attn-bench", "--lengths", "48", "--out", "{tmp}/nodir/f.csv"], "",
     "error: cannot write {tmp}/nodir/f.csv: No such file or directory"),
    (["generate", "--mode", "numerical", "--out-dir", "{tmp}/g.grd"], "",
     "error: cannot write {tmp}/g.grd: File exists"),
]


def bad_value_id(argv, cfg_text, message):
    """The command and its bad value: the config text, else the output
    that cannot be written, else the first option given a literal value."""
    if cfg_text.strip():
        return f"{argv[0]}:{cfg_text.strip()}"
    if "cannot write " in message:
        return f"{argv[0]}:{argv[-2]} {argv[-1]}"
    i = next(i for i, a in enumerate(argv[:-1]) if a.startswith("--") and "{" not in argv[i + 1])
    return f"{argv[0]}:{argv[i]} {argv[i + 1]}"


class TestExitCodes:
    @pytest.mark.parametrize("argv,cfg_text,message", BAD_VALUES,
                             ids=[bad_value_id(*row) for row in BAD_VALUES])
    def test_bad_value_exits_2_with_one_line(self, tmp_path, capsys, argv, cfg_text, message):
        make_member_dir(tmp_path, [np.array([[30.0, -40.0], [5.0, 90.0]])])
        write_mm(tmp_path / "g.grd", [[130.0, 40.0], [110.0, 220.0]])
        write_mm(tmp_path / "c.grd", [[100.0, 100.0], [100.0, 100.0]])
        cfgp = tmp_path / "bad.cfg"
        cfgp.write_text(cfg_text)
        argv = [a.replace("{cfg}", str(cfgp)).replace("{tmp}", str(tmp_path)) for a in argv]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message.replace("{tmp}", str(tmp_path)) in err
        assert not (tmp_path / "f.csv").exists()  # a failed attn-bench leaves no table
        assert not (tmp_path / "w.csv").exists()  # a failed fuse leaves no weights
        assert not list(tmp_path.rglob(".*.tmp"))


def refuse_work(*args, **kwargs):
    raise AssertionError("the work ran although an output cannot be written")


GRD_MM = b"GRD1 1 1 0.0 1.0 0.0 1.0 mm\n100.0\n"
GRD_PCT = b"GRD1 1 1 0.0 1.0 0.0 1.0 percent\n5.0\n"


def member_manifest(n):
    return "".join(f"m{i}\tai\tinit_seed={i},latent_seed={i}\n" for i in range(n)).encode()


SMALL_GEN = b"n_init = 1\nn_latent = 1\nstart_dates = d0\nschemes = s0\nparam_grid = 1x1\n"
# score's inputs, and an ensemble "ens" of members "m0" and "m1", with the
# functions that read them
SCORE_FILES = {"fc.grd": GRD_MM, "obs.grd": GRD_MM, "clim.grd": GRD_MM, "mask.grd": GRD_MM}
SCORE_WORK = [(cli, "read_grid"), (cli, "read_mask")]
ENS_FILES = {"ens/manifest.tsv": member_manifest(2), "ens/m0.grd": GRD_PCT, "ens/m1.grd": GRD_PCT}
ENS_WORK = [(ensemble, "_read_member"), (ensemble, "read_bodies"), (cli, "member_metrics")]
GEN_WORK = [(cli, "surrogate_members"), (cli, "ai_members")]


def score_argv(**flags):
    names = {"forecast": "fc.grd", "obs": "obs.grd", "clim": "clim.grd", "mask": "mask.grd",
             "out": "s.csv", **flags}
    return ["score", *itertools.chain(*((f"--{k}", f"{{tmp}}/{v}") for k, v in names.items()))]


def fuse_argv(field="f.grd", weights="w.csv"):
    return ["fuse", "--ensemble-dir", "{tmp}/ens", "--out-field", f"{{tmp}}/{field}",
            "--out-weights", f"{{tmp}}/{weights}"]


def same_as_input(output, input_):
    return f"error: output {{tmp}}/{output} and input {{tmp}}/{input_} are the same file"


# Outputs that cannot be written, or that name one file with another
# output, the run manifest or an input, so that one would replace the
# other, found before any work: argv, files to write under "{tmp}" ("d/x"
# makes "d" a directory), the functions of the work (module, name), the
# expected message.
UNWRITABLE = {
    "fuse-weights-is-field": (["fuse", "--ensemble-dir", "{tmp}/ens", "--out-weights", "{tmp}/x",
                               "--out-field", "{tmp}/x"], {}, [(cli, "read_ensemble_dir")],
                              "error: output {tmp}/x and output {tmp}/x are the same file"),
    "fuse-weights-is-sidecar": (["fuse", "--ensemble-dir", "{tmp}/ens",
                                 "--out-weights", "{tmp}/f.grd.manifest.json",
                                 "--out-field", "{tmp}/f.grd"], {}, [(cli, "read_ensemble_dir")],
                                "error: output {tmp}/f.grd.manifest.json and the run manifest "
                                "{tmp}/f.grd.manifest.json are the same file"),
    "fuse-weights-spelled-otherwise": (["fuse", "--ensemble-dir", "{tmp}/ens",
                                        "--out-weights", "{tmp}/d/../d/f.grd",
                                        "--out-field", "{tmp}/d/f.grd"], {"d/x": b""},
                                       [(cli, "read_ensemble_dir")],
                                       "error: output {tmp}/d/f.grd and output "
                                       "{tmp}/d/../d/f.grd are the same file"),
    "scaling-svg-is-csv": (["scaling", "--out", "{tmp}/c.csv", "--svg", "{tmp}/c.csv"], {},
                           [(cli, "synthetic_benchmark")],
                           "error: output {tmp}/c.csv and output {tmp}/c.csv are the same file"),
    "generate-file-as-dir": (["generate", "--mode", "hybrid", "--out-dir", "{tmp}/f"],
                             {"f": b""}, [(cli, "surrogate_members"), (cli, "ai_members")],
                             "error: cannot write {tmp}/f: File exists"),
    "generate-sidecar-is-dir": (["generate", "--mode", "ai", "--out-dir", "{tmp}/o"],
                                {"o.manifest.json/x": b""}, [(cli, "ai_members")],
                                "error: cannot write {tmp}/o.manifest.json: Is a directory"),
    "scaling-out-is-dir": (["scaling", "--out", "{tmp}/d"], {"d/x": b""},
                           [(cli, "synthetic_benchmark")],
                           "error: cannot write {tmp}/d: Is a directory"),
    "scaling-svg-no-dir": (["scaling", "--out", "{tmp}/c.csv", "--svg", "{tmp}/nodir/c.svg"],
                           {}, [(cli, "synthetic_benchmark")],
                           "error: cannot write {tmp}/nodir/c.svg: No such file or directory"),
    "attn-bench-no-dir": (["attn-bench", "--lengths", "48,96,1536,6144",
                           "--out", "{tmp}/nodir/f.csv"], {}, [(attn, "measure_block_time")],
                          "error: cannot write {tmp}/nodir/f.csv: No such file or directory"),
    "fuse-field-no-dir": (["fuse", "--ensemble-dir", "{tmp}/ens", "--out-weights", "{tmp}/w.csv",
                           "--out-field", "{tmp}/nodir/f.grd"], {},
                          [(cli, "read_ensemble_dir")],
                          "error: cannot write {tmp}/nodir/f.grd: No such file or directory"),
    **{f"score-out-is-{flag}": (score_argv(out=name), SCORE_FILES, SCORE_WORK,
                                same_as_input(name, name))
       for flag, name in [("forecast", "fc.grd"), ("obs", "obs.grd"), ("clim", "clim.grd"),
                          ("mask", "mask.grd")]},
    "score-obs-is-sidecar": (score_argv(obs="s.csv.manifest.json"),
                             {**SCORE_FILES, "s.csv.manifest.json": GRD_MM}, SCORE_WORK,
                             same_as_input("s.csv.manifest.json", "s.csv.manifest.json")),
    "score-out-spelled-otherwise": (score_argv(out="d/../clim.grd"), {**SCORE_FILES, "d/x": b""},
                                    SCORE_WORK, same_as_input("d/../clim.grd", "clim.grd")),
    "render-svg-is-field": (["render", "--field", "{tmp}/a.grd", "--svg", "{tmp}/a.grd"],
                            {"a.grd": GRD_PCT}, [(cli, "read_anomaly")],
                            same_as_input("a.grd", "a.grd")),
    "scaling-config-is-out": (["scaling", "--config", "{tmp}/s.cfg", "--out", "{tmp}/s.cfg"],
                              {"s.cfg": b"trials = 2\n"}, [(cli, "synthetic_benchmark")],
                              same_as_input("s.cfg", "s.cfg")),
    "scaling-config-is-svg": (["scaling", "--config", "{tmp}/s.cfg", "--out", "{tmp}/c.csv",
                               "--svg", "{tmp}/s.cfg"], {"s.cfg": b"trials = 2\n"},
                              [(cli, "synthetic_benchmark")], same_as_input("s.cfg", "s.cfg")),
    "scaling-config-is-sidecar": (["scaling", "--config", "{tmp}/c.csv.manifest.json",
                                   "--out", "{tmp}/c.csv"],
                                  {"c.csv.manifest.json": b"trials = 2\n"},
                                  [(cli, "synthetic_benchmark")],
                                  same_as_input("c.csv.manifest.json", "c.csv.manifest.json")),
    "attn-bench-config-is-out": (["attn-bench", "--lengths", "48", "--config", "{tmp}/a.cfg",
                                  "--out", "{tmp}/a.cfg"], {"a.cfg": b"embed_dim = 32\n"},
                                 [(attn, "measure_block_time")], same_as_input("a.cfg", "a.cfg")),
    "attn-bench-config-is-sidecar": (["attn-bench", "--lengths", "48",
                                      "--config", "{tmp}/f.csv.manifest.json",
                                      "--out", "{tmp}/f.csv"],
                                     {"f.csv.manifest.json": b"embed_dim = 32\n"},
                                     [(attn, "measure_block_time")],
                                     same_as_input("f.csv.manifest.json", "f.csv.manifest.json")),
    "generate-config-is-out-dir": (["generate", "--mode", "hybrid", "--config", "{tmp}/o",
                                    "--out-dir", "{tmp}/o"], {"o": SMALL_GEN}, GEN_WORK,
                                   same_as_input("o", "o")),
    "generate-config-is-sidecar": (["generate", "--mode", "hybrid",
                                    "--config", "{tmp}/o.manifest.json", "--out-dir", "{tmp}/o"],
                                   {"o.manifest.json": SMALL_GEN}, GEN_WORK,
                                   same_as_input("o.manifest.json", "o.manifest.json")),
    "fuse-field-is-member": (fuse_argv(field="ens/m0.grd"), ENS_FILES, ENS_WORK,
                             same_as_input("ens/m0.grd", "ens/m0.grd")),
    "fuse-weights-is-member": (fuse_argv(weights="ens/m1.grd"), ENS_FILES, ENS_WORK,
                               same_as_input("ens/m1.grd", "ens/m1.grd")),
    "fuse-field-is-manifest": (fuse_argv(field="ens/manifest.tsv"), ENS_FILES, ENS_WORK,
                               same_as_input("ens/manifest.tsv", "ens/manifest.tsv")),
    "fuse-weights-is-manifest": (fuse_argv(weights="ens/manifest.tsv"), ENS_FILES, ENS_WORK,
                                 same_as_input("ens/manifest.tsv", "ens/manifest.tsv")),
    "fuse-member-spelled-otherwise": (fuse_argv(field="ens/../ens/m1.grd"), ENS_FILES, ENS_WORK,
                                      same_as_input("ens/../ens/m1.grd", "ens/m1.grd")),
}


def write_files(root, files):
    """Write ``files`` (path under ``root`` -> bytes), making their directories."""
    for rel, data in files.items():
        (root / rel).parent.mkdir(exist_ok=True)
        (root / rel).write_bytes(data)


class TestOutputsCheckedFirst:
    @pytest.mark.parametrize("name", sorted(UNWRITABLE))
    def test_unwritable_output_fails_before_the_work(self, tmp_path, monkeypatch, name):
        argv, files, work, message = UNWRITABLE[name]
        write_files(tmp_path, files)
        before = tree(tmp_path), sorted(tmp_path.rglob("*"))
        for module, fn in work:
            monkeypatch.setattr(module, fn, refuse_work)
        rc, err = run_cli([a.replace("{tmp}", str(tmp_path)) for a in argv])
        assert rc == 2
        assert err == message.replace("{tmp}", str(tmp_path)) + "\n"
        assert not list(tmp_path.rglob(".*.tmp"))
        assert not (tmp_path / "w.csv").exists()
        # every input as it was, and no file or directory left behind
        assert (tree(tmp_path), sorted(tmp_path.rglob("*"))) == before

    def test_outputs_linked_to_one_file_fail_before_the_work(self, tmp_path, monkeypatch):
        (tmp_path / "f.grd").write_bytes(b"field")
        os.link(tmp_path / "f.grd", tmp_path / "w.csv")
        monkeypatch.setattr(cli, "read_ensemble_dir", refuse_work)
        rc, err = run_cli(["fuse", "--ensemble-dir", str(tmp_path / "ens"),
                           "--out-weights", str(tmp_path / "w.csv"),
                           "--out-field", str(tmp_path / "f.grd")])
        assert rc == 2
        assert err == (f"error: output {tmp_path / 'f.grd'} and output {tmp_path / 'w.csv'} "
                       "are the same file\n")
        assert (tmp_path / "w.csv").read_bytes() == b"field"

    @pytest.mark.parametrize("argv, files, work, input_", [
        (score_argv(out="s.csv"), SCORE_FILES, SCORE_WORK, "obs.grd"),
        (fuse_argv(weights="s.csv"), ENS_FILES, ENS_WORK, "ens/m1.grd"),
    ], ids=["score", "fuse"])
    def test_output_linked_to_an_input_fails_before_the_work(self, tmp_path, monkeypatch,
                                                             argv, files, work, input_):
        write_files(tmp_path, files)
        os.link(tmp_path / input_, tmp_path / "s.csv")
        before = tree(tmp_path)
        for module, fn in work:
            monkeypatch.setattr(module, fn, refuse_work)
        rc, err = run_cli([a.replace("{tmp}", str(tmp_path)) for a in argv])
        assert (rc, err) == (2, same_as_input("s.csv", input_).replace("{tmp}", str(tmp_path))
                             + "\n")
        assert tree(tmp_path) == before

    def test_an_unlisted_file_in_the_ensemble_dir_is_an_output(self, tmp_path):
        write_files(tmp_path, ENS_FILES)
        rc, err = run_cli([a.replace("{tmp}", str(tmp_path)) for a in fuse_argv("ens/fused.grd")])
        assert (rc, err) == (0, "")
        assert read_grid(tmp_path / "ens" / "fused.grd").values.tolist() == [[5.0]]
        rc, err = run_cli([a.replace("{tmp}", str(tmp_path)) for a in fuse_argv()])
        assert (rc, err) == (0, "")  # the manifest does not list it, so fuse still reads "ens"

    def test_fuse_reads_the_manifest_once(self, tmp_path, monkeypatch):
        write_files(tmp_path, ENS_FILES)
        calls = []
        read_manifest = ensemble.read_manifest
        monkeypatch.setattr(ensemble, "read_manifest",
                            lambda path: calls.append(path) or read_manifest(path))
        rc, err = run_cli([a.replace("{tmp}", str(tmp_path)) for a in fuse_argv()])
        assert (rc, err) == (0, "")
        assert calls == [os.path.join(str(tmp_path / "ens"), "manifest.tsv")]


class TestFileModes:
    def test_member_files_and_csvs_share_one_mode(self, tmp_path):
        cfgp = tmp_path / "gen.cfg"
        cfgp.write_text(GEN_CONFIG)
        old = os.umask(0o022)
        try:
            assert main(["generate", "--mode", "hybrid", "--seed", "1",
                         "--config", str(cfgp), "--out-dir", str(tmp_path / "ens")]) == 0
            assert main(["fuse", "--ensemble-dir", str(tmp_path / "ens"),
                         "--out-field", str(tmp_path / "f.grd"),
                         "--out-weights", str(tmp_path / "w.csv")]) == 0
        finally:
            os.umask(old)
        written = [p for p in tmp_path.rglob("*") if p.is_file() and p != cfgp]
        assert len(written) == 11  # 6 members, manifest.tsv, fused, weights, 2 sidecars
        modes = {p.name: p.stat().st_mode & 0o777 for p in written}
        assert set(modes.values()) == {0o644}, modes


# Bad input files that must exit 2 with one line: name -> (argv, files to
# write under the test's temporary directory "{tmp}", expected message).
GRD_WIDE = b"GRD1 32 32 0.0 1.0 0.0 1.0 percent\n" + b"-12.345678901234567 " * 1024 + b"\n"


FUSE = ["fuse", "--ensemble-dir", "{tmp}/ens", "--out-field", "{tmp}/f.grd",
        "--out-weights", "{tmp}/w.csv"]
BIG_SIGMA = "n_init = 1\nn_latent = 1\nnlat = 16\nnlon = 16\nlatent_sigma = 1e308\n"
BAD_FILES = {
    "non-ascii-field": (["render", "--field", "{tmp}/a.grd", "--svg", "{tmp}/a.svg"],
                        {"a.grd": b"GRD1 1 2 0.0 1.0 0.0 1.0 percent\r\n1.0\r\n\xc3\xa9 2.0\r\n"},
                        "a.grd: line 3: non-ASCII byte 0xc3"),
    "huge-header": (["render", "--field", "{tmp}/a.grd", "--svg", "{tmp}/a.svg"],
                    {"a.grd": b"GRD1 100000 100000 0.0 1.0 0.0 1.0 mm\n1.0\n"},
                    "value count mismatch: header declares 10000000000, found 1"),
    "escaping-id": (["fuse", "--ensemble-dir", "{tmp}/ens",
                     "--out-field", "{tmp}/f.grd", "--out-weights", "{tmp}/w.csv"],
                    {"x.grd": b"GRD1 1 1 0.0 1.0 0.0 1.0 percent\n5.0\n",
                     "ens/manifest.tsv": b"../x\tai\tinit_seed=1,latent_seed=2\n"},
                    "line 1: member id '../x' is not a plain file name"),
    "overflowing-config": (["generate", "--mode", "ai", "--config", "{tmp}/big.cfg",
                            "--out-dir", "{tmp}/o"],
                           {"big.cfg": BIG_SIGMA.encode()},
                           "field values must be finite"),
    "overflowing-ai-member": (["generate", "--mode", "ai", "--config", "{tmp}/big.cfg",
                               "--out-dir", "{tmp}/o"],
                              {"big.cfg": BIG_SIGMA.encode()},
                              "error: ai-0000-0000: field values must be finite"),
    "overflowing-numerical-member": (["generate", "--mode", "numerical", "--config",
                                      "{tmp}/big.cfg", "--out-dir", "{tmp}/o"],
                                     {"big.cfg": b"nlat = 8\nnlon = 8\nbias_sigma = 1e308\n"},
                                     "error: num-d0-s0: field values must be finite"),
    "mm-field": (["render", "--field", "{tmp}/m.grd", "--svg", "{tmp}/a.svg"], {"m.grd": GRD_MM},
                 "/m.grd: anomaly fields carry percent units, got 'mm'"),
    # a directory where a file is expected ("d/x" makes "d" a directory)
    "directory-field": (["render", "--field", "{tmp}/d", "--svg", "{tmp}/a.svg"],
                        {"d/x": b""}, "/d: Is a directory"),
    "directory-forecast": (["score", "--forecast", "{tmp}/d", "--obs", "{tmp}/g.grd",
                            "--clim", "{tmp}/g.grd", "--out", "{tmp}/s.csv"],
                           {"d/x": b""}, "/d: Is a directory"),
    "directory-mask": (["score", "--forecast", "{tmp}/g.grd", "--obs", "{tmp}/g.grd",
                        "--clim", "{tmp}/g.grd", "--mask", "{tmp}/d", "--out", "{tmp}/s.csv"],
                       {"g.grd": GRD_MM, "d/x": b""}, "/d: Is a directory"),
    "bad-mask": (["score", "--forecast", "{tmp}/g.grd", "--obs", "{tmp}/g.grd",
                  "--clim", "{tmp}/g.grd", "--mask", "{tmp}/m.grd", "--out", "{tmp}/s.csv"],
                 {"g.grd": GRD_MM, "m.grd": b"GRD1 1 2 0.0 1.0 0.0 1.0 unitless\n1\nzap\n"},
                 "m.grd: line 3: unparseable value 'zap'"),
    "directory-manifest": (["fuse", "--ensemble-dir", "{tmp}/ens",
                            "--out-field", "{tmp}/f.grd", "--out-weights", "{tmp}/w.csv"],
                           {"ens/a.grd": b"", "ens/manifest.tsv/x": b""},
                           "manifest.tsv: cannot read: Is a directory"),
    # member 1 to 3 are parsed as one batch, after member 3 is found missing
    "bad-member-before-missing-member": (FUSE, {
        "ens/manifest.tsv": member_manifest(4), "ens/m0.grd": GRD_PCT, "ens/m1.grd": GRD_PCT,
        "ens/m2.grd": GRD_PCT + b"zap\n"}, "ens/m2.grd: line 3: unparseable value 'zap'"),
    # members of 20 kB: m5 is in the second batch after m0
    "member-grid-differs-in-later-batch": (FUSE, {
        "ens/manifest.tsv": member_manifest(6), **{f"ens/m{i}.grd": GRD_WIDE for i in range(5)},
        "ens/m5.grd": GRD_WIDE.replace(b"32 32 0.0", b"32 32 1.0")},
        "member 'm5' grid differs from the ensemble grid"),
    "nan-geometry": (["score", "--forecast", "{tmp}/a.grd", "--obs", "{tmp}/a.grd",
                      "--clim", "{tmp}/a.grd", "--out", "{tmp}/s.csv"],
                     {"a.grd": b"GRD1 1 2 nan 1 0 1 mm\n1.0 2.0\n"},
                     "a.grd: line 1: lat0 must be finite, got nan"),
    "file-as-ensemble-dir": (["fuse", "--ensemble-dir", "{tmp}/e",
                              "--out-field", "{tmp}/f.grd", "--out-weights", "{tmp}/w.csv"],
                             {"e": b""}, "/e: no manifest.tsv"),
}


def run_cli(argv):
    """main(argv) with its output captured: (exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def byte_edits(byte):
    """One to four edits (op, position, byte) of a file, bytes drawn from ``byte``."""
    return st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete", "truncate"]),
                              st.integers(0, 10**6), byte), min_size=1, max_size=4)


class TestBadInputFiles:
    @pytest.mark.parametrize("name", sorted(BAD_FILES))
    def test_exits_2_with_one_line(self, tmp_path, name):
        argv, files, message = BAD_FILES[name]
        for rel, data in files.items():
            (tmp_path / rel).parent.mkdir(exist_ok=True)
            (tmp_path / rel).write_bytes(data)
        rc, err = run_cli([a.replace("{tmp}", str(tmp_path)) for a in argv])
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_overflow_emits_no_warning(self, tmp_path):
        (tmp_path / "big.cfg").write_text(BIG_SIGMA)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, _ = run_cli(["generate", "--mode", "ai", "--config", str(tmp_path / "big.cfg"),
                             "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("name", ["overflowing-ai-member", "overflowing-numerical-member"])
    def test_failed_generate_removes_the_directory_it_made(self, tmp_path, name):
        argv, files, message = BAD_FILES[name]
        for rel, data in files.items():
            (tmp_path / rel).write_bytes(data)
        rc, err = run_cli([a.replace("{tmp}", str(tmp_path)) for a in argv])
        assert rc == 2 and message in err
        assert not (tmp_path / "o").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)

    def test_failed_generate_removes_the_parents_it_made(self, tmp_path):
        (tmp_path / "big.cfg").write_text(BIG_SIGMA)
        rc, _ = run_cli(["generate", "--mode", "ai", "--config", str(tmp_path / "big.cfg"),
                         "--out-dir", str(tmp_path / "a" / "b" / "o")])
        assert rc == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.cfg"]

    def test_failed_generate_keeps_a_directory_that_existed(self, tmp_path):
        (tmp_path / "big.cfg").write_text(BIG_SIGMA)
        (tmp_path / "o").mkdir()
        (tmp_path / "o" / "notes.txt").write_bytes(b"kept\x00\n")
        rc, _ = run_cli(["generate", "--mode", "ai", "--config", str(tmp_path / "big.cfg"),
                         "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert [p.name for p in (tmp_path / "o").iterdir()] == ["notes.txt"]
        assert (tmp_path / "o" / "notes.txt").read_bytes() == b"kept\x00\n"

    def test_generate_failing_mid_write_removes_the_directory_it_made(self, tmp_path,
                                                                       monkeypatch):
        # three members are written, then a rename fails
        renames = []

        def replace(src, dst):
            if len(renames) == 3:
                raise OSError(28, "No space left on device")
            renames.append(dst)
            os.rename(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        (tmp_path / "small.cfg").write_text("n_init = 2\nn_latent = 2\nnlat = 16\nnlon = 16\n")
        rc, err = run_cli(["generate", "--mode", "ai", "--config", str(tmp_path / "small.cfg"),
                           "--out-dir", str(tmp_path / "o")])
        assert rc == 2 and "No space left on device" in err
        assert len(renames) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["small.cfg"]

    # every byte edit of an input file exits 0 or 2, never 1 (internal error)
    EDITS = byte_edits(st.one_of(
        st.sampled_from(list(b"\n\r\t ./-+_e059nafi\x00\xc3\xff")), st.integers(0, 255)))
    # config edits write no digit: one could turn "n_init = 2" into a
    # 20000-member run of minutes
    CONFIG_EDITS = byte_edits(st.one_of(
        st.sampled_from(list(b"\n\r\t =#,x:./-+_enafi\x00\xc3\xff")),
        st.integers(0, 255).filter(lambda b: not 0x30 <= b <= 0x39)))
    # tiny config of each command (argv, config text); the keys that bound
    # the run's size come first, so a truncation keeps them
    CONFIGS = {
        "generate": (["generate", "--mode", "hybrid", "--out-dir", "{tmp}/o"],
                     "n_init = 2\nn_latent = 2\nstart_dates = d0\nschemes = s0\n"
                     "param_grid = 1x1\nnlat = 16\nnlon = 16\nembed_dim = 8\n"),
        "scaling": (["scaling", "--out", "{tmp}/c.csv"], SCALING_CONFIG),
        "attn-bench": (["attn-bench", "--lengths", "48", "--out", "{tmp}/f.csv"],
                       "embed_dim = 8\nnum_heads = 2\n"),
        "grad-check": (["grad-check"], "probes = 2\nnum_layers = 1\nembed_dim = 8\n"
                                       "num_heads = 2\nnlat = 16\nnlon = 16\n"),
    }

    @pytest.mark.parametrize("target", ["render", "score", "fuse-member", "fuse-manifest",
                                        "generate", "scaling", "attn-bench", "grad-check"])
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_mutated_inputs_never_exit_1(self, tmp_path_factory, target, data):
        tmp = tmp_path_factory.mktemp("mut")
        if target in self.CONFIGS:
            argv, text = self.CONFIGS[target]
            victim = tmp / "run.cfg"
            victim.write_text(text)
            argv = [a.replace("{tmp}", str(tmp)) for a in argv] + ["--config", str(victim)]
            edits = data.draw(self.CONFIG_EDITS)
        else:
            ens = make_member_dir(tmp, [np.array([[30.0, -40.0], [5.0, 90.0]]),
                                        np.array([[-3.0, 41.5], [1e-3, 0.0]])])
            write_mm(tmp / "clim.grd", [[100.0, 100.0], [100.0, 0.05]])
            write_mm(tmp / "obs.grd", [[130.0, 40.0], [110.0, 220.0]])
            write_mm(tmp / "fc.grd", [[125.0, 45.0], [95.0, 140.0]])
            fuse = ["fuse", "--ensemble-dir", str(ens),
                    "--out-field", str(tmp / "f.grd"), "--out-weights", str(tmp / "w.csv")]
            victim, argv = {
                "render": (ens / "ai-0001.grd", ["render", "--field", str(ens / "ai-0001.grd"),
                                                 "--svg", str(tmp / "a.svg")]),
                "score": (tmp / "clim.grd",
                          ["score", "--forecast", str(tmp / "fc.grd"),
                           "--obs", str(tmp / "obs.grd"),
                           "--clim", str(tmp / "clim.grd"), "--out", str(tmp / "s.csv")]),
                "fuse-member": (ens / "ai-0000.grd", fuse),
                "fuse-manifest": (ens / "manifest.tsv", fuse),
            }[target]
            edits = data.draw(self.EDITS)
        buf = bytearray(victim.read_bytes())
        for op, pos, byte in edits:
            i = pos % (len(buf) + 1)
            if op == "insert":
                buf.insert(i, byte)
            elif op == "truncate":
                del buf[i:]
            elif i < len(buf):
                if op == "replace":
                    buf[i] = byte
                else:
                    del buf[i]
        victim.write_bytes(bytes(buf))
        rc, err = run_cli(argv)
        if target == "grad-check" and rc == 1:  # gradients that disagree
            assert err == "gradient check FAILED (>= 1e-6)\n", err
        else:
            assert rc in (0, 2), err
            if rc == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, err


class TestRunManifest:
    GEN = ("n_init = 1\nn_latent = 2\nstart_dates = d0\nschemes = s0\nparam_grid = 1x1\n"
           "nlat = 16\nnlon = 16\nembed_dim = 8\n")
    BACKBONE = {"channels": 4, "embed_dim": 32, "layout": "sequence_concat", "num_anchors": 8,
                "num_domains": 3, "num_heads": 4, "patch_size": 8, "window_size": 2}

    def test_each_command_writes_the_whole_sidecar(self, tmp_path, monkeypatch):
        # relative paths, so that the sidecars do not name the test's directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.cfg").write_text(self.GEN)
        (tmp_path / "s.cfg").write_text(SCALING_CONFIG)
        for name, values in [("clim", [[100.0, 100.0], [100.0, 100.0]]),
                             ("obs", [[130.0, 40.0], [110.0, 220.0]]),
                             ("fc", [[125.0, 45.0], [95.0, 140.0]])]:
            write_mm(tmp_path / f"{name}.grd", values)
        write_grid(GridField(SPEC, np.ones((2, 2)), units="unitless"), tmp_path / "mask.grd")
        runs = {
            "ens": ["generate", "--mode", "hybrid", "--seed", "5", "--config", "g.cfg",
                    "--out-dir", "ens"],
            "f.grd": ["fuse", "--ensemble-dir", "ens", "--out-field", "f.grd",
                      "--out-weights", "w.csv"],
            "f.svg": ["render", "--field", "f.grd", "--svg", "f.svg"],
            "s.csv": ["score", "--forecast", "fc.grd", "--obs", "obs.grd", "--clim", "clim.grd",
                      "--mask", "mask.grd", "--out", "s.csv"],
            "c.csv": ["scaling", "--seed", "2", "--config", "s.cfg", "--out", "c.csv",
                      "--svg", "c.svg"],
            "a.csv": ["attn-bench", "--lengths", "48", "--out", "a.csv"],
        }
        generate = {
            "mode": "hybrid", "nlat": 16, "nlon": 16, "clim_mm": 300.0, "n_init": 1,
            "n_latent": 2, "field_sigma": 5.0, "spectral_slope": 3.0, "latent_sigma": 0.1,
            "start_dates": ["d0"], "schemes": ["s0"], "param_grid": [1, 1],
            "truth_amplitude": 130.0, "truth_slope": 3.0, "bias_sigma": 15.0,
            "noise_sigma": 40.0, "num_layers": 2, **self.BACKBONE, "embed_dim": 8,
        }
        track = {"bias_sigma": 15.0, "noise_sigma": 40.0}
        scaling = {"snapshot": {
            "sizes": [11, 22], "ratio": [1, 10], "trials": 2, "fusion": {"alpha": 0.5},
            "benchmark": {"nlat": 32, "nlon": 32, "clim_mm": 300.0, "amplitude": 130.0,
                          "slope": 3.0, "n_numerical": 4, "n_ai": 40,
                          "skill": {"numerical": track, "ai": track}},
        }}
        expected = {
            "ens": ("generate", generate, 5, ["ens"]),
            "f.grd": ("fuse", {"ensemble_dir": "ens", "alpha": 0.5, "members": 4}, None,
                      ["f.grd", "w.csv"]),
            "f.svg": ("render", {"field": "f.grd"}, None, ["f.svg"]),
            "s.csv": ("score", {"forecast": "fc.grd", "obs": "obs.grd", "clim": "clim.grd",
                                "mask": "mask.grd", "clim_floor": 0.1}, None, ["s.csv"]),
            "c.csv": ("scaling", scaling, 2, ["c.csv", "c.svg"]),
            "a.csv": ("attn-bench", {**self.BACKBONE, "lengths": [48]}, 0, ["a.csv"]),
        }
        for primary, argv in runs.items():
            rc, err = run_cli(argv)
            assert (rc, err) == (0, ""), argv
            sidecar = json.loads((tmp_path / f"{primary}.manifest.json").read_text())
            wall = sidecar.pop("wall_time_s")
            assert isinstance(wall, float) and wall > 0
            command, config, seed, outputs = expected[primary]
            assert sidecar == {"command": command, "config": config, "base_seed": seed,
                               "artifact_version": "0.1.0", "outputs": outputs}


class TestCgroupMemoryLimit:
    def test_generate_refuses_what_the_cgroup_limit_cannot_hold(self, tmp_path, monkeypatch):
        from capeskit import fusion

        (tmp_path / "cgroup").write_text("0::/job\n")
        write_files(tmp_path, {"job/memory.max": b"1048576\n"})
        monkeypatch.setattr(fusion, "_CGROUP", str(tmp_path / "cgroup"))
        monkeypatch.setattr(fusion, "_CGROUP_ROOT", str(tmp_path))
        for module, fn in GEN_WORK:
            monkeypatch.setattr(module, fn, refuse_work)
        rc, err = run_cli(["generate", "--mode", "hybrid", "--out-dir", str(tmp_path / "o")])
        assert (rc, err) == (2, "error: 1774 fields of 32x32 do not fit in memory\n")
        assert not (tmp_path / "o").exists()


def tree(root):
    """Every file under ``root``: its path relative to ``root`` -> its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestGenerateOverAnEnsemble:
    """``generate`` into a directory that holds another ensemble. A run
    that fails part way leaves the directory as it was or one that
    ``fuse`` refuses, never a mix of the two ensembles; a run that
    succeeds writes the bytes, in the order, of a run into a new directory."""

    # 3 numerical and 6 AI members of 16 x 16
    CONFIG = ("n_init = 2\nn_latent = 3\nstart_dates = d0\nschemes = s0,s1\n"
              "param_grid = 1x1\nnlat = 16\nnlon = 16\nembed_dim = 8\n")
    N = 9

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """The seed-7 and seed-13 ensembles, each generated into a new directory."""
        root = tmp_path_factory.mktemp("runs")
        (root / "small.cfg").write_text(self.CONFIG)
        for seed in (7, 13):
            rc, err = run_cli(["generate", "--mode", "hybrid", "--seed", str(seed),
                               "--config", str(root / "small.cfg"),
                               "--out-dir", str(root / f"s{seed}")])
            assert rc == 0, err
        return root

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_a_failed_generate_leaves_no_mixed_ensemble(self, runs, tmp_path_factory, data):
        # where the run fails: the formatter runs out of memory, a rename
        # finds the disk full, or the user interrupts the formatter; before
        # member k, or, for a rename, before the manifest (k = N)
        where = data.draw(st.sampled_from(["formatter", "writer", "interrupt", None]))
        k = data.draw(st.integers(0, self.N if where == "writer" else self.N - 1))
        handoff = data.draw(st.sampled_from([1, grid._HANDOFF]))
        tmp = tmp_path_factory.mktemp("over")
        out = tmp / "o"
        shutil.copytree(runs / "s7", out)
        shutil.copy(runs / "s7.manifest.json", tmp / "o.manifest.json")
        before = tree(tmp)
        renamed = []
        replace, bodies = os.replace, grid._bodies
        made = itertools.count()  # bodies made so far, over every batch

        def failing_replace(src, dst):
            if where == "writer" and len(renamed) == k:
                raise OSError(errno.ENOSPC, "No space left on device")
            renamed.append(os.path.relpath(dst, tmp))
            replace(src, dst)

        def failing_bodies(values, header):
            for body in bodies(values, header):
                i = next(made)
                if i == k and where == "formatter":
                    raise MemoryError()
                if i == k and where == "interrupt":
                    raise KeyboardInterrupt()
                yield body

        argv = ["generate", "--mode", "hybrid", "--seed", "13",
                "--config", str(runs / "small.cfg"), "--out-dir", str(out)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grid, "_HANDOFF", handoff)
            mp.setattr(os, "replace", failing_replace)
            mp.setattr(grid, "_bodies", failing_bodies)
            if where == "interrupt":
                with pytest.raises(KeyboardInterrupt):
                    run_cli(argv)
            else:
                rc, err = run_cli(argv)
                assert rc == (0 if where is None else 2), err
        assert not list(tmp.rglob("*.tmp"))
        after = tree(tmp)
        if where is None:
            want = {f"o/{name}": blob for name, blob in tree(runs / "s13").items()}
            assert {name: blob for name, blob in after.items()
                    if name != "o.manifest.json"} == want
            ids = [line.split("\t")[0] for line in want["o/manifest.tsv"].decode().splitlines()]
            assert renamed == [f"o/{i}.grd" for i in ids] + ["o/manifest.tsv", "o.manifest.json"]
        elif after != before:
            rc, err = run_cli(["fuse", "--ensemble-dir", str(out), "--out-field",
                               str(tmp / "f.grd"), "--out-weights", str(tmp / "w.csv")])
            assert rc == 2 and "no manifest.tsv" in err, err

    def test_one_member_batches_write_the_same_bytes(self, runs, tmp_path, monkeypatch):
        # every batch of one member, made in a buffer of one row that each
        # batch reuses
        monkeypatch.setattr(ensemble, "_BATCH", 1)
        rc, err = run_cli(["generate", "--mode", "hybrid", "--seed", "13",
                           "--config", str(runs / "small.cfg"), "--out-dir", str(tmp_path / "o")])
        assert rc == 0, err
        assert tree(tmp_path / "o") == tree(runs / "s13")

    def over_s7(self, runs, tmp, extra):
        """``generate`` of seed 13, with ``extra`` config lines, into a copy
        of the seed-7 ensemble: (exit code, stderr, the tree before)."""
        shutil.copytree(runs / "s7", tmp / "o")
        shutil.copy(runs / "s7.manifest.json", tmp / "o.manifest.json")
        (tmp / "run.cfg").write_text(self.CONFIG + extra)
        before = tree(tmp)
        rc, err = run_cli(["generate", "--mode", "hybrid", "--seed", "13",
                           "--config", str(tmp / "run.cfg"), "--out-dir", str(tmp / "o")])
        return rc, err, before

    def test_a_member_failing_after_the_first_batch_uncommits_the_ensemble(self, runs, tmp_path):
        # the numerical batch goes to the writer, then the first AI member
        # overflows; the writer stops at once, so those files may or may not
        # have been written
        rc, err, _ = self.over_s7(runs, tmp_path, "latent_sigma = 1e308\n")
        assert (rc, err) == (2, "error: ai-0000-0000: field values must be finite (no NaN/Inf)\n")
        assert not list(tmp_path.rglob("*.tmp"))
        # the old AI members, whose ids no member taken has, go with the manifest
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == [
            "num-d0-p0-0.grd", "num-d0-s0.grd", "num-d0-s1.grd"]
        rc, err = run_cli(["fuse", "--ensemble-dir", str(tmp_path / "o"), "--out-field",
                           str(tmp_path / "f.grd"), "--out-weights", str(tmp_path / "w.csv")])
        assert rc == 2 and "no manifest.tsv" in err, err

    def test_a_member_failing_in_the_first_batch_leaves_the_ensemble(self, runs, tmp_path):
        # the first batch is made before the directory is touched
        rc, err, before = self.over_s7(runs, tmp_path, "bias_sigma = 1e308\n")
        assert (rc, err) == (2, "error: num-d0-s0: field values must be finite (no NaN/Inf)\n")
        assert tree(tmp_path) == before

    def test_a_failed_sidecar_write_uncommits_the_ensemble(self, runs, tmp_path, monkeypatch):
        out = tmp_path / "o"
        shutil.copytree(runs / "s7", out)
        shutil.copy(runs / "s7.manifest.json", tmp_path / "o.manifest.json")
        replace = os.replace

        def failing_replace(src, dst):
            if os.fspath(dst) == str(tmp_path / "o.manifest.json"):
                raise OSError(errno.ENOSPC, "No space left on device")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        rc, err = run_cli(["generate", "--mode", "hybrid", "--seed", "13",
                           "--config", str(runs / "small.cfg"), "--out-dir", str(out)])
        assert (rc, err) == (2, f"error: cannot write {tmp_path / 'o.manifest.json'}: "
                                "No space left on device\n")
        sidecar = (tmp_path / "o.manifest.json").read_bytes()
        assert sidecar == (runs / "s7.manifest.json").read_bytes()
        assert not list(tmp_path.rglob("*.tmp"))
        rc, err = run_cli(["fuse", "--ensemble-dir", str(out), "--out-field",
                           str(tmp_path / "f.grd"), "--out-weights", str(tmp_path / "w.csv")])
        assert rc == 2 and "no manifest.tsv" in err, err
