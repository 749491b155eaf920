import contextlib
import dataclasses
import io
import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    def test_worker_count_does_not_change_outputs(self, tmp_path, monkeypatch):
        # trials run in worker threads that share the pool's one array
        cfgp = tmp_path / "s.cfg"
        cfgp.write_text("sizes = 11,22,44\ntrials = 8\nn_numerical = 8\nn_ai = 80\n")
        outputs = []
        for threads in (None, "2"):
            if threads is None:
                monkeypatch.delenv("CAPESKIT_THREADS", raising=False)
            else:
                monkeypatch.setenv("CAPESKIT_THREADS", threads)
            out = tmp_path / f"threads-{threads}"
            out.mkdir()
            assert main(["scaling", "--config", str(cfgp), "--seed", "4",
                         "--out", str(out / "c.csv"), "--svg", str(out / "c.svg")]) == 0
            outputs.append([(out / name).read_bytes() for name in ("c.csv", "c.svg")])
        assert outputs[0] == outputs[1]


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


# (argv, config text) pairs that must exit 2: bad values reaching a validator.
# "{cfg}" is the config file path, "{tmp}" the test's scratch directory.
BAD_VALUES = [
    (["generate", "--mode", "ai", "--config", "{cfg}", "--out-dir", "{tmp}/o"], "nlat = 0\n"),
    (["generate", "--mode", "ai", "--config", "{cfg}", "--out-dir", "{tmp}/o"], "clim_mm = nan\n"),
    (["generate", "--mode", "ai", "--config", "{cfg}", "--out-dir", "{tmp}/o"],
     "field_sigma = nan\n"),
    (["scaling", "--config", "{cfg}", "--out", "{tmp}/c.csv"], "alpha = 2\n"),
    (["scaling", "--config", "{cfg}", "--out", "{tmp}/c.csv", "--svg", "{tmp}/c.svg"],
     "sizes = ,\n"),
    (["fuse", "--ensemble-dir", "{tmp}/ens", "--alpha", "2",
      "--out-field", "{tmp}/f.grd", "--out-weights", "{tmp}/w.csv"], ""),
    (["attn-bench", "--lengths", "48", "--config", "{cfg}", "--out", "{tmp}/f.csv"],
     "num_heads = 0\n"),
    (["attn-bench", "--lengths", "48", "--config", "{cfg}", "--out", "{tmp}/f.csv"],
     "patch_size = 0\n"),
    (["attn-bench", "--lengths", "48", "--config", "{cfg}", "--out", "{tmp}/f.csv"],
     "window_size = 0\n"),
    (["attn-bench", "--lengths", "48", "--config", "{cfg}", "--out", "{tmp}/f.csv"],
     "embed_dim = 0\n"),
    (["grad-check", "--config", "{cfg}"], "step = 0\n"),
    (["grad-check", "--config", "{cfg}"], "probes = 0\n"),
    # sizes beyond the address space: every allocation fails at once
    (["attn-bench", "--lengths", "48", "--config", "{cfg}", "--out", "{tmp}/f.csv"],
     "embed_dim = 1099511627776\nnum_heads = 1\n"),
    (["grad-check", "--config", "{cfg}"], "embed_dim = 1099511627776\nnum_heads = 1\n"),
    # lengths whose tokens cannot fit: one beyond the address space, after a
    # grid search of O(sqrt(L)) steps, and one beyond any float64 array
    (["attn-bench", "--lengths", str(3 * 2**40), "--out", "{tmp}/f.csv"], ""),
    (["attn-bench", "--lengths", str(12 * 10**18), "--out", "{tmp}/f.csv"], ""),
    (["generate", "--mode", "ai", "--config", "{cfg}", "--out-dir", "{tmp}/o"],
     "channels = 1099511627776\n"),
    (["generate", "--mode", "numerical", "--config", "{cfg}", "--out-dir", "{tmp}/o"],
     "nlat = 4294967296\nnlon = 4294967296\n"),
    (["scaling", "--config", "{cfg}", "--out", "{tmp}/c.csv"],
     "nlat = 4294967296\nnlon = 4294967296\n"),
    # member counts whose fields cannot fit: rejected before any member is made
    (["generate", "--mode", "numerical", "--config", "{cfg}", "--out-dir", "{tmp}/o"],
     "param_grid = 1048576x1048576\n"),
    (["scaling", "--config", "{cfg}", "--out", "{tmp}/c.csv"], "n_ai = 1099511627776\n"),
]


def bad_value_id(argv, cfg_text):
    """The command and its bad value: the config text, else the first
    option given a literal value."""
    if cfg_text.strip():
        return f"{argv[0]}:{cfg_text.strip()}"
    i = next(i for i, a in enumerate(argv[:-1]) if a.startswith("--") and "{" not in argv[i + 1])
    return f"{argv[0]}:{argv[i]} {argv[i + 1]}"


class TestExitCodes:
    @pytest.mark.parametrize("argv,cfg_text", BAD_VALUES,
                             ids=[bad_value_id(a, t) for a, t in BAD_VALUES])
    def test_bad_value_exits_2_with_one_line(self, tmp_path, capsys, argv, cfg_text):
        make_member_dir(tmp_path, [np.array([[30.0, -40.0], [5.0, 90.0]])])
        cfgp = tmp_path / "bad.cfg"
        cfgp.write_text(cfg_text)
        argv = [a.replace("{cfg}", str(cfgp)).replace("{tmp}", str(tmp_path)) for a in argv]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "f.csv").exists()  # a failed attn-bench leaves no table


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
GRD_MM = b"GRD1 1 1 0.0 1.0 0.0 1.0 mm\n100.0\n"
GRD_PCT = b"GRD1 1 1 0.0 1.0 0.0 1.0 percent\n5.0\n"
GRD_WIDE = b"GRD1 32 32 0.0 1.0 0.0 1.0 percent\n" + b"-12.345678901234567 " * 1024 + b"\n"


def member_manifest(n):
    return "".join(f"m{i}\tai\tinit_seed={i},latent_seed={i}\n" for i in range(n)).encode()


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

    # every byte edit of an input file exits 0 or 2, never 1 (internal error)
    EDITS = st.lists(st.tuples(
        st.sampled_from(["replace", "insert", "delete", "truncate"]),
        st.integers(0, 10**6),
        st.one_of(st.sampled_from(list(b"\n\r\t ./-+_e059nafi\x00\xc3\xff")),
                  st.integers(0, 255)),
    ), min_size=1, max_size=4)

    @pytest.mark.parametrize("target", ["render", "score", "fuse-member", "fuse-manifest"])
    @given(edits=EDITS)
    @settings(max_examples=80, deadline=None)
    def test_mutated_inputs_never_exit_1(self, tmp_path_factory, target, edits):
        tmp = tmp_path_factory.mktemp("mut")
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
                      ["score", "--forecast", str(tmp / "fc.grd"), "--obs", str(tmp / "obs.grd"),
                       "--clim", str(tmp / "clim.grd"), "--out", str(tmp / "s.csv")]),
            "fuse-member": (ens / "ai-0000.grd", fuse),
            "fuse-manifest": (ens / "manifest.tsv", fuse),
        }[target]
        data = bytearray(victim.read_bytes())
        for op, pos, byte in edits:
            i = pos % (len(data) + 1)
            if op == "insert":
                data.insert(i, byte)
            elif op == "truncate":
                del data[i:]
            elif i < len(data):
                if op == "replace":
                    data[i] = byte
                else:
                    del data[i]
        victim.write_bytes(bytes(data))
        rc, err = run_cli(argv)
        assert rc in (0, 2), err
        if rc == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
