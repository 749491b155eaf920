from dataclasses import replace

import numpy as np
import pytest

import capeskit.attention as attn
from capeskit.ensemble import (
    NumericalManifest,
    PerturbationSpec,
    SkillConfig,
    TrackSkill,
    ai_member,
    build_ai_ensemble,
    build_numerical_manifest,
    correlated_field,
    read_ensemble_dir,
    read_manifest,
    surrogate_numerical_member,
    write_ensemble_dir,
    write_manifest,
)
from capeskit.errors import CapeskitError
from capeskit.fusion import EnsembleSet, MemberMeta
from capeskit.grid import (
    AnomalyField,
    Climatology,
    GridField,
    GridSpec,
    _CHUNK,
    anomaly_percent,
    write_grid,
)
from capeskit.seeds import mix

SPEC = GridSpec(32, 32)


def flat_clim(spec, mm=300.0):
    return Climatology(GridField(spec, np.full((spec.nlat, spec.nlon), mm), "mm"))


class TestCorrelatedField:
    def test_zero_sigma_is_zero_field(self):
        f = correlated_field(SPEC, 1, 0.0, 3.0)
        assert (f.values == 0.0).all()
        assert f.units == "percent"

    def test_deterministic(self):
        a = correlated_field(SPEC, 42, 10.0, 3.0)
        b = correlated_field(SPEC, 42, 10.0, 3.0)
        assert np.array_equal(a.values, b.values)
        c = correlated_field(SPEC, 43, 10.0, 3.0)
        assert (a.values != c.values).any()

    def test_normalization(self):
        f = correlated_field(SPEC, 7, 12.5, 2.0)
        assert f.values.std() == pytest.approx(12.5, rel=1e-12)
        assert abs(f.values.mean()) <= 1e-9 * 12.5

    def test_degenerate_single_cell(self):
        f = correlated_field(GridSpec(1, 1), 7, 5.0, 3.0)
        assert f.values[0, 0] == 0.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(CapeskitError):
            correlated_field(SPEC, 1, -1.0, 3.0)

    def test_slope_controls_autocorrelation(self):
        # Monte Carlo over 100 seeds with a scalar lag-1 oracle
        def lag1(values):
            h = np.corrcoef(values[:, :-1].ravel(), values[:, 1:].ravel())[0, 1]
            v = np.corrcoef(values[:-1, :].ravel(), values[1:, :].ravel())[0, 1]
            return 0.5 * (h + v)

        white = np.mean([lag1(correlated_field(SPEC, 100 + s, 10.0, 0.0).values)
                         for s in range(100)])
        smooth = np.mean([lag1(correlated_field(SPEC, 100 + s, 10.0, 4.0).values)
                          for s in range(100)])
        assert white < 0.2
        assert smooth > 0.5


class TestNumericalManifest:
    def test_default_count(self):
        metas = build_numerical_manifest()
        assert len(metas) == 174
        assert sum(1 for m in metas if m.scheme_index is not None) == 27
        assert sum(1 for m in metas if m.param_i is not None) == 147

    def test_degenerate_lattice(self):
        cfg = NumericalManifest(start_dates=("d",), schemes=("s",), param_shape=(1, 1))
        metas = build_numerical_manifest(cfg)
        assert len(metas) == 2

    def test_ids_unique_and_stable(self):
        a = [m.id for m in build_numerical_manifest()]
        b = [m.id for m in build_numerical_manifest()]
        assert a == b
        assert len(set(a)) == len(a)

    def test_dates_major_ordering(self):
        metas = build_numerical_manifest()
        scheme_block = metas[:27]
        dates = [m.start_date_index for m in scheme_block]
        assert dates == sorted(dates)
        param_block = metas[27:]
        assert [m.start_date_index for m in param_block] == sorted(
            m.start_date_index for m in param_block
        )

    def test_param_coords_normalized(self):
        cfg = NumericalManifest()
        assert cfg.param_coords(0, 0) == (0.0, 0.0)
        assert cfg.param_coords(6, 6) == (1.0, 1.0)
        assert cfg.param_coords(3, 3) == (0.5, 0.5)


class TestSurrogate:
    def test_zero_error_reproduces_truth(self):
        truth = AnomalyField(SPEC, np.random.default_rng(0).uniform(-80, 80, (32, 32)))
        meta = build_numerical_manifest()[0]
        cfg = SkillConfig(numerical=TrackSkill(bias_sigma=0.0, noise_sigma=0.0))
        m = surrogate_numerical_member(meta, truth, cfg, seed=5)
        assert np.array_equal(m.values, truth.values)

    def test_deterministic_per_meta_and_seed(self):
        truth = AnomalyField(SPEC, np.zeros((32, 32)))
        meta = build_numerical_manifest()[3]
        a = surrogate_numerical_member(meta, truth, SkillConfig(), seed=5)
        b = surrogate_numerical_member(meta, truth, SkillConfig(), seed=5)
        assert np.array_equal(a.values, b.values)
        c = surrogate_numerical_member(meta, truth, SkillConfig(), seed=6)
        assert (a.values != c.values).any()

    def test_track_selects_skill(self):
        truth = AnomalyField(SPEC, np.zeros((32, 32)))
        cfg = SkillConfig(numerical=TrackSkill(bias_sigma=0.0, noise_sigma=0.0),
                          ai=TrackSkill(bias_sigma=0.0, noise_sigma=30.0))
        num = surrogate_numerical_member(build_numerical_manifest()[0], truth, cfg, 1)
        aim = surrogate_numerical_member(
            MemberMeta(id="ai-0000", track="ai", init_seed=0, latent_seed=0), truth, cfg, 1
        )
        assert (num.values == 0).all()
        assert aim.values.std() > 0

    def test_law_of_large_numbers(self):
        truth = AnomalyField(SPEC, np.random.default_rng(9).uniform(-50, 50, (32, 32)))
        sigma = 20.0
        cfg = SkillConfig(numerical=TrackSkill(bias_sigma=0.0, noise_sigma=sigma))
        total = np.zeros((32, 32))
        n = 1000
        for idx in range(n):
            meta = MemberMeta(id=f"num-lln-{idx}", track="numerical", scheme_index=0)
            total += surrogate_numerical_member(meta, truth, cfg, seed=77).values
        mean_abs_err = np.abs(total / n - truth.values).mean()
        assert mean_abs_err <= 3.0 * sigma / np.sqrt(n)


TOYCFG = attn.AttentionConfig()


class TestAiEnsemble:
    def test_counts_and_lexicographic_ids(self):
        params = attn.init_params(TOYCFG, 0)
        base = np.random.default_rng(1).standard_normal((3, 32, 32, 4))
        pspec = PerturbationSpec(n_init=2, n_latent=3, base_seed=9)
        e = build_ai_ensemble(base, params, TOYCFG, pspec, flat_clim(SPEC))
        assert len(e) == 6
        assert [m.id for m in e.metas()] == [
            "ai-0000-0000", "ai-0000-0001", "ai-0000-0002",
            "ai-0001-0000", "ai-0001-0001", "ai-0001-0002",
        ]
        for meta in e.metas():
            assert meta.init_seed is not None and meta.latent_seed is not None

    def test_degenerate_single_member_equals_plain_forward(self):
        params = attn.init_params(TOYCFG, 2)
        base = np.random.default_rng(3).standard_normal((3, 32, 32, 4))
        clim = flat_clim(SPEC)
        pspec = PerturbationSpec(n_init=1, n_latent=1, base_seed=4,
                                 field_sigma=0.0, latent_sigma=0.0)
        e = build_ai_ensemble(base, params, TOYCFG, pspec, clim)
        direct = anomaly_percent(attn.forward(params, base, TOYCFG, spec=SPEC), clim)
        assert np.array_equal(e.members[0][1].values, direct.values)

    def test_member_isolation_matches_full_run(self):
        params = attn.init_params(TOYCFG, 5)
        base = np.random.default_rng(6).standard_normal((3, 32, 32, 4))
        clim = flat_clim(SPEC)
        pspec = PerturbationSpec(n_init=3, n_latent=2, base_seed=71)
        e = build_ai_ensemble(base, params, TOYCFG, pspec, clim)
        meta_solo, field_solo = ai_member(base, params, TOYCFG, pspec, clim, 2, 1)
        idx = [m.id for m in e.metas()].index(meta_solo.id)
        assert np.array_equal(field_solo.values, e.members[idx][1].values)
        assert e.metas()[idx] == meta_solo

    def test_members_distinct_under_perturbation(self):
        params = attn.init_params(TOYCFG, 7)
        base = np.random.default_rng(8).standard_normal((3, 32, 32, 4))
        pspec = PerturbationSpec(n_init=4, n_latent=4, base_seed=11)
        e = build_ai_ensemble(base, params, TOYCFG, pspec, flat_clim(SPEC))
        fields = e.stacked()
        n = len(e)
        distinct = sum(
            1
            for i in range(n) for j in range(i + 1, n)
            if np.abs(fields[i] - fields[j]).max() > 0
        )
        pairs = n * (n - 1) // 2
        assert distinct >= 0.99 * pairs

    def test_noise_layer_before_last_matches_isolation_and_forward(self):
        # noise after layer 0 of 2: the shared trunk is layer 0 and every
        # member's tail runs layer 1 after its own latent noise
        cfg = attn.AttentionConfig(num_layers=2)
        params = attn.init_params(cfg, 21)
        base = np.random.default_rng(22).standard_normal((3, 32, 32, 4))
        clim = flat_clim(SPEC)
        pspec = PerturbationSpec(n_init=2, n_latent=3, base_seed=23, noise_layer=0)
        run_cfg = replace(cfg, latent_noise_sigma=pspec.latent_sigma, noise_layer=0)
        e = build_ai_ensemble(base, params, cfg, pspec, clim)
        for k, (meta, fld) in enumerate(e):
            i, j = divmod(k, pspec.n_latent)
            solo_meta, solo = ai_member(base, params, cfg, pspec, clim, i, j)
            assert solo_meta == meta
            assert np.array_equal(solo.values, fld.values)
            pert = correlated_field(SPEC, meta.init_seed, pspec.field_sigma,
                                    pspec.spectral_slope)
            inputs = base + pert.values[None, :, :, None]
            direct = attn.forward(params, inputs, run_cfg, latent_seed=meta.latent_seed,
                                  spec=SPEC)
            assert np.array_equal(anomaly_percent(direct, clim).values, fld.values)
        assert len({fld.values.tobytes() for _, fld in e}) == len(e)

    def test_trunk_computed_once_per_init(self, monkeypatch):
        import capeskit.ensemble as ens

        counts = {"correlated_field": 0, "trunk": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in counts:
            monkeypatch.setattr(ens, name, counting(name, getattr(ens, name)))
        params = attn.init_params(TOYCFG, 31)
        base = np.random.default_rng(32).standard_normal((3, 32, 32, 4))
        pspec = PerturbationSpec(n_init=3, n_latent=4, base_seed=33)
        e = build_ai_ensemble(base, params, TOYCFG, pspec, flat_clim(SPEC))
        assert len(e) == 12
        assert counts == {"correlated_field": pspec.n_init, "trunk": pspec.n_init}

    def test_tail_rejects_wrong_token_shape(self):
        params = attn.init_params(TOYCFG, 34)
        with pytest.raises(CapeskitError, match="trunk tokens"):
            attn.tail(params, np.zeros((TOYCFG.seq_len + 1, TOYCFG.embed_dim)), TOYCFG)

    def test_rejects_out_of_range_member(self):
        params = attn.init_params(TOYCFG, 9)
        base = np.zeros((3, 32, 32, 4))
        pspec = PerturbationSpec(n_init=2, n_latent=2)
        with pytest.raises(CapeskitError):
            ai_member(base, params, TOYCFG, pspec, flat_clim(SPEC), 2, 0)


class TestManifestIo:
    def test_round_trip(self, tmp_path):
        metas = build_numerical_manifest()[:5] + [
            MemberMeta(id="ai-0000-0000", track="ai",
                       init_seed=mix(1, "init", 0), latent_seed=mix(1, "latent", 0, 0)),
        ]
        path = tmp_path / "manifest.tsv"
        write_manifest(path, metas, NumericalManifest())
        back = read_manifest(path)
        assert back == metas

    def test_format_is_tab_separated(self, tmp_path):
        metas = [MemberMeta(id="num-d0-s0", track="numerical", start_date_index=0,
                            scheme_index=0)]
        path = tmp_path / "manifest.tsv"
        write_manifest(path, metas, NumericalManifest())
        line = path.read_text().splitlines()[0]
        ident, track, kv = line.split("\t")
        assert ident == "num-d0-s0"
        assert track == "numerical"
        assert "start_date_index=0" in kv
        assert "scheme=s0" in kv

    def test_ensemble_dir_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        members = []
        for i in range(4):
            meta = MemberMeta(id=f"ai-{i:04d}", track="ai", init_seed=i, latent_seed=i)
            members.append((meta, AnomalyField(SPEC, rng.uniform(-90, 90, (32, 32)))))
        e = EnsembleSet(members)
        d = tmp_path / "ens"
        write_ensemble_dir(d, e)
        back = read_ensemble_dir(d)
        assert back.metas() == e.metas()
        for (_, a), (_, b) in zip(back, e):
            assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("shape", [(32, 32), (80, 80)])
    def test_member_files_equal_write_grid_and_repr(self, tmp_path, shape):
        # small members are formatted several per chunk, an 80x80 member in
        # blocks of rows: negative, scientific and -0.0 values straddle the
        # chunk boundaries
        nlat, nlon = shape
        spec = GridSpec(nlat, nlon, lat0=-10.5, dlat=0.25)
        rng = np.random.default_rng(11)
        fields = rng.standard_normal((6, nlat * nlon)) * 10.0 ** rng.integers(-6, 18, (6, 1))
        specials = [-0.0, -1.5e-7, 3e16, -1e22, -42.125, 5e-324, 0.0, -2.5]
        if nlat * nlon <= _CHUNK:
            per = _CHUNK // (nlat * nlon)  # members per chunk
            fields[per - 1, -4:] = specials[:4]
            fields[per, :4] = specials[4:]
        else:
            cut = _CHUNK // nlon * nlon  # values in the first block of rows
            fields[0, cut - 4:cut + 4] = specials
        ens = EnsembleSet([
            (MemberMeta(id=f"m{i}", track="ai", init_seed=i, latent_seed=i),
             AnomalyField(spec, f.reshape(nlat, nlon)))
            for i, f in enumerate(fields)])
        write_ensemble_dir(tmp_path / "ens", ens)
        header = f"GRD1 {nlat} {nlon} -10.5 0.25 0.0 1.0 percent\n".encode()
        for meta, fld in ens:
            write_grid(fld.as_grid(), tmp_path / "one.grd")
            got = (tmp_path / "ens" / f"{meta.id}.grd").read_bytes()
            assert got == (tmp_path / "one.grd").read_bytes()
            assert got == header + b"".join(
                (" ".join(map(repr, row)) + "\n").encode() for row in fld.values.tolist())

    def test_missing_member_file(self, tmp_path):
        d = tmp_path / "ens"
        d.mkdir()
        write_manifest(d / "manifest.tsv",
                       [MemberMeta(id="ai-0000", track="ai", init_seed=0, latent_seed=0)])
        with pytest.raises(CapeskitError, match="missing"):
            read_ensemble_dir(d)

    def test_not_an_ensemble_dir(self, tmp_path):
        with pytest.raises(CapeskitError, match="manifest"):
            read_ensemble_dir(tmp_path)

    def test_corrupt_manifest_is_input_error(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("m0\trowboat\t\n")
        with pytest.raises(CapeskitError, match="line 1"):
            read_manifest(path)
        path.write_text("m0\tai\tinit_seed=xyz,latent_seed=1\n")
        with pytest.raises(CapeskitError, match="line 1"):
            read_manifest(path)

    def test_member_id_cannot_leave_the_directory(self, tmp_path):
        d = tmp_path / "ens"
        d.mkdir()
        write_grid(GridField(SPEC, np.zeros((32, 32)), units="percent"), tmp_path / "x.grd")
        (d / "manifest.tsv").write_text(
            "ai-0000\tai\tinit_seed=0,latent_seed=0\n../x\tai\tinit_seed=1,latent_seed=1\n")
        with pytest.raises(CapeskitError, match="line 2: member id '../x'"):
            read_ensemble_dir(d)

    def test_non_utf8_manifest_is_input_error(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_bytes(b"ai-0000\tai\tinit_seed=0,latent_seed=\xff\n")
        with pytest.raises(CapeskitError, match="not UTF-8"):
            read_manifest(path)

    def test_bad_member_file_names_the_file(self, tmp_path):
        d = tmp_path / "ens"
        write_ensemble_dir(d, EnsembleSet([
            (MemberMeta(id="ai-0000", track="ai", init_seed=0, latent_seed=0),
             AnomalyField(SPEC, np.zeros((32, 32))))]))
        with open(d / "ai-0000.grd", "a") as fh:
            fh.write("zap\n")
        with pytest.raises(CapeskitError, match=r"ai-0000\.grd: line 34: unparseable value"):
            read_ensemble_dir(d)
        (d / "ai-0000.grd").unlink()
        (d / "ai-0000.grd").mkdir()
        with pytest.raises(CapeskitError, match="cannot read"):
            read_ensemble_dir(d)
