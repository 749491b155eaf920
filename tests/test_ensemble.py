import numpy as np
import pytest

import capeskit.attention as attn
import capeskit.cli as cli
import capeskit.ensemble as ens
from capeskit.ensemble import (
    NumericalManifest,
    PerturbationSpec,
    SkillConfig,
    TrackSkill,
    ai_member,
    build_ai_ensemble,
    build_numerical_manifest,
    correlated_field,
    gather,
    read_ensemble_dir,
    read_manifest,
    surrogate_members,
    surrogate_numerical_member,
    write_ensemble_dir,
    write_manifest,
)
from capeskit.errors import CapeskitError
from capeskit.fusion import EnsembleSet, MemberMeta, blend_scores, fuse, member_metrics
from capeskit.grid import (
    AnomalyField,
    Climatology,
    GridField,
    GridSpec,
    _CHUNK,
    READ_BYTES,
    anomaly_percent,
    read_anomaly,
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


def reference_correlated_field(spec, seed, sigma, slope):
    """correlated_field as it was written for one field at a time: the
    oracle of the batched synthesis."""
    if sigma == 0:
        return np.zeros((spec.nlat, spec.nlon))
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal((spec.nlat, spec.nlon)) + 1j * rng.standard_normal(
        (spec.nlat, spec.nlon)
    )
    ky = np.fft.fftfreq(spec.nlat) * spec.nlat
    kx = np.fft.fftfreq(spec.nlon) * spec.nlon
    kmag = np.sqrt(ky[:, None] ** 2 + kx[None, :] ** 2)
    coeff *= np.power(1.0 + kmag, -slope / 2.0)
    coeff[0, 0] = 0.0
    fld = np.fft.ifft2(coeff).real
    sd = fld.std()
    if sd == 0.0:
        return np.zeros((spec.nlat, spec.nlon))
    return fld * (sigma / sd)


def mixed_metas(n_num, n_ai):
    """Numerical manifest members, then AI members, interleaved in blocks."""
    num = build_numerical_manifest(NumericalManifest(param_shape=(7, 9)))[:n_num]
    ai = [MemberMeta(id=f"ai-{i:04d}", track="ai", init_seed=i, latent_seed=i)
          for i in range(n_ai)]
    out = []
    while num or ai:
        out += num[:5] + ai[:7]
        num, ai = num[5:], ai[7:]
    return out


TWO_TRACKS = SkillConfig(numerical=TrackSkill(bias_sigma=15.0, noise_sigma=40.0),
                         ai=TrackSkill(bias_sigma=7.5, noise_sigma=55.0))


class TestBatchedSurrogates:
    """surrogate_members against surrogate_numerical_member per member,
    bit for bit, and correlated_field against its one-field-at-a-time
    oracle."""

    @pytest.mark.parametrize("shape", [(32, 32), (20, 24), (1, 1), (1, 7), (64, 40), (128, 96)])
    @pytest.mark.parametrize("sigma,slope", [(10.0, 3.0), (0.0, 3.0), (3.5, 0.0), (1e-3, 7.5)])
    def test_correlated_field_matches_oracle(self, shape, sigma, slope):
        spec = GridSpec(*shape)
        seeds = (0, 1, 2**63 + 5)
        # alone, and as the rows of one batch
        batch = ens._correlated_values(spec, seeds, [sigma] * 3, slope)
        for seed, row in zip(seeds, batch):
            got = correlated_field(spec, seed, sigma, slope).values
            want = reference_correlated_field(spec, seed, sigma, slope)
            assert got.tobytes() == want.tobytes()
            assert row.tobytes() == want.tobytes()

    def run_batched(self, metas, truth, cfg, seed):
        out = np.full((len(metas), truth.spec.nlat, truth.spec.nlon), np.nan)
        assert gather(surrogate_members(metas, truth, cfg, seed), out) == metas
        return out

    @pytest.mark.parametrize("batch", [None, 7 * 480, 480])
    def test_matches_single_member_path(self, monkeypatch, batch):
        # 20 x 24 cells: the default batch holds 136 members, so 150 members
        # end in a partial batch; 7 does not divide 150 either
        if batch is not None:
            monkeypatch.setattr(ens, "_BATCH", batch)
        spec = GridSpec(20, 24, lat0=5.0, dlat=0.5)
        truth = AnomalyField(spec, np.random.default_rng(4).uniform(-120, 120, (20, 24)))
        metas = mixed_metas(63, 87)
        assert len(metas) == 150
        got = self.run_batched(metas, truth, TWO_TRACKS, seed=19)
        for meta, row in zip(metas, got):
            want = surrogate_numerical_member(meta, truth, TWO_TRACKS, 19).values
            assert row.tobytes() == want.tobytes(), meta.id

    @pytest.mark.parametrize("shape", [(128, 96), (90, 100)])
    def test_fields_above_the_reduction_buffer(self, shape):
        # more than 8,192 cells per field, several fields per batch (5 and 7)
        spec = GridSpec(*shape)
        truth = AnomalyField(spec, np.random.default_rng(6).uniform(-90, 90, shape))
        metas = mixed_metas(9, 8)
        assert ens._BATCH // spec.ncells in (5, 7)
        got = self.run_batched(metas, truth, TWO_TRACKS, seed=23)
        for meta, row in zip(metas, got):
            want = surrogate_numerical_member(meta, truth, TWO_TRACKS, 23).values
            assert row.tobytes() == want.tobytes(), meta.id

    def test_zero_bias_sigma_takes_the_zero_field(self):
        truth = AnomalyField(SPEC, np.random.default_rng(5).uniform(-80, 80, (32, 32)))
        cfg = SkillConfig(numerical=TrackSkill(bias_sigma=0.0, noise_sigma=20.0),
                          ai=TrackSkill(bias_sigma=0.0, noise_sigma=0.0))
        metas = mixed_metas(10, 10)
        got = self.run_batched(metas, truth, cfg, seed=3)
        for meta, row in zip(metas, got):
            assert row.tobytes() == surrogate_numerical_member(meta, truth, cfg, 3).values.tobytes()
            noise = correlated_field(SPEC, mix(3, "surrogate-noise", meta.id),
                                     cfg.for_track(meta.track).noise_sigma, 2.0).values
            assert np.array_equal(row, truth.values + 0.0 + noise)
        assert all(np.array_equal(row, truth.values + 0.0 + 0.0)
                   for meta, row in zip(metas, got) if meta.track == "ai")

    def test_single_cell_grid_has_no_spread(self):
        # one cell: the only coefficient is the zeroed mean, so sd == 0
        spec = GridSpec(1, 1)
        truth = AnomalyField(spec, [[42.5]])
        metas = mixed_metas(4, 4)
        got = self.run_batched(metas, truth, TWO_TRACKS, seed=8)
        assert (got == 42.5).all()
        for meta, row in zip(metas, got):
            assert row.tobytes() == surrogate_numerical_member(meta, truth, TWO_TRACKS, 8).values.tobytes()

    @pytest.mark.parametrize("skill,message", [
        (TrackSkill(bias_sigma=-1.0), "num-d0-s0: sigma must be >= 0, got -1.0"),
        (TrackSkill(noise_sigma=-2.0), "num-d0-s0: sigma must be >= 0, got -2.0"),
        (TrackSkill(bias_sigma=1e308), "num-d0-s0: field values must be finite"),
        (TrackSkill(bias_sigma=float("nan")), "num-d0-s0: field values must be finite"),
    ])
    def test_rejected_member_names_itself(self, skill, message):
        truth = AnomalyField(SPEC, np.zeros((32, 32)))
        metas = mixed_metas(3, 0)
        with np.errstate(all="ignore"):
            with pytest.raises(CapeskitError, match=message):
                self.run_batched(metas, truth, SkillConfig(numerical=skill), seed=1)
            # the first member in order that the single-member path rejects,
            # here the first numerical one, in the second batch
            ai_first = mixed_metas(0, 70) + metas
            with pytest.raises(CapeskitError, match=message):
                self.run_batched(ai_first, truth, SkillConfig(numerical=skill), seed=1)


class TestEnsembleMemory:
    """Reading an ensemble holds each field once: the peak traced
    allocation stays under 1.5x the final (n, nlat, nlon) array, where a
    list of fields stacked into the array would need 2x. ``generate``
    holds a batch of members, not the ensemble: its peak does not grow
    with the member count."""

    N = 300

    def test_read_ensemble_dir(self, tmp_path, traced_peak):
        rng = np.random.default_rng(3)
        values = rng.uniform(-100, 100, (self.N, 32, 32))
        metas = [MemberMeta(id=f"ai-{i:04d}", track="ai", init_seed=i, latent_seed=i)
                 for i in range(self.N)]
        write_ensemble_dir(tmp_path / "ens", EnsembleSet(SPEC, metas, values))
        back, peak = traced_peak(lambda: read_ensemble_dir(tmp_path / "ens"))
        assert np.array_equal(back.values, values)
        assert peak < 1.5 * back.values.nbytes, (peak, back.values.nbytes)

    @staticmethod
    def generate_peak(traced_peak, tmp_path, mode, config, name="ens"):
        """The peak traced allocation of ``generate`` with ``config`` into
        the directory ``name``, and the number of members it wrote."""
        cfgp = tmp_path / f"{name}.cfg"
        cfgp.write_text(config)
        out = tmp_path / name
        rc, peak = traced_peak(lambda: cli.main([
            "generate", "--mode", mode, "--seed", "2", "--config", str(cfgp),
            "--out-dir", str(out)]))
        assert rc == 0
        return peak, len(list(out.glob("*.grd")))

    def test_generate_numerical_holds_a_batch(self, tmp_path, traced_peak):
        # 3 dates x (9 schemes + 24 x 24 lattice) numerical members, made in
        # batches of 64: under half of the 14.4 MB the ensemble's array takes
        peak, members = self.generate_peak(traced_peak, tmp_path, "numerical",
                                           "param_grid = 24x24\n")
        array = members * SPEC.ncells * 8
        assert members == 1755
        assert peak < 0.5 * array, (peak, array)

    def test_generate_hybrid_peak_does_not_grow_with_members(self, tmp_path, traced_peak):
        # 2 numerical members, then 3 x 20 and 3 x 200 AI members from tails
        # of at most 42 members
        config = "start_dates = d0\nschemes = s0\nparam_grid = 1x1\nn_init = 3\n"
        small, n_small = self.generate_peak(traced_peak, tmp_path, "hybrid",
                                            config + "n_latent = 20\n", "a")
        large, n_large = self.generate_peak(traced_peak, tmp_path, "hybrid",
                                            config + "n_latent = 200\n", "b")
        assert (n_small, n_large) == (62, 602)
        assert large < 1.5 * small, (large, small)

    def test_fuse_holds_the_ensemble_once(self, tmp_path, traced_peak):
        # the metrics read the array a block of members at a time, so fuse
        # holds the array and one block; a full-size np.sign or np.abs of
        # the array would take it past 2x
        n = 1000
        rng = np.random.default_rng(4)
        values = rng.uniform(-100, 100, (n, 32, 32))
        values[rng.random(values.shape) < 0.2] = 0.0
        metas = [MemberMeta(id=f"ai-{i:04d}", track="ai", init_seed=i, latent_seed=i)
                 for i in range(n)]
        e = EnsembleSet(SPEC, metas, values)
        (s1, s2), alone = traced_peak(lambda: member_metrics(e))
        assert alone <= 0.1 * values.nbytes, (alone, values.nbytes)
        write_ensemble_dir(tmp_path / "ens", e)
        rc, peak = traced_peak(lambda: cli.main([
            "fuse", "--ensemble-dir", str(tmp_path / "ens"),
            "--out-weights", str(tmp_path / "w.csv"), "--out-field", str(tmp_path / "f.grd")]))
        assert rc == 0
        assert peak < 1.5 * values.nbytes, (peak, values.nbytes)
        weights = blend_scores(s1, s2)
        assert np.array_equal(read_anomaly(tmp_path / "f.grd").values, fuse(e, weights).values)


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
        pspec = PerturbationSpec(n_init=1, n_latent=3, base_seed=4,
                                 field_sigma=0.0, latent_sigma=0.0)
        e = build_ai_ensemble(base, params, TOYCFG, pspec, clim)
        direct = anomaly_percent(attn.forward(params, base, TOYCFG, spec=SPEC), clim)
        assert len(e) == 3
        for values in e.values:
            assert np.array_equal(values, direct.values)

    def test_member_isolation_matches_full_run(self):
        params = attn.init_params(TOYCFG, 5)
        base = np.random.default_rng(6).standard_normal((3, 32, 32, 4))
        clim = flat_clim(SPEC)
        pspec = PerturbationSpec(n_init=3, n_latent=2, base_seed=71)
        e = build_ai_ensemble(base, params, TOYCFG, pspec, clim)
        meta_solo, field_solo = ai_member(base, params, TOYCFG, pspec, clim, 2, 1)
        idx = [m.id for m in e.metas()].index(meta_solo.id)
        assert np.array_equal(field_solo.values, e.values[idx])
        assert e.metas()[idx] == meta_solo

    def test_members_distinct_under_perturbation(self):
        params = attn.init_params(TOYCFG, 7)
        base = np.random.default_rng(8).standard_normal((3, 32, 32, 4))
        pspec = PerturbationSpec(n_init=4, n_latent=4, base_seed=11)
        e = build_ai_ensemble(base, params, TOYCFG, pspec, flat_clim(SPEC))
        fields = e.values
        n = len(e)
        distinct = sum(
            1
            for i in range(n) for j in range(i + 1, n)
            if np.abs(fields[i] - fields[j]).max() > 0
        )
        pairs = n * (n - 1) // 2
        assert distinct >= 0.99 * pairs

    def test_noise_layer_before_last_matches_isolation_and_forward(self):
        # each member is decode(trunk(base + pert) + noise): the trunk runs
        # both layers once per init, and only the seeded noise differs
        cfg = attn.AttentionConfig(num_layers=2)
        params = attn.init_params(cfg, 21)
        base = np.random.default_rng(22).standard_normal((3, 32, 32, 4))
        clim = flat_clim(SPEC)
        pspec = PerturbationSpec(n_init=2, n_latent=3, base_seed=23)
        e = build_ai_ensemble(base, params, cfg, pspec, clim)
        for k, (meta, values) in enumerate(zip(e.metas(), e.values)):
            i, j = divmod(k, pspec.n_latent)
            solo_meta, solo = ai_member(base, params, cfg, pspec, clim, i, j)
            assert solo_meta == meta
            assert np.array_equal(solo.values, values)
            pert = correlated_field(SPEC, meta.init_seed, pspec.field_sigma,
                                    pspec.spectral_slope)
            inputs = base + pert.values[None, :, :, None]
            noise = np.random.default_rng(meta.latent_seed).normal(
                0.0, pspec.latent_sigma, size=(cfg.seq_len, cfg.embed_dim))
            direct = attn.decode(params, attn.trunk(params, inputs, cfg) + noise, cfg, spec=SPEC)
            assert np.array_equal(anomaly_percent(GridField(SPEC, direct, "mm"), clim).values,
                                  values)
        assert len({row.tobytes() for row in e.values}) == len(e)

    @pytest.mark.parametrize("n_init,n_latent,per", [
        (2, 7, None),  # each init's members in one batch
        (1, 45, None),  # beyond one batch of the default budget (42 at L = 48, d = 32)
        (2, 7, 3),  # batches of 3, 3 and 1
    ])
    def test_batched_tails_match_ai_member(self, monkeypatch, n_init, n_latent, per):
        if per is not None:
            monkeypatch.setattr(ens, "_BATCH", per * TOYCFG.seq_len * TOYCFG.embed_dim)
        params = attn.init_params(TOYCFG, 35)
        base = np.random.default_rng(36).standard_normal((3, 32, 32, 4))
        clim = flat_clim(SPEC)
        pspec = PerturbationSpec(n_init=n_init, n_latent=n_latent, base_seed=37)
        out = np.full((pspec.member_count, 32, 32), np.nan)
        metas = gather(ens.ai_members(base, params, TOYCFG, pspec, clim), out)
        assert len(metas) == pspec.member_count
        for k, (meta, values) in enumerate(zip(metas, out)):
            solo_meta, solo = ai_member(base, params, TOYCFG, pspec, clim, *divmod(k, n_latent))
            assert solo_meta == meta
            assert np.array_equal(solo.values, values), meta.id

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
        e = EnsembleSet.from_members(members)
        d = tmp_path / "ens"
        write_ensemble_dir(d, e)
        back = read_ensemble_dir(d)
        assert back.metas() == e.metas()
        for a, b in zip(back.values, e.values):
            assert np.array_equal(a, b)

    @staticmethod
    def _zeros_ensemble(ids):
        return EnsembleSet.from_members([
            (MemberMeta(id=i, track="ai", init_seed=k, latent_seed=k),
             AnomalyField(SPEC, np.zeros((32, 32)))) for k, i in enumerate(ids)])

    def test_stale_members_are_removed(self, tmp_path):
        d = tmp_path / "ens"
        write_ensemble_dir(d, self._zeros_ensemble(["a", "b", "c", "d"]))
        write_ensemble_dir(d, self._zeros_ensemble(["b", "e"]))
        assert sorted(p.name for p in d.iterdir()) == ["b.grd", "e.grd", "manifest.tsv"]
        assert [m.id for m in read_ensemble_dir(d).metas()] == ["b", "e"]

    def test_only_listed_members_are_removed(self, tmp_path):
        d = tmp_path / "ens"
        write_ensemble_dir(d, self._zeros_ensemble(["a", "b"]))
        (d / "notes.txt").write_text("mine\n")
        (d / "a.txt").write_text("mine\n")
        (d / "z.grd").write_bytes((d / "a.grd").read_bytes())
        write_ensemble_dir(d, self._zeros_ensemble(["c"]))
        assert sorted(p.name for p in d.iterdir()) == [
            "a.txt", "c.grd", "manifest.tsv", "notes.txt", "z.grd"]

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
        ens = EnsembleSet.from_members([
            (MemberMeta(id=f"m{i}", track="ai", init_seed=i, latent_seed=i),
             AnomalyField(spec, f.reshape(nlat, nlon)))
            for i, f in enumerate(fields)])
        write_ensemble_dir(tmp_path / "ens", ens)
        header = f"GRD1 {nlat} {nlon} -10.5 0.25 0.0 1.0 percent\n".encode()
        for meta, values in zip(ens.metas(), ens.values):
            fld = AnomalyField(spec, values)
            write_grid(fld.as_grid(), tmp_path / "one.grd")
            got = (tmp_path / "ens" / f"{meta.id}.grd").read_bytes()
            assert got == (tmp_path / "one.grd").read_bytes()
            assert got == header + b"".join(
                (" ".join(map(repr, row)) + "\n").encode() for row in fld.values.tolist())

    def test_member_on_another_grid(self, tmp_path):
        d = tmp_path / "ens"
        write_ensemble_dir(d, EnsembleSet.from_members([
            (MemberMeta(id=f"ai-{i:04d}", track="ai", init_seed=i, latent_seed=i),
             AnomalyField(SPEC, np.zeros((32, 32)))) for i in range(2)]))
        write_grid(GridField(GridSpec(32, 32, lat0=1.0), np.zeros((32, 32)), units="percent"),
                   d / "ai-0001.grd")
        with pytest.raises(CapeskitError, match="'ai-0001' grid differs"):
            read_ensemble_dir(d)

    def test_bad_body_is_reported_before_a_missing_member_of_its_batch(self, tmp_path):
        # members 1 to 4 of 32 x 32 zeros fit in one batch: member 2's body
        # is parsed, and its error reported, before member 3 is found missing
        d = tmp_path / "ens"
        write_ensemble_dir(d, EnsembleSet.from_members([
            (MemberMeta(id=f"ai-{i:04d}", track="ai", init_seed=i, latent_seed=i),
             AnomalyField(SPEC, np.zeros((32, 32)))) for i in range(5)]))
        assert 4 * (d / "ai-0001.grd").stat().st_size < READ_BYTES
        with open(d / "ai-0002.grd", "a") as fh:
            fh.write("zap\n")
        (d / "ai-0003.grd").unlink()
        with pytest.raises(CapeskitError, match=r"ai-0002\.grd: line 34: unparseable value 'zap'"):
            read_ensemble_dir(d)

    def test_member_on_another_grid_in_a_later_batch(self, tmp_path):
        d = tmp_path / "ens"
        rng = np.random.default_rng(4)
        write_ensemble_dir(d, EnsembleSet.from_members([
            (MemberMeta(id=f"ai-{i:04d}", track="ai", init_seed=i, latent_seed=i),
             AnomalyField(SPEC, rng.uniform(-100, 100, (32, 32)))) for i in range(10)]))
        assert 8 * (d / "ai-0001.grd").stat().st_size > 2 * READ_BYTES
        write_grid(GridField(GridSpec(32, 32, dlon=2.0), np.zeros((32, 32)), units="percent"),
                   d / "ai-0008.grd")
        with pytest.raises(CapeskitError, match="member 'ai-0008' grid differs from the "
                                                "ensemble grid"):
            read_ensemble_dir(d)
        # a later member in mm is read to its end before its units are refused
        write_grid(GridField(SPEC, np.zeros((32, 32)), units="mm"), d / "ai-0008.grd")
        with pytest.raises(CapeskitError, match=r"ai-0008\.grd: anomaly fields carry percent"):
            read_ensemble_dir(d)

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
        write_ensemble_dir(d, EnsembleSet.from_members([
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


def _add_bad_token(path):
    path.write_bytes(path.read_bytes() + b"zap\n")


def _make_directory(path):
    path.unlink()
    path.mkdir()


def _drop_last_row(path):
    path.write_bytes(path.read_bytes().rsplit(b"\n", 2)[0] + b"\n")


#: a defect of one member file of 32 x 32 zeros, and the error it gives
#: (a pattern, with the member's id for {id})
DEFECTS = {
    "bad-token": (_add_bad_token, r"{id}\.grd: line 34: unparseable value 'zap'"),
    "missing": (lambda path: path.unlink(), r": member file missing for '{id}'"),
    "directory": (_make_directory, r"{id}\.grd: cannot read: Is a directory"),
    "other-grid": (lambda path: write_grid(GridField(GridSpec(32, 32, lat0=1.0),
                                                     np.zeros((32, 32)), units="percent"), path),
                   r"member '{id}' grid differs from the ensemble grid"),
    "mm-units": (lambda path: write_grid(GridField(SPEC, np.zeros((32, 32)), units="mm"), path),
                 r"{id}\.grd: anomaly fields carry percent units, got 'mm'"),
    "value-count": (_drop_last_row,
                    r"{id}\.grd: line 33: value count mismatch: header declares 1024, found 992"),
}
#: the members i < j given a defect each: both in the first group the
#: reader parses, in two groups, and the first member, which is read alone
#: (another grid there is the ensemble's grid, so it is no defect)
PLACES = {"one-group": (3, 9), "two-groups": (3, 20), "first-member": (0, 9)}


class TestFirstBadMember:
    """Of two bad members, the first in manifest order is reported, with
    the error it gives alone, wherever the two fall in the reader's groups."""

    N = 24

    @pytest.mark.parametrize("first,second,place", [
        (a, b, p) for p in PLACES for a in DEFECTS for b in DEFECTS
        if not (p == "first-member" and a == "other-grid")])
    def test_first_bad_member_is_reported(self, tmp_path, first, second, place):
        d = tmp_path / "ens"
        write_ensemble_dir(d, EnsembleSet.from_members([
            (MemberMeta(id=f"ai-{k:04d}", track="ai", init_seed=k, latent_seed=k),
             AnomalyField(SPEC, np.zeros((32, 32)))) for k in range(self.N)]))
        body = len((d / "ai-0000.grd").read_bytes().partition(b"\n")[2])
        assert 9 * body <= READ_BYTES < 20 * body  # members 1 to 9 are parsed together, 20 later
        i, j = PLACES[place]
        DEFECTS[second][0](d / f"ai-{j:04d}.grd")
        DEFECTS[first][0](d / f"ai-{i:04d}.grd")
        with pytest.raises(CapeskitError, match=DEFECTS[first][1].format(id=f"ai-{i:04d}")):
            read_ensemble_dir(d)
