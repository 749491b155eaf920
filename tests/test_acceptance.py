"""Acceptance gate: one test per criterion, each printing a pass/fail line
and enforcing its runtime budget. Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines."""

import time

import numpy as np
import pytest

import capeskit.attention as attn
from capeskit.cli import main
from capeskit.ensemble import PerturbationSpec, ai_member, correlated_field
from capeskit.fusion import (
    EnsembleSet,
    FusionConfig,
    MemberMeta,
    contribution_scores,
    fuse,
)
from capeskit.grid import AnomalyField, GridField, GridSpec, read_grid, write_grid
from capeskit.pca import fit_pca
from capeskit.scaling import (
    BenchmarkConfig,
    ScalingConfig,
    skill_curve,
    spearman,
    synthetic_benchmark,
)
from capeskit.seeds import mix
from capeskit.verify import Level, PsBreakdown, classify, ps_breakdown, ps_score


class Criterion:
    """Context manager asserting a runtime budget and printing the verdict."""

    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"[{verdict}] criterion {self.number}: {self.label} "
              f"({elapsed:.2f}s / budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget ({elapsed:.2f}s)"
            )
        return False


def anom_row(values):
    values = np.asarray(values, dtype=np.float64)
    return AnomalyField(GridSpec(1, values.size), values.reshape(1, -1))


def test_criterion_01_ps_formula_fidelity():
    with Criterion(1, "PS formula fidelity on the 4-cell worked example", 1.0):
        obs = anom_row([30.0, -60.0, 10.0, 120.0])
        fc = anom_row([25.0, -55.0, -5.0, 40.0])
        b = ps_breakdown(fc, obs)
        assert (b.N, b.N0, b.N1, b.N2, b.M) == (4, 3, 1, 1, 1)
        assert abs(ps_score(b) - 1200.0 / 14.0) <= 1e-9

        perfect = ps_breakdown(obs, obs)
        assert ps_score(perfect) == 100.0

        wrong = ps_breakdown(anom_row([-30.0] * 4), anom_row([30.0] * 4))
        assert ps_score(wrong) == 0.0


def scalar_oracle(fc, ob):
    n = n0 = n1 = n2 = m = 0
    for f, o in zip(fc, ob):
        cf, co = classify(f), classify(o)
        n += 1
        if (f * o > 0) or (f == 0 and o == 0):
            n0 += 1
            if cf.level is Level.FIRST and co.level is Level.FIRST:
                n1 += 1
            if cf.level is Level.SECOND and co.level is Level.SECOND:
                n2 += 1
        if abs(o) > 100 and abs(f) < 50:
            m += 1
    return PsBreakdown(n, n0, n1, n2, m)


def test_criterion_02_ps_brute_force_equivalence():
    with Criterion(2, "ps_breakdown matches the scalar oracle on 1,000 8x8 pairs", 5.0):
        spec = GridSpec(8, 8)
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            fc = rng.uniform(-160, 160, 64)
            ob = rng.uniform(-160, 160, 64)
            got = ps_breakdown(AnomalyField(spec, fc.reshape(8, 8)),
                               AnomalyField(spec, ob.reshape(8, 8)))
            want = scalar_oracle(fc, ob)
            assert got == want, f"mismatch at seed {seed}"


def test_criterion_03_attention_oracle_equivalence():
    with Criterion(3, "window/cross-variable attention == masked dense oracle, 20 configs", 30.0):
        for seed in range(20):
            rng = np.random.default_rng(9000 + seed)
            h = int(rng.choice([1, 2, 4]))
            d = int(rng.choice([16, 32]))
            w = int(rng.choice([1, 2]))
            v = int(rng.choice([1, 2, 3]))
            pr = w * int(rng.choice([2, 4] if w == 1 else [1, 2]))
            pc = w * int(rng.choice([2, 4] if w == 1 else [1, 2]))
            while v * pr * pc > 96:
                v = 1
            cfg = attn.AttentionConfig(embed_dim=d, num_heads=h, window_size=w,
                                       num_domains=v, nlat=pr * 8, nlon=pc * 8)
            params = attn.init_params(cfg, seed)
            x = attn.TokenSequence(
                attn.Tensor(rng.standard_normal((cfg.seq_len, cfg.embed_dim))),
                attn.token_tags(cfg))
            wgot = attn.window_attention(x, params, cfg, layer=0)
            wwant = attn.dense_attention_oracle(x, attn.window_mask(cfg), params, cfg,
                                                level="win")
            assert np.abs(wgot.values - wwant.values).max() <= 1e-10
            cgot = attn.cross_variable_attention(x, params, cfg, layer=0)
            cwant = attn.dense_attention_oracle(x, attn.cross_variable_mask(cfg), params,
                                                cfg, level="xvar")
            assert np.abs(cgot.values - cwant.values).max() <= 1e-10


def test_criterion_04_linear_complexity_accounting():
    with Criterion(4, "exact 2x/4x FLOP ratios and sub-quadratic wall time", 120.0):
        cfg = attn.AttentionConfig()  # w=2, V=3, m=8
        assert attn.tri_level_flops(cfg, 96) == 2 * attn.tri_level_flops(cfg, 48)
        f48, f96 = attn.flop_count(cfg, 48), attn.flop_count(cfg, 96)
        assert f96["dense_flops"] == 4 * f48["dense_flops"]

        c256 = attn.AttentionConfig(num_domains=1, nlat=128, nlon=128)
        c1024 = attn.AttentionConfig(num_domains=1, nlat=256, nlon=256)
        assert c256.seq_len == 256 and c1024.seq_len == 1024
        t256 = attn.measure_block_time(c256, repeats=5)
        t1024 = attn.measure_block_time(c1024, repeats=5)
        assert t1024 / t256 < 8.0, f"wall-time ratio {t1024 / t256:.2f}"


def test_criterion_05_gradient_correctness():
    with Criterion(5, "grad_check < 1e-6 on the default toy model (L=12)", 60.0):
        cfg = attn.AttentionConfig(nlat=16, nlon=16)  # L = 2*2*3 = 12, d=32, 2 layers
        assert cfg.seq_len == 12
        params = attn.init_params(cfg, seed=0)
        rng = np.random.default_rng(1)
        inputs = rng.standard_normal((cfg.num_domains, cfg.nlat, cfg.nlon, cfg.channels))
        err = attn.grad_check(params, inputs, cfg, probe_count=20, seed=2)
        assert err < 1e-6, f"max relative error {err:.3e}"


def test_criterion_06_ensemble_combinatorics_determinism(tmp_path):
    with Criterion(6, "1,774-member hybrid, byte-identical reruns, member isolation", 120.0):
        dirs = []
        for name in ("run-a", "run-b"):
            out = tmp_path / name
            rc = main(["generate", "--mode", "hybrid", "--seed", "13",
                       "--out-dir", str(out)])
            assert rc == 0
            dirs.append(out)

        grds = sorted(p.name for p in dirs[0].glob("*.grd"))
        assert len(grds) == 1774
        num = [g for g in grds if g.startswith("num-")]
        ai = [g for g in grds if g.startswith("ai-")]
        assert len(num) == 174 and len(ai) == 1600

        names_b = sorted(p.name for p in dirs[1].iterdir())
        assert sorted(p.name for p in dirs[0].iterdir()) == names_b
        for name in names_b:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name

        # regenerate member (i, j) = (17, 23) in isolation, exactly as generate does
        seed = 13
        acfg = attn.AttentionConfig()
        params = attn.init_params(acfg, mix(seed, "model"))
        base = np.random.default_rng(mix(seed, "base-fields")).standard_normal((3, 32, 32, 4))
        pspec = PerturbationSpec(base_seed=mix(seed, "ai"))
        from capeskit.grid import Climatology
        spec = GridSpec(32, 32)
        clim = Climatology(GridField(spec, np.full((32, 32), 300.0), "mm"))
        meta, field = ai_member(base, params, acfg, pspec, clim, 17, 23)
        from_file = read_grid(dirs[0] / f"{meta.id}.grd")
        assert np.array_equal(field.values, from_file.values)


def test_criterion_07_fusion_properties():
    with Criterion(7, "fusion weight contracts and adversarial-benchmark gain", 60.0):
        spec = GridSpec(32, 32)
        rng = np.random.default_rng(0)

        # weight contracts
        members = []
        for i in range(6):
            meta = MemberMeta(id=f"ai-{i:04d}", track="ai", init_seed=i, latent_seed=i)
            members.append((meta, AnomalyField(spec, rng.uniform(-120, 120, (32, 32)))))
        e = EnsembleSet.from_members(members)
        w = contribution_scores(e)
        assert (w >= 0).all()
        assert abs(w.sum() - 1.0) <= 1e-12
        perm = rng.permutation(len(e))
        w_perm = contribution_scores(e.take(perm))
        assert np.allclose(w_perm, w[perm], atol=1e-12)

        ident = EnsembleSet.from_members([
            (MemberMeta(id=f"ai-{i:04d}", track="ai", init_seed=i, latent_seed=i),
             AnomalyField(spec, e.values[0]))
            for i in range(5)
        ])
        assert np.allclose(contribution_scores(ident), 0.2, atol=1e-12)

        # adversarial benchmark: 30% sign-flipped members, 100 seeds
        wins = 0
        n, n_flip = 20, 6
        for seed in range(100):
            raw = correlated_field(spec, mix(seed, "adv-truth"), 1.0, 3.0)
            truth = AnomalyField(spec, raw.values * (130.0 / np.abs(raw.values).max()))
            ms = []
            for i in range(n):
                noise = correlated_field(spec, mix(seed, "adv-member", i), 15.0, 2.0)
                vals = truth.values + noise.values
                if i < n_flip:
                    vals = -vals
                meta = MemberMeta(id=f"ai-{i:04d}", track="ai", init_seed=i, latent_seed=i)
                ms.append((meta, AnomalyField(spec, vals)))
            adv = EnsembleSet.from_members(ms)
            fused = fuse(adv, contribution_scores(adv, FusionConfig()))
            mean = fuse(adv, np.full(n, 1.0 / n))
            if ps_score(ps_breakdown(fused, truth)) > ps_score(ps_breakdown(mean, truth)):
                wins += 1
        assert wins >= 80, f"fused beat the plain mean in only {wins}/100 trials"


def test_criterion_08_scaling_law():
    with Criterion(8, "PS rises with ensemble size at ratio 1:10 (50 trials/size)", 300.0):
        bench = BenchmarkConfig()
        truth, clim, pool = synthetic_benchmark(bench, seed=21)
        cfg = ScalingConfig(sizes=(11, 22, 44, 88, 176), ratio=(1, 10), trials=50,
                            benchmark=bench)
        rows = skill_curve(pool, truth, clim, cfg, seed=21)
        rho = spearman([r.size for r in rows], [r.ps_mean for r in rows])
        assert rho > 0.0, f"spearman {rho}"
        by_size = {r.size: r for r in rows}
        assert by_size[176].fused_cell_std_mean < by_size[11].fused_cell_std_mean


def test_criterion_09_pca():
    with Criterion(9, "rank-k PCA reconstruction and monotone error vs eig oracle", 1.0):
        rng = np.random.default_rng(31)
        factors = rng.standard_normal((60, 4))
        loadings = rng.standard_normal((4, 9))
        x = factors @ loadings
        basis = fit_pca(x, k=4)
        err = np.abs(basis.reconstruct(basis.project(x)) - x).max()
        assert err < 1e-9

        y = np.random.default_rng(32).standard_normal((50, 10)) @ np.diag(
            np.linspace(3.0, 0.2, 10))
        mean = y.mean(axis=0)
        yc = y - mean
        eigvals = np.linalg.eigh(yc.T @ yc / 49)[0][::-1]
        prev = np.inf
        for k in range(1, 11):
            b = fit_pca(y, k)
            resid = b.reconstruct(b.project(y)) - y
            mse = float(np.mean(resid**2))
            oracle = eigvals[k:].sum() * 49 / y.size
            assert mse == pytest.approx(oracle, abs=1e-10)
            assert mse <= prev + 1e-12
            prev = mse


def test_criterion_10_format_round_trips(tmp_path):
    with Criterion(10, "GRD1 read/write identity and byte-stable SVG/CSV", 5.0):
        rng = np.random.default_rng(41)
        for i in range(100):
            nlat = int(rng.integers(1, 7))
            nlon = int(rng.integers(1, 7))
            spec = GridSpec(nlat, nlon,
                            lat0=float(rng.uniform(-60, 60)), dlat=0.25,
                            lon0=float(rng.uniform(0, 300)), dlon=0.25)
            f = GridField(spec, rng.standard_normal((nlat, nlon)) * 500.0,
                          units=("mm", "percent", "unitless")[i % 3])
            path = tmp_path / f"rt{i}.grd"
            write_grid(f, path)
            g = read_grid(path)
            assert g.spec == f.spec and g.units == f.units
            assert np.array_equal(g.values, f.values)

        # byte-stable CSV (score) and SVG (render) across reruns
        spec = GridSpec(4, 4)
        clim = GridField(spec, np.full((4, 4), 200.0), units="mm")
        obs = GridField(spec, rng.uniform(50.0, 500.0, (4, 4)), units="mm")
        fc = GridField(spec, rng.uniform(50.0, 500.0, (4, 4)), units="mm")
        for name, fld in (("clim", clim), ("obs", obs), ("fc", fc)):
            write_grid(fld, tmp_path / f"{name}.grd")
        csvs = []
        for run in range(2):
            out = tmp_path / f"s{run}.csv"
            assert main(["score", "--forecast", str(tmp_path / "fc.grd"),
                         "--obs", str(tmp_path / "obs.grd"),
                         "--clim", str(tmp_path / "clim.grd"),
                         "--out", str(out)]) == 0
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]

        anom = AnomalyField(spec, rng.uniform(-140.0, 140.0, (4, 4)))
        from capeskit.grid import write_anomaly
        write_anomaly(anom, tmp_path / "a.grd")
        svgs = []
        for run in range(2):
            out = tmp_path / f"r{run}.svg"
            assert main(["render", "--field", str(tmp_path / "a.grd"),
                         "--svg", str(out)]) == 0
            svgs.append(out.read_bytes())
        assert svgs[0] == svgs[1]
