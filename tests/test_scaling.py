import sys

import numpy as np
import pytest

from capeskit.ensemble import SkillConfig, TrackSkill
from capeskit.errors import CapeskitError
from capeskit.fusion import blend_scores, contribution_scores
from capeskit.scaling import (
    BenchmarkConfig,
    ScalingConfig,
    SkillRow,
    skill_curve,
    spearman,
    subsample,
    synthetic_benchmark,
)
from capeskit.verify import Level, classify
from test_fusion import reference_member_metrics


class TestBenchmark:
    def test_default_covers_all_bands(self):
        truth, clim, pool = synthetic_benchmark(BenchmarkConfig(), seed=0)
        cats = [classify(a) for a in truth.values.ravel()]
        for level in Level:
            assert any(c.level is level for c in cats)
        assert any(c.extreme for c in cats)
        assert len(pool) == 174 + 1600
        assert (clim.values == 300.0).all()

    def test_zero_amplitude_degenerate(self):
        with pytest.raises(CapeskitError, match="truth pattern is identically zero"):
            synthetic_benchmark(BenchmarkConfig(amplitude=0.0), seed=0)

    def test_sub_extreme_amplitude_degenerate(self):
        with pytest.raises(CapeskitError, match=r"no extreme cell \(\|a\| > 100\)"):
            synthetic_benchmark(BenchmarkConfig(amplitude=90.0), seed=0)

    def test_deterministic(self):
        cfg = BenchmarkConfig(n_numerical=10, n_ai=20)
        t1, _, p1 = synthetic_benchmark(cfg, seed=5)
        t2, _, p2 = synthetic_benchmark(cfg, seed=5)
        assert np.array_equal(t1.values, t2.values)
        assert np.array_equal(p1.values, p2.values)

    def test_track_composition(self):
        cfg = BenchmarkConfig(n_numerical=12, n_ai=30)
        _, _, pool = synthetic_benchmark(cfg, seed=1)
        tracks = [m.track for m in pool.metas()]
        assert tracks.count("numerical") == 12
        assert tracks.count("ai") == 30


@pytest.fixture(scope="module")
def pool():
    cfg = BenchmarkConfig(n_numerical=20, n_ai=50)
    return synthetic_benchmark(cfg, seed=3)[2]


class TestSubsample:

    def test_counts_and_ratio(self, pool):
        sub = subsample(pool, 2, 20, seed=0)
        assert len(sub) == 22
        assert sum(1 for m in sub.metas() if m.track == "numerical") == 2

    def test_full_request_is_identity_sorted_by_id(self, pool):
        sub = subsample(pool, 20, 50, seed=9)
        ids = [m.id for m in sub.metas()]
        num = [i for i in ids if i.startswith("num")]
        ai = [i for i in ids if i.startswith("ai")]
        assert num == sorted(num) and ai == sorted(ai)
        assert set(ids) == {m.id for m in pool.metas()}

    def test_deterministic(self, pool):
        a = subsample(pool, 3, 30, seed=4)
        b = subsample(pool, 3, 30, seed=4)
        assert [m.id for m in a.metas()] == [m.id for m in b.metas()]
        c = subsample(pool, 3, 30, seed=5)
        assert [m.id for m in a.metas()] != [m.id for m in c.metas()]

    def test_insufficient_members(self, pool):
        with pytest.raises(CapeskitError, match="only"):
            subsample(pool, 21, 0, seed=0)

    def test_smallest_hybrid_composition_from_full_pool(self):
        # 22 members at ratio 1:10 from the full 174/1600 pool: 2 + 20
        _, _, full = synthetic_benchmark(BenchmarkConfig(), seed=17)
        sub = subsample(full, 2, 20, seed=17)
        assert len(sub) == 22
        tracks = [m.track for m in sub.metas()]
        assert tracks.count("numerical") == 2 and tracks.count("ai") == 20


def reference_subsample(e, n_num, n_ai, seed):
    """subsample as it was written over a member list, sorting each track
    by id on every call: the indices of the chosen members."""
    rng = np.random.default_rng(seed)
    metas = e.metas()
    picked = []
    for track, want in (("numerical", n_num), ("ai", n_ai)):
        pool = sorted((i for i, m in enumerate(metas) if m.track == track),
                      key=lambda i: metas[i].id)
        idx = rng.choice(len(pool), size=want, replace=False)
        picked.extend(pool[i] for i in sorted(idx))
    return picked


@pytest.fixture(scope="module")
def full_pool():
    return synthetic_benchmark(BenchmarkConfig(), seed=21)[2]


class TestSubsampleOracle:
    """Index-array subsampling picks the members, values and weights of
    the sort-by-id reference."""

    def check(self, e, n_num, n_ai, seed):
        sub = subsample(e, n_num, n_ai, seed)
        picked = reference_subsample(e, n_num, n_ai, seed)
        assert sub.metas() == [e.metas()[i] for i in picked]
        values = np.stack([e.values[i] for i in picked])
        assert sub.values.tobytes() == values.tobytes()
        weights = blend_scores(*reference_member_metrics(values))
        assert contribution_scores(sub).tobytes() == weights.tobytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_shuffled_pool(self, pool, seed):
        rng = np.random.default_rng(seed)
        shuffled = pool.take(rng.permutation(len(pool)))
        n_num = int(rng.integers(0, 21))
        n_ai = int(rng.integers(0 if n_num else 1, 51))
        self.check(shuffled, n_num, n_ai, seed)

    @pytest.mark.parametrize("size", [11, 22, 44, 88, 176])
    def test_full_pool(self, full_pool, size):
        n_num, n_ai = ScalingConfig().split(size)
        for trial in range(4):
            self.check(full_pool, n_num, n_ai, 1000 * size + trial)


class TestScalingConfig:
    def test_split_exact(self):
        cfg = ScalingConfig()
        assert cfg.split(11) == (1, 10)
        assert cfg.split(176) == (16, 160)

    def test_rejects_non_ratio_sizes(self):
        with pytest.raises(CapeskitError):
            ScalingConfig(sizes=(12,))


class TestSkillCurve:
    def test_perfect_members_score_100_at_every_size(self):
        perfect = SkillConfig(numerical=TrackSkill(0.0, 0.0), ai=TrackSkill(0.0, 0.0))
        bench = BenchmarkConfig(n_numerical=4, n_ai=40, skill=perfect)
        truth, clim, pool = synthetic_benchmark(bench, seed=7)
        cfg = ScalingConfig(sizes=(11, 22, 44), trials=3, benchmark=bench)
        rows = skill_curve(pool, truth, clim, cfg, seed=7)
        for r in rows:
            assert r.ps_mean == 100.0
            assert r.ps_std == 0.0

    def test_single_member_zero_noise_is_100(self):
        perfect = SkillConfig(numerical=TrackSkill(0.0, 0.0), ai=TrackSkill(0.0, 0.0))
        bench = BenchmarkConfig(n_numerical=0, n_ai=4, skill=perfect)
        truth, clim, pool = synthetic_benchmark(bench, seed=6)
        cfg = ScalingConfig(sizes=(1, 2), ratio=(0, 1), trials=2, benchmark=bench)
        rows = skill_curve(pool, truth, clim, cfg, seed=6)
        assert all(r.ps_mean == 100.0 for r in rows)
        assert rows[0].n_num == 0 and rows[0].n_ai == 1

    def test_row_shape_and_order(self):
        bench = BenchmarkConfig(n_numerical=4, n_ai=40)
        truth, clim, pool = synthetic_benchmark(bench, seed=8)
        cfg = ScalingConfig(sizes=(22, 11), trials=2, benchmark=bench)
        rows = skill_curve(pool, truth, clim, cfg, seed=8)
        assert [r.size for r in rows] == [11, 22]
        assert all(isinstance(r, SkillRow) for r in rows)
        assert all(r.n_num * 10 == r.n_ai for r in rows)
        assert all(np.isfinite([r.ps_mean, r.ps_std, r.acc_mean, r.acc_std]).all()
                   for r in rows)

    def test_deterministic(self):
        bench = BenchmarkConfig(n_numerical=2, n_ai=20)
        truth, clim, pool = synthetic_benchmark(bench, seed=9)
        cfg = ScalingConfig(sizes=(11,), trials=3, benchmark=bench)
        a = skill_curve(pool, truth, clim, cfg, seed=10)
        b = skill_curve(pool, truth, clim, cfg, seed=10)
        assert a == b

    def test_worker_count_does_not_change_results(self, monkeypatch):
        bench = BenchmarkConfig(n_numerical=2, n_ai=20)
        truth, clim, pool = synthetic_benchmark(bench, seed=11)
        cfg = ScalingConfig(sizes=(11, 22), trials=4, benchmark=bench)
        seq = skill_curve(pool, truth, clim, cfg, seed=12)
        monkeypatch.setenv("CAPESKIT_THREADS", "4")
        par = skill_curve(pool, truth, clim, cfg, seed=12)
        assert seq == par

    def test_threads_sharing_a_fresh_pool(self, monkeypatch):
        # more workers than cores and a short switch interval: trials race
        # to build the pool's per-track index and read its one array at once
        bench = BenchmarkConfig(n_numerical=6, n_ai=60)
        cfg = ScalingConfig(sizes=(11, 22, 44), trials=12, benchmark=bench)
        truth, clim, pool = synthetic_benchmark(bench, seed=13)
        seq = skill_curve(pool, truth, clim, cfg, seed=14)
        monkeypatch.setenv("CAPESKIT_THREADS", "8")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                truth, clim, fresh = synthetic_benchmark(bench, seed=13)
                assert skill_curve(fresh, truth, clim, cfg, seed=14) == seq
        finally:
            sys.setswitchinterval(interval)


class TestSpearman:
    def test_monotone_is_one(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_ties_averaged(self):
        assert spearman([1, 2, 3, 4], [1, 1, 2, 2]) == pytest.approx(0.8944271909999159)

    def test_constant_undefined(self):
        with pytest.raises(CapeskitError):
            spearman([1, 2, 3], [5, 5, 5])
