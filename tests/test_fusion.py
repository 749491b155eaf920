import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capeskit import fusion
from capeskit.errors import CapeskitError
from capeskit.fusion import (
    EnsembleSet,
    FusionConfig,
    MemberMeta,
    _median_sign,
    blend_scores,
    contribution_scores,
    fuse,
    member_metrics,
)
from capeskit.grid import AnomalyField, GridSpec

SPEC = GridSpec(2, 2)


def member(i, values, track="ai"):
    meta = MemberMeta(id=f"{track}-{i:04d}", track=track, init_seed=i, latent_seed=i) \
        if track == "ai" else MemberMeta(id=f"num-{i}", track=track, scheme_index=i)
    return meta, AnomalyField(SPEC, np.asarray(values, dtype=np.float64).reshape(2, 2))


def ensemble(*value_sets):
    return EnsembleSet.from_members([member(i, v) for i, v in enumerate(value_sets)])


class TestEnsembleSet:
    def test_requires_members(self):
        with pytest.raises(CapeskitError):
            EnsembleSet.from_members([])

    def test_rejects_duplicate_ids(self):
        m = member(0, [1, 2, 3, 4])
        with pytest.raises(CapeskitError):
            EnsembleSet.from_members([m, m])

    def test_rejects_mixed_grids(self):
        meta0, f0 = member(0, [1, 2, 3, 4])
        meta1 = MemberMeta(id="ai-9999", track="ai", init_seed=1, latent_seed=1)
        f1 = AnomalyField(GridSpec(1, 4), np.zeros((1, 4)))
        with pytest.raises(CapeskitError):
            EnsembleSet.from_members([(meta0, f0), (meta1, f1)])

    def test_values_are_one_read_only_array(self):
        e = ensemble([1, 2, 3, 4], [5, 6, 7, 8])
        assert e.values.shape == (2, 2, 2) and e.values.flags.c_contiguous
        with pytest.raises(ValueError):
            e.values[0, 0, 0] = 9.0

    def test_rejects_misshapen_or_non_finite_values(self):
        metas = [member(0, [1, 2, 3, 4])[0]]
        with pytest.raises(CapeskitError, match=r"expected values of shape \(1, 2, 2\)"):
            EnsembleSet(SPEC, metas, np.zeros((2, 2, 2)))
        with pytest.raises(CapeskitError, match="finite"):
            EnsembleSet(SPEC, metas, np.full((1, 2, 2), np.nan))
        with pytest.raises(CapeskitError, match="finite"):
            EnsembleSet(SPEC, metas, [[[1.0, 2.0], [-np.inf, 0.0]]])

    def test_take_keeps_the_order_given(self):
        e = ensemble([1] * 4, [2] * 4, [3] * 4)
        sub = e.take([2, 0])
        assert [m.id for m in sub.metas()] == ["ai-0002", "ai-0000"]
        assert sub.values[:, 0, 0].tolist() == [3.0, 1.0]

    def test_allocation_beyond_memory_is_input_error(self):
        with pytest.raises(CapeskitError, match="do not fit in memory"):
            EnsembleSet.allocate(GridSpec(10**6, 10**6), 10**9)

    # /proc/self/cgroup lines, and the limit files under the cgroup root
    CGROUPS = {
        "v2": ("0::/a/b\n", {"a/b/memory.max": "4096\n"}, 4096),
        "v2-parent-smaller": ("0::/a/b\n", {"a/b/memory.max": "max\n",
                                             "a/memory.max": "2048\n"}, 2048),
        "v1": ("4:memory:/job\n3:cpu:/other\n", {"memory/job/memory.limit_in_bytes": "8192\n",
                                                    "cpu/other/memory.limit_in_bytes": "1\n"},
               8192),
        "v1-no-namespace": ("4:cpuacct,memory:/docker/x\n",
                            {"memory/memory.limit_in_bytes": "16384\n"}, 16384),
        "hybrid": ("4:memory:/job\n0::/\n", {"memory/job/memory.limit_in_bytes": "8192\n",
                                                "memory.max": "1024\n"}, 1024),
        "max": ("0::/a\n", {"a/memory.max": "max\n"}, None),
        "no-limit-file": ("0::/a\n", {}, None),
        "unreadable-limit": ("0::/a\n", {"a/memory.max/x": ""}, None),
    }

    @pytest.mark.parametrize("name", sorted(CGROUPS))
    def test_memory_is_capped_by_the_cgroup_limit(self, tmp_path, monkeypatch, name):
        lines, files, limit = self.CGROUPS[name]
        (tmp_path / "cgroup").write_text(lines)
        for rel, text in files.items():
            (tmp_path / "root" / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / "root" / rel).write_text(text)
        monkeypatch.setattr(fusion, "_CGROUP", str(tmp_path / "cgroup"))
        monkeypatch.setattr(fusion, "_CGROUP_ROOT", str(tmp_path / "root"))
        assert fusion._cgroup_limit() == (sys.maxsize if limit is None else limit)
        if limit is not None:
            assert fusion.physical_memory() == limit

    def test_no_cgroup_file_sets_no_limit(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fusion, "_CGROUP", str(tmp_path / "missing"))
        assert fusion._cgroup_limit() == sys.maxsize

    def test_meta_invariants(self):
        with pytest.raises(ValueError):
            MemberMeta(id="x", track="ai", init_seed=1)  # missing latent seed
        with pytest.raises(ValueError):
            MemberMeta(id="x", track="numerical")  # no scheme or params
        MemberMeta(id="x", track="numerical", param_i=0, param_j=3)

    @pytest.mark.parametrize("kwargs", [
        dict(id="x", track="ai", init_seed=1),
        dict(id="x", track="numerical"),
        dict(id="x", track="rowboat", init_seed=1, latent_seed=1),
    ], ids=["no-latent-seed", "no-scheme", "bad-track"])
    def test_meta_rejections_are_input_errors(self, kwargs):
        with pytest.raises(CapeskitError):
            MemberMeta(**kwargs)

    @pytest.mark.parametrize("bad", ["", ".", "..", "../x", "a/b", "/abs", "a\0b"])
    def test_id_must_be_a_plain_file_name(self, bad):
        with pytest.raises(CapeskitError, match="not a plain file name"):
            MemberMeta(id=bad, track="ai", init_seed=1, latent_seed=1)

    def test_generated_ids_are_valid(self):
        MemberMeta(id="num-d0-s0", track="numerical", scheme_index=0)
        MemberMeta(id="num-d0-p0-0", track="numerical", param_i=0, param_j=0)
        MemberMeta(id="ai-0000-0000", track="ai", init_seed=0, latent_seed=0)
        MemberMeta(id=".hidden..id", track="ai", init_seed=0, latent_seed=0)


def median_sign(*value_sets):
    return _median_sign(np.array(value_sets, dtype=np.float64).reshape(-1, 2, 2)).ravel()


class TestMedian:
    def test_single_member(self):
        assert median_sign([1, -2, 0, 4]).tolist() == [1.0, -1.0, 0.0, 1.0]

    def test_odd_count(self):
        # medians 3, -3, 0 and 3
        assert median_sign([-1, -100, 0, 1], [3, -3, 5, 3], [100, 1, -4, 100]).tolist() == \
            [1.0, -1.0, 0.0, 1.0]

    def test_even_count_midpoint(self):
        # midpoints 1, -1, 0 and 2
        assert median_sign([-1, -3, -2, 1], [3, 1, 2, 3]).tolist() == [1.0, -1.0, 0.0, 1.0]


def metrics_against(ref, mem):
    """s1 and s2 of ``mem`` in the ensemble [ref, ref, mem], whose median is ``ref``."""
    s1, s2 = member_metrics(ensemble(ref, ref, mem))
    return s1[2], s2[2]


class TestMetrics:
    def test_sign_consistency_extremes(self):
        a = [1.0, -2.0, 3.0, -4.0]
        assert metrics_against(a, a)[0] == 1.0
        assert metrics_against([-v for v in a], a)[0] == 0.0

    def test_sign_consistency_counts(self):
        a = [1.0, -2.0, 3.0, -4.0]
        assert metrics_against([1.0, -2.0, 3.0, 4.0], a)[0] == 0.75

    def test_zero_matches_only_zero(self):
        assert metrics_against([0.0, 1.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0])[0] == 0.75

    def test_anomaly_magnitude(self):
        ref = [1.0, -2.0, 3.0, -4.0]
        assert metrics_against(ref, [0.0] * 4)[1] == 0.0
        assert metrics_against(ref, [-40.0] * 4)[1] == 40.0
        assert metrics_against(ref, [10.0, 30.0, 10.0, 30.0])[1] == 20.0


def reference_member_metrics(values):
    """member_metrics as it was written over a member list: the median of
    the stacked fields, then one sign-consistency and one magnitude call
    per member."""
    med = np.median(np.stack(list(values)), axis=0)
    s1 = np.array([float(np.count_nonzero(np.sign(v) == np.sign(med))) / med.size
                   for v in values])
    s2 = np.array([float(np.mean(np.abs(v))) for v in values])
    return s1, s2


# exact zeros of both signs and the smallest subnormals: pairs such as
# -5e-324 and 1e-323 have a midpoint that underflows to 0
TINY = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-323, -1e-323, 1.5e-323, -1.5e-323])


def zero_heavy_values(rng, n, nlat, nlon):
    """Mostly exact zeros, half of them -0.0, among subnormals and ordinary
    values."""
    values = rng.choice(np.concatenate([TINY, TINY[:2], TINY[:2], [-3.5, 2.0, 70.0]]),
                        (n, nlat, nlon))
    return values * rng.choice([1.0, 1e-3, 1e3], (1, nlat, nlon))


def straddling_values(rng, n, nlat, nlon):
    """Cells with n // 2 - 1, n // 2 or n // 2 + 1 positive and negative
    values, the rest +-0, in shuffled order: for even n the middle pair
    straddles zero, touches it, or shares a sign, and its smallest
    magnitudes are often the subnormals whose midpoint underflows."""
    half = n // 2
    mags = np.array([5e-324, 1e-323, 1.5e-323, 1.0, 40.0])
    cols = []
    for _ in range(nlat * nlon):
        pos = min(n, max(0, half + int(rng.integers(-1, 2))))
        neg = min(n - pos, max(0, half + int(rng.integers(-1, 2))))
        col = np.concatenate([rng.choice(mags[rng.integers(0, 3):], pos),
                              -rng.choice(mags[rng.integers(0, 3):], neg),
                              rng.choice([0.0, -0.0], n - pos - neg)])
        cols.append(rng.permutation(col))
    return np.stack(cols, axis=1).reshape(n, nlat, nlon)


def tie_heavy_values(rng, n, nlat, nlon):
    """For even n: +-0 but for exactly n // 2 positive values in about 9
    cells of 10 (a random count in the rest), and a few negative values,
    in shuffled order. Most cells tie, and their middle pair is a zero or
    a negative value and the smallest positive one, often a subnormal
    whose midpoint with zero underflows."""
    shape = (n, nlat, nlon)
    rank = rng.random(shape).argsort(axis=0)  # a random order of each cell
    pos = np.where(rng.random((nlat, nlon)) < 0.9, n // 2, rng.integers(0, n + 1, (nlat, nlon)))
    mags = rng.choice([5e-324, 1e-323, 1.5e-323, 1.0, 40.0], shape)
    values = np.where(rng.random(shape) < 0.05, -mags, rng.choice([0.0, -0.0], shape))
    return np.where(rank < pos, mags, values)


POOLS = {"zero-heavy": zero_heavy_values, "straddling": straddling_values}


class TestMetricsOracle:
    """The reductions over axes (1, 2) and the median's sign from counts
    give the bits of the per-member loop over np.median."""

    @pytest.mark.parametrize("seed", range(24))
    def test_member_metrics_match_per_member_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 180))
        self.check(rng, n, *(int(k) for k in rng.integers(1, 40, 2)))

    @pytest.mark.parametrize("nlat,nlon", [(128, 96), (91, 97), (256, 256)])
    def test_fields_above_the_reduction_buffer(self, nlat, nlon):
        # more than numpy's 8,192-element buffer per field, several fields
        for n in (2, 9):
            self.check(np.random.default_rng(nlat * n), n, nlat, nlon)

    # 64 members of 32 x 32 fill a block; a 256 x 256 member is a block
    @pytest.mark.parametrize("n,nlat,nlon", [(63, 32, 32), (64, 32, 32), (65, 32, 32),
                                             (128, 32, 32), (129, 32, 32),
                                             (2, 256, 256), (3, 256, 256)])
    def test_counts_at_block_boundaries(self, n, nlat, nlon):
        assert fusion._BLOCK in (64 * 32 * 32, 256 * 256)
        self.check(np.random.default_rng(n), n, nlat, nlon)

    # even n, where most cells tie; from n = 128 they are sorted in several
    # blocks of cells (of 512 cells at n = 128, 32 at n = 2000)
    @pytest.mark.parametrize("n,nlat,nlon", [(2, 32, 32), (64, 32, 32), (128, 32, 32),
                                             (1000, 10, 10), (2000, 6, 7)])
    def test_tie_heavy_pool(self, n, nlat, nlon):
        values = tie_heavy_values(np.random.default_rng(n), n, nlat, nlon)
        ties = np.count_nonzero(np.count_nonzero(values > 0, axis=0) == n // 2)
        assert ties > 0.8 * nlat * nlon
        self.check_values(values)

    @pytest.mark.parametrize("pool", sorted(POOLS))
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 11, 64, 255, 256, 999, 1000,
                                   1774, 1999, 2000])
    def test_zeros_ties_and_subnormals(self, pool, n):
        rng = np.random.default_rng(n)
        self.check_values(POOLS[pool](rng, n, 6, 7))

    def test_subnormal_midpoint_underflows_to_zero(self):
        # -5e-324 + 1e-323 = 5e-324, halved to 0; -5e-324 + 1.5e-323 halves to 5e-324
        values = np.array([[-5e-324, -5e-324, 5e-324, -1.0],
                           [1e-323, 1.5e-323, -1e-323, 2.0]]).reshape(2, 2, 2)
        sign = _median_sign(values)
        assert sign.tobytes() == np.sign(np.median(values, axis=0)).tobytes()
        assert sign.ravel().tolist() == [0.0, 1.0, 0.0, 1.0]
        self.check_values(values)

    @given(st.integers(1, 40), st.integers(1, 6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_median_sign_is_the_sign_of_np_median(self, n, cells, data):
        element = st.one_of(st.sampled_from(TINY.tolist() + [1.0, -1.0]),
                            st.floats(allow_nan=False, allow_infinity=False))
        values = np.array(data.draw(st.lists(element, min_size=n * cells,
                                             max_size=n * cells))).reshape(n, 1, cells)
        with np.errstate(over="ignore"):  # a midpoint of two huge values is inf
            assert _median_sign(values).tobytes() == \
                np.sign(np.median(values, axis=0)).tobytes()

    def check(self, rng, n, nlat, nlon):
        values = rng.normal(0.0, 10.0 ** rng.integers(-3, 4), (n, nlat, nlon))
        values[rng.random(values.shape) < 0.1] = 0.0  # zero matches only zero
        self.check_values(values)

    @staticmethod
    def check_values(values):
        n, nlat, nlon = values.shape
        spec = GridSpec(nlat, nlon)
        metas = [MemberMeta(id=f"ai-{i:04d}", track="ai", init_seed=i, latent_seed=i)
                 for i in range(n)]
        e = EnsembleSet(spec, metas, values)
        assert _median_sign(values).tobytes() == \
            np.sign(np.median(values, axis=0)).tobytes()
        s1, s2 = member_metrics(e)
        r1, r2 = reference_member_metrics(values)
        assert s1.tobytes() == r1.tobytes()
        assert s2.tobytes() == r2.tobytes()
        assert contribution_scores(e).tobytes() == blend_scores(r1, r2).tobytes()


class TestBlend:
    def test_anti_aligned_metrics_balance(self):
        w = blend_scores([1.0, 0.0], [0.0, 1.0], FusionConfig(alpha=0.5))
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)

    def test_pure_robustness_limit(self):
        w = blend_scores([1.0, 0.0, 0.0], [5.0, 5.0, 5.0], FusionConfig(alpha=1.0))
        np.testing.assert_allclose(w, [1.0, 0.0, 0.0], atol=1e-15)

    def test_degenerate_metrics_fill(self):
        w = blend_scores([0.7, 0.7], [3.0, 3.0], FusionConfig())
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            FusionConfig(alpha=1.5)


def brute_force_scores(e, cfg):
    """Scalar re-implementation: per-cell loops, no vectorization."""
    n = len(e)
    fields = list(e.values)
    med = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            med[i, j] = float(np.median([f[i, j] for f in fields]))
    s1, s2 = [], []
    for f in fields:
        hits = sum(
            1 for i in range(2) for j in range(2)
            if np.sign(f[i, j]) == np.sign(med[i, j])
        )
        s1.append(hits / 4.0)
        s2.append(sum(abs(f[i, j]) for i in range(2) for j in range(2)) / 4.0)
    def norm(v):
        lo, hi = min(v), max(v)
        if hi == lo:
            return [0.5] * n
        return [(x - lo) / (hi - lo) for x in v]
    raw = [cfg.alpha * a + (1 - cfg.alpha) * b for a, b in zip(norm(s1), norm(s2))]
    tot = sum(raw)
    if tot == 0:
        return np.full(n, 1.0 / n)
    return np.array([r / tot for r in raw])


class TestContributionScores:
    def test_identical_members_uniform(self):
        e = ensemble([30, -10, 5, 80], [30, -10, 5, 80], [30, -10, 5, 80])
        np.testing.assert_allclose(contribution_scores(e), [1 / 3] * 3, atol=1e-15)

    def test_weights_normalized(self):
        rng = np.random.default_rng(0)
        e = ensemble(*[rng.uniform(-120, 120, 4) for _ in range(7)])
        w = contribution_scores(e)
        assert (w >= 0).all()
        assert abs(w.sum() - 1.0) <= 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, seed, n):
        rng = np.random.default_rng(seed)
        e = ensemble(*[rng.uniform(-120, 120, 4) for _ in range(n)])
        cfg = FusionConfig()
        np.testing.assert_allclose(contribution_scores(e, cfg), brute_force_scores(e, cfg),
                                   atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_permutation_equivariant(self, seed):
        rng = np.random.default_rng(seed)
        values = [rng.uniform(-120, 120, 4) for _ in range(5)]
        e = ensemble(*values)
        w = contribution_scores(e)
        perm = rng.permutation(5)
        e2 = e.take(perm)
        w2 = contribution_scores(e2)
        np.testing.assert_allclose(w2, w[perm], atol=1e-12)
        np.testing.assert_allclose(fuse(e, w).values, fuse(e2, w2).values, atol=1e-12)

    def test_scale_awareness(self):
        rng = np.random.default_rng(5)
        values = [rng.uniform(-50, 50, 4) for _ in range(4)]
        e1 = ensemble(*values)
        _, s2_before = member_metrics(e1)
        boosted = list(values)
        boosted[2] = np.asarray(values[2]) * 3.0
        e2 = ensemble(*boosted)
        _, s2_after = member_metrics(e2)
        rank_before = (s2_before < s2_before[2]).sum()
        rank_after = (s2_after < s2_after[2]).sum()
        assert rank_after >= rank_before

    def test_zero_magnitude_member_alpha_bound(self):
        rng = np.random.default_rng(8)
        values = [rng.uniform(-100, 100, 4) for _ in range(4)] + [np.zeros(4)]
        e = ensemble(*values)
        cfg = FusionConfig()
        w = contribution_scores(e, cfg)
        s1, s2 = member_metrics(e)
        s1n = (s1 - s1.min()) / (s1.max() - s1.min()) if s1.max() > s1.min() else np.full(5, 0.5)
        s2n = (s2 - s2.min()) / (s2.max() - s2.min()) if s2.max() > s2.min() else np.full(5, 0.5)
        raw_sum = (cfg.alpha * s1n + (1 - cfg.alpha) * s2n).sum()
        assert w[-1] <= cfg.alpha / raw_sum + 1e-12


class TestFuse:
    def test_uniform_weights_are_mean(self):
        e = ensemble([1, 2, 3, 4], [5, 6, 7, 8])
        fused = fuse(e, [0.5, 0.5])
        np.testing.assert_allclose(fused.values.ravel(), [3, 4, 5, 6], atol=1e-15)

    def test_one_hot_selects_member(self):
        e = ensemble([1, 2, 3, 4], [5, 6, 7, 8])
        fused = fuse(e, [0.0, 1.0])
        assert np.array_equal(fused.values, e.values[1])

    def test_weighted_blend(self):
        a, b = [0, 4, 8, -4], [4, 0, -8, 4]
        e = ensemble(a, b)
        fused = fuse(e, [0.25, 0.75])
        expected = 0.25 * np.asarray(a, float) + 0.75 * np.asarray(b, float)
        np.testing.assert_allclose(fused.values.ravel(), expected, atol=1e-15)

    def test_convex_bounds(self):
        rng = np.random.default_rng(11)
        e = ensemble(*[rng.uniform(-100, 100, 4) for _ in range(6)])
        w = contribution_scores(e)
        fused = fuse(e, w)
        stacked = e.values
        assert (fused.values >= stacked.min(axis=0) - 1e-12).all()
        assert (fused.values <= stacked.max(axis=0) + 1e-12).all()

    def test_weight_validation(self):
        e = ensemble([1, 2, 3, 4], [5, 6, 7, 8])
        with pytest.raises(CapeskitError):
            fuse(e, [1.0])
        with pytest.raises(CapeskitError):
            fuse(e, [-0.1, 1.1])
        with pytest.raises(CapeskitError):
            fuse(e, [0.6, 0.6])
