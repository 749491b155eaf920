import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capeskit.errors import CapeskitError
from capeskit.fusion import (
    EnsembleSet,
    FusionConfig,
    MemberMeta,
    anomaly_magnitude,
    blend_scores,
    contribution_scores,
    ensemble_median,
    fuse,
    member_metrics,
    sign_consistency,
)
from capeskit.grid import AnomalyField, GridSpec

SPEC = GridSpec(2, 2)


def member(i, values, track="ai"):
    meta = MemberMeta(id=f"{track}-{i:04d}", track=track, init_seed=i, latent_seed=i) \
        if track == "ai" else MemberMeta(id=f"num-{i}", track=track, scheme_index=i)
    return meta, AnomalyField(SPEC, np.asarray(values, dtype=np.float64).reshape(2, 2))


def ensemble(*value_sets):
    return EnsembleSet([member(i, v) for i, v in enumerate(value_sets)])


class TestEnsembleSet:
    def test_requires_members(self):
        with pytest.raises(CapeskitError):
            EnsembleSet([])

    def test_rejects_duplicate_ids(self):
        m = member(0, [1, 2, 3, 4])
        with pytest.raises(CapeskitError):
            EnsembleSet([m, m])

    def test_rejects_mixed_grids(self):
        meta0, f0 = member(0, [1, 2, 3, 4])
        meta1 = MemberMeta(id="ai-9999", track="ai", init_seed=1, latent_seed=1)
        f1 = AnomalyField(GridSpec(1, 4), np.zeros((1, 4)))
        with pytest.raises(CapeskitError):
            EnsembleSet([(meta0, f0), (meta1, f1)])

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


class TestMedian:
    def test_single_member(self):
        e = ensemble([1, 2, 3, 4])
        assert np.array_equal(ensemble_median(e).values, e.members[0][1].values)

    def test_odd_count(self):
        e = ensemble([1] * 4, [3] * 4, [100] * 4)
        assert (ensemble_median(e).values == 3.0).all()

    def test_even_count_midpoint(self):
        e = ensemble([1] * 4, [3] * 4)
        assert (ensemble_median(e).values == 2.0).all()


class TestMetrics:
    def test_sign_consistency_extremes(self):
        a = AnomalyField(SPEC, [[1.0, -2.0], [3.0, -4.0]])
        assert sign_consistency(a, a) == 1.0
        neg = AnomalyField(SPEC, -a.values)
        assert sign_consistency(a, neg) == 0.0

    def test_sign_consistency_counts(self):
        a = AnomalyField(SPEC, [[1.0, -2.0], [3.0, -4.0]])
        b = AnomalyField(SPEC, [[1.0, -2.0], [3.0, 4.0]])
        assert sign_consistency(a, b) == 0.75

    def test_zero_matches_only_zero(self):
        a = AnomalyField(SPEC, [[0.0, 0.0], [1.0, 1.0]])
        b = AnomalyField(SPEC, [[0.0, 1.0], [1.0, 1.0]])
        assert sign_consistency(a, b) == 0.75

    def test_anomaly_magnitude(self):
        assert anomaly_magnitude(AnomalyField(SPEC, np.zeros((2, 2)))) == 0.0
        assert anomaly_magnitude(AnomalyField(SPEC, np.full((2, 2), -40.0))) == 40.0
        assert anomaly_magnitude(AnomalyField(SPEC, [[10.0, 30.0], [10.0, 30.0]])) == 20.0


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
    fields = [f.values for _, f in e.members]
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
            return [cfg.degenerate_fill] * n
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
        e2 = EnsembleSet([e.members[i] for i in perm])
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
        assert np.array_equal(fused.values, e.members[1][1].values)

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
        stacked = e.stacked()
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
