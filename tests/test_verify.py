import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capeskit.errors import CapeskitError
from capeskit.grid import AnomalyField, GridField, GridSpec
from capeskit.verify import (
    AnomalyCategory,
    Level,
    PsBreakdown,
    Sign,
    acc,
    classify,
    ps_breakdown,
    ps_score,
    rmse,
)


def anom(values):
    values = np.asarray(values, dtype=np.float64)
    return AnomalyField(GridSpec(1, values.size), values.reshape(1, -1))


class TestClassify:
    @pytest.mark.parametrize("a,sign,level,extreme", [
        (30.0, Sign.POSITIVE, Level.FIRST, False),
        (-120.0, Sign.NEGATIVE, Level.SECOND, True),
        (0.0, Sign.ZERO, Level.NORMAL, False),
        (19.999, Sign.POSITIVE, Level.NORMAL, False),
        (20.0, Sign.POSITIVE, Level.FIRST, False),     # boundary: first
        (50.0, Sign.POSITIVE, Level.FIRST, False),     # boundary: still first
        (50.001, Sign.POSITIVE, Level.SECOND, False),
        (-100.0, Sign.NEGATIVE, Level.SECOND, False),  # boundary: not extreme
        (-100.001, Sign.NEGATIVE, Level.SECOND, True),
    ])
    def test_categories(self, a, sign, level, extreme):
        assert classify(a) == AnomalyCategory(sign, level, extreme)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            classify(float("nan"))

    @given(st.floats(-500, 500, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_extreme_implies_second(self, a):
        c = classify(a)
        if c.extreme:
            assert c.level is Level.SECOND


def scalar_breakdown(fc, ob):
    """Independent per-cell oracle built on classify()."""
    n = n0 = n1 = n2 = m = 0
    for f, o in zip(fc, ob):
        cf, co = classify(f), classify(o)
        n += 1
        sign_hit = (f * o > 0) or (f == 0 and o == 0)
        if sign_hit:
            n0 += 1
            if cf.level is Level.FIRST and co.level is Level.FIRST:
                n1 += 1
            if cf.level is Level.SECOND and co.level is Level.SECOND:
                n2 += 1
        if abs(o) > 100 and abs(f) < 50:
            m += 1
    return PsBreakdown(n, n0, n1, n2, m)


class TestPsBreakdown:
    def test_perfect_forecast(self):
        vals = [30.0, -60.0, 10.0, 120.0]
        b = ps_breakdown(anom(vals), anom(vals))
        assert (b.N, b.N0, b.N1, b.N2, b.M) == (4, 4, 1, 2, 0)

    def test_worked_example(self):
        obs = anom([30.0, -60.0, 10.0, 120.0])
        fc = anom([25.0, -55.0, -5.0, 40.0])
        b = ps_breakdown(fc, obs)
        assert (b.N, b.N0, b.N1, b.N2, b.M) == (4, 3, 1, 1, 1)

    def test_uniformly_wrong_sign(self):
        b = ps_breakdown(anom([-30.0] * 4), anom([30.0] * 4))
        assert (b.N0, b.N1, b.N2, b.M) == (0, 0, 0, 0)

    def test_mask(self):
        obs = anom([30.0, -60.0, 10.0, 120.0])
        fc = anom([25.0, -55.0, -5.0, 40.0])
        mask = np.array([[True, True, False, False]])
        b = ps_breakdown(fc, obs, mask)
        assert (b.N, b.N0, b.N1, b.N2, b.M) == (2, 2, 1, 1, 0)

    def test_empty_mask_errors(self):
        with pytest.raises(CapeskitError, match=r"no unmasked cells \(N = 0\)"):
            ps_breakdown(anom([1.0]), anom([1.0]), np.array([[False]]))

    def test_spec_mismatch(self):
        with pytest.raises(CapeskitError, match="grid specs differ"):
            ps_breakdown(anom([1.0]), anom([1.0, 2.0]))

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            PsBreakdown(N=4, N0=2, N1=2, N2=1, M=0)  # N1+N2 > N0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        fc = rng.uniform(-150, 150, 24)
        ob = rng.uniform(-150, 150, 24)
        got = ps_breakdown(anom(fc), anom(ob))
        assert got == scalar_breakdown(fc, ob)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_permutation_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        fc = rng.uniform(-150, 150, 16)
        ob = rng.uniform(-150, 150, 16)
        perm = rng.permutation(16)
        assert ps_breakdown(anom(fc), anom(ob)) == ps_breakdown(anom(fc[perm]), anom(ob[perm]))


valid_breakdowns = st.integers(1, 200).flatmap(
    lambda n: st.integers(0, n).flatmap(
        lambda n0: st.tuples(
            st.just(n), st.just(n0),
            st.integers(0, n0), st.integers(0, n), st.integers(0, n),
        )
    )
).map(lambda t: PsBreakdown(t[0], t[1], min(t[2], t[1]), min(t[3], t[1] - min(t[2], t[1])), t[4]))


class TestPsScore:
    def test_perfect_is_100(self):
        assert ps_score(PsBreakdown(4, 4, 1, 2, 0)) == 100.0

    def test_worked_example(self):
        # 100 * 12 / 14
        assert ps_score(PsBreakdown(4, 3, 1, 1, 1)) == pytest.approx(1200.0 / 14.0, abs=1e-12)

    def test_zero_numerator(self):
        assert ps_score(PsBreakdown(4, 0, 0, 0, 0)) == 0.0

    def test_undefined_for_empty(self):
        with pytest.raises(CapeskitError, match="PS score undefined for N = 0"):
            ps_score(PsBreakdown(0, 0, 0, 0, 0))

    @given(valid_breakdowns)
    @settings(max_examples=200, deadline=None)
    def test_range(self, b):
        assert 0.0 <= ps_score(b) <= 100.0

    @given(valid_breakdowns)
    @settings(max_examples=200, deadline=None)
    def test_100_only_for_perfect_sign_and_no_penalty(self, b):
        if b.N0 < b.N or b.M > 0:
            assert ps_score(b) < 100.0
        elif b.M == 0:
            assert ps_score(b) == 100.0

    @given(valid_breakdowns)
    @settings(max_examples=100, deadline=None)
    def test_monotonic(self, b):
        s = ps_score(b)
        if b.N0 < b.N:
            assert ps_score(PsBreakdown(b.N, b.N0 + 1, b.N1, b.N2, b.M)) >= s
        if b.N1 + b.N2 < b.N0:
            assert ps_score(PsBreakdown(b.N, b.N0, b.N1 + 1, b.N2, b.M)) >= s
            assert ps_score(PsBreakdown(b.N, b.N0, b.N1, b.N2 + 1, b.M)) >= s
        if b.M < b.N:
            assert ps_score(PsBreakdown(b.N, b.N0, b.N1, b.N2, b.M + 1)) <= s


class TestAccRmse:
    def test_self_correlation(self):
        f = anom([1.0, 5.0, -3.0, 2.0])
        assert acc(f, f) == pytest.approx(1.0, abs=1e-12)

    def test_anti_correlation(self):
        f = anom([1.0, 5.0, -3.0, 2.0])
        g = anom([-1.0, -5.0, 3.0, -2.0])
        assert acc(f, g) == pytest.approx(-1.0, abs=1e-12)

    def test_shift_invariance(self):
        f = anom([1.0, 5.0, -3.0, 2.0])
        g = anom([8.0, 12.0, 4.0, 9.0])
        assert acc(f, g) == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance_undefined(self):
        with pytest.raises(CapeskitError, match="ACC undefined for a zero-variance field"):
            acc(anom([2.0, 2.0]), anom([1.0, 3.0]))

    def test_rmse_identity(self):
        spec = GridSpec(1, 3)
        f = GridField(spec, [[1.0, 2.0, 3.0]])
        assert rmse(f, f) == 0.0

    def test_rmse_constant_offset(self):
        spec = GridSpec(1, 3)
        f = GridField(spec, [[3.0, 4.0, 5.0]])
        o = GridField(spec, [[1.0, 2.0, 3.0]])
        assert rmse(f, o) == pytest.approx(2.0, abs=1e-12)

    def test_rmse_worked_example(self):
        spec = GridSpec(1, 2)
        f = GridField(spec, [[3.0, 4.0]])
        o = GridField(spec, [[0.0, 0.0]])
        assert rmse(f, o) == pytest.approx(np.sqrt(12.5), abs=1e-12)
