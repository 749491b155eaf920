import numpy as np
import pytest

from capeskit.errors import CapeskitError
from capeskit.pca import PcaBasis, fit_pca


def reconstruction_error(basis, x):
    back = basis.reconstruct(basis.project(x))
    return float(np.abs(back - x).max())


class TestFitPca:
    def test_exact_rank_recovery(self):
        rng = np.random.default_rng(0)
        # rank-3 data in 8 dimensions
        factors = rng.standard_normal((40, 3))
        loadings = rng.standard_normal((3, 8))
        x = factors @ loadings + rng.standard_normal(8)  # + fixed offset
        basis = fit_pca(x, k=3)
        assert reconstruction_error(basis, x) < 1e-9
        assert reconstruction_error(fit_pca(x, k=5), x) < 1e-9

    def test_line_y_equals_x(self):
        t = np.linspace(-2, 2, 30)
        pts = np.stack([t, t], axis=1)
        basis = fit_pca(pts, k=1)
        np.testing.assert_allclose(np.abs(basis.components[0]), [np.sqrt(0.5)] * 2, atol=1e-12)
        # sign convention: largest-magnitude entry positive
        assert basis.components[0][np.argmax(np.abs(basis.components[0]))] > 0

    def test_orthonormal_components(self):
        rng = np.random.default_rng(1)
        basis = fit_pca(rng.standard_normal((50, 10)), k=6)
        gram = basis.components @ basis.components.T
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-10)

    def test_monotone_error_vs_full_eigendecomposition(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((50, 10)) @ np.diag(np.linspace(3, 0.1, 10))
        mean = x.mean(axis=0)
        xc = x - mean
        # independent oracle: full eigendecomposition, cumulative residual energy
        eigvals, eigvecs = np.linalg.eigh(xc.T @ xc / 49)
        eigvals = eigvals[::-1]
        errors = []
        for k in range(1, 11):
            basis = fit_pca(x, k)
            resid = basis.reconstruct(basis.project(x)) - x
            errors.append(float(np.mean(resid**2)))
            # residual mean square energy equals the trailing eigenvalue sum
            expected = eigvals[k:].sum() * 49 / (50 * 10)
            assert errors[-1] == pytest.approx(expected, abs=1e-10)
        assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(errors, errors[1:]))

    def test_projection_contraction(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((30, 6))
        basis = fit_pca(x, k=3)
        probes = rng.standard_normal((20, 6))
        for p in probes:
            assert np.linalg.norm(basis.project(p)) <= np.linalg.norm(p - basis.mean) + 1e-12

    def test_k_bounds(self):
        rng = np.random.default_rng(2)
        with pytest.raises(CapeskitError):
            fit_pca(rng.standard_normal((5, 10)), k=5)  # k > n-1
        with pytest.raises(CapeskitError):
            fit_pca(rng.standard_normal((50, 4)), k=5)  # k > D
        with pytest.raises(CapeskitError):
            fit_pca(rng.standard_normal((1, 4)), k=1)  # n < 2

    def test_basis_validates_orthonormality(self):
        with pytest.raises(ValueError):
            PcaBasis(mean=np.zeros(2), components=np.array([[1.0, 1.0]]))

    def test_basis_rejections_are_user_errors(self):
        with pytest.raises(CapeskitError, match="orthonormal"):
            PcaBasis(mean=np.zeros(2), components=np.array([[1.0, 1.0]]))
        with pytest.raises(CapeskitError, match="inconsistent shapes"):
            PcaBasis(mean=np.zeros(3), components=np.eye(2))
