"""Principal component compression of multi-variable fields."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapeskitError


@dataclass(frozen=True)
class PcaBasis:
    """Column means plus k orthonormal components (rows), descending
    eigenvalue order, sign fixed so each component's largest-magnitude
    entry is positive."""

    mean: np.ndarray        # (D,)
    components: np.ndarray  # (k, D)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        comp = np.asarray(self.components, dtype=np.float64)
        if comp.ndim != 2 or mean.ndim != 1 or comp.shape[1] != mean.shape[0]:
            raise CapeskitError(
                f"inconsistent shapes: mean {mean.shape}, components {comp.shape}"
            )
        gram = comp @ comp.T
        if not np.allclose(gram, np.eye(comp.shape[0]), atol=1e-10):
            raise CapeskitError("components must be orthonormal to 1e-10")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "components", comp)

    @property
    def k(self) -> int:
        return self.components.shape[0]

    def project(self, x: np.ndarray) -> np.ndarray:
        """(..., D) -> (..., k)."""
        return (np.asarray(x, dtype=np.float64) - self.mean) @ self.components.T

    def reconstruct(self, z: np.ndarray) -> np.ndarray:
        """(..., k) -> (..., D)."""
        return np.asarray(z, dtype=np.float64) @ self.components + self.mean


def fit_pca(samples: np.ndarray, k: int = 16) -> PcaBasis:
    """Top-k eigenvectors of the sample covariance of an n x D matrix.

    Requires n >= 2 and k <= min(n-1, D). Rank deficiency only makes the
    trailing components meaningless (near-zero eigenvalues); it never fails.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise CapeskitError(f"samples must be a 2-D matrix, got shape {x.shape}")
    n, d = x.shape
    if n < 2:
        raise CapeskitError(f"PCA needs at least 2 samples, got {n}")
    if k < 1 or k > min(n - 1, d):
        raise CapeskitError(
            f"retained channels k={k} must be in [1, min(n-1, D)] = [1, {min(n - 1, d)}]"
        )
    mean = x.mean(axis=0)
    xc = x - mean
    cov = (xc.T @ xc) / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:k]
    comp = eigvecs[:, order].T.copy()
    for row in comp:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaBasis(mean=mean, components=comp)
