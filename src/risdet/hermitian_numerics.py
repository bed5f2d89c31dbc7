"""Numerical kernels for complex Hermitian matrices.

Cholesky factors, log-determinants, whitening and quadratic forms.  No
explicit inverses are formed: solves run against Cholesky factors.  All
functions accept stacked operands (leading batch axes) and broadcast the
way numpy.linalg does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative asymmetry tolerated before an input is rejected as non-Hermitian.
HERMITIAN_RTOL = 1e-10


class NotPositiveDefinite(ValueError):
    """Matrix expected to be Hermitian positive definite is not.

    Typical causes: a sample covariance built from fewer snapshots than the
    array dimension, or degenerate synthetic data.
    """


@dataclass(frozen=True)
class HermitianFactor:
    """Lower-triangular Cholesky factor, possibly a stack of them."""

    lower: np.ndarray

    @property
    def dim(self) -> int:
        return self.lower.shape[-1]


def _conj_t(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(a, -1, -2))


def _symmetrized(a: np.ndarray) -> np.ndarray:
    """Check Hermitian symmetry within HERMITIAN_RTOL, then average A and A†."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    ah = _conj_t(a)
    scale = np.abs(a).max(axis=(-1, -2), keepdims=True)
    asym = np.abs(a - ah).max(axis=(-1, -2), keepdims=True)
    if np.any(asym > HERMITIAN_RTOL * np.maximum(scale, np.finfo(float).tiny)):
        raise ValueError("matrix is not Hermitian within tolerance")
    return 0.5 * (a + ah)


def cholesky(a: np.ndarray) -> HermitianFactor:
    """Factor a Hermitian positive definite matrix as L L†.

    Args:
        a: Hermitian matrix (N, N), or a stack (..., N, N).

    Returns:
        HermitianFactor whose lower factor has strictly positive real diagonal.

    Raises:
        NotPositiveDefinite: if any matrix in the stack fails to factor.
    """
    a = _symmetrized(a)
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefinite(str(err)) from err
    return HermitianFactor(lower)


def logdet(f: HermitianFactor) -> np.ndarray | float:
    """log det of the factored matrix, as 2 sum(log Re L_kk)."""
    diag = np.diagonal(f.lower, axis1=-2, axis2=-1).real
    out = 2.0 * np.sum(np.log(diag), axis=-1)
    return float(out) if out.ndim == 0 else out


def whiten(f: HermitianFactor, x: np.ndarray) -> np.ndarray:
    """L^{-1} x, so that whiten(a)† whiten(b) = a† A^{-1} b.

    x may be a vector (..., N) or a matrix stack (..., N, K).
    """
    x = np.asarray(x, dtype=np.complex128)
    vector = x.ndim == f.lower.ndim - 1
    out = np.linalg.solve(f.lower, x[..., None] if vector else x)
    return out[..., 0] if vector else out


def quad_form(v: np.ndarray, f: HermitianFactor, z: np.ndarray) -> np.ndarray | complex:
    """Sesquilinear form v† A^{-1} z through the factor of A."""
    wv = whiten(f, v)
    wz = whiten(f, z)
    out = np.sum(np.conj(wv) * wz, axis=-1)
    return complex(out) if out.ndim == 0 else out
