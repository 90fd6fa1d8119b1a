"""Hermitian linear algebra helpers used across the package.

All covariance matrices in this codebase are Hermitian PSD by
construction, but floating point and rank-deficient correlation models
(dense RIS spacings) require a tolerant square root and a guarded solve,
``solve_pd``, which returns a condition estimate with the solution.

Everything here runs on numpy's LAPACK, so ``ris_lab`` imports no scipy
module on its runtime path. A future use of scipy (a root finder, say)
is imported inside the one function that needs it, never at module level.
"""
from __future__ import annotations

import numpy as np

from .errors import IllConditionedError

# Condition number above which LMMSE solves are flagged as unreliable.
COND_LIMIT = 1e12
# Fraction of the largest eigenvalue below which herm_sqrt clamps to zero.
SQRT_CLIP_TOL = 1e-10


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (A + A^H)/2."""
    return 0.5 * (a + a.conj().T)


def herm_sqrt(a: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition.

    Eigenvalues below ``SQRT_CLIP_TOL * lambda_max`` are clamped to zero;
    sinc-type RIS correlation matrices are rank deficient for dense
    element spacings, so small negative eigenvalues are expected. The
    inputs are the mirror-sector blocks of the correlation templates
    (``geometry.MirrorFactor``), which are not unit-diagonal: each is
    clamped against its own lambda_max, at most the template's, and a
    block with no positive eigenvalue has a zero root.
    """
    w, v = np.linalg.eigh(hermitize(a))
    w = np.where(w > SQRT_CLIP_TOL * w[-1], w, 0.0)
    return (v * np.sqrt(w)) @ v.conj().T


def herm_trace_prod(a: np.ndarray, b: np.ndarray) -> float:
    """tr(A @ B) for Hermitian A, B; the result is real."""
    return float(np.real(np.sum(a * b.T)))


def solve_pd(a: np.ndarray, b: np.ndarray, name: str = "matrix") -> tuple:
    """Solve A X = B for Hermitian positive definite A; returns (X, condition estimate).

    A Cholesky factorization tests positive definiteness and gives the
    condition estimate; when it fails, the eigenvalues give the condition
    number of the raised ``IllConditionedError`` instead.
    """
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        w = np.linalg.eigvalsh(hermitize(a))
        cond = float(np.inf if w[0] <= 0 else w[-1] / w[0])
        raise IllConditionedError(f"{name} is not positive definite (condition number "
                                  f"~{cond:.3e})", cond=cond) from exc
    d = np.abs(np.diagonal(chol))
    # Condition estimate from the Cholesky diagonal: cheap and adequate
    # for the 1e12 red line used here.
    cond = float((d.max() / d.min()) ** 2) if d.min() > 0 else np.inf
    return np.linalg.solve(a, b), cond
