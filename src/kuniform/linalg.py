"""Hermitian eigenvalues for failure summaries and reduction ranks.

Used for the eigenvalue summaries attached to failed uniformity checks and
for reduction ranks; the work is numpy's LAPACK-backed `eigvalsh`.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterViolation, ShapeMismatch


def jacobi_eigvalsh(matrix) -> np.ndarray:
    """Eigenvalues (ascending) of a Hermitian matrix, or of each matrix of
    a (..., n, n) stack, in one call; each matrix must be Hermitian
    relative to its own largest entry.  A stack's results equal the
    per-matrix ones bit for bit."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ShapeMismatch(f"expected a square matrix, got shape {a.shape}")
    entries = (-2, -1)
    skew = np.abs(a - a.conj().swapaxes(-2, -1)).max(axis=entries, initial=0)
    scale = np.abs(a).max(axis=entries, initial=1.0)
    if (skew > 1e-9 * scale).any():
        raise ParameterViolation("matrix is not Hermitian")
    return np.linalg.eigvalsh(a)


def rank_by_eigenvalues(matrix, tol: float = 1e-9) -> int:
    """Count of eigenvalues exceeding tol (matrix assumed PSD Hermitian)."""
    vals = jacobi_eigvalsh(matrix)
    return int(np.sum(vals > tol))
