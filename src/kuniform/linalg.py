"""Hermitian eigenvalues for failure summaries and reduction ranks.

Used for the eigenvalue summaries attached to failed uniformity checks and
for reduction ranks; the work is numpy's LAPACK-backed `eigvalsh`.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterViolation, ShapeMismatch


def jacobi_eigvalsh(matrix) -> np.ndarray:
    """Eigenvalues (ascending) of a Hermitian matrix."""
    a = np.array(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {a.shape}")
    if np.max(np.abs(a - a.conj().T)) > 1e-9 * max(1.0, float(np.max(np.abs(a)))):
        raise ParameterViolation("matrix is not Hermitian")
    return np.linalg.eigvalsh(a)


def rank_by_eigenvalues(matrix, tol: float = 1e-9) -> int:
    """Count of eigenvalues exceeding tol (matrix assumed PSD Hermitian)."""
    vals = jacobi_eigvalsh(matrix)
    return int(np.sum(vals > tol))
