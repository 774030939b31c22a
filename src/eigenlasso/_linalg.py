"""Small dense helpers shared by the package modules."""

import numpy as np


def _opnorm(a: np.ndarray) -> float:
    """Spectral (operator 2-) norm; 0.0 for an all-zero matrix, with no SVD."""
    if not a.any():
        return 0.0
    return float(np.linalg.norm(a, 2))


def _frozen(a: np.ndarray) -> np.ndarray:
    """The array, made contiguous and marked read-only."""
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a
