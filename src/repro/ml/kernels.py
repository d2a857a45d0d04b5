"""Kernel functions for kernel-based models (SVR).

The paper uses the Radial Basis Function kernel, which "performs a
transformation of the input values and maps them to a higher dimensional
space"; linear and polynomial kernels are included for completeness and for
ablation against the RBF results.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["rbf_kernel", "linear_kernel", "polynomial_kernel", "get_kernel"]


def rbf_kernel(X: np.ndarray, Y: np.ndarray, gamma: float = 0.1) -> np.ndarray:
    """``K(x, y) = exp(-gamma * ||x - y||²)``, shape (len(X), len(Y))."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    x_sq = (X**2).sum(axis=1)[:, None]
    y_sq = (Y**2).sum(axis=1)[None, :]
    sq_dist = np.maximum(x_sq + y_sq - 2.0 * (X @ Y.T), 0.0)
    return np.exp(-gamma * sq_dist)


def linear_kernel(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Plain inner product kernel."""
    return X @ Y.T


def polynomial_kernel(
    X: np.ndarray, Y: np.ndarray, degree: int = 3, gamma: float = 1.0, coef0: float = 1.0
) -> np.ndarray:
    """``(gamma * <x, y> + coef0) ** degree``."""
    return (gamma * (X @ Y.T) + coef0) ** degree


def get_kernel(name: str, **params) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Resolve a kernel by name with bound parameters."""
    if name == "rbf":
        gamma = params.get("gamma", 0.1)
        return lambda X, Y: rbf_kernel(X, Y, gamma=gamma)
    if name == "linear":
        return linear_kernel
    if name == "poly":
        degree = params.get("degree", 3)
        gamma = params.get("gamma", 1.0)
        coef0 = params.get("coef0", 1.0)
        return lambda X, Y: polynomial_kernel(X, Y, degree=degree, gamma=gamma, coef0=coef0)
    raise ValueError(f"unknown kernel {name!r}")
