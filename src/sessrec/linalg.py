"""Numeric primitives shared by the network and the baselines: the seeded
random stream, weight initialization and a logistic function that never
overflows.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["sigmoid", "uniform_init", "make_rng"]


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; same seed gives the same stream everywhere."""
    return np.random.Generator(np.random.PCG64(seed))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, stable for any finite input.

    Written via tanh so large-magnitude inputs saturate without ever
    producing overflow warnings or non-finite values.
    """
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def uniform_init(
    rows: int,
    cols: int,
    rng: np.random.Generator,
    scale: float | None = None,
) -> np.ndarray:
    """Weight matrix with entries uniform on [-x, x], drawn from ``rng``.

    The default bound is x = sqrt(6 / (rows + cols)), a symmetric
    fan-based rule; pass ``scale`` to override it.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"uniform_init needs positive dims, got ({rows}, {cols})")
    x = math.sqrt(6.0 / (rows + cols)) if scale is None else float(scale)
    return rng.uniform(-x, x, size=(rows, cols))
