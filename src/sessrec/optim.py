"""Adagrad / rmsprop parameter updates with optional momentum.

Updates honor gradient sparsity at row granularity: rows whose gradient is
entirely zero are left untouched, accumulators and velocity included, so a
row-compact update (``rows=``) is bit-identical to the equivalent dense one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["OPTIMIZERS", "OptimState", "adagrad_update", "rmsprop_update", "dropout_mask"]

EPSILON = 1e-6

OPTIMIZERS = ("adagrad", "rmsprop")


@dataclass
class OptimState:
    """Per-parameter accumulator (and velocity when momentum is used)."""

    acc: np.ndarray
    vel: np.ndarray | None = None
    epsilon: float = EPSILON

    @classmethod
    def for_param(cls, param: np.ndarray, momentum: float = 0.0) -> "OptimState":
        # np.zeros, not np.zeros_like: its pages are zeroed lazily, so a
        # large matrix that is updated a few rows at a time costs little
        vel = np.zeros(param.shape) if momentum > 0.0 else None
        return cls(acc=np.zeros(param.shape), vel=vel)


def _resolve_rows(grad: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
    """Rows to touch and their gradient slices; all-zero rows are skipped.

    With ``rows=None`` the gradient is dense; otherwise ``grad`` holds just
    the listed (distinct) rows. As the rows are distinct, an update gathers
    each state row once and steps with the rows it scatters back.
    """
    nonzero = grad != 0.0 if grad.ndim == 1 else np.any(grad != 0.0, axis=-1)
    if rows is None:
        idx = np.flatnonzero(nonzero)
        return idx, grad[idx]
    return np.asarray(rows, dtype=np.intp)[nonzero], grad[nonzero]


def _apply_step(
    param: np.ndarray,
    state: OptimState,
    idx: np.ndarray,
    step: np.ndarray,
    momentum: float,
) -> None:
    if momentum > 0.0:
        if state.vel is None:
            state.vel = np.zeros(param.shape)
        step = momentum * state.vel[idx] + step
        state.vel[idx] = step
    param[idx] -= step


def adagrad_update(
    param: np.ndarray,
    grad: np.ndarray,
    state: OptimState,
    lr: float,
    momentum: float = 0.0,
    rows=None,
) -> None:
    """In-place adagrad step: acc += g^2; param -= lr * g / sqrt(acc + eps)."""
    if rows is None and grad.shape != param.shape:
        raise ValueError(f"grad shape {grad.shape} != param shape {param.shape}")
    idx, g = _resolve_rows(np.asarray(grad, dtype=np.float64), rows)
    if idx.size == 0:
        return
    acc = state.acc[idx] + g * g
    state.acc[idx] = acc
    step = lr * g / np.sqrt(acc + state.epsilon)
    _apply_step(param, state, idx, step, momentum)


def rmsprop_update(
    param: np.ndarray,
    grad: np.ndarray,
    state: OptimState,
    lr: float,
    decay: float = 0.9,
    momentum: float = 0.0,
    rows=None,
) -> None:
    """In-place rmsprop step with exponentially decayed squared-gradient average."""
    if not 0.0 <= decay < 1.0:
        raise ValueError(f"rmsprop decay must be in [0, 1), got {decay}")
    if rows is None and grad.shape != param.shape:
        raise ValueError(f"grad shape {grad.shape} != param shape {param.shape}")
    idx, g = _resolve_rows(np.asarray(grad, dtype=np.float64), rows)
    if idx.size == 0:
        return
    acc = decay * state.acc[idx] + (1.0 - decay) * g * g
    state.acc[idx] = acc
    step = lr * g / np.sqrt(acc + state.epsilon)
    _apply_step(param, state, idx, step, momentum)


def dropout_mask(
    shape: tuple[int, ...],
    rate: float,
    rng: np.random.Generator | None,
) -> np.ndarray:
    """Inverted-dropout multiplier: keep with prob 1-rate, scale kept by 1/(1-rate).

    Kept units are rescaled in training, so serving draws no mask at all.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return np.ones(shape)
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)
