"""Ranking losses over a mini-batch score matrix with in-batch negatives.

A score batch is a B x B matrix: row ``s`` holds lane ``s``'s scores against
the batch's B target items, so the diagonal entry is the lane's own positive
item. Every other column acts as a negative example, which makes negative
sampling implicitly popularity-proportional.

Each loss returns ``(value, grad)`` where ``value`` averages the per-lane
losses and ``grad`` is the derivative of that average with respect to every
score entry.
"""

from __future__ import annotations

import numpy as np

from .linalg import sigmoid

__all__ = [
    "negatives_mask",
    "bpr_loss",
    "top1_loss",
    "xent_loss",
    "LOSSES",
]


def negatives_mask(targets: np.ndarray) -> np.ndarray:
    """Valid-negative mask for a batch of target item indices.

    Entry (s, j) is True when column j is a usable negative for lane s:
    off-diagonal and not a duplicate of lane s's own positive item. Lanes
    whose positive also appears as another lane's target would otherwise
    receive self-contradictory gradients.
    """
    t = np.asarray(targets)
    mask = t[None, :] != t[:, None]
    return mask


def _check(scores: np.ndarray, mask: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] != scores.shape[1]:
        raise ValueError(f"score batch must be square, got {scores.shape}")
    b = scores.shape[0]
    if b < 2:
        raise ValueError("need at least 2 lanes for in-batch negatives")
    if mask is None:
        mask = ~np.eye(b, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != scores.shape:
            raise ValueError(f"mask shape {mask.shape} != scores shape {scores.shape}")
        mask = mask & ~np.eye(b, dtype=bool)
    return scores, mask


def _row_weights(mask: np.ndarray) -> np.ndarray:
    """1 / (B * N_s) per row; rows without any valid negative weigh zero."""
    n_neg = mask.sum(axis=1)
    w = np.zeros(mask.shape[0])
    nz = n_neg > 0
    w[nz] = 1.0 / (mask.shape[0] * n_neg[nz])
    return w


def bpr_loss(
    scores: np.ndarray, mask: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Pairwise loss -log sigma(r_pos - r_neg), averaged over negatives and lanes."""
    scores, mask = _check(scores, mask)
    pos = np.diag(scores)
    diff = pos[:, None] - scores  # r_{s,s} - r_{s,j}
    sig = sigmoid(diff)
    w = _row_weights(mask)
    with np.errstate(divide="ignore"):
        logterm = np.where(mask, np.log(np.maximum(sig, 1e-300)), 0.0)
    value = float(-(w[:, None] * logterm).sum())

    # d(-log sigma(d))/dd = sigma(d) - 1; d flows +1 to the diagonal, -1 to column j.
    dd = np.where(mask, sig - 1.0, 0.0) * w[:, None]
    grad = -dd
    np.fill_diagonal(grad, np.diag(grad) + dd.sum(axis=1))
    return value, grad


def top1_loss(
    scores: np.ndarray, mask: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Smoothed relative rank of the positive plus a score regularizer.

    Per negative: sigma(r_neg - r_pos) + sigma(r_neg^2). The second term
    pulls negative scores toward zero, which keeps the otherwise unbounded
    score scale in check.
    """
    scores, mask = _check(scores, mask)
    pos = np.diag(scores)
    diff = scores - pos[:, None]  # r_{s,j} - r_{s,s}
    sig = sigmoid(diff)
    reg = sigmoid(scores**2)
    w = _row_weights(mask)
    value = float((w[:, None] * np.where(mask, sig + reg, 0.0)).sum())

    dsig = sig * (1.0 - sig)
    dreg = reg * (1.0 - reg) * 2.0 * scores
    grad = np.where(mask, dsig + dreg, 0.0) * w[:, None]
    np.fill_diagonal(grad, -np.where(mask, dsig, 0.0).sum(axis=1) * w)
    return value, grad


def xent_loss(
    scores: np.ndarray, mask: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Cross-entropy of the positive under a softmax over the row's scores.

    Computed with max-subtraction; duplicate-target columns are excluded
    from the softmax support. Expects pre-activation (linear) scores.
    """
    scores, mask = _check(scores, mask)
    b = scores.shape[0]
    support = mask | np.eye(b, dtype=bool)
    shifted = np.where(support, scores, -np.inf)
    m = shifted.max(axis=1, keepdims=True)
    e = np.exp(np.where(support, shifted - m, -np.inf))
    z = e.sum(axis=1, keepdims=True)
    p = e / z
    # a zero diagonal probability yields inf here on purpose; the training
    # loop treats a non-finite loss as divergence and aborts
    with np.errstate(divide="ignore"):
        value = float(-np.log(np.diag(p)).mean())
    grad = p / b
    np.fill_diagonal(grad, (np.diag(p) - 1.0) / b)
    return value, grad


LOSSES = {"top1": top1_loss, "bpr": bpr_loss, "xent": xent_loss}
