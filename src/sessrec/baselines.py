"""Non-neural recommenders: POP, S-POP, Item-KNN and BPR-MF.

This module fits them; the scorers in :mod:`sessrec.evaluate` serve them
over the full item vocabulary, in the same evaluation harness as the network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .data import ItemVocab, SessionStore
from .linalg import make_rng, sigmoid

__all__ = [
    "pop_score",
    "ItemKnnModel",
    "neighbor_width",
    "itemknn_train",
    "itemknn_score",
    "BprMfModel",
    "bprmf_train",
]


def pop_score(vocab: ItemVocab) -> np.ndarray:
    """Static scores: the training event count of each item."""
    return vocab.popularity.astype(np.float64)


@dataclass
class ItemKnnModel:
    """Top-K regularized cosine co-occurrence neighbors per item.

    similarity(a, b) = co(a, b) / (sqrt(n_a * n_b) + lam), where n_x counts
    the sessions containing x and co counts sessions containing both.
    """

    n_items: int
    neighbor_index: np.ndarray  # (n_items, K) int, -1 padding
    neighbor_sim: np.ndarray  # (n_items, K) float, 0 padding
    lam: float
    k: int


def neighbor_width(n_items: int, k: int) -> int:
    """Columns of the neighbour arrays: ``k``, at most the other items, at least 1."""
    return max(min(k, n_items - 1), 1)


def itemknn_train(store: SessionStore, n_items: int, lam: float = 20.0, k: int = 100) -> ItemKnnModel:
    """Fit whose time and memory grow with the co-occurring item pairs and
    the N × K neighbour arrays, not with N².

    Co-occurrence stays sparse and similarities are computed on its
    non-zeros only; one sort over all of them orders each row by
    similarity descending, index ascending on ties, and keeps its first K.
    Raises ValueError for ``k`` below 1 and a negative or non-finite ``lam``.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    sessions = np.repeat(np.arange(len(store)), np.diff(store.offsets))
    inc = sparse.csr_matrix(
        (np.ones(store.n_events), (sessions, store.items)), shape=(len(store), n_items)
    )
    inc.data[:] = 1.0  # the constructor summed repeats; a session counts an item once
    co = (inc.T @ inc).tocoo()
    n = co.diagonal()
    off = co.row != co.col
    row, col, c = co.row[off], co.col[off], co.data[off]
    # product, then sqrt: the same bits as sqrt(outer(n, n)) element-wise
    sim = c / (np.sqrt(n[row] * n[col]) + lam)

    width = neighbor_width(n_items, k)
    neighbor_index = np.full((n_items, width), -1, dtype=np.int64)
    neighbor_sim = np.zeros((n_items, width))
    # every stored pair co-occurs at least once and lam is finite, so sim > 0
    order = np.lexsort((col, -sim, row))
    row, col, sim = row[order], col[order], sim[order]
    rank = np.arange(len(row)) - np.searchsorted(row, row)  # position within its row
    keep = rank < width
    neighbor_index[row[keep], rank[keep]] = col[keep]
    neighbor_sim[row[keep], rank[keep]] = sim[keep]
    return ItemKnnModel(n_items, neighbor_index, neighbor_sim, lam, k)


def itemknn_score(model: ItemKnnModel, items: np.ndarray) -> np.ndarray:
    """Similarity rows of a 1-D array of items, zero outside each top-K list:
    shape (len(items), n_items)."""
    bad = items[(items < 0) | (items >= model.n_items)]
    if bad.size:
        raise IndexError(f"item {bad[0]} outside vocabulary of {model.n_items}")
    idx = model.neighbor_index[items]
    row, rank = np.nonzero(idx >= 0)
    scores = np.zeros((len(items), model.n_items))
    scores[row, idx[row, rank]] = model.neighbor_sim[items[row], rank]
    return scores


@dataclass
class BprMfModel:
    """Item factors only; a session is represented by the mean of the
    factors of its items so far, which plays the role of the user vector."""

    factors: np.ndarray  # (n_items, d)


def bprmf_train(
    store: SessionStore,
    n_items: int,
    d: int = 100,
    epochs: int = 10,
    lr: float = 0.05,
    reg: float = 1e-5,
    seed: int = 42,
) -> BprMfModel:
    """SGD on the pairwise ranking objective over (prefix, positive, negative).

    For every event beyond the first, the session prefix average is the
    user vector, the event's item is the positive and the negative is
    sampled uniformly; the update also flows back into the prefix factors.
    Raises ValueError for ``d`` below 1, negative ``epochs``, a non-finite
    or non-positive ``lr`` and a negative or non-finite ``reg``.
    """
    if d < 1:
        raise ValueError(f"latent dimension must be >= 1, got {d}")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if not (np.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and > 0, got {lr}")
    if not (np.isfinite(reg) and reg >= 0):
        raise ValueError(f"reg must be finite and >= 0, got {reg}")
    rng = make_rng(seed)
    f = rng.uniform(-0.05, 0.05, size=(n_items, d))
    bounds = store.offsets.tolist()
    for _ in range(epochs):
        for a, b in zip(bounds, bounds[1:]):
            items = store.items[a:b]
            for t in range(1, len(items)):
                prefix = items[:t]
                i = items[t]
                j = int(rng.integers(n_items))
                u = f[prefix].mean(axis=0)
                x = u @ (f[i] - f[j])
                g = sigmoid(-x)  # d(-log sigma(x))/dx, negated for descent
                fi, fj = f[i].copy(), f[j].copy()
                f[i] += lr * (g * u - reg * fi)
                f[j] += lr * (-g * u - reg * fj)
                du = g * (fi - fj) / len(prefix)
                np.add.at(f, prefix, lr * (du - reg * f[prefix]))
    return BprMfModel(f)
