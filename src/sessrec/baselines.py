"""Non-neural recommenders: POP, S-POP, Item-KNN and BPR-MF.

All of them produce a score vector over the full item vocabulary so they
plug into the same evaluation harness as the network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .data import ItemVocab, SessionStore
from .linalg import make_rng, sigmoid

__all__ = [
    "pop_score",
    "spop_score",
    "ItemKnnModel",
    "itemknn_train",
    "itemknn_score",
    "BprMfModel",
    "bprmf_train",
    "bprmf_score_session",
]


def pop_score(vocab: ItemVocab) -> np.ndarray:
    """Static scores: the training event count of each item."""
    return vocab.popularity.astype(np.float64)


def spop_score(session_prefix, vocab: ItemVocab) -> np.ndarray:
    """Session popularity with global popularity as tiebreak.

    Within-prefix counts dominate; the global popularity enters as a
    fraction strictly below one, so items absent from the prefix always
    rank below present ones, ordered among themselves by global counts.
    """
    prefix = np.asarray(session_prefix, dtype=np.intp)
    if prefix.size == 0:
        raise ValueError("session prefix must be non-empty")
    counts = np.zeros(len(vocab))
    np.add.at(counts, prefix, 1.0)
    tiebreak = vocab.popularity / (vocab.popularity.sum() + 1.0)
    return counts + tiebreak


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
    per_session = [sess.items for sess in store]
    items = np.concatenate(per_session or [np.empty(0, dtype=np.int64)])
    sessions = np.repeat(np.arange(len(per_session)), [len(s) for s in per_session])
    inc = sparse.csr_matrix(
        (np.ones(len(items)), (sessions, items)), shape=(len(per_session), n_items)
    )
    inc.data[:] = 1.0  # the constructor summed repeats; a session counts an item once
    co = (inc.T @ inc).tocoo()
    n = co.diagonal()
    off = co.row != co.col
    row, col, c = co.row[off], co.col[off], co.data[off]
    # product, then sqrt: the same bits as sqrt(outer(n, n)) element-wise
    sim = c / (np.sqrt(n[row] * n[col]) + lam)

    kk = min(k, n_items - 1) if n_items > 1 else 0
    neighbor_index = np.full((n_items, max(kk, 1)), -1, dtype=np.int64)
    neighbor_sim = np.zeros((n_items, max(kk, 1)))
    # every stored pair co-occurs at least once and lam is finite, so sim > 0
    order = np.lexsort((col, -sim, row))
    row, col, sim = row[order], col[order], sim[order]
    rank = np.arange(len(row)) - np.searchsorted(row, row)  # position within its row
    keep = rank < kk
    neighbor_index[row[keep], rank[keep]] = col[keep]
    neighbor_sim[row[keep], rank[keep]] = sim[keep]
    return ItemKnnModel(n_items, neighbor_index, neighbor_sim, lam, k)


def itemknn_score(model: ItemKnnModel, current_item: int) -> np.ndarray:
    """Similarity row of the last clicked item, zero outside the top-K list."""
    if not 0 <= current_item < model.n_items:
        raise IndexError(f"item {current_item} outside vocabulary of {model.n_items}")
    scores = np.zeros(model.n_items)
    idx = model.neighbor_index[current_item]
    valid = idx >= 0
    scores[idx[valid]] = model.neighbor_sim[current_item][valid]
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
    for _ in range(epochs):
        for sess in store:
            items = sess.items
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


def bprmf_score_session(model: BprMfModel, session_prefix) -> np.ndarray:
    """Dot product of the prefix-average factor with every item factor."""
    prefix = np.asarray(session_prefix, dtype=np.intp)
    if prefix.size == 0:
        raise ValueError("session prefix must be non-empty")
    u = model.factors[prefix].mean(axis=0)
    return model.factors @ u
