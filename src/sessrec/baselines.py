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
    "pair_waves",
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
    """Sequential SGD on the pairwise ranking objective over (prefix,
    positive, negative), in session order, run in conflict-free waves.

    Every event beyond the first of its session is one pair: the mean of the
    factors of the session's earlier items is the user vector, the event's
    item is the positive and a uniformly drawn item the negative; the update
    also flows back into the prefix factors. Each epoch applies the pairs as
    SGD one pair at a time would, in session order, with one draw of all its
    negatives (the same values as one draw per pair). To batch the work, each
    pair joins the wave after the latest one holding an earlier pair that
    shares a factor row with it (see :func:`pair_waves`), and a wave runs in
    vectorized NumPy, up to 64 pairs at once. Pairs in one wave share no row,
    so every row sees the same arithmetic in the same order, and the factors
    are byte-identical to one pair at a time.
    Raises ValueError for ``d`` below 1, negative ``epochs``, a non-finite
    or non-positive ``lr``, a negative or non-finite ``reg`` and a store item
    outside ``[0, n_items)``.
    """
    if d < 1:
        raise ValueError(f"latent dimension must be >= 1, got {d}")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if not (np.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and > 0, got {lr}")
    if not (np.isfinite(reg) and reg >= 0):
        raise ValueError(f"reg must be finite and >= 0, got {reg}")
    items = store.items
    bad = items[(items < 0) | (items >= n_items)]
    if bad.size:
        raise ValueError(f"item {bad[0]} outside [0, {n_items})")
    rng = make_rng(seed)
    f = rng.uniform(-0.05, 0.05, size=(n_items, d))

    first = np.repeat(store.offsets[:-1], np.diff(store.offsets))  # each event's session start
    pos = np.flatnonzero(np.arange(len(items)) > first)  # each pair's positive event, in session order
    n_pairs = len(pos)
    start, positive, prefix_len = first[pos], items[pos], pos - first[pos]

    for _ in range(epochs):
        negatives = rng.integers(n_items, size=n_pairs)
        waves = pair_waves(store, negatives, n_items)
        # run order: by wave, then by prefix length, so that the pairs of one
        # wave and one length are adjacent
        order = np.lexsort((prefix_len, waves))
        lens = prefix_len[order]
        i_all, j_all = positive[order], negatives[order]
        # the prefix rows of the pairs in run order, laid end to end
        row_at = np.concatenate(([0], np.cumsum(lens)))
        prefix_rows = items[np.repeat(start[order] - row_at[:-1], lens) + np.arange(row_at[-1])]
        # a wave runs in parts of at most 64 pairs: the first waves hold
        # hundreds, and parts keep their temporary arrays small
        run = np.arange(n_pairs)
        new_wave = np.diff(waves[order], prepend=-1) != 0
        new_part = (run - np.maximum.accumulate(np.where(new_wave, run, 0))) % 64 == 0
        part_at = np.flatnonzero(new_part).tolist() + [n_pairs]
        group_at = np.flatnonzero(new_part | (np.diff(lens, prepend=-1) != 0)).tolist() + [n_pairs]
        row_at = row_at.tolist()
        group = 0
        for lo, hi in zip(part_at, part_at[1:]):
            u = np.empty((hi - lo, d))
            while group_at[group] < hi:
                # prefixes of one length: the (t, d) sums that ``mean`` takes, stacked
                a, b = group_at[group], group_at[group + 1]
                block = f[prefix_rows[row_at[a]:row_at[b]]].reshape(b - a, -1, d)
                np.add.reduce(block, axis=1, out=u[a - lo:b - lo])
                group += 1
            t = lens[lo:hi, None]
            u /= t
            i, j = i_all[lo:hi], j_all[lo:hi]
            fi, fj = f[i], f[j]
            diff = fi - fj
            # u @ diff per pair: matmul makes the same dot call for each
            x = np.matmul(u[:, None, :], diff[:, :, None])[:, 0]
            g = sigmoid(-x)  # d(-log sigma(x))/dx, negated for descent
            # f[i] still holds fi, so this is the sum that ``+=`` makes
            f[i] = fi + lr * (g * u - reg * fi)
            f[j] += lr * (-g * u - reg * fj)  # a negative equal to its positive adds to the new row
            du = g * diff / t
            rows = prefix_rows[row_at[lo]:row_at[hi]]
            fp = f[rows]  # after the rows' positive and negative updates
            # add.at adds a row that a prefix repeats once per occurrence, in turn
            np.add.at(f, rows, lr * (du.repeat(lens[lo:hi], axis=0) - reg * fp))
    return BprMfModel(f)


def pair_waves(store: SessionStore, negatives: np.ndarray, n_items: int) -> np.ndarray:
    """The wave, from 1, of each BPR-MF pair of ``store`` in session order.

    A pair touches its prefix rows, its positive and its negative
    (``negatives``, one per pair). Its wave is one more than the latest wave
    of an earlier pair that touches one of its rows, so pairs in one wave
    touch disjoint rows and running the waves in turn updates each row in
    session order.
    """
    last = [0] * n_items  # the latest wave that touched each row
    waves = []
    negative = iter(negatives.tolist())
    bounds = store.offsets.tolist()
    items = store.items.tolist()
    for a, b in zip(bounds, bounds[1:]):
        session = items[a:b]
        # pair t's prefix rows were all touched by pair t - 1, or, for the
        # first pair, are the session's first item
        wave = last[session[0]]
        for i in session[1:]:
            j = next(negative)
            wave = max(wave, last[i], last[j]) + 1
            last[j] = wave
            waves.append(wave)
        for i in session:
            last[i] = wave
    return np.array(waves, dtype=np.int64)
