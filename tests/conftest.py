import numpy as np
import pytest

from sessrec.data import ItemVocab, Session, SessionStore
from sessrec.linalg import make_rng, sigmoid


def store_from_lists(session_items, n_items=None):
    """Build a store + vocab from plain lists of item indices."""
    sessions = []
    t = 0
    if n_items is None:
        n_items = max(max(s) for s in session_items) + 1
    counts = np.zeros(n_items, dtype=np.int64)
    for k, items in enumerate(session_items):
        items = np.asarray(items, dtype=np.int64)
        times = np.arange(t, t + len(items), dtype=np.int64)
        sessions.append(Session(f"s{k:05d}", items, times))
        t += len(items) + 10
        for i in items:
            counts[i] += 1
    vocab = ItemVocab([f"item{i}" for i in range(n_items)], counts)
    return SessionStore(sessions), vocab


def fed(scorer, prefix):
    """A scorer's scores after a new session of ``prefix``, fed one event at a time."""
    scorer.reset()
    for item in prefix:
        scorer.feed(int(item))
    return scorer.scores()


def spop_prefix_scores(prefix, vocab):
    """S-POP by its definition: each item's count in the prefix plus its
    global popularity as a fraction strictly below one."""
    counts = np.zeros(len(vocab))
    np.add.at(counts, np.asarray(prefix, dtype=np.intp), 1.0)
    return counts + vocab.popularity / (vocab.popularity.sum() + 1.0)


def bprmf_prefix_scores(model, prefix):
    """BPR-MF by its definition: the mean of the prefix's item factors,
    summed left to right, dotted with every item factor."""
    total = np.zeros(model.factors.shape[1])
    for item in prefix:
        total += model.factors[item]
    return (total / len(prefix)) @ model.factors.T


def bprmf_train_by_pair(store, n_items, d=100, epochs=10, lr=0.05, reg=1e-5, seed=42):
    """BPR-MF's fit by its definition: SGD one (prefix, positive, negative)
    pair at a time, in session order, with one scalar draw per negative.
    Returns the factors."""
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
    return f


def dense_grads(params, grads):
    """backward_step's gradients scattered into full parameter shapes."""
    shapes = {name: p.shape for name, p in params.named_params()}
    out = {}
    for name, g in grads.items():
        rows = grads.rows.get(name)
        if rows is None:
            out[name] = g
        else:
            out[name] = np.zeros(shapes[name])
            out[name][rows] = g
    return out


def gather_rows(W, items):
    """The 1-of-N input by its definition: a plain lookup of the items' rows."""
    return W[items]


def scatter_rows(n_rows, inverse, values):
    """An item-row gradient by its definition: ``np.add.at`` of ``values``
    into ``n_rows`` zero rows, in index order."""
    block = np.zeros((n_rows,) + values.shape[1:])
    np.add.at(block, inverse, values)
    return block


def dense_discounted_input(acc, batch, decay):
    """The discounted-sum input by its dense definition. ``acc`` holds one
    row of item weights per lane, (width, n_items), and is advanced in place;
    returns its rows scaled to unit norm."""
    acc[batch.reset_mask] = 0.0
    acc *= decay
    acc[np.arange(batch.width), batch.inputs] += 1.0
    return acc / np.linalg.norm(acc, axis=1, keepdims=True)


def to_dense(m):
    """A LaneItems map as a (width, n_items) matrix."""
    out = np.zeros((m.width, m.n_items))
    out[m.lanes, m.items] = m.weights
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
