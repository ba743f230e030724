"""End-to-end walkthrough on a synthetic click stream.

Generates sessions from a small Markov chain, splits them in time, trains the
GRU ranker plus the four baselines, evaluates everything with the shared
next-item protocol, and round-trips the trained model through the binary
format. Runs in well under a minute on a laptop; no external data needed.

    python3 demos/quickstart.py
"""

import io
import time

import numpy as np

from sessrec.baselines import bprmf_train, itemknn_train, pop_score
from sessrec.data import ItemVocab, Session, SessionStore
from sessrec.evaluate import (
    BprMfScorer,
    GruScorer,
    ItemKnnScorer,
    PopScorer,
    SpopScorer,
    evaluate,
    top_k,
)
from sessrec.gru import HyperParams
from sessrec.modelio import gru_from_file, gru_to_file, load_model_file, save_model_file
from sessrec.training import train_gru

N_ITEMS = 60
rng = np.random.default_rng(7)

# --- 1. synthesize browsing sessions -------------------------------------
# Each item has one likely successor and a few plausible ones; sessions are
# random walks. This gives the recurrent model real structure to learn while
# staying tiny.
transition = np.full((N_ITEMS, N_ITEMS), 0.0)
for i in range(N_ITEMS):
    succ = rng.choice(N_ITEMS, 5, replace=False)
    transition[i, succ] = [0.6, 0.1, 0.1, 0.1, 0.1]

sessions = []
t = 0
counts = np.zeros(N_ITEMS, dtype=np.int64)
for k in range(3000):
    length = int(rng.integers(3, 9))
    items = [int(rng.integers(N_ITEMS))]
    for _ in range(length - 1):
        items.append(int(rng.choice(N_ITEMS, p=transition[items[-1]])))
    arr = np.asarray(items, dtype=np.int64)
    sessions.append(Session(f"s{k:05d}", arr, np.arange(t, t + length, dtype=np.int64)))
    t += length + 30
    counts[arr] += 1

vocab = ItemVocab([f"sku-{i:03d}" for i in range(N_ITEMS)], counts)
cut = int(0.9 * len(sessions))
train, test = SessionStore(sessions[:cut]), SessionStore(sessions[cut:])
print(f"corpus: {len(train)} train / {len(test)} test sessions, {N_ITEMS} items")

# --- 2. train the GRU ranker ----------------------------------------------
hyper = HyperParams(
    hidden_size=48, batch_width=32, dropout_rate=0.0,
    learning_rate=0.15, loss_kind="top1", epochs=10, seed=42,
)
t0 = time.time()
params = train_gru(train, vocab, hyper)
print(f"gru trained in {time.time() - t0:.1f}s "
      f"(loss={hyper.loss_kind}, hidden={hyper.hidden_size})")

# --- 3. evaluate everything under the same protocol ------------------------
scorers = {
    "gru": GruScorer(params),
    "pop": PopScorer(vocab),
    "s-pop": SpopScorer(vocab),
    "item-knn": ItemKnnScorer(itemknn_train(train, N_ITEMS)),
    "bpr-mf": BprMfScorer(bprmf_train(train, N_ITEMS, d=32, epochs=5)),
}
print(f"{'model':<10} {'recall@5':>9} {'mrr@5':>8}")
for name, scorer in scorers.items():
    rep = evaluate(scorer, test, k=5)
    print(f"{name:<10} {rep.recall:>9.4f} {rep.mrr:>8.4f}")

# --- 4. persist and reload ------------------------------------------------
buf = io.BytesIO()
save_model_file(gru_to_file(params, vocab), buf)
reloaded = gru_from_file(load_model_file(io.BytesIO(buf.getvalue())))
rep = evaluate(GruScorer(reloaded), test, k=5)
print(f"reloaded model recall@5 = {rep.recall:.4f} "
      f"(file is {len(buf.getvalue())} bytes)")

# --- 5. recommend for a live session ---------------------------------------
# Feed every click of the session so far, then score the catalog once.
scorer = GruScorer(reloaded)
scorer.reset()
prefix = ["sku-003", "sku-017"]
for item in prefix:
    scorer.feed(vocab.index[item])
scores = scorer.scores()
print(f"after {prefix}: " + ", ".join(
    f"{vocab.items[i]} ({scores[i]:+.3f})" for i in top_k(scores, 5)
))
