"""Next-item evaluation: feed test sessions one event at a time and rank
the true next item, accumulating Recall@K and MRR@K.

Ties are handled pessimistically: items scoring equal to the target count
against it, so the reported metrics are lower bounds and a constant scorer
cannot look good.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .baselines import (
    BprMfModel,
    ItemKnnModel,
    ItemVocab,
    bprmf_score_session,
    itemknn_score,
    pop_score,
    spop_score,
)
from .data import MiniBatch, SessionStore
from .gru import HiddenState, NetworkParams, apply_input_discounted, forward_step, score_all

__all__ = [
    "EvalReport",
    "rank_of",
    "top_k",
    "evaluate",
    "SessionScorer",
    "GruScorer",
    "PopScorer",
    "SpopScorer",
    "ItemKnnScorer",
    "BprMfScorer",
]


@dataclass
class EvalReport:
    recall: float
    mrr: float
    cutoff: int
    n_cases: int
    per_position: dict[int, tuple[float, float, int]] | None = None

    def line(self) -> str:
        """Single-line key-value record."""
        return (
            f"recall@{self.cutoff}={self.recall:.6f}\t"
            f"mrr@{self.cutoff}={self.mrr:.6f}\tn_cases={self.n_cases}"
        )


def rank_of(scores: np.ndarray, target: int) -> int:
    """1-based rank of the target under descending score, pessimistic on ties."""
    scores = np.asarray(scores)
    t = scores[target]
    higher = int(np.count_nonzero(scores > t))
    equal = int(np.count_nonzero(scores == t)) - 1
    return 1 + higher + equal


class SessionScorer(Protocol):
    """Stateful scorer: ``reset`` at session start, ``feed`` once per event,
    ``scores`` for the next item whenever a ranking is needed.

    Feeding does no scoring, so a caller that ranks only after the last
    event of a prefix pays for one score vector, not one per event.
    Scorers subclass this protocol to inherit ``step``.
    """

    def reset(self) -> None: ...

    def feed(self, item: int) -> None:
        """Consume one event without scoring."""
        ...

    def scores(self) -> np.ndarray:
        """Scores for the next item over the full vocabulary."""
        ...

    def step(self, item: int) -> np.ndarray:
        """Consume one event; return scores for the next item, full vocab."""
        self.feed(item)
        return self.scores()


class GruScorer(SessionScorer):
    def __init__(self, params: NetworkParams):
        self.params = params
        self.reset()

    def reset(self) -> None:
        self._h = HiddenState.zeros(
            self.params.hyper.n_layers, 1, self.params.hyper.hidden_size
        )
        self._prefix: list[int] = []

    def feed(self, item: int) -> None:
        self._prefix.append(item)
        batch = MiniBatch(
            inputs=np.array([item]),
            targets=np.array([0]),
            reset_mask=np.array([False]),
            prev_lanes=np.array([0]),
        )
        vec = None
        if self.params.hyper.input_mode == "discounted_sum":
            vec = apply_input_discounted(
                self._prefix, self.params.hyper.input_decay, self.params.n_items
            )[None, :]
        _, self._h, _ = forward_step(
            self.params, batch, self._h, sampled_columns=np.empty(0, dtype=np.intp),
            training=False, input_vectors=vec,
        )

    def scores(self) -> np.ndarray:
        return score_all(self.params, self._h.layers[-1][0])


class PopScorer(SessionScorer):
    def __init__(self, vocab: ItemVocab):
        self._scores = pop_score(vocab)

    def reset(self) -> None:
        pass

    def feed(self, item: int) -> None:
        pass

    def scores(self) -> np.ndarray:
        return self._scores


class SpopScorer(SessionScorer):
    def __init__(self, vocab: ItemVocab):
        self.vocab = vocab
        self._prefix: list[int] = []

    def reset(self) -> None:
        self._prefix = []

    def feed(self, item: int) -> None:
        self._prefix.append(item)

    def scores(self) -> np.ndarray:
        return spop_score(self._prefix, self.vocab)


class ItemKnnScorer(SessionScorer):
    def __init__(self, model: ItemKnnModel):
        self.model = model
        self._last: int | None = None

    def reset(self) -> None:
        self._last = None

    def feed(self, item: int) -> None:
        self._last = item

    def scores(self) -> np.ndarray:
        return itemknn_score(self.model, self._last)


class BprMfScorer(SessionScorer):
    def __init__(self, model: BprMfModel):
        self.model = model
        self._prefix: list[int] = []

    def reset(self) -> None:
        self._prefix = []

    def feed(self, item: int) -> None:
        self._prefix.append(item)

    def scores(self) -> np.ndarray:
        return bprmf_score_session(self.model, self._prefix)


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` best scores: score descending, then index ascending.

    Equals ``np.lexsort((np.arange(n), -scores))[:k]`` for every input,
    NaNs last by index, without sorting the whole vector: a partition finds
    the k-th best value, only the fewer than ``k`` items strictly better
    than it are sorted, and the items tied with it follow in index order.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    key = -np.asarray(scores)  # ascending key, NaN last, as lexsort orders it
    k = min(k, len(key))
    if k == 0:  # no scores at all
        return np.empty(0, dtype=np.intp)
    kth = np.partition(key, k - 1)[k - 1]
    if kth != kth:  # NaN: fewer than k non-NaN scores, every one of them ranks
        better = np.flatnonzero(~np.isnan(key))
        tied = np.flatnonzero(np.isnan(key))
    else:
        better = np.flatnonzero(key < kth)
        tied = np.flatnonzero(key == kth)
    better = better[np.argsort(key[better], kind="stable")]
    return np.concatenate([better, tied[: k - len(better)]])


def evaluate(
    scorer: SessionScorer,
    test: SessionStore,
    k: int = 20,
    prefilter_n: int | None = None,
    popularity: np.ndarray | None = None,
    track_positions: bool = False,
) -> EvalReport:
    """Run the next-item protocol over every test session.

    With ``prefilter_n`` set, the target is ranked only against the that
    many most popular training items (the target itself always included),
    which is how very large catalogs are evaluated in practice. It must be
    at least 1; ties in popularity go to the lower item index.
    """
    candidates: np.ndarray | None = None
    if prefilter_n is not None:
        if popularity is None:
            raise ValueError("prefilter requires training popularity counts")
        candidates = top_k(popularity, prefilter_n)

    hits = 0
    rr_sum = 0.0
    n_cases = 0
    pos_stats: dict[int, list] = {}
    for sess in test:
        scorer.reset()
        for t in range(len(sess) - 1):
            scores = scorer.step(int(sess.items[t]))
            target = int(sess.items[t + 1])
            if candidates is not None:
                cand = candidates
                if target not in cand:
                    cand = np.append(cand, target)
                sub = scores[cand]
                rank = rank_of(sub, int(np.flatnonzero(cand == target)[0]))
            else:
                rank = rank_of(scores, target)
            hit = rank <= k
            rr = 1.0 / rank if hit else 0.0
            hits += hit
            rr_sum += rr
            n_cases += 1
            if track_positions:
                st = pos_stats.setdefault(t, [0, 0.0, 0])
                st[0] += hit
                st[1] += rr
                st[2] += 1

    if n_cases == 0:
        return EvalReport(float("nan"), float("nan"), k, 0)
    per_position = None
    if track_positions:
        per_position = {
            t: (h / n, r / n, n) for t, (h, r, n) in sorted(pos_stats.items())
        }
    return EvalReport(hits / n_cases, rr_sum / n_cases, k, n_cases, per_position)
