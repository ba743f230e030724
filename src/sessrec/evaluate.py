"""Next-item evaluation: advance the test sessions in parallel lanes, one
event per lane and step, and rank each lane's true next item, accumulating
Recall@K and MRR@K.

Ties are handled pessimistically: items scoring equal to the target count
against it, so the reported metrics are lower bounds and a constant scorer
cannot look good.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import (
    BprMfModel,
    ItemKnnModel,
    ItemVocab,
    itemknn_score,
    pop_score,
)
from .data import MiniBatch, SessionBatcher, SessionStore
from .gru import HiddenState, NetworkParams, discounted_input, forward_step, score_all

__all__ = [
    "EVAL_LANES",
    "EvalReport",
    "lane_ranks",
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

# Sessions that evaluate() advances at once. At 37,483 items and 100 hidden
# units, 64 lanes turn the per-event GEMV into a GEMM that costs about a
# sixth as much per case, and keep a step's score matrix near 19 MB.
EVAL_LANES = 64


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


def lane_ranks(
    scores: np.ndarray, targets: np.ndarray, candidates: np.ndarray | None = None
) -> np.ndarray:
    """1-based rank of each row's target under descending score, pessimistic
    on ties; 0 where the target's score is NaN.

    Row ``r`` of ``scores`` ranks item ``targets[r]``. A NaN score on another
    item ranks below every number, as in :func:`top_k`. With ``candidates``
    (distinct items) a target is ranked only against them and itself.
    """
    t = scores[np.arange(len(targets)), targets][:, None]
    if candidates is None:
        ranks = np.count_nonzero(scores >= t, axis=1)  # the target counts itself
    else:
        absent = np.isin(targets, candidates, invert=True)
        ranks = np.count_nonzero(scores[:, candidates] >= t, axis=1) + absent
        ranks[np.isnan(t[:, 0])] = 0
    return ranks


def _nan_target(target: int) -> str:
    return f"the score of target {target} is NaN"


def rank_of(scores: np.ndarray, target: int) -> int:
    """1-based rank of the target under descending score, pessimistic on ties:
    :func:`lane_ranks` of one row, where a NaN target score raises ValueError."""
    rank = int(lane_ranks(np.asarray(scores)[None], np.array([target]))[0])
    if rank == 0:
        raise ValueError(_nan_target(target))
    return rank


class SessionScorer:
    """A scorer of session lanes, the unit that :func:`evaluate` drives.

    A scorer implements two methods. ``advance(batch)`` consumes one event
    per lane of a :class:`MiniBatch`: it realigns the per-lane state by
    ``prev_lanes`` when the width changes and starts ``reset_mask`` lanes
    afresh; a batch whose lanes all reset needs no earlier state, so a first
    batch may have any width. ``lane_scores()`` returns, for every lane, the
    scores of its next item over the full vocabulary, shape (width, n_items).

    ``reset``/``feed``/``scores``/``step`` serve one session as a single
    lane. Feeding does no scoring, so a caller that ranks only after the
    last event of a prefix pays for one score vector, not one per event.
    """

    _reset_pending = True

    def advance(self, batch: MiniBatch) -> None:
        raise NotImplementedError

    def lane_scores(self) -> np.ndarray:
        raise NotImplementedError

    def reset(self) -> None:
        """Start a new session with the next ``feed``."""
        self._reset_pending = True

    def feed(self, item: int) -> None:
        """Consume one event without scoring."""
        self.advance(MiniBatch(
            inputs=np.array([item]),
            targets=np.array([0]),
            reset_mask=np.array([self._reset_pending]),
            prev_lanes=np.array([0]),
        ))
        self._reset_pending = False

    def scores(self) -> np.ndarray:
        """Scores for the next item over the full vocabulary.

        Raises ValueError when no event was fed since the last ``reset``.
        """
        if self._reset_pending:
            raise ValueError("no event fed since the session started")
        return self.lane_scores()[0]

    def step(self, item: int) -> np.ndarray:
        """Consume one event; return scores for the next item, full vocab."""
        self.feed(item)
        return self.scores()


def _realigned(rows: np.ndarray, batch: MiniBatch) -> np.ndarray:
    """Per-lane ``rows`` in the batch's lane order, those of reset lanes zero."""
    if batch.reset_mask.all():
        return np.zeros((batch.width,) + rows.shape[1:], rows.dtype)
    if len(rows) != batch.width:
        rows = rows[batch.prev_lanes]
    rows[batch.reset_mask] = 0
    return rows


class GruScorer(SessionScorer):
    """All lanes advance in one forward step, and their (width, hidden) top
    layer is scored against every item in one product."""

    def __init__(self, params: NetworkParams):
        self.params = params
        self._h = HiddenState.zeros(params, 0)

    def advance(self, batch: MiniBatch) -> None:
        if batch.reset_mask.all():
            self._h = HiddenState.zeros(self.params, batch.width)
        elif batch.width != self._h.width:
            self._h = self._h.reorder(batch.prev_lanes)
        _, self._h, _ = forward_step(
            self.params, batch, self._h, sampled_columns=np.empty(0, dtype=np.intp),
            input_vectors=discounted_input(self._h, batch, self.params.hyper.input_decay),
        )

    def lane_scores(self) -> np.ndarray:
        return score_all(self.params, self._h.layers[-1])


class PopScorer(SessionScorer):
    def __init__(self, vocab: ItemVocab):
        self._scores = pop_score(vocab)
        self._width = 0

    def advance(self, batch: MiniBatch) -> None:
        self._width = batch.width

    def lane_scores(self) -> np.ndarray:
        return np.broadcast_to(self._scores, (self._width, len(self._scores)))


class SpopScorer(SessionScorer):
    """Session popularity with global popularity as tiebreak: per-lane prefix
    counts of every item, plus its global popularity as a fraction strictly
    below one.

    Within-prefix counts dominate, so items absent from the prefix always
    rank below present ones, ordered among themselves by global counts.
    """

    def __init__(self, vocab: ItemVocab):
        self._tiebreak = vocab.popularity / (vocab.popularity.sum() + 1.0)
        self._counts = np.zeros((0, len(vocab)))

    def advance(self, batch: MiniBatch) -> None:
        self._counts = _realigned(self._counts, batch)
        self._counts[np.arange(batch.width), batch.inputs] += 1.0

    def lane_scores(self) -> np.ndarray:
        return self._counts + self._tiebreak


class ItemKnnScorer(SessionScorer):
    """Each lane's state is its last item; its scores are that item's row."""

    def __init__(self, model: ItemKnnModel):
        self.model = model
        self._last = np.empty(0, dtype=np.int64)

    def advance(self, batch: MiniBatch) -> None:
        self._last = batch.inputs

    def lane_scores(self) -> np.ndarray:
        return itemknn_score(self.model, self._last)


class BprMfScorer(SessionScorer):
    """Per-lane prefix sums (rows added left to right, one event at a time)
    and lengths of the item factors; the prefix means are the user vectors,
    scored with one (width, d)·(d, N) product."""

    def __init__(self, model: BprMfModel):
        self.model = model
        self._sums = np.zeros((0, model.factors.shape[1]))
        self._lengths = np.zeros(0, dtype=np.int64)

    def advance(self, batch: MiniBatch) -> None:
        self._sums = _realigned(self._sums, batch)
        self._sums += self.model.factors[batch.inputs]
        self._lengths = _realigned(self._lengths, batch)
        self._lengths += 1

    def lane_scores(self) -> np.ndarray:
        return (self._sums / self._lengths[:, None]) @ self.model.factors.T


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


def _in_order_sum(values: np.ndarray) -> float:
    """Sum added left to right, as a running ``+=`` over the cases would; a
    pairwise or compensated sum may differ in the last bits."""
    return float(np.cumsum(values)[-1])


def evaluate(
    scorer: SessionScorer,
    test: SessionStore,
    k: int = 20,
    prefilter_n: int | None = None,
    popularity: np.ndarray | None = None,
    track_positions: bool = False,
) -> EvalReport:
    """Run the next-item protocol over every test session.

    Up to :data:`EVAL_LANES` sessions advance at once, and every lane's
    target is ranked at each step. The cases are the events before each
    session's last, sessions taken in ``test``'s iteration order; each
    case's rank is stored in that order and the metrics are summed in it.
    The cutoff ``k`` must be at least 1.

    With ``prefilter_n`` set, the target is ranked only against that
    many most popular training items (the target itself always included),
    which is how very large catalogs are evaluated in practice. It must be
    at least 1; ties in popularity go to the lower item index. A NaN score
    for a target raises ValueError naming the session of the first such
    case (see :func:`rank_of`).
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    candidates: np.ndarray | None = None
    if prefilter_n is not None:
        if popularity is None:
            raise ValueError("prefilter requires training popularity counts")
        candidates = top_k(popularity, prefilter_n)

    n_of = np.diff(test.offsets) - 1
    first_case = test.offsets - np.arange(len(test) + 1)
    n_cases = int(first_case[-1])
    if n_cases == 0:
        return EvalReport(float("nan"), float("nan"), k, 0)
    ranks = np.empty(n_cases, dtype=np.int64)
    for batch in SessionBatcher(test, EVAL_LANES):
        scorer.advance(batch)
        cases = first_case[batch.sessions] + batch.positions
        ranks[cases] = lane_ranks(scorer.lane_scores(), batch.targets, candidates)

    position = np.arange(n_cases) - np.repeat(first_case[:-1], n_of)
    nan_cases = np.flatnonzero(ranks == 0)
    if nan_cases.size:
        case = nan_cases[0]
        session = int(np.searchsorted(first_case, case, side="right")) - 1
        target = int(test.items[test.offsets[session] + position[case] + 1])
        pos = target  # the target's index in the ranked vector
        if candidates is not None:
            where = np.flatnonzero(candidates == target)
            pos = int(where[0]) if where.size else len(candidates)
        raise ValueError(
            f"test session {test.session_ids[session]!r}, next item {target}: "
            f"{_nan_target(pos)}"
        )

    hit = ranks <= k
    rr = np.where(hit, 1.0 / ranks, 0.0)
    per_position = None
    if track_positions:
        per_position = {}
        for t in np.unique(position):
            at = position == t
            n = int(np.count_nonzero(at))
            per_position[int(t)] = (
                int(np.count_nonzero(hit[at])) / n, _in_order_sum(rr[at]) / n, n
            )
    return EvalReport(
        int(np.count_nonzero(hit)) / n_cases, _in_order_sum(rr) / n_cases, k, n_cases,
        per_position,
    )
