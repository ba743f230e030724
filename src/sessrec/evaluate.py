"""Next-item evaluation: advance the test sessions in parallel lanes, one
event per lane and step, and rank each lane's true next item, accumulating
Recall@K and MRR@K.

A lane's scores depend only on its state after the step, so evaluation keeps
each step's queries (a snapshot of that state) and scores several steps'
lanes in one block, whose rows make one product against the catalog.

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
from .gru import HiddenState, LaneItems, NetworkParams, _check_in_vocab, forward_step, score_all

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

# Sessions that evaluate() advances at once, and the most rows it scores in
# one block. At 37,483 items and 100 hidden units, 64 rows turn the per-event
# GEMV into a GEMM that costs about a sixth as much per case, and keep a
# block's score matrix near 19 MB.
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

    A scorer implements three methods. ``advance(batch)`` consumes one event
    per lane of a :class:`MiniBatch`, after passing its per-lane state
    through :meth:`MiniBatch.realign`, which starts reset lanes afresh; a
    batch whose lanes all reset needs no earlier state, so a first batch may
    have any width. An input item outside the vocabulary raises IndexError
    before any lane changes. ``lane_queries()`` returns a snapshot of what
    every lane's scores depend on, which later steps leave unchanged.
    ``score_queries(queries)`` takes a list of such snapshots, from one or
    more steps, and returns the scores of all their lanes over the full
    vocabulary in one array, rows in list then lane order, shape
    (total width, n_items). The base method stacks queries that are already
    score rows. ``lane_scores()``, the scores of the current lanes, is
    ``score_queries`` of the one current query.

    ``reset``/``feed``/``scores``/``step`` serve one session as a single
    lane. Feeding does no scoring, so a caller that ranks only after the
    last event of a prefix pays for one score vector, not one per event.
    """

    _reset_pending = True

    def advance(self, batch: MiniBatch) -> None:
        raise NotImplementedError

    def lane_queries(self):
        raise NotImplementedError

    def score_queries(self, queries: list) -> np.ndarray:
        return np.concatenate(queries)

    def lane_scores(self) -> np.ndarray:
        return self.score_queries([self.lane_queries()])

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


class GruScorer(SessionScorer):
    """All lanes advance in one forward step; a query is the (width, hidden)
    top layer, and the stacked rows are scored against every item in one
    product."""

    def __init__(self, params: NetworkParams):
        self.params = params
        self._h = HiddenState.zeros(params, 0)

    def advance(self, batch: MiniBatch) -> None:
        _, self._h, _ = forward_step(self.params, batch, self._h,
                                     sampled_columns=np.empty(0, dtype=np.intp))

    def lane_queries(self) -> np.ndarray:
        return self._h.layers[-1]  # a snapshot: forward_step writes into no state it returned

    def score_queries(self, queries: list) -> np.ndarray:
        return score_all(self.params, np.concatenate(queries))


class PopScorer(SessionScorer):
    """A query is the lane count; every lane gets the same row."""

    def __init__(self, vocab: ItemVocab):
        self._scores = pop_score(vocab)
        self._width = 0

    def advance(self, batch: MiniBatch) -> None:
        _check_in_vocab(batch.inputs, len(self._scores), "input item index")
        self._width = batch.width

    def lane_queries(self) -> int:
        return self._width

    def score_queries(self, queries: list) -> np.ndarray:
        return np.broadcast_to(self._scores, (sum(queries), len(self._scores)))


class SpopScorer(SessionScorer):
    """Session popularity with global popularity as tiebreak: per-lane prefix
    counts of every item (a :class:`LaneItems` map accumulated at decay 1.0,
    which is the query), plus its global popularity as a fraction strictly
    below one.

    Within-prefix counts dominate, so items absent from the prefix always
    rank below present ones, ordered among themselves by global counts.
    """

    def __init__(self, vocab: ItemVocab):
        self._tiebreak = vocab.popularity / (vocab.popularity.sum() + 1.0)
        self._counts = LaneItems.empty(len(vocab), 0)

    def advance(self, batch: MiniBatch) -> None:
        _check_in_vocab(batch.inputs, len(self._tiebreak), "input item index")
        self._counts = self._counts.realign(batch).accumulate(batch.inputs, 1.0)

    def lane_queries(self) -> LaneItems:
        return self._counts  # realign and accumulate return new maps

    def score_queries(self, queries: list) -> np.ndarray:
        widths = [counts.width for counts in queries]
        scores = np.tile(self._tiebreak, (sum(widths), 1))
        for start, counts in zip(np.cumsum([0] + widths), queries):
            scores[start + counts.lanes, counts.items] += counts.weights
        return scores


class ItemKnnScorer(SessionScorer):
    """Each lane's state, and query, is its last item; its scores are that
    item's row."""

    def __init__(self, model: ItemKnnModel):
        self.model = model
        self._last = np.empty(0, dtype=np.int64)

    def advance(self, batch: MiniBatch) -> None:
        _check_in_vocab(batch.inputs, self.model.n_items, "input item index")
        self._last = batch.inputs

    def lane_queries(self) -> np.ndarray:
        return self._last

    def score_queries(self, queries: list) -> np.ndarray:
        return itemknn_score(self.model, np.concatenate(queries))


class BprMfScorer(SessionScorer):
    """Per-lane prefix sums (rows added left to right, one event at a time)
    and lengths of the item factors; the prefix means are the user vectors
    and the query, and the stacked means are scored with one (rows, d)·(d, N)
    product."""

    def __init__(self, model: BprMfModel):
        self.model = model
        self._sums = np.zeros((0, model.factors.shape[1]))
        self._lengths = np.zeros(0, dtype=np.int64)

    def advance(self, batch: MiniBatch) -> None:
        _check_in_vocab(batch.inputs, len(self.model.factors), "input item index")
        self._sums = batch.realign(self._sums)
        self._sums += self.model.factors[batch.inputs]
        self._lengths = batch.realign(self._lengths)
        self._lengths += 1

    def lane_queries(self) -> np.ndarray:
        return self._sums / self._lengths[:, None]

    def score_queries(self, queries: list) -> np.ndarray:
        return np.concatenate(queries) @ self.model.factors.T


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

    Up to :data:`EVAL_LANES` sessions advance at once. Each step's lane
    queries are held until the next step would take the held rows past
    :data:`EVAL_LANES`; the held steps are then scored with one
    ``score_queries`` call and ranked with one :func:`lane_ranks` call, and
    the rest after the last step. The cases are the events before each
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
    held: list[tuple[object, np.ndarray, np.ndarray]] = []  # (query, cases, targets)

    def rank_held() -> None:
        queries, cases, targets = zip(*held)
        ranks[np.concatenate(cases)] = lane_ranks(
            scorer.score_queries(list(queries)), np.concatenate(targets), candidates)
        held.clear()

    n_held = 0
    for batch in SessionBatcher(test, EVAL_LANES):
        if n_held + batch.width > EVAL_LANES:
            rank_held()
            n_held = 0
        scorer.advance(batch)
        held.append((scorer.lane_queries(), first_case[batch.sessions] + batch.positions,
                     batch.targets))
        n_held += batch.width
    rank_held()

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
