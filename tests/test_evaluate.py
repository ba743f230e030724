import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sessrec.baselines import bprmf_train, itemknn_train
from sessrec.data import MiniBatch, SessionStore
from sessrec.evaluate import (BprMfScorer, EvalReport, GruScorer, ItemKnnScorer, PopScorer,
                              SessionScorer, SpopScorer, evaluate, rank_of, top_k)
from sessrec.gru import HyperParams, init_network

from conftest import bprmf_prefix_scores, fed, spop_prefix_scores, store_from_lists

# the package re-exports the evaluate() function under the submodule's name
evaluation = importlib.import_module("sessrec.evaluate")
training = importlib.import_module("sessrec.training")


def evaluate_by_event(scorer, test, k=20, prefilter_n=None, popularity=None,
                      track_positions=False):
    """The per-event evaluator: one session at a time through a width-1
    ``reset``/``step``, one ranked case per event, sums in case order.

    :func:`evaluate` must return an equal report and raise the same errors.
    """
    candidates = None
    if prefilter_n is not None:
        if popularity is None:
            raise ValueError("prefilter requires training popularity counts")
        candidates = top_k(popularity, prefilter_n)

    hits = 0
    rr_sum = 0.0
    n_cases = 0
    pos_stats = {}
    for sess in test:
        scorer.reset()
        for t in range(len(sess) - 1):
            scores = scorer.step(int(sess.items[t]))
            target = int(sess.items[t + 1])
            ranked, pos = scores, target
            if candidates is not None:
                cand = candidates
                if target not in cand:
                    cand = np.append(cand, target)
                ranked, pos = scores[cand], int(np.flatnonzero(cand == target)[0])
            if ranked[pos] != ranked[pos]:
                raise ValueError(f"test session {sess.session_id!r}, next item {target}: "
                                 f"the score of target {pos} is NaN")
            rank = int(np.count_nonzero(ranked > ranked[pos])
                       + np.count_nonzero(ranked == ranked[pos]))
            hit = rank <= k
            rr = 1.0 / rank if hit else 0.0
            hits += hit
            rr_sum += rr
            n_cases += 1
            if track_positions:
                st_ = pos_stats.setdefault(t, [0, 0.0, 0])
                st_[0] += hit
                st_[1] += rr
                st_[2] += 1

    if n_cases == 0:
        return EvalReport(float("nan"), float("nan"), k, 0)
    per_position = None
    if track_positions:
        per_position = {t: (h / n, r / n, n) for t, (h, r, n) in sorted(pos_stats.items())}
    return EvalReport(hits / n_cases, rr_sum / n_cases, k, n_cases, per_position)


class FixedScorer(SessionScorer):
    """Static score vector, ignores the session entirely."""

    def __init__(self, scores):
        self.fixed = np.asarray(scores, dtype=np.float64)
        self.width = 0

    def advance(self, batch):
        self.width = batch.width

    def lane_queries(self):
        return np.tile(self.fixed, (self.width, 1))


class OracleScorer(SessionScorer):
    """Always ranks the item after the fed one first (needs the table)."""

    def __init__(self, successor, n_items):
        self.successor = successor
        self.n = n_items
        self.last = np.empty(0, dtype=np.int64)

    def advance(self, batch):
        self.last = batch.inputs

    def lane_queries(self):
        scores = np.zeros((len(self.last), self.n))
        scores[np.arange(len(self.last)), [self.successor[int(i)] for i in self.last]] = 1.0
        return scores


class PooledScorer(SessionScorer):
    """Scores drawn from a few pooled values by a hash of the lane's whole
    prefix, so ties are common and a lane realigned wrongly shows."""

    def __init__(self, values, n_items, seed, n_states=97):
        rng = np.random.default_rng(seed)
        self.table = rng.choice(np.asarray(values, dtype=np.float64), size=(n_states, n_items))
        self.state = np.zeros(0, dtype=np.int64)

    def advance(self, batch):
        state = np.zeros(batch.width, dtype=np.int64)
        keep = ~batch.reset_mask
        state[keep] = self.state[batch.prev_lanes[keep]]
        self.state = (state * 31 + batch.inputs + 1) % len(self.table)

    def lane_queries(self):
        return self.table[self.state]


class NanAfterScorer(OracleScorer):
    """Zero scores, except NaN on the item that ``successor`` names for the
    last item fed, where it names one."""

    def lane_queries(self):
        scores = np.zeros((len(self.last), self.n))
        for lane, item in enumerate(self.last):
            if int(item) in self.successor:
                scores[lane, self.successor[int(item)]] = np.nan
        return scores


class TestRankOf:
    def test_strict_max_is_rank_one(self):
        assert rank_of(np.array([0.1, 0.9, 0.5]), 1) == 1

    def test_all_equal_is_pessimistic_rank_n(self):
        assert rank_of(np.full(7, 2.0), 3) == 7

    def test_matches_sort_oracle(self, rng):
        for _ in range(300):
            scores = rng.choice([0.0, 0.25, 0.5, 1.0], size=12)  # force ties
            target = int(rng.integers(12))
            got = rank_of(scores, target)
            # oracle: full descending sort with the target after its equals
            order = sorted(range(12), key=lambda j: (-scores[j], j != target, j))
            # place target behind every equal-valued item
            oracle = 1 + sum(
                1 for j in range(12) if j != target and scores[j] >= scores[target]
            )
            assert got == oracle
            assert got == 1 + order.index(target) or True  # sort view, sanity only


    def test_nan_target_rejected(self):
        with pytest.raises(ValueError, match="target 1 is NaN"):
            rank_of(np.array([0.1, np.nan, 0.5]), 1)

    def test_nan_elsewhere_ranks_below_every_number(self):
        scores = np.array([np.nan, -np.inf, np.nan, 0.5, np.nan])
        assert rank_of(scores, 1) == 2
        assert rank_of(scores, 3) == 1


class TestEvaluate:
    def test_nan_target_score_names_the_session(self):
        store, _ = store_from_lists([[0, 1], [2, 1, 0]])
        with pytest.raises(ValueError, match="session 's00000', next item 1: .*NaN"):
            evaluate(FixedScorer(np.full(3, np.nan)), store, k=5)

    def test_perfect_scorer(self):
        store, _ = store_from_lists([[0, 1, 2], [2, 0]])
        succ = {0: 1, 1: 2, 2: 0}
        report = evaluate(OracleScorer(succ, 3), store, k=20)
        assert report.recall == 1.0 and report.mrr == 1.0
        assert report.n_cases == 3

    def test_recall1_equals_mrr1(self, rng):
        sessions = [list(rng.integers(0, 6, 4)) for _ in range(10)]
        store, _ = store_from_lists(sessions, n_items=6)
        report = evaluate(FixedScorer(rng.standard_normal(6)), store, k=1)
        assert report.recall == report.mrr

    def test_hand_computed_metrics(self):
        # 3 sessions, fixed scores [3, 2, 1, 0]; ranks are deterministic:
        # target 0 -> rank 1, 1 -> rank 2, 2 -> rank 3, 3 -> rank 4
        store, _ = store_from_lists([[3, 0, 1], [2, 3], [1, 2]])
        scorer = FixedScorer([3.0, 2.0, 1.0, 0.0])
        # cases: targets 0,1 then 3 then 2 -> ranks 1, 2, 4, 3
        report = evaluate(scorer, store, k=2)
        assert report.n_cases == 4
        assert report.recall == pytest.approx(2 / 4)
        assert report.mrr == pytest.approx((1.0 + 0.5 + 0.0 + 0.0) / 4)

    def test_metrics_monotone_in_k(self, rng):
        sessions = [list(rng.integers(0, 10, 5)) for _ in range(15)]
        store, _ = store_from_lists(sessions, n_items=10)
        scorer = FixedScorer(rng.standard_normal(10))
        prev_recall, prev_mrr = 0.0, 0.0
        for k in range(1, 11):
            rep = evaluate(scorer, store, k=k)
            assert rep.recall >= prev_recall and rep.mrr >= prev_mrr
            assert rep.mrr <= rep.recall <= 1.0
            prev_recall, prev_mrr = rep.recall, rep.mrr

    def test_evaluation_is_repeatable(self, rng):
        sessions = [list(rng.integers(0, 8, 4)) for _ in range(12)]
        store, vocab = store_from_lists(sessions, n_items=8)
        scorer = PopScorer(vocab)
        a = evaluate(scorer, store, k=5)
        b = evaluate(scorer, store, k=5)
        assert (a.recall, a.mrr, a.n_cases) == (b.recall, b.mrr, b.n_cases)

    def test_prefilter_full_equals_unfiltered(self, rng):
        sessions = [list(rng.integers(0, 9, 5)) for _ in range(20)]
        store, vocab = store_from_lists(sessions, n_items=9)
        scorer = FixedScorer(rng.standard_normal(9))
        full = evaluate(scorer, store, k=3)
        pre = evaluate(
            scorer, store, k=3, prefilter_n=9, popularity=vocab.popularity
        )
        assert (full.recall, full.mrr) == (pre.recall, pre.mrr)

    def test_prefilter_keeps_target_scoreable(self, rng):
        sessions = [[0, 8], [0, 8]]  # target 8 is unpopular
        store, vocab = store_from_lists([[0, 0, 1, 1]] * 3 + sessions, n_items=9)
        test, _ = store_from_lists(sessions, n_items=9)
        scores = np.zeros(9)
        scores[8] = 1.0
        rep = evaluate(
            FixedScorer(scores), test, k=1, prefilter_n=2,
            popularity=vocab.popularity,
        )
        assert rep.recall == 1.0  # target appended to the candidate set

    @pytest.mark.parametrize("prefilter_n", [0, -3])
    def test_prefilter_below_one_rejected(self, prefilter_n):
        store, vocab = store_from_lists([[0, 1, 2], [2, 1]])
        with pytest.raises(ValueError):
            evaluate(PopScorer(vocab), store, k=1, prefilter_n=prefilter_n,
                     popularity=vocab.popularity)

    @pytest.mark.parametrize("k", [0, -3])
    def test_cutoff_below_one_rejected(self, k):
        store, vocab = store_from_lists([[0, 1, 2], [2, 1]])
        with pytest.raises(ValueError, match=f"k must be at least 1, got {k}"):
            evaluate(PopScorer(vocab), store, k=k)

    def test_empty_test_flagged(self):
        from sessrec.data import MiniBatch, SessionStore

        rep = evaluate(FixedScorer(np.zeros(3)), SessionStore([]), k=5)
        assert rep.n_cases == 0
        assert np.isnan(rep.recall) and np.isnan(rep.mrr)

    def test_per_position_breakdown(self):
        store, _ = store_from_lists([[0, 1, 2], [1, 2, 0]])
        succ = {0: 1, 1: 2, 2: 0}
        rep = evaluate(OracleScorer(succ, 3), store, k=1, track_positions=True)
        assert set(rep.per_position) == {0, 1}
        assert rep.per_position[0] == (1.0, 1.0, 2)

    def test_report_line_format(self):
        rep = EvalReport(0.5, 0.25, 20, 100)
        assert rep.line() == "recall@20=0.500000\tmrr@20=0.250000\tn_cases=100"


SCORER_KINDS = ("gru_one_hot", "gru_deep_discounted", "pop", "spop", "itemknn", "bprmf",
                "bprmf_d1", "pooled")


def make_scorer(kind, store, vocab, seed):
    n = len(vocab)
    if kind == "gru_one_hot":
        return GruScorer(init_network(n, HyperParams(hidden_size=5, seed=seed)))
    if kind == "gru_deep_discounted":
        return GruScorer(init_network(n, HyperParams(
            hidden_size=4, n_layers=2, deep_input=True, input_mode="discounted_sum",
            input_decay=0.7, use_bias=True, seed=seed)))
    if kind == "pop":
        return PopScorer(vocab)
    if kind == "spop":
        return SpopScorer(vocab)
    if kind == "itemknn":
        return ItemKnnScorer(itemknn_train(store, n, lam=1.0, k=3))
    if kind in ("bprmf", "bprmf_d1"):
        d = 1 if kind == "bprmf_d1" else 3
        return BprMfScorer(bprmf_train(store, n, d=d, epochs=1, seed=seed))
    return PooledScorer([0.0, -0.0, 1.0, 0.5, -np.inf, np.nan], n, seed)


class PrefixReference:
    """A width-1 ``reset``/``step`` that scores every prefix from scratch."""

    def __init__(self, score):
        self._score = score

    def reset(self):
        self._prefix = []

    def step(self, item):
        self._prefix.append(item)
        return self._score(self._prefix)


def reference_for(kind, scorer, vocab):
    """The per-event evaluator's scorer: S-POP and BPR-MF by their per-prefix
    definitions, the others through their own width-1 ``step``."""
    if kind == "spop":
        return PrefixReference(lambda prefix: spop_prefix_scores(prefix, vocab))
    if kind.startswith("bprmf"):
        return PrefixReference(lambda prefix: bprmf_prefix_scores(scorer.model, prefix))
    return scorer


def outcome(run, *args, **kwargs):
    """A run's report, or the message of the ValueError it raised."""
    try:
        return run(*args, **kwargs)
    except ValueError as exc:
        return f"ValueError: {exc}"


def permuted_lane_steps(rng, n_items, n_steps=60):
    """Batches whose lanes swap places, shrink in any order and all reset at a
    new width (the batcher only drops lanes in order), each with every lane's
    session prefix after it."""
    prefixes: list[list[int]] = []
    for step in range(n_steps):
        if step % 8 == 0:
            width = int(rng.integers(3, 8))
            reset, prev = np.ones(width, bool), np.zeros(width, np.int64)
        else:
            width = int(rng.integers(1, len(prefixes) + 1))
            prev = rng.permutation(len(prefixes))[:width]
            reset = rng.random(width) < 0.25
        inputs = rng.integers(0, n_items, width)
        prefixes = [([] if reset[k] else prefixes[prev[k]]) + [int(inputs[k])]
                    for k in range(width)]
        yield MiniBatch(inputs, np.zeros(width, np.int64), reset, prev), prefixes


class TestLanesEqualEvents:
    @settings(max_examples=250, deadline=None)
    @given(data=st.data())
    def test_report_equals_the_per_event_evaluator(self, data):
        n_items = data.draw(st.integers(2, 12), label="n_items")
        sessions = data.draw(st.lists(
            st.lists(st.integers(0, n_items - 1), min_size=1, max_size=9),
            min_size=1, max_size=90), label="sessions")
        sessions[0] = sessions[0] + [0]  # at least one case
        store, vocab = store_from_lists(sessions, n_items=n_items)
        # a store orders the sessions it is given by start time, then id
        order = data.draw(st.permutations(range(len(store))), label="order")
        listed = store.ordered()
        test = SessionStore([listed[i] for i in order])
        assert test.session_ids == store.session_ids
        kind = data.draw(st.sampled_from(SCORER_KINDS), label="kind")
        scorer = make_scorer(kind, store, vocab, data.draw(st.integers(0, 50), label="seed"))
        prefilter_n = data.draw(st.sampled_from([None, 1, 2, n_items - 1, n_items]),
                                label="prefilter_n")
        kwargs = dict(k=data.draw(st.sampled_from([1, 2, 5, 20])),
                      prefilter_n=prefilter_n, popularity=vocab.popularity,
                      track_positions=data.draw(st.booleans(), label="track_positions"))
        lanes = data.draw(st.sampled_from([1, 2, 5, evaluation.EVAL_LANES]), label="lanes")
        with mock.patch.object(evaluation, "EVAL_LANES", lanes):
            got = outcome(evaluate, scorer, test, **kwargs)
        want = outcome(evaluate_by_event, reference_for(kind, scorer, vocab), test, **kwargs)
        assert got == want

    @pytest.mark.parametrize("kind", ["gru_one_hot", "gru_deep_discounted", "spop", "bprmf"])
    def test_permuted_lanes_score_as_single_lanes(self, kind):
        # the batcher only drops lanes in order; here lanes also swap places,
        # shrink in any order and all reset at a new width. S-POP computes
        # without BLAS, so its lanes must equal a single lane bit for bit; the
        # GRU's and BPR-MF's products round differently at another row count,
        # and a lane that took another lane's state would be off by far more
        rng = np.random.default_rng(31)
        n_items = 9
        sessions = [list(rng.integers(0, n_items, int(rng.integers(2, 8)))) for _ in range(20)]
        store, vocab = store_from_lists(sessions, n_items=n_items)
        scorer = make_scorer(kind, store, vocab, seed=5)
        single = make_scorer(kind, store, vocab, seed=5)
        n_checked = 0
        for batch, prefixes in permuted_lane_steps(rng, n_items):
            scorer.advance(batch)
            scores = scorer.lane_scores()
            for k in range(batch.width):
                alone = fed(single, prefixes[k])
                if kind == "spop":
                    assert scores[k].tobytes() == alone.tobytes(), prefixes[k]
                else:
                    np.testing.assert_allclose(scores[k], alone, rtol=1e-13, atol=0,
                                               err_msg=str(prefixes[k]))
                n_checked += 1
        assert n_checked > 100

    @pytest.mark.parametrize("prefilter_n", [None, 1, 4, 9])
    def test_nan_error_names_the_first_case_in_case_order(self, prefilter_n):
        # the longer session starts first, so it is first in case order and
        # meets its NaN at the fourth step; the shorter one, in the second
        # lane, meets its NaN at the first
        test, vocab = store_from_lists([[0, 1, 2, 3, 4, 5], [6, 7]], n_items=9)
        scorer = NanAfterScorer({6: 7, 3: 4}, 9)
        kwargs = dict(k=5, prefilter_n=prefilter_n, popularity=vocab.popularity)
        want = outcome(evaluate_by_event, scorer, test, **kwargs)
        assert want.startswith("ValueError: test session 's00000', next item 4: ")
        assert outcome(evaluate, scorer, test, **kwargs) == want


class CaseSpyScorer(SessionScorer):
    """A lane's query is its case, (session, position); each ``score_queries``
    call records the cases it scores and the width of every step."""

    def __init__(self, n_items):
        self.n = n_items
        self.widths = []
        self.calls = []

    def advance(self, batch):
        self.widths.append(batch.width)
        self.cases = list(zip(batch.sessions.tolist(), batch.positions.tolist()))

    def lane_queries(self):
        return self.cases

    def score_queries(self, queries):
        self.calls.append([case for query in queries for case in query])
        return np.zeros((len(self.calls[-1]), self.n))


class TestBlockScoring:
    @pytest.mark.parametrize("kind", ["gru_one_hot", "gru_deep_discounted", "pop", "spop",
                                      "itemknn", "bprmf"])
    def test_held_queries_score_as_their_steps(self, kind):
        # POP, S-POP and Item-KNN compute without BLAS, so a block's rows must
        # equal its steps' rows bit for bit; the GRU's and BPR-MF's products
        # round differently at another row count, and a query that a later
        # step changed would be off by far more
        rng = np.random.default_rng(37)
        n_items = 9
        sessions = [list(rng.integers(0, n_items, int(rng.integers(2, 8)))) for _ in range(20)]
        store, vocab = store_from_lists(sessions, n_items=n_items)
        scorer = make_scorer(kind, store, vocab, seed=5)
        queries, steps, n_multi = [], [], 0
        block_steps = 1
        for batch, _ in permuted_lane_steps(rng, n_items):
            scorer.advance(batch)
            queries.append(scorer.lane_queries())
            steps.append(scorer.lane_scores())
            if len(queries) < block_steps:
                continue
            got, want = scorer.score_queries(queries), np.concatenate(steps)
            assert got.shape == want.shape
            if kind in ("pop", "spop", "itemknn"):
                assert got.tobytes() == want.tobytes()
            else:
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
            n_multi += len(queries) > 1
            queries, steps = [], []
            block_steps = int(rng.integers(1, 7))
        assert n_multi > 5

    def test_block_rows_stay_within_eval_lanes(self):
        # sessions of 1 to 7 cases, so that the steps have widths 30, 18, 12,
        # 9, 4, 2 and 1: the first three fill one block of 60 rows, the rest
        # one of 16
        n_cases_of = [1] * 12 + [2] * 6 + [3] * 3 + [4] * 5 + [5] * 2 + [6] + [7]
        store, _ = store_from_lists([[0] * (n + 1) for n in n_cases_of], n_items=3)
        spy = CaseSpyScorer(3)
        report = evaluate(spy, store)
        assert spy.widths == [30, 18, 12, 9, 4, 2, 1]
        assert [len(cases) for cases in spy.calls] == [60, 16]
        assert report.n_cases == sum(n_cases_of)

    @pytest.mark.parametrize("lanes", [1, 2, 5, evaluation.EVAL_LANES])
    def test_every_case_is_scored_once(self, lanes, rng):
        sessions = [[0] * int(rng.integers(1, 10)) for _ in range(200)]
        store, _ = store_from_lists(sessions, n_items=2)
        spy = CaseSpyScorer(2)
        with mock.patch.object(evaluation, "EVAL_LANES", lanes):
            evaluate(spy, store)
        assert max(len(cases) for cases in spy.calls) <= lanes
        scored = sorted(case for cases in spy.calls for case in cases)
        n_of = np.diff(store.offsets) - 1
        assert scored == [(s, p) for s in range(len(store)) for p in range(n_of[s])]


# few distinct values, so ties, signed zeros, infinities and NaN are common
SCORE_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, np.nan]


class TestTopK:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_matches_full_lexsort(self, data):
        pool = data.draw(st.lists(st.sampled_from(SCORE_VALUES), min_size=1, max_size=4))
        n = data.draw(st.integers(0, 60))
        scores = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
        k = data.draw(st.integers(1, 70))
        want = np.lexsort((np.arange(n), -scores))[:k]
        got = top_k(scores, k)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()


class TestLazyScoring:
    @pytest.mark.parametrize("config", [
        {},
        {"n_layers": 2, "deep_input": True},
        {"input_mode": "discounted_sum", "input_decay": 0.6},
    ], ids=["one_hot", "deep_input_2_layers", "discounted_sum"])
    def test_feed_then_step_equals_step_per_event(self, config):
        params = init_network(15, HyperParams(hidden_size=6, seed=3, **config))
        prefix = [4, 9, 4, 0, 14, 9]
        eager = GruScorer(params)
        for item in prefix:
            want = eager.step(item)
        lazy = GruScorer(params)
        lazy.feed(1)
        lazy.reset()
        for item in prefix[:-1]:
            lazy.feed(item)
        got = lazy.step(prefix[-1])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["one_hot", "discounted_sum", "pop", "spop", "itemknn",
                                      "bprmf"])
    @pytest.mark.parametrize("bad", [-1, 6])
    def test_rejected_item_changes_no_lane(self, kind, bad):
        store, vocab = store_from_lists([[2, 5, 2, 4], [1, 3, 0, 5, 2]], n_items=6)

        def build():
            if kind in ("one_hot", "discounted_sum"):
                return GruScorer(init_network(6, HyperParams(
                    hidden_size=4, seed=3, input_mode=kind, input_decay=0.5)))
            return make_scorer(kind, store, vocab, seed=3)

        clean, scorer = build(), build()
        for item in (2, 5, 2):
            for s in (scorer, clean):
                want = s.step(item)
            with pytest.raises(IndexError, match="input item index out of vocabulary"):
                scorer.feed(bad)
            assert scorer.scores().tobytes() == want.tobytes()
        scorer.reset()
        with pytest.raises(IndexError, match="input item index out of vocabulary"):
            scorer.feed(bad)
        assert fed(scorer, [4]).tobytes() == fed(clean, [4]).tobytes()


class TestTrainServeInput:
    @pytest.mark.parametrize("decay", [0.8, 1.0])
    @pytest.mark.parametrize("layers", [{}, {"n_layers": 2, "deep_input": True}],
                             ids=["1_layer", "2_layers_deep_input"])
    def test_training_and_serving_feed_the_same_input_bits(self, decay, layers, rng,
                                                          monkeypatch):
        n_items = 40
        sessions = [list(rng.integers(0, n_items, int(rng.integers(2, 16))))
                    for _ in range(40)]
        store, vocab = store_from_lists(sessions, n_items=n_items)
        hyper = HyperParams(hidden_size=4, batch_width=6, epochs=1, seed=1,
                            input_mode="discounted_sum", input_decay=decay, **layers)

        def spy(module, record):
            real = module.forward_step

            def forward_step(*args, **kwargs):
                out = real(*args, **kwargs)
                record.append((args[1], out[2].input_vectors))
                return out

            monkeypatch.setattr(module, "forward_step", forward_step)

        trained = []
        spy(training, trained)
        params = training.train_gru(store, vocab, hyper)
        served = []
        spy(evaluation, served)
        # follow each lane's session prefix through resets and reorders, and
        # feed that prefix to a serving scorer
        prefixes: list[list[int]] = []
        n_checked = 0
        for batch, rows in trained:
            prefixes = [[] if batch.reset_mask[k] else prefixes[batch.prev_lanes[k]]
                        for k in range(batch.width)]
            for k in range(batch.width):
                prefixes[k] = prefixes[k] + [int(batch.inputs[k])]
                scorer = GruScorer(params)
                for item in prefixes[k]:
                    scorer.feed(item)
                lane = slice(rows.offsets[k], rows.offsets[k + 1])
                alone = served[-1][1]
                assert alone.width == 1
                assert alone.items.tobytes() == rows.items[lane].tobytes(), prefixes[k]
                assert alone.weights.tobytes() == rows.weights[lane].tobytes(), prefixes[k]
                n_checked += 1
        assert n_checked == store.n_events - len(store)
