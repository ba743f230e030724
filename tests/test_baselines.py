import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse

from sessrec.baselines import (BprMfModel, bprmf_train, itemknn_score, itemknn_train, pair_waves,
                               pop_score)
from sessrec.evaluate import BprMfScorer, SpopScorer, rank_of

from conftest import (bprmf_prefix_scores, bprmf_train_by_pair, fed, spop_prefix_scores,
                      store_from_lists)


class TestPop:
    def test_most_popular_ranks_first(self):
        store, vocab = store_from_lists([[0, 1, 1], [1, 2]])
        scores = pop_score(vocab)
        assert rank_of(scores, 1) == 1

    def test_top20_matches_sort_oracle(self, rng):
        sessions = [list(rng.integers(0, 30, 5)) for _ in range(40)]
        store, vocab = store_from_lists(sessions, n_items=30)
        scores = pop_score(vocab)
        oracle = sorted(range(30), key=lambda i: (-vocab.popularity[i], i))
        got = np.lexsort((np.arange(30), -scores))
        assert list(got[:20]) == oracle[:20]


class TestSpop:
    def test_prefix_counts_dominate(self):
        store, vocab = store_from_lists([[0, 1, 0, 2], [1, 2], [1, 2]])
        scores = fed(SpopScorer(vocab), [0, 1, 0])
        assert rank_of(scores, 0) == 1
        assert rank_of(scores, 1) == 2

    def test_tie_broken_by_global_popularity(self):
        store, vocab = store_from_lists([[1, 1, 2], [1, 2]])  # pop(1)=3 > pop(2)=2
        scores = fed(SpopScorer(vocab), [2, 1])
        assert scores[1] > scores[2]

    def test_absent_items_below_present(self):
        store, vocab = store_from_lists([[0, 1, 2, 2, 2]])
        scores = fed(SpopScorer(vocab), [0])
        assert scores[0] > scores[2] > scores[1]  # 2 most popular among absent

    def test_full_ordering_matches_two_key_sort(self, rng):
        sessions = [list(rng.integers(0, 12, 6)) for _ in range(15)]
        store, vocab = store_from_lists(sessions, n_items=12)
        prefix = list(rng.integers(0, 12, 7))
        scores = fed(SpopScorer(vocab), prefix)
        counts = np.bincount(prefix, minlength=12)
        oracle = sorted(
            range(12), key=lambda i: (-counts[i], -vocab.popularity[i], i)
        )
        got = np.lexsort((np.arange(12), -scores))
        assert list(got) == oracle

    def test_order_invariant_within_prefix(self, rng):
        store, vocab = store_from_lists([[0, 1, 2, 3]])
        prefix = [0, 1, 1, 2]
        perm = [1, 2, 0, 1]
        scorer = SpopScorer(vocab)
        np.testing.assert_array_equal(fed(scorer, prefix), fed(scorer, perm))

    def test_scorer_equals_prefix_definition(self, rng):
        sessions = [list(rng.integers(0, 30, 6)) for _ in range(20)]
        store, vocab = store_from_lists(sessions, n_items=30)
        scorer = SpopScorer(vocab)
        for length in [1, 2, 7, 8, 9, 25]:
            prefix = rng.integers(0, 30, length)
            want = spop_prefix_scores(prefix, vocab)
            assert fed(scorer, prefix).tobytes() == want.tobytes()

    def test_empty_prefix_rejected(self):
        store, vocab = store_from_lists([[0, 1]])
        scorer = SpopScorer(vocab)
        with pytest.raises(ValueError):
            scorer.scores()
        fed(scorer, [1])
        with pytest.raises(ValueError):
            fed(scorer, [])


def brute_force_sim(sessions, n_items, lam, rows=None):
    """Similarity rows (all rows by default) by counting sessions one by one.

    Items that share no session with the row's item keep similarity 0.
    """
    rows = range(n_items) if rows is None else rows
    sets = [set(s) for s in sessions]
    n = Counter(i for st in sets for i in st)
    sim = np.zeros((len(rows), n_items))
    for r, a in enumerate(rows):
        with_a = [st for st in sets if a in st]
        for b in set().union(*with_a) - {a}:
            co = sum(1 for st in with_a if b in st)
            sim[r, b] = co / (math.sqrt(n[a] * n[b]) + lam)
    return sim


def top_k_rows(sim, k):
    """Neighbour lists of each row: similarity descending, index ascending."""
    n_rows, n_items = sim.shape
    kk = min(k, n_items - 1) if n_items > 1 else 0
    neighbor_index = np.full((n_rows, max(kk, 1)), -1, dtype=np.int64)
    neighbor_sim = np.zeros((n_rows, max(kk, 1)))
    for i in range(n_rows):
        row = sim[i]
        order = np.lexsort((np.arange(n_items), -row))[:kk]
        order = order[row[order] > 0]
        neighbor_index[i, : len(order)] = order
        neighbor_sim[i, : len(order)] = row[order]
    return neighbor_index, neighbor_sim


def dense_itemknn_fit(store, n_items, lam, k):
    """The dense N × N fit: a full co-occurrence matrix, then a sort per row.

    It is the reference for itemknn_train's neighbour lists, whose order the
    model file bytes depend on.
    """
    rows, cols = [], []
    for si, sess in enumerate(store):
        for it in np.unique(sess.items):
            rows.append(si)
            cols.append(it)
    inc = sparse.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(len(store), n_items)
    )
    co = (inc.T @ inc).toarray()
    n = np.diag(co).copy()
    denom = np.sqrt(np.outer(n, n)) + lam
    with np.errstate(invalid="ignore"):
        sim = np.where(denom > 0, co / denom, 0.0)
    np.fill_diagonal(sim, 0.0)
    return top_k_rows(sim, k)


# (n_items, sessions); items may appear in no session, sessions may repeat items
corpora = st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=6), max_size=12),
))


class TestItemKnn:
    def test_perfect_cooccurrence_lambda_zero(self):
        sessions = [[0, 1], [0, 1], [0, 1]]
        store, _ = store_from_lists(sessions)
        model = itemknn_train(store, 2, lam=0.0, k=2)
        assert itemknn_score(model, np.array([0]))[0, 1] == pytest.approx(1.0)

    def test_never_cooccurring_is_zero(self):
        store, _ = store_from_lists([[0, 1], [2, 3]])
        model = itemknn_train(store, 4, lam=0.0, k=4)
        assert itemknn_score(model, np.array([0]))[0, 2] == 0.0

    def test_matches_brute_force_exactly(self, rng):
        sessions = [
            list(np.unique(rng.integers(0, 50, int(rng.integers(2, 8)))))
            for _ in range(20)
        ]
        sessions = [s for s in sessions if len(s) >= 2]
        store, _ = store_from_lists(sessions, n_items=50)
        model = itemknn_train(store, 50, lam=20.0, k=50)
        oracle = brute_force_sim(sessions, 50, 20.0)
        np.testing.assert_array_equal(itemknn_score(model, np.arange(50)), oracle)

    def test_similarity_symmetric(self, rng):
        sessions = [list(rng.integers(0, 10, 4)) for _ in range(15)]
        store, _ = store_from_lists(sessions, n_items=10)
        model = itemknn_train(store, 10, lam=5.0, k=10)
        full = itemknn_score(model, np.arange(10))
        np.testing.assert_array_equal(full, full.T)

    def test_lambda_monotone_damping(self, rng):
        sessions = [list(rng.integers(0, 8, 4)) for _ in range(12)]
        store, _ = store_from_lists(sessions, n_items=8)
        low = itemknn_train(store, 8, lam=1.0, k=8)
        high = itemknn_train(store, 8, lam=30.0, k=8)
        items = np.arange(8)
        assert np.all(itemknn_score(high, items) <= itemknn_score(low, items))

    def test_no_self_similarity(self, rng):
        store, _ = store_from_lists([[0, 1, 0], [0, 2]])
        model = itemknn_train(store, 3, lam=0.0, k=3)
        assert np.all(np.diag(itemknn_score(model, np.arange(3))) == 0.0)

    def test_unseen_item_rejected(self):
        store, _ = store_from_lists([[0, 1]])
        model = itemknn_train(store, 2)
        with pytest.raises(IndexError):
            itemknn_score(model, np.array([5]))

    @settings(max_examples=300, deadline=None)
    @given(corpus=corpora, lam=st.sampled_from([0.0, 0.5, 1.0, 3.0, 20.0]),
           k=st.integers(1, 12))
    @example(corpus=(1, [[0, 0], [0]]), lam=0.0, k=1)  # N = 1
    @example(corpus=(1, []), lam=20.0, k=3)  # N = 1, no sessions
    # ties at lam = 0; items 4 and 5 in no session; fewer than K neighbours
    @example(corpus=(6, [[0, 1], [0, 2], [1, 2, 1], [0, 3], [3, 0]]), lam=0.0, k=3)
    @example(corpus=(4, [[0, 1, 2, 3], [2, 1]]), lam=20.0, k=10)  # K >= N
    def test_neighbor_lists_equal_dense_fit(self, corpus, lam, k):
        n_items, sessions = corpus
        store, _ = store_from_lists(sessions, n_items=n_items)
        model = itemknn_train(store, n_items, lam=lam, k=k)
        want_index, want_sim = dense_itemknn_fit(store, n_items, lam, k)
        assert model.neighbor_index.shape == want_index.shape
        assert model.neighbor_index.dtype == want_index.dtype
        assert model.neighbor_index.tobytes() == want_index.tobytes()
        assert model.neighbor_sim.dtype == want_sim.dtype
        assert model.neighbor_sim.tobytes() == want_sim.tobytes()

    def test_paper_scale_catalog(self):
        # 37,483 items, the paper's catalog: a dense N x N fit needs ~11 GB
        # per matrix, so only a fit that stays sparse can run this test
        n_items, k = 37_483, 100
        rng = np.random.default_rng(37)
        hubs = rng.choice(n_items, 10, replace=False)
        sessions = []
        for _ in range(3000):
            items = list(rng.integers(0, n_items, int(rng.integers(2, 6))))
            if rng.random() < 0.5:
                items[0] = int(rng.choice(hubs))
            sessions.append(items)
        store, _ = store_from_lists(sessions, n_items=n_items)
        model = itemknn_train(store, n_items, lam=20.0, k=k)
        assert model.neighbor_index.shape == (n_items, k)
        seen = np.unique(np.concatenate(sessions))
        unseen = int(np.setdiff1d(np.arange(n_items), seen)[0])
        rows = [int(hubs[0]), int(hubs[1]), int(seen[0]), int(seen[-1]), unseen]
        want_index, want_sim = top_k_rows(brute_force_sim(sessions, n_items, 20.0, rows), k)
        assert (want_index[:2] >= 0).all()  # the hubs have more than K neighbours
        assert (want_index[-1] == -1).all()
        np.testing.assert_array_equal(model.neighbor_index[rows], want_index)
        assert model.neighbor_sim[rows].tobytes() == want_sim.tobytes()

    @pytest.mark.parametrize("kwargs", [
        {"k": 0}, {"k": -5}, {"lam": -1.0}, {"lam": float("nan")}, {"lam": float("inf")},
    ])
    def test_bad_parameters_rejected(self, kwargs):
        store, _ = store_from_lists([[0, 1]])
        with pytest.raises(ValueError):
            itemknn_train(store, 2, **kwargs)


# (n_items, sessions) for BPR-MF. Catalogs of 1-3 items make negatives equal
# to their positive or inside their prefix; larger ones, with sessions of up
# to 12 events, put prefixes of different lengths, 8 or more among them, into
# one wave.
bpr_corpora = st.one_of(st.integers(1, 3), st.integers(4, 40)).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=12), max_size=15),
))


class TestBprMf:
    @settings(max_examples=300, deadline=None)
    @given(corpus=bpr_corpora, epochs=st.integers(0, 3), d=st.integers(1, 8),
           lr=st.floats(0.01, 3.0), reg=st.sampled_from([0.0, 1e-5, 0.1]),
           seed=st.integers(0, 2**32 - 1))
    @example(corpus=(1, []), epochs=2, d=3, lr=0.05, reg=1e-5, seed=0)  # no sessions
    @example(corpus=(1, [[0, 0, 0], [0]]), epochs=3, d=2, lr=3.0, reg=0.0, seed=1)
    @example(corpus=(3, [[0, 1, 0, 2, 1], [2], [2, 2]]), epochs=3, d=1, lr=1.0, reg=0.1, seed=2)
    def test_fit_equals_one_pair_at_a_time(self, corpus, epochs, d, lr, reg, seed):
        n_items, sessions = corpus
        store, _ = store_from_lists(sessions, n_items=n_items)
        got = bprmf_train(store, n_items, d=d, epochs=epochs, lr=lr, reg=reg, seed=seed)
        want = bprmf_train_by_pair(store, n_items, d=d, epochs=epochs, lr=lr, reg=reg, seed=seed)
        assert got.factors.tobytes() == want.tobytes()

    # A larger catalog puts many pairs, with prefixes of up to 15 items, in one
    # wave. With d = 1 NumPy's mean sums 8 or more values pairwise, so a sum
    # over prefixes padded to the wave's longest one would differ.
    @pytest.mark.parametrize("d", [1, 100])
    def test_fit_equals_one_pair_at_a_time_on_wide_waves(self, d, rng):
        sessions = [list(rng.integers(0, 1000, int(rng.integers(1, 17)))) for _ in range(60)]
        store, _ = store_from_lists(sessions, n_items=1000)
        got = bprmf_train(store, 1000, d=d, epochs=3, lr=0.05, seed=7)
        want = bprmf_train_by_pair(store, 1000, d=d, epochs=3, lr=0.05, seed=7)
        assert got.factors.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(corpus=bpr_corpora, data=st.data())
    def test_waves_separate_pairs_that_share_a_row(self, corpus, data):
        n_items, sessions = corpus
        store, _ = store_from_lists(sessions, n_items=n_items)
        negatives = data.draw(st.lists(st.integers(0, n_items - 1),
                                       min_size=store.n_pairs, max_size=store.n_pairs))
        # each pair's rows: its prefix, its positive and its negative
        pairs = [(s, t) for s in sessions for t in range(1, len(s))]
        rows = [set(s[:t + 1]) | {j} for (s, t), j in zip(pairs, negatives)]
        waves = pair_waves(store, np.array(negatives, dtype=np.int64), n_items).tolist()
        assert len(waves) == len(rows)
        for q in range(len(rows)):
            earlier = [waves[p] for p in range(q) if rows[p] & rows[q]]
            assert all(w < waves[q] for w in earlier)
            assert waves[q] == max(earlier, default=0) + 1  # and no later than that
        for wave in set(waves):
            members = [r for r, w in zip(rows, waves) if w == wave]
            assert sum(map(len, members)) == len(set().union(*members))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_item_outside_catalog_rejected(self, bad):
        store, _ = store_from_lists([[0, 1], [2, bad]], n_items=4)
        with pytest.raises(ValueError, match="outside"):
            bprmf_train(store, 3, d=2, epochs=1)

    def test_equal_factors_tie(self):
        model = BprMfModel(np.ones((3, 1)))
        scores = fed(BprMfScorer(model), [0])
        assert np.all(scores == scores[0])

    def test_single_item_prefix_is_dot_product(self, rng):
        f = rng.standard_normal((5, 3))
        model = BprMfModel(f)
        np.testing.assert_allclose(fed(BprMfScorer(model), [2]), f @ f[2])

    def test_two_cluster_separation(self, rng):
        # items 0-4 co-occur only with each other, likewise 5-9
        sessions = []
        for _ in range(150):
            cluster = int(rng.integers(2))
            base = cluster * 5
            sessions.append(list(base + rng.integers(0, 5, 3)))
        store, _ = store_from_lists(sessions, n_items=10)
        model = bprmf_train(store, 10, d=8, epochs=8, lr=0.1, seed=3)
        scorer = BprMfScorer(model)
        within, across = [], []
        for i in range(10):
            scores = fed(scorer, [i])
            same = [j for j in range(10) if j != i and j // 5 == i // 5]
            other = [j for j in range(10) if j // 5 != i // 5]
            within.append(scores[same].mean())
            across.append(scores[other].mean())
        assert np.mean(within) > np.mean(across)

    # d = 1 as well: numpy's mean(axis=0) of an (L, 1) array sums pairwise
    # from L = 8 on, which left-to-right prefix sums do not reproduce
    @pytest.mark.parametrize("d", [1, 3, 100])
    def test_scorer_equals_prefix_definition(self, d, rng):
        model = BprMfModel(rng.uniform(-0.05, 0.05, size=(40, d)))
        scorer = BprMfScorer(model)
        for length in [1, 2, 7, 8, 9, 17, 40]:
            prefix = rng.integers(0, 40, length)
            want = bprmf_prefix_scores(model, prefix)
            assert fed(scorer, prefix).tobytes() == want.tobytes()

    def test_empty_prefix_rejected(self):
        model = BprMfModel(np.ones((3, 2)))
        scorer = BprMfScorer(model)
        with pytest.raises(ValueError):
            scorer.scores()
        fed(scorer, [1])
        with pytest.raises(ValueError):
            fed(scorer, [])

    def test_deterministic_given_seed(self):
        store, _ = store_from_lists([[0, 1, 2], [2, 3], [1, 3]])
        a = bprmf_train(store, 4, d=4, epochs=2, seed=9)
        b = bprmf_train(store, 4, d=4, epochs=2, seed=9)
        np.testing.assert_array_equal(a.factors, b.factors)
