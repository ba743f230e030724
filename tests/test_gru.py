import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sessrec.data import MiniBatch
from sessrec.gru import (
    ForwardCache,
    GruLayerParams,
    HiddenState,
    HyperParams,
    LaneItems,
    NetworkParams,
    backward_step,
    forward_step,
    init_network,
    score_all,
)
from sessrec.linalg import make_rng
from sessrec.losses import LOSSES, negatives_mask

from conftest import dense_discounted_input, dense_grads, gather_rows, scatter_rows, to_dense


def zero_layer(in_dim, hidden):
    z = lambda r, c: np.zeros((r, c))
    return GruLayerParams(
        z(in_dim, hidden), z(in_dim, hidden), z(in_dim, hidden),
        z(hidden, hidden), z(hidden, hidden), z(hidden, hidden),
    )


def make_batch(inputs, targets, reset=None):
    b = len(inputs)
    return MiniBatch(
        inputs=np.asarray(inputs, dtype=np.int64),
        targets=np.asarray(targets, dtype=np.int64),
        reset_mask=np.zeros(b, bool) if reset is None else np.asarray(reset, bool),
        prev_lanes=np.arange(b),
    )


def cell_by_hand(x, h, p):
    """Independent straight-line transcription of the gate equations."""
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    z = sig(x @ p.W_z + h @ p.U_z)
    r = sig(x @ p.W_r + h @ p.U_r)
    cand = np.tanh(x @ p.W + (r * h) @ p.U)
    return (1 - z) * h + z * cand


def gru_cell(x, h, p):
    """One forward_step of a one-layer network whose input vector is x.

    x is arbitrary: it goes in as the one item of a one-item catalog whose
    ``W_*`` rows are ``x @ W_*``, and the 1-of-N input feeds that row at
    weight 1. Dropout is 0, so the step is the GRU cell alone.
    """
    x = np.asarray(x, dtype=float)
    hyper = HyperParams(hidden_size=len(h), dropout_rate=0.0)
    item = dataclasses.replace(p, W_z=(x @ p.W_z)[None, :], W_r=(x @ p.W_r)[None, :],
                               W=(x @ p.W)[None, :])
    params = NetworkParams(1, [item], np.zeros((1, len(h))), None, hyper)
    _, state, _ = forward_step(
        params, make_batch([0], [0]), HiddenState([np.asarray(h, dtype=float)[None, :]]),
        np.empty(0, dtype=np.intp),
    )
    return state.layers[0][0]


class TestGruCell:
    def test_zero_params_h_one(self):
        p = zero_layer(3, 2)
        h = gru_cell(np.zeros(3), np.ones(2), p)
        np.testing.assert_allclose(h, [0.5, 0.5], atol=1e-15)

    def test_zero_state_fixed_point(self, rng):
        p = zero_layer(3, 4)
        h = gru_cell(rng.standard_normal(3), np.zeros(4), p)
        np.testing.assert_array_equal(h, 0.0)

    def test_matches_independent_transcription(self, rng):
        p = GruLayerParams(
            *(rng.standard_normal((3, 4)) * 0.3 for _ in range(3)),
            *(rng.standard_normal((4, 4)) * 0.3 for _ in range(3)),
        )
        x = rng.standard_normal(3)
        h = rng.standard_normal(4)
        np.testing.assert_allclose(gru_cell(x, h, p), cell_by_hand(x, h, p), atol=1e-12)

    def test_convex_combination_property(self, rng):
        p = GruLayerParams(
            *(rng.standard_normal((5, 6)) for _ in range(3)),
            *(rng.standard_normal((6, 6)) for _ in range(3)),
        )
        for _ in range(50):
            x = rng.standard_normal(5) * 3
            h = rng.standard_normal(6) * 3
            z = 1.0 / (1.0 + np.exp(-(x @ p.W_z + h @ p.U_z)))
            r = 1.0 / (1.0 + np.exp(-(x @ p.W_r + h @ p.U_r)))
            cand = np.tanh(x @ p.W + (r * h) @ p.U)
            out = gru_cell(x, h, p)
            lo = np.minimum(h, cand) - 1e-12
            hi = np.maximum(h, cand) + 1e-12
            assert np.all(out >= lo) and np.all(out <= hi)


class TestForwardStep:
    def setup_method(self):
        self.hyper = HyperParams(
            hidden_size=6, batch_width=3, dropout_rate=0.0, seed=8
        )
        self.params = init_network(10, self.hyper)

    def test_zero_output_matrix_gives_zero_scores(self):
        self.params.W_out[:] = 0.0
        batch = make_batch([1, 2, 3], [4, 5, 6])
        h = HiddenState.zeros(self.params, 3)
        scores, _, _ = forward_step(self.params, batch, h, batch.targets)
        np.testing.assert_array_equal(scores, 0.0)

    def test_reset_equals_fresh_state(self, rng):
        batch = make_batch([1, 2, 3], [4, 5, 6], reset=[True, True, True])
        dirty = HiddenState([rng.standard_normal((3, 6))])
        fresh = HiddenState.zeros(self.params, 3)
        s1, h1, _ = forward_step(self.params, batch, dirty, batch.targets)
        batch2 = make_batch([1, 2, 3], [4, 5, 6])
        s2, h2, _ = forward_step(self.params, batch2, fresh, batch2.targets)
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(h1.layers[0], h2.layers[0])

    def test_dropout_zero_training_equals_inference(self):
        batch = make_batch([0, 1, 2], [3, 4, 5])
        h = HiddenState.zeros(self.params, 3)
        s_train, _, _ = forward_step(
            self.params, batch, h, batch.targets, training=True, rng=make_rng(0)
        )
        s_inf, _, _ = forward_step(self.params, batch, h, batch.targets)
        np.testing.assert_array_equal(s_train, s_inf)

    def test_lane_permutation_equivariance(self, rng):
        batch = make_batch([1, 2, 3], [4, 5, 6], reset=[True, False, False])
        h = HiddenState([rng.standard_normal((3, 6))])
        scores, h_next, _ = forward_step(self.params, batch, h, batch.targets)
        perm = np.array([2, 0, 1])
        pbatch = MiniBatch(
            batch.inputs[perm], batch.targets[perm], batch.reset_mask[perm],
            np.arange(3),
        )
        ph = HiddenState([h.layers[0][perm]])
        pscores, ph_next, _ = forward_step(self.params, pbatch, ph, pbatch.targets)
        np.testing.assert_array_equal(pscores, scores[np.ix_(perm, perm)])
        np.testing.assert_array_equal(ph_next.layers[0], h_next.layers[0][perm])

    @pytest.mark.parametrize("input_mode", ["one_hot", "discounted_sum"])
    def test_state_given_is_left_alone(self, input_mode):
        # a reset lane and permuted, narrowing lanes: the step realigns and
        # advances a new state, so the same (state, batch) steps the same twice
        params = init_network(10, HyperParams(hidden_size=6, n_layers=2, dropout_rate=0.0,
                                              seed=8, input_mode=input_mode, input_decay=0.7))
        h = HiddenState.zeros(params, 4)
        for inputs in ([1, 2, 3, 4], [5, 2, 2, 9]):
            _, h, _ = forward_step(params, make_batch(inputs, [0] * 4), h, np.array([0]))
        batch = MiniBatch(np.array([7, 1, 3]), np.array([0, 4, 6]),
                          np.array([False, True, False]), np.array([3, 0, 1]))

        def state_bytes(state):
            acc = [] if state.acc is None else [state.acc.offsets, state.acc.items,
                                                state.acc.weights]
            return [a.tobytes() for a in state.layers + acc]

        before = state_bytes(h)
        s1, h1, c1 = forward_step(params, batch, h, batch.targets)
        s2, h2, c2 = forward_step(params, batch, h, batch.targets)
        assert state_bytes(h) == before
        assert (h1.acc is None) == (input_mode == "one_hot") and h1.width == 3
        assert s1.tobytes() == s2.tobytes()
        assert state_bytes(h1) == state_bytes(h2)
        assert to_dense(c1.input_vectors).tobytes() == to_dense(c2.input_vectors).tobytes()

    def test_sampled_column_out_of_vocab_rejected(self):
        batch = make_batch([0], [0])
        h = HiddenState.zeros(self.params, 1)
        for cols in ([10], [-1], [3, -10]):
            with pytest.raises(IndexError):
                forward_step(self.params, batch, h, np.array(cols))
        for inputs in ([10], [-1]):
            with pytest.raises(IndexError):
                forward_step(self.params, make_batch(inputs, [0]), h, np.array([0]))

    def test_score_all_consistent_with_sampled(self, rng):
        batch = make_batch([1, 2], [3, 4])
        h = HiddenState([rng.standard_normal((2, 6))])
        cols = np.array([0, 3, 7, 9])
        scores, h_next, _ = forward_step(self.params, batch, h, cols)
        full = score_all(self.params, h_next.layers[-1][0])
        np.testing.assert_allclose(scores[0], full[cols], atol=1e-15)
        assert np.all((full > -1) & (full < 1))


class TestBackwardStep:
    def test_zero_loss_gradient_gives_zero_grads(self):
        hyper = HyperParams(hidden_size=4, dropout_rate=0.0, seed=2)
        params = init_network(6, hyper)
        batch = make_batch([0, 1], [2, 3])
        h = HiddenState.zeros(params, 2)
        _, _, cache = forward_step(params, batch, h, batch.targets)
        grads = backward_step(params, cache, np.zeros((2, 2)))
        for g in grads.values():
            np.testing.assert_array_equal(g, 0.0)

    def test_absent_item_rows_exactly_zero(self, rng):
        hyper = HyperParams(hidden_size=4, dropout_rate=0.0, seed=2)
        params = init_network(12, hyper)
        batch = make_batch([3, 7], [5, 9])
        h = HiddenState([rng.standard_normal((2, 4))])
        scores, _, cache = forward_step(params, batch, h, batch.targets)
        _, d = LOSSES["top1"](scores, negatives_mask(batch.targets))
        grads = backward_step(params, cache, d)
        dense = dense_grads(params, grads)
        present = {3, 7}
        for nm in ("W_z", "W_r", "W"):
            np.testing.assert_array_equal(grads.rows[f"layers.0.{nm}"], [3, 7])
            g = dense[f"layers.0.{nm}"]
            for row in range(12):
                if row not in present:
                    np.testing.assert_array_equal(g[row], 0.0)
        np.testing.assert_array_equal(grads.rows["W_out"], [5, 9])
        g_out = dense["W_out"]
        for row in range(12):
            if row not in {5, 9}:
                np.testing.assert_array_equal(g_out[row], 0.0)

    def test_output_rows_equal_add_at_scatter(self, rng):
        # duplicate, unsorted sampled columns sum in batch order into each row
        params = init_network(9, HyperParams(hidden_size=4, dropout_rate=0.0, seed=2,
                                             use_bias=True))
        batch = make_batch([4, 1, 4, 7], [8, 2, 8, 0])
        h = HiddenState([rng.standard_normal((4, 4))])
        scores, _, cache = forward_step(params, batch, h, batch.targets)
        dscores = rng.standard_normal(scores.shape)
        grads = backward_step(params, cache, dscores)
        d_lin = dscores * (1.0 - scores**2)
        cols, inverse = np.unique(batch.targets, return_inverse=True)
        want = {"W_out": d_lin.T @ cache.layer[-1].h_dropped, "b_out": d_lin.sum(axis=0)}
        for name, values in want.items():
            assert grads.rows[name].tolist() == cols.tolist()
            assert grads[name].tobytes() == scatter_rows(len(cols), inverse, values).tobytes()

    def test_missing_cache_rejected(self):
        hyper = HyperParams(hidden_size=4, seed=2)
        params = init_network(6, hyper)
        empty = ForwardCache(input_vectors=None, sampled_columns=np.array([0]))
        with pytest.raises(ValueError):
            backward_step(params, empty, np.zeros((1, 1)))

    @pytest.mark.parametrize("loss_kind", ["top1", "bpr", "xent"])
    @pytest.mark.parametrize("n_layers,deep", [(1, False), (2, True)])
    def test_finite_difference_small(self, loss_kind, n_layers, deep, rng):
        # quick spot check; the full-sweep version lives in the acceptance suite
        n_items, hidden, b = 7, 3, 3
        hyper = HyperParams(
            hidden_size=hidden, n_layers=n_layers, deep_input=deep,
            dropout_rate=0.0, loss_kind=loss_kind, seed=4,
        )
        params = init_network(n_items, hyper)
        batch = make_batch([0, 2, 5], [1, 4, 6])
        h = HiddenState([rng.standard_normal((b, hidden)) * 0.4 for _ in range(n_layers)])
        mask = negatives_mask(batch.targets)
        use_linear = loss_kind == "xent"

        def loss_value():
            scores, _, cache = forward_step(params, batch, h, batch.targets)
            arg = cache.linear_scores if use_linear else scores
            return LOSSES[loss_kind](arg, mask), cache

        (v, d), cache = loss_value()
        grads = dense_grads(params, backward_step(params, cache, d, on_preactivation=use_linear))
        eps = 1e-5
        for name, p in params.named_params():
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                old = p[ix]
                p[ix] = old + eps
                vp = loss_value()[0][0]
                p[ix] = old - eps
                vm = loss_value()[0][0]
                p[ix] = old
                fd = (vp - vm) / (2 * eps)
                got = grads[name][ix]
                assert abs(got - fd) <= 1e-4 * max(abs(got), abs(fd), 1e-6), (
                    f"{name}{ix}: analytic {got} vs fd {fd}"
                )


    @pytest.mark.parametrize("n_layers,deep", [(1, False), (2, True)])
    def test_finite_difference_discounted_sum(self, n_layers, deep, rng):
        n_items, hidden, b = 7, 3, 3
        hyper = HyperParams(
            hidden_size=hidden, n_layers=n_layers, deep_input=deep, dropout_rate=0.0,
            input_mode="discounted_sum", input_decay=0.8, seed=4,
        )
        params = init_network(n_items, hyper)
        # lane prefixes [2, 5, 2, 2] and [1, 1, 4, 1]; lane 2 sees [3, 6, 3],
        # then resets onto item 5
        h = HiddenState.zeros(params, b)
        for inputs, reset in (([2, 1, 3], [1, 1, 1]), ([5, 1, 6], [0, 0, 0]),
                              ([2, 4, 3], [0, 0, 0])):
            prefix = make_batch(inputs, [0] * b, reset)
            _, h, _ = forward_step(params, prefix, h, prefix.targets)
        batch = make_batch([2, 1, 5], [4, 6, 0], reset=[False, False, True])
        h.layers = [rng.standard_normal((b, hidden)) * 0.4 for _ in range(n_layers)]
        mask = negatives_mask(batch.targets)

        def loss_value():
            scores, _, cache = forward_step(params, batch, h, batch.targets)
            return LOSSES["top1"](scores, mask), cache

        (_, d), cache = loss_value()
        want = [closed_form_input(p, hyper.input_decay, n_items)
                for p in ([2, 5, 2, 2], [1, 1, 4, 1], [5])]
        np.testing.assert_allclose(to_dense(cache.input_vectors), want, rtol=1e-13)
        compact = backward_step(params, cache, d)
        np.testing.assert_array_equal(compact.rows["layers.0.W"], [1, 2, 4, 5])
        grads = dense_grads(params, compact)
        eps = 1e-5
        for name, p in params.named_params():
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                old = p[ix]
                p[ix] = old + eps
                vp = loss_value()[0][0]
                p[ix] = old - eps
                vm = loss_value()[0][0]
                p[ix] = old
                fd = (vp - vm) / (2 * eps)
                got = grads[name][ix]
                assert abs(got - fd) <= 1e-4 * max(abs(got), abs(fd), 1e-6), (
                    f"{name}{ix}: analytic {got} vs fd {fd}"
                )


def closed_form_input(prefix, decay, n_items):
    """Oracle: the event ``k`` steps in the past weighs ``decay**k``, weights of
    duplicate items add up, and the vector is scaled to unit Euclidean norm."""
    v = np.zeros(n_items)
    weights = decay ** np.arange(len(prefix) - 1, -1, -1, dtype=np.float64)
    np.add.at(v, np.asarray(prefix, dtype=np.intp), weights)
    return v / np.linalg.norm(v)


def dsum_network(n_items, decay):
    """A discounted-sum network of hidden size 1, stepped for its input map."""
    return init_network(n_items, HyperParams(hidden_size=1, seed=0,
                                             input_mode="discounted_sum", input_decay=decay))


def input_step(params, h, batch):
    """forward_step's layer-0 input map and the state it returns."""
    _, h, cache = forward_step(params, batch, h, np.empty(0, dtype=np.intp))
    return cache.input_vectors, h


def shared_input(prefix, decay, n_items):
    """forward_step's input row after feeding ``prefix`` to one fresh lane."""
    params = dsum_network(n_items, decay)
    h = HiddenState.zeros(params, 1)
    for item in prefix:
        v, h = input_step(params, h, make_batch([item], [0]))
    return to_dense(v)[0]


class TestDiscountedInput:
    def test_single_event_is_one_hot(self):
        v = shared_input([3], 0.5, 6)
        expected = np.zeros(6)
        expected[3] = 1.0
        np.testing.assert_array_equal(v, expected)

    def test_two_events_decay_one(self):
        v = shared_input([0, 1], 1.0, 3)
        np.testing.assert_allclose(v[:2], 1 / math.sqrt(2))
        assert v[2] == 0.0

    def test_duplicate_accumulation_hand_computed(self):
        # prefix [a, b, a], decay 0.5: a gets 0.25 + 1, b gets 0.5
        v = shared_input([0, 1, 0], 0.5, 4)
        norm = math.sqrt(1.25**2 + 0.5**2)
        np.testing.assert_allclose(v, [1.25 / norm, 0.5 / norm, 0.0, 0.0])

    def test_unit_norm(self, rng):
        for _ in range(50):
            prefix = rng.integers(0, 5, int(rng.integers(1, 30)))
            v = shared_input(prefix, 0.8, 5)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(v, closed_form_input(prefix, 0.8, 5), rtol=1e-13)

    def test_lanes_reset_and_reorder_independently(self, rng):
        # three lanes over changing sessions; each row must be the closed form
        # of its own lane's prefix since the lane's last reset
        n_items, decay = 7, 0.6
        params = dsum_network(n_items, decay)
        h = HiddenState.zeros(params, 3)
        prefixes = [[], [], []]
        for step in range(40):
            width = 3 if step < 30 else 2
            prev = rng.permutation(3)[:width] if width != h.width else np.arange(width)
            reset = rng.random(width) < 0.2 if step else np.ones(width, bool)
            inputs = rng.integers(0, n_items, width)
            prefixes = [[] if reset[k] else prefixes[prev[k]] for k in range(width)]
            for k in range(width):
                prefixes[k] = prefixes[k] + [int(inputs[k])]
            batch = MiniBatch(inputs, np.zeros(width, np.int64), reset, prev)
            rows, h = input_step(params, h, batch)
            rows = to_dense(rows)
            for k in range(width):
                np.testing.assert_allclose(
                    rows[k], closed_form_input(prefixes[k], decay, n_items), rtol=1e-13)

    def test_one_hot_state_has_no_input_rows(self):
        params = init_network(5, HyperParams(hidden_size=3, seed=1))
        h = HiddenState.zeros(params, 2)
        assert h.acc is None
        rows, h = input_step(params, h, make_batch([4, 1], [1, 2]))
        assert h.acc is None
        assert rows.offsets.tolist() == [0, 1, 2] and rows.items.tolist() == [4, 1]
        assert rows.weights.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_out_of_vocabulary_input_leaves_lanes_unchanged(self, bad):
        params = dsum_network(6, 0.5)
        _, h = input_step(params, HiddenState.zeros(params, 2),
                          make_batch([2, 3], [0, 0], reset=[True, True]))
        before = to_dense(h.acc)
        with pytest.raises(IndexError, match="input item index out of vocabulary"):
            input_step(params, h, make_batch([1, bad], [0, 0]))
        assert to_dense(h.acc).tobytes() == before.tobytes()

    def test_rows_pinned(self):
        # three lanes for 60 steps over 40 items, narrowing to two; sessions
        # of up to 30 events hold up to 20 distinct items. No BLAS is
        # involved, so the bytes hold on every machine.
        rng = np.random.default_rng(2024)
        n_items, decay = 40, 0.8
        params = dsum_network(n_items, decay)
        h = HiddenState.zeros(params, 3)
        digest = hashlib.sha256()
        for step in range(60):
            width = 3 if step < 45 else 2
            prev = np.array([2, 0]) if width != h.width else np.arange(width)
            reset = rng.random(width) < 0.06 if step else np.ones(width, bool)
            inputs = rng.integers(0, n_items, width)
            batch = MiniBatch(inputs, np.zeros(width, np.int64), reset, prev)
            rows, h = input_step(params, h, batch)
            for arr in (rows.offsets.astype(np.int64), rows.items.astype(np.int64),
                        rows.weights):
                digest.update(arr.tobytes())
        assert digest.hexdigest() == (
            "35cf57f5238f33b02c471478592415467ca85a4522413289fd966c224e7e689f")


class TestSparseInputOracle:
    """The lane map against the dense definition: a (width, n_items)
    accumulator, the input feed as a GEMM and its gradient as the
    transposed GEMM."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), decay=st.sampled_from([0.5, 0.8, 1.0]),
           n_items=st.integers(1, 6), width=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_map_matches_dense_definition(self, data, decay, n_items, width, seed):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((n_items, 4))
        params = dsum_network(n_items, decay)
        h = HiddenState.zeros(params, width)
        acc = np.zeros((width, n_items))
        for step in range(data.draw(st.integers(1, 12), label="steps")):
            new_width = data.draw(st.integers(1, width), label="width")
            prev = np.arange(width)
            if new_width != width:
                prev = np.array(data.draw(st.permutations(range(width)), label="prev"))
                prev = prev[:new_width]
                acc, width = acc[prev], new_width
            flags = st.lists(st.booleans(), min_size=width, max_size=width)
            reset = np.array(data.draw(flags, label="reset")) if step else np.ones(width, bool)
            items = st.lists(st.integers(0, n_items - 1), min_size=width, max_size=width)
            inputs = np.array(data.draw(items, label="inputs"), dtype=np.int64)
            batch = MiniBatch(inputs, np.zeros(width, np.int64), reset, prev)

            rows, h = input_step(params, h, batch)
            want = dense_discounted_input(acc, batch, decay)
            for m in (h.acc, rows):
                keys = m.lanes * n_items + m.items
                assert np.all(np.diff(keys) > 0)  # lane-major, items ascending
            assert rows.offsets.tolist() == h.acc.offsets.tolist()
            assert to_dense(h.acc).tobytes() == acc.tobytes()
            np.testing.assert_allclose(to_dense(rows), want, rtol=1e-13, atol=0)

            # the dense products sum the same terms in another order: each
            # entry must lie within 1e-12 of the sum of its terms' magnitudes
            feed = rows.feed(W)
            assert np.all(np.abs(feed - want @ W) <= 1e-12 * (np.abs(want) @ np.abs(W)))
            da = rng.standard_normal((width, 4))
            dense_rows = np.flatnonzero(want.any(axis=0))
            assert rows.rows.tolist() == dense_rows.tolist()
            grad = rows.grad(da)
            bound = 1e-12 * (np.abs(want).T @ np.abs(da))[dense_rows]
            assert np.all(np.abs(grad - (want.T @ da)[dense_rows]) <= bound)


class TestItemRowOracle:
    """One item per lane against the plain row lookup and ``np.add.at``
    scatter that the 1-of-N input and the output layer used before the map,
    bit for bit."""

    EDGES = np.array([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), width=st.integers(1, 60),
           cols=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_one_item_per_lane_matches_gather_and_add_at(self, data, n, width, cols, seed):
        rng = np.random.default_rng(seed)

        def matrix(rows):
            # magnitudes from 1e-300 to 1e300, a third of them signed zeros
            # or other edge values
            m = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-300, 301, (rows, cols))
            edge = rng.random((rows, cols)) < 0.3
            m[edge] = rng.choice(self.EDGES, int(edge.sum()))
            return m

        items = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=width,
                                            max_size=width), label="items"), dtype=np.intp)
        W, da = matrix(n), matrix(width)
        m = LaneItems.one_hot(n, items)
        rows, inverse = np.unique(items, return_inverse=True)
        assert m.rows.tolist() == rows.tolist()
        assert m.feed(W).tobytes() == gather_rows(W, items).tobytes()
        assert m.grad(da).tobytes() == scatter_rows(len(rows), inverse, da).tobytes()

        # weights other than 1 take the one-entry-per-lane path of feed too
        weights = rng.standard_normal(width) * 10.0 ** rng.integers(-3, 4, width)
        weights[rng.random(width) < 0.2] = -0.0
        w = LaneItems(n, m.offsets, items, weights)
        terms = weights[:, None] * W[items]
        assert w.feed(W).tobytes() == np.add.reduceat(terms, np.arange(width)).tobytes()
        assert w.grad(da).tobytes() == scatter_rows(
            len(rows), inverse, weights[:, None] * da).tobytes()


class TestDeterminism:
    def test_same_seed_same_network(self):
        hyper = HyperParams(hidden_size=5, seed=77)
        a = init_network(9, hyper)
        b = init_network(9, hyper)
        for (_, pa), (_, pb) in zip(a.named_params(), b.named_params()):
            np.testing.assert_array_equal(pa, pb)
