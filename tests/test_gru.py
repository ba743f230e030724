import math

import numpy as np
import pytest

from sessrec.data import MiniBatch
from sessrec.gru import (
    ForwardCache,
    GruLayerParams,
    HiddenState,
    HyperParams,
    NetworkParams,
    apply_input_discounted,
    backward_step,
    forward_step,
    init_network,
    score_all,
)
from sessrec.linalg import make_rng
from sessrec.losses import LOSSES, negatives_mask

from conftest import dense_grads


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

    Discounted-sum mode feeds ``input_vectors`` as given, so x is arbitrary;
    dropout is 0, so the step is the GRU cell alone.
    """
    hyper = HyperParams(hidden_size=len(h), dropout_rate=0.0, input_mode="discounted_sum")
    params = NetworkParams(len(x), [p], np.zeros((len(x), len(h))), None, hyper)
    _, state, _ = forward_step(
        params, make_batch([0], [0]), HiddenState([np.asarray(h, dtype=float)[None, :]]),
        np.empty(0, dtype=np.intp), input_vectors=np.asarray(x, dtype=float)[None, :],
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
        h = HiddenState.zeros(1, 3, 6)
        scores, _, _ = forward_step(self.params, batch, h, batch.targets)
        np.testing.assert_array_equal(scores, 0.0)

    def test_reset_equals_fresh_state(self, rng):
        batch = make_batch([1, 2, 3], [4, 5, 6], reset=[True, True, True])
        dirty = HiddenState([rng.standard_normal((3, 6))])
        fresh = HiddenState.zeros(1, 3, 6)
        s1, h1, _ = forward_step(self.params, batch, dirty, batch.targets)
        batch2 = make_batch([1, 2, 3], [4, 5, 6])
        s2, h2, _ = forward_step(self.params, batch2, fresh, batch2.targets)
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(h1.layers[0], h2.layers[0])

    def test_dropout_zero_training_equals_inference(self):
        batch = make_batch([0, 1, 2], [3, 4, 5])
        h = HiddenState.zeros(1, 3, 6)
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

    def test_sampled_column_out_of_vocab_rejected(self):
        batch = make_batch([0], [0])
        h = HiddenState.zeros(1, 1, 6)
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
        h = HiddenState.zeros(1, 2, 4)
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

    def test_missing_cache_rejected(self):
        hyper = HyperParams(hidden_size=4, seed=2)
        params = init_network(6, hyper)
        empty = ForwardCache(
            items=np.array([0]), input_vectors=None, sampled_columns=np.array([0])
        )
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


class TestDiscountedInput:
    def test_single_event_is_one_hot(self):
        v = apply_input_discounted([3], 0.5, 6)
        expected = np.zeros(6)
        expected[3] = 1.0
        np.testing.assert_array_equal(v, expected)

    def test_two_events_decay_one(self):
        v = apply_input_discounted([0, 1], 1.0, 3)
        np.testing.assert_allclose(v[:2], 1 / math.sqrt(2))
        assert v[2] == 0.0

    def test_duplicate_accumulation_hand_computed(self):
        # prefix [a, b, a], decay 0.5: a gets 0.25 + 1, b gets 0.5
        v = apply_input_discounted([0, 1, 0], 0.5, 4)
        norm = math.sqrt(1.25**2 + 0.5**2)
        np.testing.assert_allclose(v, [1.25 / norm, 0.5 / norm, 0.0, 0.0])

    def test_unit_norm(self, rng):
        for _ in range(10):
            prefix = rng.integers(0, 5, int(rng.integers(1, 9)))
            v = apply_input_discounted(prefix, 0.8, 5)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError):
            apply_input_discounted([], 0.5, 4)


class TestDeterminism:
    def test_same_seed_same_network(self):
        hyper = HyperParams(hidden_size=5, seed=77)
        a = init_network(9, hyper)
        b = init_network(9, hyper)
        for (_, pa), (_, pb) in zip(a.named_params(), b.named_params()):
            np.testing.assert_array_equal(pa, pb)
