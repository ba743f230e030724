import copy

import numpy as np
import pytest

from sessrec import training
from sessrec.gru import HyperParams
from sessrec.linalg import make_rng
from sessrec.optim import OptimState, adagrad_update, dropout_mask, rmsprop_update

from conftest import store_from_lists


class TestAdagrad:
    def test_first_step_closed_form(self):
        p = np.zeros((2, 3))
        g = np.ones((2, 3))
        st = OptimState.for_param(p)
        adagrad_update(p, g, st, lr=0.1)
        np.testing.assert_allclose(p, -0.1 / np.sqrt(1 + 1e-6), rtol=1e-12)

    def test_zero_grad_is_noop(self):
        p = np.full((2, 2), 5.0)
        st = OptimState.for_param(p, momentum=0.5)
        st.vel = np.ones_like(p)
        adagrad_update(p, np.zeros_like(p), st, lr=0.1, momentum=0.5)
        np.testing.assert_array_equal(p, 5.0)
        np.testing.assert_array_equal(st.acc, 0.0)
        np.testing.assert_array_equal(st.vel, 1.0)

    def test_second_step_accumulator(self):
        p = np.zeros((1, 1))
        st = OptimState.for_param(p)
        adagrad_update(p, np.ones((1, 1)), st, lr=0.1)
        before = p.copy()
        adagrad_update(p, np.ones((1, 1)), st, lr=0.1)
        step2 = (before - p).item()
        assert step2 == pytest.approx(0.1 / np.sqrt(2), rel=1e-5)

    def test_shape_mismatch_rejected(self):
        p = np.zeros((2, 2))
        with pytest.raises(ValueError):
            adagrad_update(p, np.zeros((3, 2)), OptimState.for_param(p), lr=0.1)

    def test_momentum_accumulates_on_preconditioned_step(self):
        p = np.zeros((1, 1))
        st = OptimState.for_param(p, momentum=0.9)
        adagrad_update(p, np.ones((1, 1)), st, lr=0.1, momentum=0.9)
        first = 0.1 / np.sqrt(1 + 1e-6)
        assert st.vel.item() == pytest.approx(first, rel=1e-12)
        adagrad_update(p, np.ones((1, 1)), st, lr=0.1, momentum=0.9)
        second = 0.9 * first + 0.1 / np.sqrt(2 + 1e-6)
        assert st.vel.item() == pytest.approx(second, rel=1e-12)
        assert p.item() == pytest.approx(-(first + second), rel=1e-12)


class TestRmsprop:
    def test_zero_decay_uses_instantaneous_square(self):
        p = np.zeros((1, 2))
        g = np.array([[2.0, -3.0]])
        st = OptimState.for_param(p)
        rmsprop_update(p, g, st, lr=0.1, decay=0.0)
        np.testing.assert_allclose(p, -0.1 * g / np.sqrt(g * g + 1e-6), rtol=1e-12)

    def test_constant_grad_step_converges_to_lr(self):
        p = np.zeros((1, 1))
        g = np.full((1, 1), 0.5)
        st = OptimState.for_param(p)
        prev = 0.0
        for _ in range(400):
            before = p.item()
            rmsprop_update(p, g, st, lr=0.1, decay=0.9)
            prev = before - p.item()
        assert prev == pytest.approx(0.1, rel=1e-3)

    def test_zero_grad_preserves_param(self):
        p = np.full((3, 1), 2.0)
        st = OptimState.for_param(p)
        rmsprop_update(p, np.zeros_like(p), st, lr=0.1)
        np.testing.assert_array_equal(p, 2.0)

    def test_bad_decay_rejected(self):
        p = np.zeros((1, 1))
        with pytest.raises(ValueError):
            rmsprop_update(p, np.ones((1, 1)), OptimState.for_param(p), lr=0.1, decay=1.0)


class TestSparseEquivalence:
    @pytest.mark.parametrize("update", [adagrad_update, rmsprop_update])
    @pytest.mark.parametrize("momentum", [0.0, 0.7])
    def test_row_update_bit_identical_to_dense(self, update, momentum, rng):
        p_dense = rng.standard_normal((8, 4))
        p_sparse = p_dense.copy()
        st_d = OptimState.for_param(p_dense, momentum)
        st_s = OptimState.for_param(p_sparse, momentum)
        for _ in range(5):
            rows = np.unique(rng.integers(0, 8, 3))
            grad_rows = rng.standard_normal((len(rows), 4))
            grad_rows[0] = 0.0  # a listed row with a zero gradient stays untouched
            dense = np.zeros((8, 4))
            dense[rows] = grad_rows
            update(p_dense, dense, st_d, 0.05, momentum=momentum)
            update(p_sparse, grad_rows, st_s, 0.05, momentum=momentum, rows=rows)
        np.testing.assert_array_equal(p_dense, p_sparse)
        np.testing.assert_array_equal(st_d.acc, st_s.acc)
        if momentum:
            np.testing.assert_array_equal(st_d.vel, st_s.vel)


class TestTrainingStepEquivalence:
    """train_gru's row-compact updates against the same gradients applied densely."""

    CONFIGS = {
        "onehot-bpr-momentum": dict(loss_kind="bpr", momentum=0.5),
        "deep2-bias-momentum": dict(n_layers=2, deep_input=True, use_bias=True, momentum=0.4),
        "dsum-xent-rmsprop-momentum": dict(
            input_mode="discounted_sum", input_decay=0.8, loss_kind="xent",
            optimizer_kind="rmsprop", momentum=0.3,
        ),
    }

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_compact_rows_match_dense_updates(self, config, monkeypatch, rng):
        sessions = [list(rng.integers(0, 40, int(rng.integers(2, 7)))) for _ in range(60)]
        store, vocab = store_from_lists(sessions, n_items=40)
        hyper = HyperParams(hidden_size=6, batch_width=8, learning_rate=0.05, epochs=1,
                            seed=3, **self.CONFIGS[config])
        shadows = {}  # id(param) -> (param, state, dense-path param, dense-path state)
        compact_calls = []

        def both_paths(update):
            def run(param, grad, state, lr, rows=None, **kwargs):
                if id(param) not in shadows:
                    shadows[id(param)] = (param, state, param.copy(), copy.deepcopy(state))
                _, _, d_param, d_state = shadows[id(param)]
                dense = grad
                if rows is not None:
                    compact_calls.append(len(rows))
                    dense = np.zeros(param.shape)
                    dense[rows] = grad
                update(d_param, dense, d_state, lr, rows=None, **kwargs)
                update(param, grad, state, lr, rows=rows, **kwargs)
            return run

        monkeypatch.setattr(training, "adagrad_update", both_paths(adagrad_update))
        monkeypatch.setattr(training, "rmsprop_update", both_paths(rmsprop_update))
        training.train_gru(store, vocab, hyper)

        assert compact_calls and max(compact_calls) < 40 + hyper.hidden_size
        for param, state, d_param, d_state in shadows.values():
            np.testing.assert_array_equal(param, d_param)
            np.testing.assert_array_equal(state.acc, d_state.acc)
            np.testing.assert_array_equal(state.vel, d_state.vel)


class TestDropout:
    def test_rate_zero_all_ones(self):
        m = dropout_mask((4, 4), 0.0, make_rng(0))
        np.testing.assert_array_equal(m, 1.0)

    def test_keep_fraction_within_3_sigma(self):
        n = 100_000
        m = dropout_mask((n,), 0.5, make_rng(7))
        kept = np.count_nonzero(m)
        sigma = np.sqrt(n * 0.25)
        assert abs(kept - n / 2) < 3 * sigma

    def test_inverted_scaling_is_unbiased(self):
        m = dropout_mask((200_000,), 0.3, make_rng(3))
        assert m[m > 0][0] == pytest.approx(1 / 0.7)
        assert m.mean() == pytest.approx(1.0, abs=0.02)

    def test_fixed_seed_identical_streams(self):
        a = dropout_mask((50, 50), 0.4, make_rng(11))
        b = dropout_mask((50, 50), 0.4, make_rng(11))
        np.testing.assert_array_equal(a, b)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            dropout_mask((2,), 1.0, make_rng(0))
