import math

import numpy as np
import pytest

from sessrec.losses import (
    bpr_loss,
    negatives_mask,
    top1_loss,
    xent_loss,
)


def relative_rank(scores):
    """Per-lane fraction of the other lanes' targets scored strictly above
    the positive: the count that TOP1 smooths."""
    scores = np.asarray(scores, dtype=np.float64)
    above = (scores > np.diag(scores)[:, None]) & ~np.eye(len(scores), dtype=bool)
    return above.sum(axis=1) / (len(scores) - 1)


def scalar_sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def bpr_by_hand(scores):
    """Straight-line per-term transcription, no vectorization."""
    b = len(scores)
    total = 0.0
    for s in range(b):
        row = 0.0
        for j in range(b):
            if j == s:
                continue
            row += -math.log(scalar_sigmoid(scores[s][s] - scores[s][j]))
        total += row / (b - 1)
    return total / b


def top1_by_hand(scores):
    b = len(scores)
    total = 0.0
    for s in range(b):
        row = 0.0
        for j in range(b):
            if j == s:
                continue
            row += scalar_sigmoid(scores[s][j] - scores[s][s])
            row += scalar_sigmoid(scores[s][j] ** 2)
        total += row / (b - 1)
    return total / b


def xent_by_hand(scores):
    b = len(scores)
    total = 0.0
    for s in range(b):
        m = max(scores[s])
        z = sum(math.exp(v - m) for v in scores[s])
        total += -math.log(math.exp(scores[s][s] - m) / z)
    return total / b


def fd_gradient(loss_fn, scores, eps=1e-6):
    g = np.zeros_like(scores)
    for i in range(scores.shape[0]):
        for j in range(scores.shape[1]):
            p = scores.copy()
            p[i, j] += eps
            m = scores.copy()
            m[i, j] -= eps
            g[i, j] = (loss_fn(p)[0] - loss_fn(m)[0]) / (2 * eps)
    return g


class TestClosedForms:
    def test_bpr_all_equal_is_ln2(self):
        v, _ = bpr_loss(np.full((5, 5), 3.3))
        assert v == pytest.approx(math.log(2), abs=1e-12)

    def test_bpr_saturated_diagonal_vanishes(self):
        scores = np.zeros((4, 4))
        np.fill_diagonal(scores, 40.0)
        v, _ = bpr_loss(scores)
        assert v < 1e-12

    def test_top1_all_zero_is_one(self):
        v, _ = top1_loss(np.zeros((6, 6)))
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_top1_saturated_positive(self):
        scores = np.zeros((4, 4))
        np.fill_diagonal(scores, 40.0)
        v, _ = top1_loss(scores)
        assert v == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("b", [2, 10])
    def test_xent_uniform_is_ln_b(self, b):
        v, _ = xent_loss(np.full((b, b), 1.7))
        assert v == pytest.approx(math.log(b), abs=1e-12)


class TestAgainstScalarTranscription:
    def test_bpr_random(self, rng):
        scores = rng.standard_normal((4, 4))
        v, g = bpr_loss(scores)
        assert v == pytest.approx(bpr_by_hand(scores.tolist()), abs=1e-12)
        np.testing.assert_allclose(g, fd_gradient(bpr_loss, scores), rtol=1e-6, atol=1e-9)

    def test_top1_random(self, rng):
        scores = rng.standard_normal((4, 4))
        v, g = top1_loss(scores)
        assert v == pytest.approx(top1_by_hand(scores.tolist()), abs=1e-12)
        np.testing.assert_allclose(g, fd_gradient(top1_loss, scores), rtol=1e-6, atol=1e-9)

    def test_xent_random(self, rng):
        scores = rng.standard_normal((5, 5))
        v, g = xent_loss(scores)
        assert v == pytest.approx(xent_by_hand(scores.tolist()), abs=1e-12)
        np.testing.assert_allclose(g, fd_gradient(xent_loss, scores), rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-12)


class TestInvariances:
    @pytest.mark.parametrize("loss", [bpr_loss, top1_loss, xent_loss])
    def test_lane_permutation_invariance(self, loss, rng):
        scores = rng.standard_normal((6, 6))
        perm = rng.permutation(6)
        v1, _ = loss(scores)
        v2, _ = loss(scores[np.ix_(perm, perm)])
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_bpr_row_shift_invariant_top1_not(self, rng):
        scores = rng.standard_normal((4, 4))
        shifted = scores.copy()
        shifted[2] += 7.5
        assert bpr_loss(scores)[0] == pytest.approx(bpr_loss(shifted)[0], abs=1e-12)
        assert top1_loss(scores)[0] != pytest.approx(top1_loss(shifted)[0], abs=1e-9)

    def test_b1_rejected(self):
        for loss in (bpr_loss, top1_loss, xent_loss):
            with pytest.raises(ValueError):
                loss(np.ones((1, 1)))

    def test_top1_approaches_relative_rank_at_saturation(self, rng):
        # push score gaps to +-40: the smoothed rank (regularizer removed
        # analytically: negatives sit at 0, sigma(0)=0.5) matches the count
        b = 5
        scores = np.zeros((b, b))
        pos = np.array([40.0, -40.0, 40.0, -40.0, 40.0])
        np.fill_diagonal(scores, pos)
        v, _ = top1_loss(scores)
        rr = relative_rank(scores).mean()
        assert v == pytest.approx(rr + 0.5, abs=1e-12)


class TestDuplicateMasking:
    def test_duplicate_targets_masked(self):
        targets = np.array([3, 3, 5])
        mask = negatives_mask(targets)
        assert not mask[0, 1] and not mask[1, 0]
        assert mask[0, 2] and mask[2, 0] and mask[2, 1]

    def test_masked_columns_get_zero_gradient(self, rng):
        scores = rng.standard_normal((3, 3))
        mask = negatives_mask(np.array([3, 3, 5]))
        for loss in (bpr_loss, top1_loss):
            _, g = loss(scores, mask)
            assert g[0, 1] == 0.0 and g[1, 0] == 0.0

    def test_all_duplicates_row_contributes_zero(self):
        scores = np.array([[1.0, 2.0], [3.0, 4.0]])
        mask = negatives_mask(np.array([7, 7]))
        v, g = bpr_loss(scores, mask)
        assert v == 0.0
        np.testing.assert_array_equal(g, 0.0)


class TestRelativeRank:
    def test_positive_strictly_greatest(self):
        scores = np.diag([5.0, 5.0, 5.0]) + 1.0  # diagonal 6, rest 1
        np.testing.assert_array_equal(relative_rank(scores), [0.0, 0.0, 0.0])

    def test_positive_strictly_least(self):
        scores = np.ones((3, 3))
        np.fill_diagonal(scores, -1.0)
        np.testing.assert_array_equal(relative_rank(scores), [1.0, 1.0, 1.0])

    def test_direct_count(self):
        # lane 0: positive 2, negatives 1, 3, 5 -> two above -> 2/3
        scores = np.array(
            [
                [2.0, 1.0, 3.0, 5.0],
                [0.0, 9.0, 0.0, 0.0],
                [0.0, 0.0, 9.0, 0.0],
                [0.0, 0.0, 0.0, 9.0],
            ]
        )
        assert relative_rank(scores)[0] == pytest.approx(2 / 3)
