import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualrel.losses import (
    cross_entropy_rows,
    curriculum_cross_entropy_rows,
    effective_number_weights,
    head_distillation_rows,
    hybrid_loss,
    total_loss,
)
from dualrel.numerics import ConfigurationError, ParamStore, grad_check, softmax
from test_numerics import logit_arrays, reference_log_softmax


def logits_grad_check(rows_op, z0, tol=1e-4):
    """Finite-difference check of a rows op's (losses, grads) on one (1, C)
    logit row."""
    store = ParamStore()
    store.add("z", np.array(z0, dtype=np.float64))

    def fn(s):
        losses, grads = rows_op(s["z"])
        s.accumulate("z", grads)
        return losses[0]

    assert grad_check(fn, store) <= tol


class TestCrossEntropy:
    def test_uniform_logits(self):
        losses, _ = cross_entropy_rows([[0.0, 0.0]], [0])
        assert losses[0] == pytest.approx(np.log(2.0), abs=1e-12)

    def test_confident_correct(self):
        losses, _ = cross_entropy_rows([[100.0, 0.0]], [0])
        assert losses[0] <= 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        logits_grad_check(lambda z: cross_entropy_rows(z, [3]), rng.normal(size=(1, 7)))

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            z = rng.normal(size=rng.integers(2, 10)) * 5
            _, grads = cross_entropy_rows(z[None, :], [int(rng.integers(0, z.shape[0]))])
            assert abs(grads.sum()) <= 1e-10

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            cross_entropy_rows([[0.0, 0.0]], [2])

    def test_rows_match_single_bitwise(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(6, 9)) * 3
        labels = rng.integers(0, 9, size=6)
        losses, grads = cross_entropy_rows(z, labels)
        for r in range(6):
            loss_r, grad_r = cross_entropy_rows(z[r : r + 1], labels[r : r + 1])
            assert losses[r] == loss_r[0]
            np.testing.assert_array_equal(grads[r], grad_r[0])


def reference_cross_entropy_rows(z, labels):
    """cross_entropy_rows as it was computed with a (..., C) one-hot mask."""
    logp = reference_log_softmax(z, axis=-1)
    target = labels[..., None] == np.arange(z.shape[-1])
    return -logp[target].reshape(labels.shape), np.exp(logp) - target


class TestRowsMatchReference:
    @settings(max_examples=200, deadline=None)
    @given(logit_arrays(), st.booleans())
    def test_cross_entropy_rows(self, drawn, label_at_margin):
        z, at = drawn
        labels = at if label_at_margin else (at + 1) % z.shape[-1]
        losses, grads = cross_entropy_rows(z, labels)
        ref_losses, ref_grads = reference_cross_entropy_rows(z, labels)
        np.testing.assert_array_equal(losses, ref_losses)
        np.testing.assert_array_equal(grads, ref_grads)

    @settings(max_examples=100, deadline=None)
    @given(logit_arrays(), st.integers(0, 2**32 - 1))
    def test_curriculum_cross_entropy_rows(self, drawn, seed):
        z, labels = drawn
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.1, 3.0, size=z.shape[-1])
        lambdas = rng.uniform(0.0, 1.0, size=labels.shape)
        losses, grads = curriculum_cross_entropy_rows(z, labels, weights, lambdas)
        ref_losses, ref_grads = reference_cross_entropy_rows(z, labels)
        scale = lambdas * weights[labels]
        np.testing.assert_array_equal(losses, scale * ref_losses)
        np.testing.assert_array_equal(grads, scale[..., None] * ref_grads)

    def test_labels_must_fit_the_rows(self):
        with pytest.raises(ValueError, match="labels of shape"):
            cross_entropy_rows(np.zeros((2, 3, 4)), [0, 1])
        with pytest.raises(ValueError, match="label out of range"):
            cross_entropy_rows(np.zeros((2, 4)), [0, 4])


class TestEffectiveNumberWeights:
    def test_beta_zero_collapses_to_one(self):
        w = effective_number_weights(np.array([0, 50, 5, 1]), beta_en=0.0)
        np.testing.assert_allclose(w, 1.0)

    def test_equal_counts_give_unit_weights(self):
        for beta in (0.9, 0.99, 0.999):
            w = effective_number_weights(np.array([0, 5, 5, 5]), beta_en=beta)
            np.testing.assert_allclose(w, 1.0)

    def test_direct_formula_oracle(self):
        counts = np.array([0, 100, 10, 1])
        beta = 0.999
        raw = (1.0 - beta) / (1.0 - beta ** counts[1:].astype(float))
        expected = raw / raw.mean()
        w = effective_number_weights(counts, beta_en=beta)
        assert w[0] == 1.0
        np.testing.assert_allclose(w[1:], expected, rtol=1e-12)
        assert w[1] < w[2] < w[3]

    def test_rarer_class_gets_larger_weight(self):
        rng = np.random.default_rng(3)
        counts = np.concatenate([[0], rng.integers(1, 10_000, size=20)])
        w = effective_number_weights(counts, beta_en=0.999)
        order = np.argsort(counts[1:])
        assert np.all(np.diff(w[1:][order]) <= 1e-12)

    def test_mean_normalization(self):
        counts = np.array([0, 1000, 100, 10, 1])
        w = effective_number_weights(counts, beta_en=0.99)
        assert w[1:].mean() == pytest.approx(1.0, abs=1e-12)

    def test_zero_count_rejected_when_active(self):
        with pytest.raises(ConfigurationError):
            effective_number_weights(np.array([0, 5, 0]), beta_en=0.5)
        # beta 0 tolerates empty classes
        effective_number_weights(np.array([0, 5, 0]), beta_en=0.0)


class TestCurriculumCrossEntropy:
    def test_reduces_to_cross_entropy(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(1, 6))
        weights = np.ones(6)
        loss, grad = curriculum_cross_entropy_rows(z, [2], weights, [1.0])
        ce_loss, ce_grad = cross_entropy_rows(z, [2])
        assert loss[0] == ce_loss[0]
        np.testing.assert_array_equal(grad, ce_grad)

    def test_half_weight(self):
        weights = np.ones(2)
        loss, _ = curriculum_cross_entropy_rows([[0.0, 0.0]], [0], weights, [0.5])
        assert loss[0] == pytest.approx(0.5 * np.log(2.0), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        weights = rng.uniform(0.5, 3.0, size=8)
        logits_grad_check(
            lambda z: curriculum_cross_entropy_rows(z, [5], weights, [0.37]),
            rng.normal(size=(1, 8)),
        )

    def test_bounded_by_weighted_cross_entropy(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            z = rng.normal(size=(1, 5))
            weights = rng.uniform(0.1, 4.0, size=5)
            lam = rng.uniform(0.0, 1.0)
            y = int(rng.integers(0, 5))
            loss, _ = curriculum_cross_entropy_rows(z, [y], weights, [lam])
            ce, _ = cross_entropy_rows(z, [y])
            assert loss[0] <= ce[0] * weights[y] + 1e-12

    def test_rows_match_single_bitwise(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(5, 6))
        labels = rng.integers(0, 6, size=5)
        weights = rng.uniform(0.2, 2.0, size=6)
        lams = rng.uniform(0.0, 1.0, size=5)
        losses, grads = curriculum_cross_entropy_rows(z, labels, weights, lams)
        for r in range(5):
            one = slice(r, r + 1)
            loss_r, grad_r = curriculum_cross_entropy_rows(
                z[one], labels[one], weights, lams[one]
            )
            assert losses[r] == loss_r[0]
            np.testing.assert_array_equal(grads[r], grad_r[0])


class TestHeadDistillation:
    HEADS = np.array([1, 2, 4, 6])

    def test_zero_gradient_at_match(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(1, 8)) * 2
        loss, grad = head_distillation_rows(z, z.copy(), 2.0, self.HEADS)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)
        p = softmax(z[0, self.HEADS] / 2.0)
        assert loss[0] == pytest.approx(float(-np.sum(p * np.log(p))), abs=1e-12)

    def test_uniform_limit_at_huge_temperature(self):
        rng = np.random.default_rng(9)
        zt, zs = rng.normal(size=(1, 8)) * 4, rng.normal(size=(1, 8)) * 4
        loss, _ = head_distillation_rows(zt, zs, 1000.0, self.HEADS)
        assert loss[0] == pytest.approx(np.log(len(self.HEADS)), abs=1e-3)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        teacher = rng.normal(size=(1, 8)) * 2
        logits_grad_check(
            lambda z: head_distillation_rows(teacher, z, 2.0, self.HEADS),
            rng.normal(size=(1, 8)),
        )

    def test_gradient_confined_to_heads(self):
        rng = np.random.default_rng(11)
        _, grad = head_distillation_rows(
            rng.normal(size=(1, 8)), rng.normal(size=(1, 8)), 2.0, self.HEADS
        )
        non_heads = np.setdiff1d(np.arange(8), self.HEADS)
        np.testing.assert_array_equal(grad[0, non_heads], 0.0)

    def test_gibbs_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            zt, zs = rng.normal(size=(1, 8)) * 3, rng.normal(size=(1, 8)) * 3
            loss, _ = head_distillation_rows(zt, zs, 2.0, self.HEADS)
            p = softmax(zt[0, self.HEADS] / 2.0)
            assert loss[0] >= float(-np.sum(p * np.log(p))) - 1e-12

    def test_degenerate_head_set_rejected(self):
        with pytest.raises(ConfigurationError):
            head_distillation_rows(np.zeros((1, 4)), np.zeros((1, 4)), 2.0, [1])

    def test_rows_match_single_bitwise(self):
        rng = np.random.default_rng(13)
        zt = rng.normal(size=(4, 8))
        zs = rng.normal(size=(4, 8))
        losses, grads = head_distillation_rows(zt, zs, 2.0, self.HEADS)
        for r in range(4):
            one = slice(r, r + 1)
            loss_r, grad_r = head_distillation_rows(zt[one], zs[one], 2.0, self.HEADS)
            assert losses[r] == loss_r[0]
            np.testing.assert_array_equal(grads[r], grad_r[0])


class TestCombiners:
    def test_hybrid_pure_coarse(self):
        assert hybrid_loss(1.0, 2.5, 99.0) == 2.5

    def test_hybrid_arithmetic(self):
        assert hybrid_loss(0.1, 2.0, 4.0) == pytest.approx(3.8)

    def test_hybrid_plateau_weighting(self):
        # late-phase floor value 0.1 splits the branches 0.1/0.9
        assert hybrid_loss(0.1, 1.0, 0.0) == pytest.approx(0.1)
        assert hybrid_loss(0.1, 0.0, 1.0) == pytest.approx(0.9)

    def test_total_distillation_disabled(self):
        assert total_loss(1.5, 0.25, 7.0, 0.0) == 1.75

    def test_total_arithmetic(self):
        assert total_loss(1.0, 0.5, 2.0, 0.05) == pytest.approx(1.6)

    def test_total_zero(self):
        assert total_loss(0.0, 0.0, 0.0, 0.05) == 0.0
