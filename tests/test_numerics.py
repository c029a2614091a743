import warnings

import numpy as np
import pytest

from dualrel.numerics import (
    ParamStore,
    glorot_uniform,
    grad_check,
    linear_backward,
    linear_forward,
    softmax,
)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_closed_form(self):
        np.testing.assert_allclose(
            softmax([np.log(2.0), 0.0]), [2.0 / 3.0, 1.0 / 3.0], atol=1e-15
        )

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=9)
        np.testing.assert_allclose(softmax(z + 1000.0), softmax(z), atol=1e-12)

    def test_sums_to_one_for_large_magnitudes(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            z = rng.uniform(-1e3, 1e3, size=rng.integers(1, 12))
            out = softmax(z)
            assert np.all(out >= 0.0)
            assert abs(out.sum() - 1.0) <= 1e-12

    def test_rows(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(4, 6)) * 100
        out = softmax(z, axis=1)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.zeros(0))


class TestGradCheck:
    def test_exact_quadratic(self):
        store = ParamStore()
        store.add("theta", np.array([1.0, 2.0]))

        def loss(s):
            theta = s["theta"]
            s.accumulate("theta", 2.0 * theta)
            return float(np.sum(theta**2))

        assert grad_check(loss, store) <= 1e-9

    def test_cross_entropy_logits(self):
        rng = np.random.default_rng(3)
        store = ParamStore()
        store.add("z", rng.normal(size=5))
        label = 2

        def loss(s):
            z = s["z"]
            p = softmax(z)
            grad = p.copy()
            grad[label] -= 1.0
            s.accumulate("z", grad)
            return float(-np.log(p[label]))

        assert grad_check(loss, store) <= 1e-4

    def test_detects_corrupted_gradient(self):
        store = ParamStore()
        store.add("theta", np.array([1.0, -0.5]))

        def loss(s):
            theta = s["theta"]
            s.accumulate("theta", 4.0 * theta)  # deliberately 2x the true grad
            return float(np.sum(theta**2))

        assert grad_check(loss, store) >= 0.49

    @staticmethod
    def elementwise_loss(x0, loss_of, grad_of):
        """A store holding `x` = x0 and a loss over it with the given backward."""
        store = ParamStore()
        store.add("x", np.asarray(x0, dtype=np.float64))

        def loss(s):
            x = s["x"]
            s.accumulate("x", grad_of(x))
            return float(np.sum(loss_of(x)))

        return loss, store

    def test_kink_inside_step_passes(self):
        # the ReLU kink lies 2.7e-6 above the point, inside the 1e-5 step;
        # the plain central difference would average both slopes (error 0.27)
        kink = 2.7e-6
        loss, store = self.elementwise_loss(
            [0.0],
            lambda x: x + np.maximum(x - kink, 0.0),
            lambda x: 1.0 + (x - kink > 0.0),
        )
        assert grad_check(loss, store) <= 1e-4

    def test_kink_inside_step_wrong_branch_fails(self):
        # same loss, but the backward takes the active branch near the kink
        kink = 2.7e-6
        loss, store = self.elementwise_loss(
            [0.0],
            lambda x: x + np.maximum(x - kink, 0.0),
            lambda x: 1.0 + (x - kink > -1e-4),
        )
        assert grad_check(loss, store) >= 0.49

    def test_kink_cancelling_curvature_passes(self):
        # the kink is crossed by the +eps step only, and its slope jump
        # cancels the curvature: the one-sided slopes agree, yet the central
        # difference is off by 1e-3 relative
        loss, store = self.elementwise_loss(
            [0.0],
            lambda x: 0.01 * x + x**2 - 1e-4 * np.maximum(x - 8e-6, 0.0),
            lambda x: 0.01 + 2.0 * x - 1e-4 * (x - 8e-6 > 0.0),
        )
        assert grad_check(loss, store) <= 1e-4

    def test_kink_at_point_passes_and_warns(self):
        # x[1] sits exactly on the kink: the one-sided slopes are 0.5 and 1.5
        loss, store = self.elementwise_loss(
            [0.3, 0.0, -0.2],
            lambda x: 0.5 * x + np.maximum(x, 0.0),
            lambda x: 0.5 + (x > 0.0),
        )
        with pytest.warns(UserWarning, match=r"parameter 'x' .* flat index 1\b"):
            assert grad_check(loss, store) <= 1e-4

    def test_kink_at_point_wrong_value_fails(self):
        loss, store = self.elementwise_loss(
            [0.3, 0.0, -0.2],
            lambda x: 0.5 * x + np.maximum(x, 0.0),
            lambda x: np.where(x == 0.0, -1.0, 0.5 + (x > 0.0)),
        )
        with pytest.warns(UserWarning, match="flat index 1"):
            assert grad_check(loss, store) >= 0.49

    def test_smooth_high_curvature_emits_no_warning(self):
        quadratic = self.elementwise_loss([1.0, 2.0], lambda x: x**2, lambda x: 2.0 * x)
        stiff = self.elementwise_loss(
            [0.3, -0.1], lambda x: np.cosh(50.0 * x), lambda x: 50.0 * np.sinh(50.0 * x)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert grad_check(*quadratic) <= 1e-9
            assert grad_check(*stiff) <= 1e-6

    def test_non_finite_loss_names_parameter(self):
        store = ParamStore()
        store.add("w", np.array([0.0]))

        def loss(s):
            w = s["w"][0]
            if w > 5e-6:
                return float("nan")
            s.accumulate("w", np.array([1.0]))
            return float(w)

        with pytest.raises(ValueError, match="'w'"):
            grad_check(loss, store)

    def test_leaves_analytic_gradients_in_store(self):
        store = ParamStore()
        store.add("theta", np.array([3.0]))

        def loss(s):
            s.accumulate("theta", 2.0 * s["theta"])
            return float(np.sum(s["theta"] ** 2))

        grad_check(loss, store)
        np.testing.assert_allclose(store.grad("theta"), [6.0])


class TestLinearLayer:
    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x0 = rng.normal(size=(3, 5))
        w0 = rng.normal(size=(5, 4))
        b0 = rng.normal(size=4)
        weight = rng.normal(size=(3, 4))  # fixed linear functional of the output

        store = ParamStore()
        store.add("x", x0)
        store.add("w", w0)
        store.add("b", b0)

        def loss(s):
            y = linear_forward(s["x"], s["w"], s["b"])
            gx, gw, gb = linear_backward(s["x"], s["w"], weight)
            s.accumulate("x", gx)
            s.accumulate("w", gw)
            s.accumulate("b", gb)
            return float(np.sum(y * weight))

        assert grad_check(loss, store) <= 1e-4


class TestParamStore:
    def test_duplicate_names_rejected(self):
        store = ParamStore()
        store.add("a", np.zeros(2))
        with pytest.raises(ValueError):
            store.add("a", np.zeros(2))

    def test_gradient_shape_enforced(self):
        store = ParamStore()
        store.add("a", np.zeros((2, 2)))
        with pytest.raises(ValueError):
            store.accumulate("a", np.zeros(3))

    @pytest.mark.parametrize("shape", [(1, 1), (3,), (4, 5)])
    def test_stack_adds_like_sequential_calls(self, shape):
        rng = np.random.default_rng(8)
        start = rng.normal(size=shape)
        stack = rng.normal(size=(12,) + shape) * 10.0 ** rng.integers(-8, 8, size=(12,) + shape)
        stacked, sequential = ParamStore(), ParamStore()
        for store in (stacked, sequential):
            store.add("p", np.zeros(shape))
            store.accumulate("p", start)
        stacked.accumulate("p", stack)
        for grad in stack:
            sequential.accumulate("p", grad)
        np.testing.assert_array_equal(stacked.grad("p"), sequential.grad("p"))

    def test_sgd_skips_frozen(self):
        store = ParamStore()
        store.add("p", np.ones(2))
        store.add("frozen", np.ones(2), trainable=False)
        store.accumulate("p", np.ones(2))
        store.accumulate("frozen", np.ones(2))
        store.sgd_step(0.5)
        np.testing.assert_allclose(store["p"], [0.5, 0.5])
        np.testing.assert_allclose(store["frozen"], [1.0, 1.0])


def test_glorot_uniform_bounds_and_determinism():
    a = np.sqrt(6.0 / (7 + 9))
    w1 = glorot_uniform(np.random.default_rng(11), 7, 9)
    w2 = glorot_uniform(np.random.default_rng(11), 7, 9)
    assert w1.shape == (7, 9)
    assert np.all(np.abs(w1) <= a)
    np.testing.assert_array_equal(w1, w2)
