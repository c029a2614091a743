import copy
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualrel.numerics import (
    ParamStore,
    glorot_uniform,
    grad_check,
    linear_backward,
    linear_forward,
    log_softmax,
    softmax,
)

# leading shapes of (n, C) matrices and (G, n, C) stacks, n = 1 included
ROW_SHAPES = st.one_of(
    st.tuples(st.integers(1, 40)),
    st.tuples(st.integers(1, 6), st.integers(1, 20)),
)


@st.composite
def logit_arrays(draw, min_classes=2):
    """Logits of a drawn shape, C = 2 included; rows may carry a +-500
    margin at one entry, so the others underflow exp or dominate it."""
    shape = draw(ROW_SHAPES) + (draw(st.integers(min_classes, 60)),)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(size=shape) * draw(st.sampled_from([0.0, 1.0, 30.0]))
    margin = draw(st.sampled_from([0.0, 500.0, -500.0]))
    at = rng.integers(0, shape[-1], size=shape[:-1])
    np.put_along_axis(z, at[..., None], np.take_along_axis(z, at[..., None], -1) + margin, -1)
    return z, at


# the expressions each row op computed before it wrote into its own buffers
def reference_softmax(z, axis=-1):
    m = np.max(z, axis=axis, keepdims=True)
    e = np.exp(z - m)
    return e / np.sum(e, axis=axis, keepdims=True)


def reference_log_softmax(z, axis=-1):
    m = np.max(z, axis=axis, keepdims=True)
    shifted = z - m
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


class TestRowOpsMatchReference:
    @settings(max_examples=200, deadline=None)
    @given(logit_arrays(min_classes=1))
    def test_softmax_and_log_softmax(self, drawn):
        z, _ = drawn
        before = z.copy()
        np.testing.assert_array_equal(softmax(z), reference_softmax(z))
        np.testing.assert_array_equal(log_softmax(z), reference_log_softmax(z))
        np.testing.assert_array_equal(z, before)

    @settings(max_examples=100, deadline=None)
    @given(ROW_SHAPES, st.integers(1, 70), st.integers(1, 70), st.integers(0, 2**32 - 1))
    def test_linear_forward(self, rows, fan_in, fan_out, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=rows + (fan_in,))
        w = rng.normal(size=(fan_in, fan_out))
        b = rng.normal(size=fan_out) * 100.0
        np.testing.assert_array_equal(linear_forward(x, w, b), x @ w + b)


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
        store = ParamStore([("theta", (2,), True)])
        store.add("theta", np.array([1.0, 2.0]))

        def loss(s):
            theta = s["theta"]
            s.accumulate("theta", 2.0 * theta)
            return float(np.sum(theta**2))

        assert grad_check(loss, store) <= 1e-9

    def test_cross_entropy_logits(self):
        rng = np.random.default_rng(3)
        store = ParamStore([("z", (5,), True)])
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
        store = ParamStore([("theta", (2,), True)])
        store.add("theta", np.array([1.0, -0.5]))

        def loss(s):
            theta = s["theta"]
            s.accumulate("theta", 4.0 * theta)  # deliberately 2x the true grad
            return float(np.sum(theta**2))

        assert grad_check(loss, store) >= 0.49

    @staticmethod
    def elementwise_loss(x0, loss_of, grad_of):
        """A store holding `x` = x0 and a loss over it with the given backward."""
        x0 = np.asarray(x0, dtype=np.float64)
        store = ParamStore([("x", x0.shape, True)])
        store.add("x", x0)

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
        store = ParamStore([("w", (1,), True)])
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
        store = ParamStore([("theta", (1,), True)])
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

        store = ParamStore([("x", (3, 5), True), ("w", (5, 4), True), ("b", (4,), True)])
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
    def test_views_stay_live_across_sgd_and_zero_grads(self):
        store = ParamStore([("w", (2, 3), True), ("e", (4,), False)])
        store.add("w", np.arange(6.0).reshape(2, 3))
        store.add("e", np.ones(4))
        w, grad_w, e = store["w"], store.grad("w"), store["e"]
        store.accumulate("w", np.full((2, 3), 2.0))
        store.sgd_step(0.5)
        np.testing.assert_array_equal(w, np.arange(6.0).reshape(2, 3) - 1.0)
        np.testing.assert_array_equal(e, np.ones(4))
        store.zero_grads()
        assert not grad_w.any()
        assert store["w"] is w and store["e"] is e and store.grad("w") is grad_w

    def test_add_outside_the_layout_rejected(self):
        store = ParamStore([("a", (2,), True)])
        with pytest.raises(ValueError, match="'b'"):
            store.add("b", [3.0])
        assert store.names() == ["a"]

    def test_frozen_parameter_has_no_gradient(self):
        store = ParamStore([("w", (2,), True), ("e", (3,), False)])
        with pytest.raises(ValueError, match="'e'"):
            store.grad("e")
        with pytest.raises(ValueError, match="'e'"):
            store.accumulate("e", np.ones(3))
        assert store.trainable_names() == ["w"]

    def test_value_that_does_not_fit_its_slot_rejected(self):
        store = ParamStore([("a", (2,), True)])
        with pytest.raises(ValueError, match="'a'"):
            store.add("a", np.zeros(3))

    def test_deepcopy_is_independent(self):
        store = ParamStore([("w", (3,), True), ("f", (1,), False)])
        store.add("w", [1.0, 2.0, 3.0])
        store.add("f", [5.0])
        twin = copy.deepcopy(store)
        twin.accumulate("w", np.ones(3))
        twin.sgd_step(1.0)
        twin["f"][0] = 7.0
        np.testing.assert_array_equal(twin["w"], [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(store["w"], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(store.grad("w"), np.zeros(3))
        np.testing.assert_array_equal(store["f"], [5.0])
        # the copy's views are views of its own arenas
        twin.zero_grads()
        twin.accumulate("w", np.ones(3))
        twin.sgd_step(1.0)
        np.testing.assert_array_equal(twin["w"], [-1.0, 0.0, 1.0])

    def test_grad_check_perturbations_reach_the_loss(self):
        store = ParamStore([("frozen", (2,), False), ("w", (2, 2), True)])
        store.add("frozen", [1.0, 1.0])
        store.add("w", [[0.5, -1.0], [2.0, 0.25]])
        weight = np.array([[1.0, 2.0], [3.0, 4.0]])

        def loss(s):
            s.accumulate("w", 2.0 * weight * s["w"])
            return float(np.sum(weight * s["w"] ** 2))

        # a perturbation that missed the loss would measure 0 and fail
        assert grad_check(loss, store) <= 1e-8

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="'a'"):
            ParamStore([("a", (2,), True), ("a", (2,), False)])

    def test_gradient_shape_enforced(self):
        store = ParamStore([("a", (2, 2), True)])
        with pytest.raises(ValueError):
            store.accumulate("a", np.zeros(3))

    @pytest.mark.parametrize("shape", [(1, 1), (3,), (4, 5)])
    def test_stack_adds_like_sequential_calls(self, shape):
        rng = np.random.default_rng(8)
        start = rng.normal(size=shape)
        stack = rng.normal(size=(12,) + shape) * 10.0 ** rng.integers(-8, 8, size=(12,) + shape)
        stacked, sequential = (ParamStore([("p", shape, True)]) for _ in range(2))
        for store in (stacked, sequential):
            store.accumulate("p", start)
        stacked.accumulate("p", stack)
        for grad in stack:
            sequential.accumulate("p", grad)
        np.testing.assert_array_equal(stacked.grad("p"), sequential.grad("p"))

    def test_sgd_skips_frozen(self):
        store = ParamStore([("p", (2,), True), ("frozen", (2,), False)])
        store.add("p", np.ones(2))
        store.add("frozen", np.ones(2))
        store.accumulate("p", np.ones(2))
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
