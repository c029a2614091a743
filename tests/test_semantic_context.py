import numpy as np
import pytest

from dualrel.model import parameter_layout
from dualrel.numerics import ParamStore, grad_check
from dualrel.semantic_context import (
    EMBED_DIM,
    add_params,
    context_backward,
    context_param_specs,
    context_forward,
    encode_context,
    embedding_specs,
    encode_context_backward,
    global_token,
    semantic_gap_loss,
    target_global_token,
    triplet_semantics_rows,
    triplet_semantics_rows_backward,
)

N_PRED = 6
N_OBJ = 5
DIM = 16


def make_store(seed=0, context_dim=DIM, randomize_classifier=False, extra=()):
    """The context parameters and embeddings, drawn from seed, plus the
    zeroed (name, shape, trainable) slots of ``extra``."""
    rng = np.random.default_rng(seed)
    specs = context_param_specs(N_PRED, context_dim) + embedding_specs(N_PRED, N_OBJ)
    store = ParamStore(parameter_layout(specs) + list(extra))
    add_params(store, specs, rng)
    if randomize_classifier:
        w = store["context.classifier.w"]
        w += rng.normal(size=w.shape) * 0.3
        b = store["context.classifier.b"]
        b += rng.normal(size=b.shape) * 0.1
    return store


def random_dists(rng, n, width):
    raw = rng.random((n, width)) + 0.05
    return raw / raw.sum(axis=1, keepdims=True)


def random_inputs(rng, n, logits_scale=2.0):
    fine = rng.normal(size=(n, N_PRED + 1)) * logits_scale
    subj = random_dists(rng, n, N_OBJ + 1)
    obj = random_dists(rng, n, N_OBJ + 1)
    gt = (
        rng.integers(1, N_PRED + 1, size=n),
        rng.integers(1, N_OBJ + 1, size=n),
        rng.integers(1, N_OBJ + 1, size=n),
    )
    return fine, subj, obj, gt


def stacked_inputs(rng, images, n):
    """random_inputs for `images` images of n relations, stacked."""
    fine, subj, obj, gt = zip(*(random_inputs(rng, n) for _ in range(images)))
    return (
        np.stack(fine), np.stack(subj), np.stack(obj),
        tuple(np.stack(part) for part in zip(*gt)),
    )


def one_hot(indices, width):
    return np.eye(width)[np.asarray(indices)]


def max_relative_error(actual, expected):
    return float(np.max(np.abs(actual - expected)) / np.max(np.abs(expected)))


class TestEmbeddings:
    def test_rows_unit_norm_and_frozen(self):
        store = make_store()
        for name in ("embedding.predicate", "embedding.object"):
            table = store[name]
            np.testing.assert_allclose(
                np.linalg.norm(table, axis=1), 1.0, atol=1e-10
            )
            assert not store.is_trainable(name)
        assert store["embedding.predicate"].shape == (N_PRED + 1, EMBED_DIM)

    def test_seeded_rebuild_identical(self):
        a, b = make_store(3), make_store(3)
        np.testing.assert_array_equal(
            a["embedding.predicate"], b["embedding.predicate"]
        )


class TestTripletSemantics:
    def test_point_mass_selects_row(self):
        store = make_store()
        p = one_hot([3], N_PRED + 1)
        subj = one_hot([1], N_OBJ + 1)
        obj = one_hot([2], N_OBJ + 1)
        rows, _ = triplet_semantics_rows(p, subj, obj, store)
        out = rows[0]
        obj_emb, pred_emb = store["embedding.object"], store["embedding.predicate"]
        w = store["context.proj.w"]
        subj_table = obj_emb @ w[:EMBED_DIM]
        pred_table = pred_emb @ w[EMBED_DIM : 2 * EMBED_DIM]
        obj_table = obj_emb @ w[2 * EMBED_DIM :]
        # class-table rows, added subject, then predicate, then object
        np.testing.assert_array_equal(
            out, subj_table[1] + pred_table[3] + obj_table[2]
        )
        concat = np.concatenate([obj_emb[1], pred_emb[3], obj_emb[2]])
        assert max_relative_error(out, concat @ w) <= 1e-12

    def test_uniform_gives_row_mean(self):
        store = make_store()
        p = np.full((1, N_PRED + 1), 1.0 / (N_PRED + 1))
        subj = np.full((1, N_OBJ + 1), 1.0 / (N_OBJ + 1))
        obj = subj.copy()
        rows, _ = triplet_semantics_rows(p, subj, obj, store)
        out = rows[0]
        expected = np.concatenate(
            [
                store["embedding.object"].mean(axis=0),
                store["embedding.predicate"].mean(axis=0),
                store["embedding.object"].mean(axis=0),
            ]
        ) @ store["context.proj.w"]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_matches_direct_summation_oracle(self):
        store = make_store()
        rng = np.random.default_rng(4)
        _, subj, obj, _ = random_inputs(rng, 3)
        p = random_dists(rng, 3, N_PRED + 1)
        rows, _ = triplet_semantics_rows(p, subj, obj, store)
        for r in range(3):
            s_subj = sum(subj[r, i] * store["embedding.object"][i]
                         for i in range(N_OBJ + 1))
            s_pred = sum(p[r, i] * store["embedding.predicate"][i]
                         for i in range(N_PRED + 1))
            s_obj = sum(obj[r, i] * store["embedding.object"][i]
                        for i in range(N_OBJ + 1))
            expected = np.concatenate([s_subj, s_pred, s_obj]) @ store[
                "context.proj.w"
            ]
            np.testing.assert_allclose(rows[r], expected, atol=1e-12)


class TestGlobalToken:
    def test_identical_rows(self):
        row = np.arange(5.0)
        np.testing.assert_array_equal(
            global_token(np.tile(row, (4, 1))), row
        )

    def test_opposite_rows_cancel(self):
        row = np.arange(1.0, 6.0)
        out = global_token(np.vstack([row, -row]))
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_matches_average_oracle(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(3, DIM))
        expected = np.array(
            [sum(rows[r, d] for r in range(3)) / 3.0 for d in range(DIM)]
        )
        np.testing.assert_allclose(global_token(rows), expected, atol=1e-12)


class TestEncodeContext:
    def test_permutation_equivariance(self):
        store = make_store(6)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, DIM))
        perm = rng.permutation(4)  # permute the first 4 rows, global row fixed
        x_perm = np.vstack([x[:4][perm], x[4:]])
        y, _ = encode_context(x, store)
        y_perm, _ = encode_context(x_perm, store)
        np.testing.assert_allclose(y_perm[:4], y[:4][perm], atol=1e-10)
        np.testing.assert_allclose(y_perm[4], y[4], atol=1e-10)

    def test_deterministic(self):
        store = make_store(8)
        x = np.random.default_rng(9).normal(size=(2, DIM))
        y1, _ = encode_context(x, store)
        y2, _ = encode_context(x, store)
        np.testing.assert_array_equal(y1, y2)

    def test_attention_rows_sum_to_one(self):
        store = make_store(10)
        x = np.random.default_rng(11).normal(size=(6, DIM)) * 3
        _, cache = encode_context(x, store)
        np.testing.assert_allclose(cache["attn"].sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_backward_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=(4, DIM))
        weight = rng.normal(size=(4, DIM))
        store = make_store(seed + 100, extra=[("x", x0.shape, True)])
        store.add("x", x0)

        def loss(s):
            y, cache = encode_context(s["x"], s)
            grad_x = encode_context_backward(cache, weight, s)
            s.accumulate("x", grad_x)
            return float(np.sum(y * weight))

        assert grad_check(loss, store, eps=1e-6) <= 1e-4


class TestSemanticGap:
    def test_identical_inputs(self):
        v = np.random.default_rng(14).normal(size=DIM)
        loss, grad = semantic_gap_loss(v, v.copy())
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_unit_difference(self):
        loss, _ = semantic_gap_loss(np.ones(DIM), np.zeros(DIM))
        assert loss == pytest.approx(1.0, abs=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        target = rng.normal(size=DIM)
        store = ParamStore([("s", (DIM,), True)])
        store.add("s", rng.normal(size=DIM))

        def loss(s):
            value, grad = semantic_gap_loss(s["s"], target)
            s.accumulate("s", grad)
            return value

        assert grad_check(loss, store) <= 1e-4

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            semantic_gap_loss(np.zeros(3), np.zeros(4))


class TestContextForward:
    def test_zero_classifier_means_zero_correction(self):
        store = make_store(16)  # classifier is zero-initialized
        rng = np.random.default_rng(17)
        fine, subj, obj, gt = random_inputs(rng, 4)
        result = context_forward(
            fine, subj, obj, store, target=target_global_token(*gt, store)
        )
        np.testing.assert_array_equal(result.correction, 0.0)

    @pytest.mark.parametrize("shape", [(3,), (3, 4)], ids=["image", "stack"])
    def test_exact_one_hot_prediction_closes_the_gap(self, shape):
        store = make_store(18, randomize_classifier=True)
        rng = np.random.default_rng(19)
        gt_preds = rng.integers(1, N_PRED + 1, size=shape)
        gt_subj = rng.integers(1, N_OBJ + 1, size=shape)
        gt_obj = rng.integers(1, N_OBJ + 1, size=shape)
        # +1000 margins underflow the other classes to exactly zero
        fine = one_hot(gt_preds, N_PRED + 1) * 1000.0 - 500.0
        subj = one_hot(gt_subj, N_OBJ + 1)
        obj = one_hot(gt_obj, N_OBJ + 1)
        target = target_global_token(gt_preds, gt_subj, gt_obj, store)
        result = context_forward(fine, subj, obj, store, target=target)
        np.testing.assert_array_equal(result.gap_loss, 0.0)

    def test_permutation_moves_rows_and_preserves_gap(self):
        store = make_store(20, randomize_classifier=True)
        rng = np.random.default_rng(21)
        n = 5
        fine, subj, obj, gt = random_inputs(rng, n)
        result = context_forward(
            fine, subj, obj, store, target=target_global_token(*gt, store)
        )
        perm = rng.permutation(n)
        result_p = context_forward(
            fine[perm], subj[perm], obj[perm], store,
            target=target_global_token(gt[0][perm], gt[1][perm], gt[2][perm], store),
        )
        np.testing.assert_allclose(
            result_p.correction, result.correction[perm], atol=1e-10
        )
        assert result_p.gap_loss == pytest.approx(result.gap_loss, abs=1e-10)

    def test_row_shift_invariance(self):
        store = make_store(22, randomize_classifier=True)
        rng = np.random.default_rng(23)
        fine, subj, obj, gt = random_inputs(rng, 4)
        shifted = fine.copy()
        shifted[2] += 7.5
        target = target_global_token(*gt, store)
        a = context_forward(fine, subj, obj, store, target=target)
        b = context_forward(shifted, subj, obj, store, target=target)
        np.testing.assert_allclose(b.correction, a.correction, atol=1e-10)

    def test_inference_without_ground_truth(self):
        store = make_store(24, randomize_classifier=True)
        rng = np.random.default_rng(25)
        fine, subj, obj, _ = random_inputs(rng, 3)
        result = context_forward(fine, subj, obj, store)
        assert result.gap_loss == 0.0
        assert result.correction.shape == fine.shape

    def test_gap_nonnegative_and_zero_iff_globals_match(self):
        store = make_store(27, randomize_classifier=True)
        rng = np.random.default_rng(28)
        for _ in range(20):
            fine, subj, obj, gt = random_inputs(rng, 3)
            target = target_global_token(*gt, store)
            result = context_forward(fine, subj, obj, store, target=target)
            assert result.gap_loss >= 0.0
            gap = np.sum((result.predicted_global - target) ** 2)
            assert (result.gap_loss == 0.0) == (gap == 0.0)


class TestEndToEndGradients:
    def test_full_path_gradcheck(self):
        # loss = gap + linear functional of the corrections, through softmax,
        # embedding expectation, attention, and the correction head
        rng = np.random.default_rng(29)
        n = 3
        fine0, subj, obj, gt = random_inputs(rng, n, logits_scale=1.0)
        weight = rng.normal(size=(n, N_PRED + 1))
        store = make_store(30, randomize_classifier=True,
                           extra=[("fine_logits", fine0.shape, True)])
        store.add("fine_logits", fine0)
        target = target_global_token(*gt, store)

        def loss(s):
            result = context_forward(s["fine_logits"], subj, obj, s, target=target)
            value = result.gap_loss + float(np.sum(result.correction * weight))
            grad_fine = context_backward(result, weight, 1.0, s)
            s.accumulate("fine_logits", grad_fine)
            return value

        assert grad_check(loss, store) <= 1e-4


class TestStacks:
    """A (G, n, .) stack gives each image the bits of its own call."""

    def test_encode_context(self):
        store = make_store(40)
        x = np.random.default_rng(41).normal(size=(3, 5, DIM))
        y, cache = encode_context(x, store)
        for g in range(3):
            y_g, cache_g = encode_context(x[g], store)
            np.testing.assert_array_equal(y[g], y_g)
            np.testing.assert_array_equal(cache["attn"][g], cache_g["attn"])

    def test_target_global_token(self):
        store = make_store(42)
        _, _, _, gt = stacked_inputs(np.random.default_rng(43), 3, 4)
        tokens = target_global_token(*gt, store)
        for g in range(3):
            np.testing.assert_array_equal(
                tokens[g], target_global_token(*(part[g] for part in gt), store)
            )

    def test_context_forward(self):
        store = make_store(44, randomize_classifier=True)
        fine, subj, obj, gt = stacked_inputs(np.random.default_rng(45), 3, 4)
        result = context_forward(
            fine, subj, obj, store, target=target_global_token(*gt, store)
        )
        assert result.gap_loss.shape == (3,)
        for g in range(3):
            single = context_forward(
                fine[g], subj[g], obj[g], store,
                target=target_global_token(*(part[g] for part in gt), store),
            )
            np.testing.assert_array_equal(result.correction[g], single.correction)
            np.testing.assert_array_equal(
                result.predicted_global[g], single.predicted_global
            )
            assert result.gap_loss[g] == single.gap_loss

    def test_context_backward(self):
        """Each image's fine-logits gradient has the bits of its own call; a
        parameter gradient, one product over the stack's rows, matches the
        sum of the single-image calls within 1e-12 of its largest entry."""
        store = make_store(46, randomize_classifier=True)
        rng = np.random.default_rng(47)
        fine, subj, obj, gt = stacked_inputs(rng, 3, 4)
        grad_correction = rng.normal(size=fine.shape)
        names = [n for n in store.trainable_names() if n.startswith("context.")]

        store.zero_grads()
        result = context_forward(
            fine, subj, obj, store, target=target_global_token(*gt, store)
        )
        grad_fine = context_backward(result, grad_correction, 0.5, store)
        stacked = {n: store.grad(n).copy() for n in names}

        store.zero_grads()
        for g in range(3):
            single = context_forward(
                fine[g], subj[g], obj[g], store,
                target=target_global_token(*(part[g] for part in gt), store),
            )
            np.testing.assert_array_equal(
                grad_fine[g], context_backward(single, grad_correction[g], 0.5, store)
            )
        for name in names:
            reference = store.grad(name)
            scale = max(float(np.max(np.abs(reference))), 1e-300)
            error = float(np.max(np.abs(stacked[name] - reference))) / scale
            assert error <= 1e-12, (name, error)


class TestClassSpaceProjection:
    """The ground-truth token and the projection backward against the
    600-wide concatenated, one-hot form."""

    def test_target_token_matches_one_hot_oracle(self):
        store = make_store(50)
        _, _, _, (preds, subjects, objects) = random_inputs(
            np.random.default_rng(51), 5
        )
        obj_emb, pred_emb = store["embedding.object"], store["embedding.predicate"]
        concat = np.concatenate(
            [
                one_hot(subjects, N_OBJ + 1) @ obj_emb,
                one_hot(preds, N_PRED + 1) @ pred_emb,
                one_hot(objects, N_OBJ + 1) @ obj_emb,
            ],
            axis=1,
        )
        rows = concat @ store["context.proj.w"]
        encoded, _ = encode_context(np.vstack([rows, rows.mean(axis=0)]), store)
        token = target_global_token(preds, subjects, objects, store)
        assert max_relative_error(token, encoded[-1]) <= 1e-12

    def test_projection_backward_matches_concat_oracle(self):
        store = make_store(52)
        rng = np.random.default_rng(53)
        _, subj, obj, _ = stacked_inputs(rng, 3, 4)
        pred = np.stack([random_dists(rng, 4, N_PRED + 1) for _ in range(3)])
        grad_rows = rng.normal(size=(3, 4, DIM))
        _, cache = triplet_semantics_rows(pred, subj, obj, store)
        store.zero_grads()
        grad_pred = triplet_semantics_rows_backward(cache, grad_rows, store)

        obj_emb, pred_emb = store["embedding.object"], store["embedding.predicate"]
        w = store["context.proj.w"]
        oracle_w = np.zeros_like(w)
        for g in range(3):
            concat = np.concatenate(
                [subj[g] @ obj_emb, pred[g] @ pred_emb, obj[g] @ obj_emb], axis=1
            )
            oracle_w += concat.T @ grad_rows[g]
        oracle_pred = (grad_rows @ w.T)[..., EMBED_DIM : 2 * EMBED_DIM] @ pred_emb.T
        assert max_relative_error(store.grad("context.proj.w"), oracle_w) <= 1e-12
        assert max_relative_error(grad_pred, oracle_pred) <= 1e-12

    def test_stacked_full_path_gradcheck(self):
        rng = np.random.default_rng(54)
        fine0, subj, obj, gt = stacked_inputs(rng, 3, 3)
        weight = rng.normal(size=fine0.shape)
        store = make_store(55, randomize_classifier=True,
                           extra=[("fine_logits", fine0.shape, True)])
        store.add("fine_logits", fine0 * 0.5)
        target = target_global_token(*gt, store)

        def loss(s):
            result = context_forward(s["fine_logits"], subj, obj, s, target=target)
            value = float(np.sum(result.gap_loss)) + float(
                np.sum(result.correction * weight)
            )
            s.accumulate("fine_logits", context_backward(result, weight, 1.0, s))
            return value

        assert grad_check(loss, store) <= 1e-4
