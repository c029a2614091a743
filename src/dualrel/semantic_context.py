"""Set-encoder over relation-triplet semantics.

Each relation's predicate distribution and its subject/object label
distributions are mapped to expected embeddings (a probability-weighted
average of fixed, unit-norm embedding rows), concatenated and projected to
one triplet vector per relation. The projection runs in class space: each
block b of the projection W (subject, predicate, object, EMBED_DIM rows
each) and its embedding table E_b make a class table T_b = E_b @ W_b, and
a triplet row is subj @ T_s + pred @ T_p + obj @ T_o, added in that order,
which equals the concatenated form up to the last bits. A mean global
token is appended and a single self-attention block (scaled dot-product +
residual + feed-forward + residual, no positional encoding) contextualizes
the rows, so the encoder is permutation-equivariant over the relation rows
and the global row is permutation-invariant. A linear head over the
contextual relation rows yields additive logit corrections; the correction
head is deliberately zero-initialized so corrections start at exactly zero
and grow only as the head is trained.

The squared distance between the predicted and ground-truth contextual
global tokens is the semantic-gap loss; the ground-truth side runs through
the same parameters but is treated as a constant (no gradient flows
through it). Its triplet rows are T_s[s] + T_p[p] + T_o[o], the
class-table rows of the ground-truth classes added in the same order, so
an exact one-hot prediction gives the target's bits.

Every function takes one image, with rows of shape (n, ·), or a stack of G
images with the same relation count, (G, n, ·). A stack runs each product
as a stacked ``np.matmul``, so every image gets exactly the bits its own
call would give, except in the projection gradient: block b gets
E_b.T @ (sum over the stack's images of dist_b.T @ grad_rows), one sum
for the whole stack.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import (
    glorot_uniform,
    linear_backward,
    linear_forward,
    relu,
    relu_backward,
    softmax,
    softmax_vjp,
)

EMBED_DIM = 200


def embedding_specs(num_predicates, num_object_classes):
    """(name, shape, init) of the fixed embedding tables; see add_params."""
    return [
        ("embedding.predicate", (num_predicates + 1, EMBED_DIM), "embedding"),
        ("embedding.object", (num_object_classes + 1, EMBED_DIM), "embedding"),
    ]


def context_param_specs(num_predicates, context_dim):
    """(name, shape, init) of the projection, the attention block, the
    feed-forward and the correction head, in the order they are drawn.

    context_dim is the width the triplet semantics are projected to; the
    projection's 3 * EMBED_DIM rows are the subject, predicate and object
    blocks, in that order (see _block_embeddings).
    """
    d = context_dim
    specs = [("context.proj.w", (3 * EMBED_DIM, d), "glorot")]
    specs += [(f"context.attn.{gate}", (d, d), "glorot")
              for gate in ("wq", "wk", "wv", "wo")]
    # no key bias: it shifts every attention row by a constant, which the
    # row softmax cancels exactly, so it would be a dead parameter
    specs += [(f"context.attn.{gate}", (d,), "zeros") for gate in ("bq", "bv", "bo")]
    specs += [
        ("context.ffn.w1", (d, 2 * d), "glorot"),
        ("context.ffn.b1", (2 * d,), "zeros"),
        ("context.ffn.w2", (2 * d, d), "glorot"),
        ("context.ffn.b2", (d,), "zeros"),
        # corrections start at exactly zero; gradients still flow to the head
        ("context.classifier.w", (d, num_predicates + 1), "zeros"),
        ("context.classifier.b", (num_predicates + 1,), "zeros"),
    ]
    return specs


def add_params(store, specs, rng):
    """Add (name, shape, init) specs to the store in order, drawing from rng.

    init "glorot" is a uniform Glorot matrix, "zeros" all zeros, and
    "embedding" a frozen table of unit-norm standard-normal rows.
    """
    for name, shape, init in specs:
        if init == "glorot":
            store.add(name, glorot_uniform(rng, *shape))
        elif init == "zeros":
            store.add(name, np.zeros(shape))
        else:
            table = rng.standard_normal(shape)
            table /= np.linalg.norm(table, axis=1, keepdims=True)
            store.add(name, table, trainable=False)


def triplet_semantics_rows(pred_dists, subj_dists, obj_dists, store):
    """Project each relation's expected embeddings to a triplet vector:
    returns (rows, cache for backward).

    The expected embedding of a distribution is its probability-weighted
    average of embedding rows; the subject, predicate and object
    expectations, concatenated in that order, are multiplied by the
    projection (in class space, see the module docstring). The
    distributions are (n, ·) matrices or (G, n, ·) stacks. They are not
    checked here: label distributions are validated when a relation file is
    loaded, and predicate distributions are softmax rows.
    """
    subj_table, pred_table, obj_table = _class_tables(store)
    rows = subj_dists @ subj_table
    rows += pred_dists @ pred_table
    rows += obj_dists @ obj_table
    return rows, ((subj_dists, pred_dists, obj_dists), pred_table)


def _block_embeddings(store):
    """The embedding table of each EMBED_DIM-row block of context.proj.w, in
    the blocks' order: subject, predicate, object."""
    obj_emb = store["embedding.object"]
    return obj_emb, store["embedding.predicate"], obj_emb


def _class_tables(store):
    """Projected class tables T_b = E_b @ W_b in block order: row c of T_b
    is class c's embedding times block b of the projection."""
    w = store["context.proj.w"]
    return [
        table @ w[b * EMBED_DIM : (b + 1) * EMBED_DIM]
        for b, table in enumerate(_block_embeddings(store))
    ]


def triplet_semantics_rows_backward(cache, grad_rows, store):
    """Accumulate projection gradients; return gradient wrt predicate dists.

    A stack adds one projection gradient, summed over its images.
    """
    dists, pred_table = cache
    grad_flat = grad_rows.reshape(-1, grad_rows.shape[-1])
    block_grads = [
        table.T @ (block.reshape(-1, block.shape[-1]).T @ grad_flat)
        for block, table in zip(dists, _block_embeddings(store))
    ]
    store.accumulate("context.proj.w", np.concatenate(block_grads))
    return grad_rows @ pred_table.T


def global_token(rows):
    """Whole-graph semantic token: the arithmetic mean of the triplet rows."""
    if rows.shape[-2] < 1:
        raise ValueError("global token needs at least one row")
    return rows.mean(axis=-2)


def _with_global_token(rows):
    """The rows with their global token appended as one more row."""
    return np.concatenate([rows, global_token(rows)[..., None, :]], axis=-2)


def encode_context(x, store):
    """One self-attention block over the rows of x; returns (y, cache).

    x is (n, d) or a (G, n, d) stack, whose images attend only within
    themselves. No positional encoding: permuting input rows permutes
    output rows identically (up to floating-point summation order).
    """
    d = x.shape[-1]
    scale = 1.0 / np.sqrt(d)
    q = linear_forward(x, store["context.attn.wq"], store["context.attn.bq"])
    k = x @ store["context.attn.wk"]
    v = linear_forward(x, store["context.attn.wv"], store["context.attn.bv"])
    scores = (q @ np.swapaxes(k, -1, -2)) * scale
    attn = softmax(scores, axis=-1)
    heads = attn @ v
    out = linear_forward(heads, store["context.attn.wo"], store["context.attn.bo"])
    x1 = x + out
    pre = linear_forward(x1, store["context.ffn.w1"], store["context.ffn.b1"])
    hidden = relu(pre)
    ff = linear_forward(hidden, store["context.ffn.w2"], store["context.ffn.b2"])
    y = x1 + ff
    cache = {
        "x": x, "q": q, "k": k, "v": v, "attn": attn, "heads": heads,
        "x1": x1, "pre": pre, "hidden": hidden, "scale": scale,
    }
    return y, cache


def encode_context_backward(cache, grad_y, store):
    """Backward through the attention block; accumulates parameter grads."""
    grad_x1 = grad_y.copy()
    grad_hidden, gw2, gb2 = linear_backward(
        cache["hidden"], store["context.ffn.w2"], grad_y
    )
    store.accumulate("context.ffn.w2", gw2)
    store.accumulate("context.ffn.b2", gb2)
    grad_pre = relu_backward(cache["pre"], grad_hidden)
    gx1, gw1, gb1 = linear_backward(cache["x1"], store["context.ffn.w1"], grad_pre)
    store.accumulate("context.ffn.w1", gw1)
    store.accumulate("context.ffn.b1", gb1)
    grad_x1 += gx1

    grad_x = grad_x1.copy()
    grad_heads, gwo, gbo = linear_backward(
        cache["heads"], store["context.attn.wo"], grad_x1
    )
    store.accumulate("context.attn.wo", gwo)
    store.accumulate("context.attn.bo", gbo)
    grad_attn = grad_heads @ np.swapaxes(cache["v"], -1, -2)
    grad_v = np.swapaxes(cache["attn"], -1, -2) @ grad_heads
    grad_scores = softmax_vjp(cache["attn"], grad_attn, axis=-1) * cache["scale"]
    grad_q = grad_scores @ cache["k"]
    grad_k = np.swapaxes(grad_scores, -1, -2) @ cache["q"]
    for grad, gate_w, gate_b in (
        (grad_q, "wq", "bq"),
        (grad_k, "wk", None),
        (grad_v, "wv", "bv"),
    ):
        gx, gw, gb = linear_backward(cache["x"], store[f"context.attn.{gate_w}"], grad)
        store.accumulate(f"context.attn.{gate_w}", gw)
        if gate_b is not None:
            store.accumulate(f"context.attn.{gate_b}", gb)
        grad_x += gx
    return grad_x


def semantic_gap_loss(predicted_global, target_global):
    """Mean-squared gap between contextual global tokens: (loss, grad).

    The gradient is with respect to the predicted token only; the target is
    a constant. For (G, d) stacks of tokens the loss is a length-G array,
    one gap per image.
    """
    predicted_global = np.asarray(predicted_global, dtype=np.float64)
    target_global = np.asarray(target_global, dtype=np.float64)
    if predicted_global.shape != target_global.shape:
        raise ValueError("global tokens must have equal dimensions")
    d = predicted_global.shape[-1]
    diff = predicted_global - target_global
    losses = np.sum(diff * diff, axis=-1) / d
    if losses.ndim == 0:
        losses = float(losses)
    return losses, (2.0 / d) * diff


@dataclass
class ContextResult:
    """Forward bundle: logit corrections, gap loss, and backward caches.

    For a (G, n, ·) stack every array gains the leading G axis, and with a
    target gap_loss is a length-G array.
    """

    correction: np.ndarray
    gap_loss: float
    predicted_global: np.ndarray
    target_global: np.ndarray
    cache: dict


def target_global_token(gt_predicates, gt_subjects, gt_objects, store):
    """Contextual global token of the ground-truth graph (constant path).

    The class ids are sequences of n, or (G, n) arrays for a stack.
    """
    subj_table, pred_table, obj_table = _class_tables(store)
    rows = subj_table[np.asarray(gt_subjects, dtype=np.int64)]
    rows += pred_table[np.asarray(gt_predicates, dtype=np.int64)]
    rows += obj_table[np.asarray(gt_objects, dtype=np.int64)]
    encoded, _ = encode_context(_with_global_token(rows), store)
    return encoded[..., -1, :]


def context_forward(fine_logits, subj_dists, obj_dists, store, ground_truth=None,
                    frozen_target=None):
    """Predicted-path forward: corrections for every relation plus gap loss.

    fine_logits is one image's (n, C) matrix or a (G, n, C) stack, with the
    label distributions and ground truth shaped to match. ground_truth is
    an optional (gt_predicates, gt_subjects, gt_objects) triple; when
    absent (inference) the gap loss is 0. frozen_target bypasses the
    ground-truth recomputation with a precomputed constant token (a (G, d)
    stack for a stack), which is also how the gradient checks freeze the
    target.
    """
    n = fine_logits.shape[-2]
    if n == 0:
        return ContextResult(
            correction=np.zeros_like(fine_logits),
            gap_loss=0.0,
            predicted_global=np.zeros(0),
            target_global=np.zeros(0),
            cache={},
        )
    probs = softmax(fine_logits, axis=-1)
    rows, triplet_cache = triplet_semantics_rows(probs, subj_dists, obj_dists, store)
    encoded, enc_cache = encode_context(_with_global_token(rows), store)
    correction = linear_forward(
        encoded[..., :n, :], store["context.classifier.w"],
        store["context.classifier.b"],
    )
    predicted_global = encoded[..., n, :]

    if frozen_target is not None:
        target = np.asarray(frozen_target, dtype=np.float64)
    elif ground_truth is not None:
        target = target_global_token(*ground_truth, store)
    else:
        target = None

    if target is None:
        gap_loss, grad_global = 0.0, np.zeros_like(predicted_global)
        target_out = np.zeros_like(predicted_global)
    else:
        gap_loss, grad_global = semantic_gap_loss(predicted_global, target)
        target_out = target
    cache = {
        "n": n,
        "probs": probs,
        "triplet": triplet_cache,
        "encoded": encoded,
        "enc_cache": enc_cache,
        "grad_global": grad_global,
    }
    return ContextResult(correction, gap_loss, predicted_global, target_out, cache)


def context_backward(result, grad_correction, grad_gap, store):
    """Backward through the predicted path; returns gradient wrt fine logits.

    grad_correction is dL/d(correction rows); grad_gap is the scalar weight
    on the gap loss in the total objective.
    """
    cache = result.cache
    n = cache["n"]
    encoded = cache["encoded"]
    grad_encoded = np.zeros_like(encoded)
    gin, gw, gb = linear_backward(
        encoded[..., :n, :], store["context.classifier.w"], grad_correction
    )
    store.accumulate("context.classifier.w", gw)
    store.accumulate("context.classifier.b", gb)
    grad_encoded[..., :n, :] = gin
    grad_encoded[..., n, :] += grad_gap * cache["grad_global"]
    grad_stacked = encode_context_backward(cache["enc_cache"], grad_encoded, store)
    grad_rows = grad_stacked[..., :n, :] + grad_stacked[..., n:, :] / n
    grad_probs = triplet_semantics_rows_backward(cache["triplet"], grad_rows, store)
    return softmax_vjp(cache["probs"], grad_probs, axis=-1)
