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
global tokens is the semantic-gap loss. The ground-truth token
(``target_global_token``) runs through the same parameters, but the caller
forms it and passes it to ``context_forward`` as a constant target: no
gradient flows through it. Its triplet rows are T_s[s] + T_p[p] + T_o[o], the
class-table rows of the ground-truth classes added in the same order, so
an exact one-hot prediction gives the target's bits.

Every function takes one image, with rows of shape (n, ·), or a stack of G
images with the same relation count, (G, n, ·). A stack runs each row
product as a stacked ``np.matmul``, so every image gets exactly the bits
its own call would give, its gradient wrt the fine logits included, except
in the parameter gradients. Each weight and bias gradient is one product
(or one sum) over all G * n rows of the stack, added to the store at once:
the attention, feed-forward and correction-head layers' x.T @ grad_y over
the rows (``_linear_backward_rows``), and block b of the projection's
E_b.T @ (dist_b.T @ grad_rows). They match the sum of the G single-image
gradients up to the last bits.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import (
    glorot_uniform,
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
    "embedding" a table of unit-norm standard-normal rows (frozen, see
    ``model.parameter_layout``). The store's layout must hold every name.
    """
    for name, shape, init in specs:
        if init == "glorot":
            store.add(name, glorot_uniform(rng, *shape))
        elif init == "zeros":
            store.add(name, np.zeros(shape))
        else:
            table = rng.standard_normal(shape)
            table /= np.linalg.norm(table, axis=1, keepdims=True)
            store.add(name, table)


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
    return np.add.reduce(rows, axis=-2) / rows.shape[-2]


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
    scores = (q @ k.swapaxes(-1, -2)) * scale
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


def _linear_backward_rows(store, weight, bias, x, grad_y):
    """Backward through x @ store[weight] (+ store[bias]): accumulates the
    weight gradient and, unless bias is None, the bias gradient, and returns
    the gradient wrt x, shaped like grad_y.

    Each parameter gradient is one product (one sum) over every row of x,
    all G * n rows of a (G, n, ·) stack, added with one ``accumulate``.
    """
    rows = grad_y.reshape(-1, grad_y.shape[-1])
    store.accumulate(weight, x.reshape(-1, x.shape[-1]).T @ rows)
    if bias is not None:
        store.accumulate(bias, np.add.reduce(rows, axis=0))
    return grad_y @ store[weight].T


def encode_context_backward(cache, grad_y, store):
    """Backward through the attention block; accumulates parameter grads."""
    grad_hidden = _linear_backward_rows(
        store, "context.ffn.w2", "context.ffn.b2", cache["hidden"], grad_y
    )
    grad_pre = relu_backward(cache["pre"], grad_hidden)
    grad_x1 = grad_y + _linear_backward_rows(
        store, "context.ffn.w1", "context.ffn.b1", cache["x1"], grad_pre
    )
    grad_heads = _linear_backward_rows(
        store, "context.attn.wo", "context.attn.bo", cache["heads"], grad_x1
    )
    grad_attn = grad_heads @ cache["v"].swapaxes(-1, -2)
    grad_v = cache["attn"].swapaxes(-1, -2) @ grad_heads
    grad_scores = softmax_vjp(cache["attn"], grad_attn, axis=-1) * cache["scale"]
    grad_q = grad_scores @ cache["k"]
    grad_k = grad_scores.swapaxes(-1, -2) @ cache["q"]
    x = cache["x"]
    grad_x = grad_x1 + _linear_backward_rows(
        store, "context.attn.wq", "context.attn.bq", x, grad_q
    )
    grad_x += _linear_backward_rows(store, "context.attn.wk", None, x, grad_k)
    grad_x += _linear_backward_rows(
        store, "context.attn.wv", "context.attn.bv", x, grad_v
    )
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
    losses = np.add.reduce(diff * diff, axis=-1) / d
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


def context_forward(fine_logits, subj_dists, obj_dists, store, target=None):
    """Predicted-path forward: corrections for every relation plus gap loss.

    fine_logits is one image's (n, C) matrix, n >= 1, or a (G, n, C) stack,
    with the label distributions shaped to match. target is the constant
    the predicted global token is compared with: the (d,) token of
    ``target_global_token``, or a (G, d) stack of them. Without a target
    (inference) the gap loss is 0.
    """
    n = fine_logits.shape[-2]
    probs = softmax(fine_logits, axis=-1)
    rows, triplet_cache = triplet_semantics_rows(probs, subj_dists, obj_dists, store)
    encoded, enc_cache = encode_context(_with_global_token(rows), store)
    correction = linear_forward(
        encoded[..., :n, :], store["context.classifier.w"],
        store["context.classifier.b"],
    )
    predicted_global = encoded[..., n, :]
    if target is None:
        gap_loss, grad_global = 0.0, np.zeros(predicted_global.shape)
    else:
        gap_loss, grad_global = semantic_gap_loss(predicted_global, target)
    cache = {
        "n": n,
        "probs": probs,
        "triplet": triplet_cache,
        "encoded": encoded,
        "enc_cache": enc_cache,
        "grad_global": grad_global,
    }
    return ContextResult(correction, gap_loss, predicted_global, cache)


def context_backward(result, grad_correction, grad_gap, store):
    """Backward through the predicted path; returns gradient wrt fine logits.

    grad_correction is dL/d(correction rows); grad_gap is the scalar weight
    on the gap loss in the total objective.
    """
    cache = result.cache
    n = cache["n"]
    grad_relations = _linear_backward_rows(
        store, "context.classifier.w", "context.classifier.b",
        cache["encoded"][..., :n, :], grad_correction,
    )
    grad_global = grad_gap * cache["grad_global"]
    grad_encoded = np.concatenate([grad_relations, grad_global[..., None, :]], axis=-2)
    grad_stacked = encode_context_backward(cache["enc_cache"], grad_encoded, store)
    grad_rows = grad_stacked[..., :n, :] + grad_stacked[..., n:, :] / n
    grad_probs = triplet_semantics_rows_backward(cache["triplet"], grad_rows, store)
    return softmax_vjp(cache["probs"], grad_probs, axis=-1)
