"""Training objectives.

Each loss is one ``*_rows`` op with a hand-derived gradient over an (n, C)
logit matrix or a (G, n, C) stack of them, returning (per-row losses,
gradients like the logits); a stack gives each image's rows the bits of its
own matrix, and one relation is a (1, C) row. The distillation loss is
restricted to head predicates: both distributions are renormalized
softmaxes over the head indices only, which keeps the Gibbs bound
(loss >= teacher entropy) exact and testable.
"""

from dataclasses import dataclass, fields

import numpy as np

from .numerics import ConfigurationError, as_array, log_softmax, softmax


def cross_entropy_rows(logits, labels):
    """Softmax cross-entropy of each row: returns (per-row losses, grads like
    logits).

    labels has the logits' leading shape. The gradient is softmax(z) minus
    the one-hot target, formed as exp(log-softmax) in place with 1
    subtracted at each row's label.
    """
    z = as_array(logits)
    labels = np.asarray(labels, dtype=np.int64)
    num_classes = z.shape[-1]
    if labels.shape != z.shape[:-1]:
        raise ValueError(
            f"labels of shape {labels.shape} do not fit logits of shape {z.shape}"
        )
    if labels.size and (np.minimum.reduce(labels, axis=None) < 0
                        or np.maximum.reduce(labels, axis=None) >= num_classes):
        raise ValueError("label out of range")
    flat = log_softmax(z, axis=-1).reshape(-1)
    # each row's label entry in the flat (rows * C) order
    at_label = np.arange(0, labels.size * num_classes, num_classes)
    at_label += labels.ravel()
    losses = -flat[at_label].reshape(labels.shape)
    np.exp(flat, out=flat)
    flat[at_label] -= 1.0
    return losses, flat.reshape(z.shape)


def effective_number_weights(train_counts, beta_en):
    """Class-balanced weights from effective sample numbers.

    w_i is proportional to (1 - beta_en) / (1 - beta_en**n_i), rescaled so
    the mean over non-background classes is 1. Index 0 is the background
    class and keeps weight 1 regardless of its count.
    """
    counts = np.asarray(train_counts)
    if counts.ndim != 1 or counts.shape[0] < 2:
        raise ValueError("need a count vector with at least one real class")
    if not 0.0 <= beta_en < 1.0:
        raise ConfigurationError("beta_en must lie in [0, 1)")
    real = counts[1:].astype(np.float64)
    if beta_en > 0.0 and np.any(real <= 0):
        raise ConfigurationError(
            "every non-background class needs at least one sample when beta_en > 0"
        )
    if beta_en == 0.0:
        raw = np.ones_like(real)
    else:
        raw = (1.0 - beta_en) / (1.0 - beta_en**real)
    weights = np.empty(counts.shape[0], dtype=np.float64)
    weights[0] = 1.0
    weights[1:] = raw / raw.mean()
    return weights


def curriculum_cross_entropy_rows(logits, labels, class_weights, lambda_rows):
    """Re-weighted cross-entropy of each row: lambda_y * w_label * CE, with
    lambda_rows one lambda_y per row.

    For a one-hot target the re-weighted sum collapses to the ground-truth
    term, so the gradient is the CE gradient scaled by the same factor.
    """
    losses, grads = cross_entropy_rows(logits, labels)
    scale = np.asarray(lambda_rows, dtype=np.float64) * class_weights[np.asarray(labels)]
    losses *= scale
    grads *= scale[..., None]
    return losses, grads


def head_distillation_rows(teacher_logits, student_logits, tau, head_indices):
    """Distillation restricted to head predicates, for each row: returns
    (per-row losses, grads like the student logits).

    Teacher and student logits are sliced to the head indices, softened by
    temperature tau and renormalized; the loss is the cross-entropy
    -sum p_i log q_i over the heads. The teacher is a constant: gradients
    flow only to the student's head-logit entries.
    """
    head_indices = np.asarray(head_indices, dtype=np.int64)
    if head_indices.shape[0] < 2:
        raise ConfigurationError(
            "distillation needs at least two head predicates "
            f"(got {head_indices.shape[0]})"
        )
    if tau <= 0:
        raise ValueError("temperature must be positive")
    student = as_array(student_logits)
    zt = as_array(teacher_logits)[..., head_indices] / tau
    zs = student[..., head_indices] / tau
    p = softmax(zt, axis=-1)
    logq = log_softmax(zs, axis=-1)
    losses = -np.add.reduce(p * logq, axis=-1)
    grads = np.zeros(student.shape)
    grads[..., head_indices] = (np.exp(logq) - p) / tau
    return losses, grads


def hybrid_loss(alpha, l_ce, l_crm):
    """Branch combination: alpha * coarse CE + (1 - alpha) * curriculum loss."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    return alpha * l_ce + (1.0 - alpha) * l_crm


def total_loss(l_hybrid, l_sc, l_kd, mu):
    """Full objective: hybrid + semantic-gap + mu * distillation."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    return l_hybrid + l_sc + mu * l_kd


@dataclass(frozen=True)
class LossBreakdown:
    """Per-iteration loss components; l_total = l_hybrid + l_sc + mu*l_kd."""

    l_ce: float
    l_crm: float
    l_hybrid: float
    l_sc: float
    l_kd: float
    l_total: float


# the loss components l_ce ... l_total, in field order
LOSS_NAMES = tuple(f.name for f in fields(LossBreakdown))
