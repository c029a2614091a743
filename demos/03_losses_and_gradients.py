"""Walk through the training objectives and verify a gradient by hand.

Covers effective-number class weights on a long-tailed count vector, the
curriculum-weighted cross-entropy, head-restricted distillation (including
its two limiting behaviors), and a finite-difference check of the
cross-entropy gradient using the package's own checker. Every loss is a
rows op over a (n, C) logit matrix; one relation is a (1, C) row.
"""

import numpy as np

from dualrel import (
    ParamStore,
    cross_entropy_rows,
    curriculum_cross_entropy_rows,
    effective_number_weights,
    grad_check,
    head_distillation_rows,
    hybrid_loss,
    softmax,
    total_loss,
)

counts = np.array([0, 2000, 400, 80, 16, 8])
print("effective-number weights (background fixed at 1):")
for beta in (0.9, 0.99, 0.999):
    w = effective_number_weights(counts, beta)
    print(f"  beta_en={beta}: " + " ".join(f"{v:.2f}" for v in w))

rng = np.random.default_rng(0)
logits = rng.normal(size=(1, 6))
(plain,), _ = cross_entropy_rows(logits, [4])
weights = effective_number_weights(counts, 0.99)
(weighted,), _ = curriculum_cross_entropy_rows(logits, [4], weights, [0.5])
print(f"\nplain CE on a rare class: {plain:.3f}; with class weight "
      f"{weights[4]:.2f} and head weight 0.5: {weighted:.3f}")

heads = np.array([1, 2])
teacher = np.array([[3.0, 2.0, 0.5, -1.0, -1.0, -1.0]])
student = np.array([[0.0, 1.5, 0.3, 2.0, -0.5, -0.5]])
(loss,), (grad,) = head_distillation_rows(teacher, student, 2.0, heads)
print(f"\ndistillation over the head entries only: loss {loss:.4f}")
print("  gradient is confined to head entries:",
      " ".join(f"{g:+.3f}" for g in grad))
(match,), grad0 = head_distillation_rows(teacher, teacher.copy(), 2.0, heads)
p = softmax(teacher[0, heads] / 2.0)
print(f"  student == teacher: loss {match:.4f} equals the teacher entropy "
      f"{float(-(p * np.log(p)).sum()):.4f}, gradient max |g| = "
      f"{np.abs(grad0).max():.2e}")
(huge,), _ = head_distillation_rows(teacher, student, 1000.0, heads)
print(f"  huge temperature: loss {huge:.4f} -> log|H| = {np.log(2):.4f}")

print(f"\nhybrid at the late-phase floor 0.1: "
      f"{hybrid_loss(0.1, 2.0, 4.0):.2f} (coarse 2.0, fine 4.0)")
print(f"total with gap 0.5 and distillation 2.0 at mu=0.05: "
      f"{total_loss(hybrid_loss(0.1, 2.0, 4.0), 0.5, 2.0, 0.05):.2f}")

store = ParamStore([("z", (1, 7), True)])
store.add("z", rng.normal(size=(1, 7)))


def ce_loss(s):
    values, grads = cross_entropy_rows(s["z"], [3])
    s.accumulate("z", grads)
    return values[0]


err = grad_check(ce_loss, store)
print(f"\ncross-entropy gradient vs central differences: "
      f"max relative error {err:.2e}")
