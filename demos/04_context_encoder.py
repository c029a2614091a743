"""The set encoder over relation-triplet semantics, demonstrated.

An image's relations are mapped to triplet vectors, contextualized with a
global token through one attention block, and turned into additive logit
corrections plus a graph-level semantic gap. The encoder has no positional
encoding, so shuffling the relations permutes the corrections and leaves
the gap loss unchanged.
"""

import numpy as np

from dualrel.model import parameter_layout
from dualrel.numerics import ParamStore
from dualrel.semantic_context import (
    add_params,
    context_forward,
    context_param_specs,
    embedding_specs,
    global_token,
    target_global_token,
    triplet_semantics_rows,
)

N_PRED, N_OBJ, DIM = 8, 6, 32
rng = np.random.default_rng(7)
specs = context_param_specs(N_PRED, DIM) + embedding_specs(N_PRED, N_OBJ)
store = ParamStore(parameter_layout(specs))
add_params(store, specs, rng)
# the correction head starts at zero; give it random weights so the
# corrections are visible in this demo
store["context.classifier.w"][:] = rng.normal(size=(DIM, N_PRED + 1)) * 0.3

n = 5
fine_logits = rng.normal(size=(n, N_PRED + 1)) * 2.0
subj = rng.random((n, N_OBJ + 1)) + 0.05
subj /= subj.sum(axis=1, keepdims=True)
obj = rng.random((n, N_OBJ + 1)) + 0.05
obj /= obj.sum(axis=1, keepdims=True)
gt = (
    rng.integers(1, N_PRED + 1, size=n),
    rng.integers(1, N_OBJ + 1, size=n),
    rng.integers(1, N_OBJ + 1, size=n),
)

result = context_forward(fine_logits, subj, obj, store,
                         target=target_global_token(*gt, store))
print(f"{n} relations -> corrections of shape {result.correction.shape}, "
      f"semantic gap {result.gap_loss:.4f}")

perm = rng.permutation(n)
shuffled = context_forward(
    fine_logits[perm], subj[perm], obj[perm], store,
    target=target_global_token(gt[0][perm], gt[1][perm], gt[2][perm], store),
)
row_drift = np.abs(shuffled.correction - result.correction[perm]).max()
print(f"shuffling the relations: corrections permute identically "
      f"(max drift {row_drift:.2e}), gap changes by "
      f"{abs(shuffled.gap_loss - result.gap_loss):.2e}")

from dualrel.numerics import softmax  # noqa: E402

probs = softmax(fine_logits, axis=1)
rows, _ = triplet_semantics_rows(probs, subj, obj, store)
print(f"\ntriplet rows live in {rows.shape[1]} dimensions; the global token "
      f"is their mean (norm {np.linalg.norm(global_token(rows)):.3f})")

confident = fine_logits.copy()
confident[0] = -500.0
confident[0, gt[0][0]] = 500.0
subj_oh = np.zeros_like(subj)
subj_oh[np.arange(n), gt[1]] = 1.0
obj_oh = np.zeros_like(obj)
obj_oh[np.arange(n), gt[2]] = 1.0
for i in range(1, n):
    confident[i] = -500.0
    confident[i, gt[0][i]] = 500.0
exact = context_forward(confident, subj_oh, obj_oh, store,
                        target=target_global_token(*gt, store))
print(f"\nwhen the predictions match the ground truth exactly, the "
      f"semantic gap closes: {exact.gap_loss:.1f}")
