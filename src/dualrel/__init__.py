"""Curriculum training for long-tailed relation prediction.

A desk-scale, fully testable training and evaluation engine: a dual-branch
model over synthetic long-tailed relation data, curriculum re-weighting of
the fine branch, head-restricted distillation from the coarse branch, and a
permutation-invariant set encoder that corrects out-of-context predictions
and scores graph-level semantic consistency.
"""

from .datagen import (
    GeneratorConfig,
    build_prior_bias,
    generate_dataset,
    group_split,
    head_set,
    relations_by_image,
)
from .losses import (
    cross_entropy_rows,
    curriculum_cross_entropy_rows,
    effective_number_weights,
    head_distillation_rows,
    hybrid_loss,
    total_loss,
)
from .model import DualBranchModel
from .numerics import ParamStore, grad_check, softmax
from .schedules import (
    ScheduleConfig,
    branch_weight,
    head_predicate_weight,
    schedule_value,
)
from .training import TrainConfig, evaluate, train

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
