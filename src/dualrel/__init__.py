"""Curriculum training for long-tailed relation prediction.

A desk-scale, fully testable training and evaluation engine: a dual-branch
model over synthetic long-tailed relation data, curriculum re-weighting of
the fine branch, head-restricted distillation from the coarse branch, and a
permutation-invariant set encoder that corrects out-of-context predictions
and scores graph-level semantic consistency.
"""

from .datagen import (
    GeneratorConfig,
    PredicateVocabulary,
    PriorBias,
    RelationInstance,
    RelationTable,
    build_prior_bias,
    generate_dataset,
    group_split,
    head_set,
    load_dataset,
    relations_by_image,
    save_dataset,
)
from .losses import (
    LossBreakdown,
    cross_entropy_rows,
    curriculum_cross_entropy_rows,
    effective_number_weights,
    head_distillation_rows,
    hybrid_loss,
    total_loss,
)
from .metrics import (
    EvalReport,
    TripleTable,
    compute_report,
    format_report,
    group_mean_recall,
    mean_at_k,
    mean_recall_at_k,
    recall_at_k,
)
from .model import (
    DualBranchModel,
    decode_rows,
    extractor_forward,
    fine_branch_forward,
    instance_matrix,
    load_checkpoint,
    parse_checkpoint,
    save_checkpoint,
)
from .numerics import ConfigurationError, ParamStore, grad_check, softmax
from .schedules import (
    ScheduleConfig,
    branch_weight,
    head_predicate_weight,
    schedule_value,
)
from .semantic_context import (
    context_forward,
    encode_context,
    global_token,
    semantic_gap_loss,
    triplet_semantics_rows,
)
from .training import (
    TrainConfig,
    TrainingDiverged,
    TrainLog,
    default_schedule,
    evaluate,
    train,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
