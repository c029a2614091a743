"""Three-phase curriculum training loop and fine-branch evaluation.

Each iteration samples a mini-batch of images, runs the coarse branch under
plain cross-entropy and the fine branch under the curriculum objective plus
the context-gap and head-restricted distillation terms, combines them with
the scheduled branch weight, and takes one plain SGD step. Through
iteration k1 the branch weight is 1, so the curriculum term carries no
update and only the coarse branch (plus the gap/distillation terms) train;
the focus then shifts to the fine branch along the schedule. Inference uses
the fine branch only.

Everything is deterministic given the config seed: batch sampling draws
from a dedicated generator stream and gradients accumulate in a fixed
order.

A step splits its mini-batch into runs of consecutive images with the same
relation count (``model.image_runs``) and runs every layer once per run,
on (G, n, ·) stacks without padding. Each weight gradient is added to the
store image by image in batch order and each loss sum in batch order, so a
step gives the bits of a per-image loop, except along the set encoder's
projection backward (see ``semantic_context``). Evaluation stacks the same
way: each run of equal-size test images makes one fine-branch forward
(``model.fine_branch_rows``), with the bits of one forward per image.
"""

from dataclasses import dataclass, field, replace
from numbers import Integral

import numpy as np

from .datagen import group_split, head_set, open_atomic, open_text, relations_by_image
from .losses import (
    LossBreakdown,
    cross_entropy_rows,
    curriculum_cross_entropy_rows,
    effective_number_weights,
    head_distillation_rows,
    hybrid_loss,
    total_loss,
)
from .metrics import DEFAULT_KS, TripleTable, compute_report
from .model import (
    decode_rows,
    decode_rows_backward,
    extractor_backward,
    extractor_forward,
    fine_branch_rows,
    image_runs,
    label_dists,
    run_inputs,
)
from .numerics import ConfigurationError, softmax
from .schedules import ScheduleConfig, branch_weight, head_predicate_weight
from .semantic_context import context_backward, context_forward

LOG_FORMAT_VERSION = 1


def default_schedule(**overrides):
    """Desk-scale schedule: 4000 iterations with breakpoints at 1000/2000.

    The reference setting of 40k iterations with breakpoints at 10k/20k is
    scaled down by 10 with all ratios preserved; the floors (0.1, 0.2)
    and the linear shape are kept as-is. head_threshold=52 separates the 16
    designed head predicates of the default generator config. Those floors,
    shape and threshold are ``ScheduleConfig``'s own defaults.
    """
    return ScheduleConfig(
        **{"k1": 1000, "k2": 2000, "total_iterations": 4000, **overrides}
    )


@dataclass(frozen=True)
class TrainConfig:
    schedule: ScheduleConfig = field(default_factory=default_schedule)
    tau: float = 2.0
    mu: float = 0.05
    beta_en: float = 0.0
    learning_rate: float = 0.01
    batch_size: int = 12
    hidden_dim: int = 64
    context_dim: int = 32
    seed: int = 0
    disable_curriculum: bool = False
    disable_context: bool = False
    disable_distillation: bool = False
    coarse_only: bool = False
    distill_after_k1: bool = False
    log_every: int = 1
    eval_every: int = 0
    eval_ks: tuple = DEFAULT_KS

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not self.learning_rate > 0:
            raise ConfigurationError("learning_rate must be positive")
        if not self.tau > 0:
            raise ConfigurationError("tau must be positive")
        if not self.mu >= 0:
            raise ConfigurationError("mu must be nonnegative")
        for name in ("batch_size", "hidden_dim", "context_dim", "log_every"):
            if not getattr(self, name) >= 1:
                raise ConfigurationError(f"{name} must be positive")
        for name in ("eval_every", "seed"):
            if not getattr(self, name) >= 0:
                raise ConfigurationError(f"{name} must be nonnegative")
        ks = self.eval_ks
        if not (
            isinstance(ks, (tuple, list)) and ks
            and all(isinstance(k, Integral) and not isinstance(k, bool) and k >= 1
                    for k in ks)
            and len(set(ks)) == len(ks)
        ):
            raise ConfigurationError(
                f"eval_ks must be distinct integers of at least 1, got {ks!r}"
            )

    @property
    def total_iterations(self):
        return self.schedule.total_iterations


@dataclass(frozen=True)
class LogEntry:
    iteration: int
    breakdown: LossBreakdown
    lambda_head: float


@dataclass
class TrainLog:
    entries: list = field(default_factory=list)
    eval_snapshots: list = field(default_factory=list)


class TrainingDiverged(RuntimeError):
    def __init__(self, iteration, component):
        super().__init__(
            f"non-finite {component} at iteration {iteration}; training aborted"
        )
        self.iteration = iteration
        self.component = component


@dataclass
class _BatchContext:
    """Per-iteration constants shared by every image in the mini-batch."""

    alpha: float
    lambda_head: float
    class_weights: np.ndarray
    head_indices: np.ndarray
    head_mask: np.ndarray
    tau: float
    mu: float
    n_relations: int
    n_images: int
    disable_curriculum: bool = False
    disable_context: bool = False
    coarse_only: bool = False
    distillation_on: bool = True
    # test hooks: freeze the constant-treated quantities so finite
    # differences see exactly the function the analytic gradient implements
    frozen_teachers: list = None
    frozen_targets: list = None


def batch_forward_backward(model, batch, ctx):
    """Forward and backward over one mini-batch of images.

    Accumulates gradients of the total objective into the model's store and
    returns the raw sums (ce, curriculum, gap, distillation) before
    normalization. The distillation teacher (coarse logits) and the gap
    target are treated as constants. Each run of equal-size images goes
    through every layer as one (G, n, ·) stack.
    """
    store = model.store
    ce_sum = crm_sum = sc_sum = kd_sum = 0.0
    for start, stop in image_runs(batch):
        x, subjects, objects, labels = run_inputs(model, batch[start:stop])
        h, ecache = extractor_forward(model, x)

        coarse = decode_rows(model, "coarse", h, subjects, objects)
        ce_losses, grad_coarse = cross_entropy_rows(coarse, labels)
        for loss in ce_losses.sum(axis=-1).tolist():
            ce_sum += loss
        grad_coarse *= ctx.alpha / ctx.n_relations

        if ctx.coarse_only:
            grad_h = decode_rows_backward(model, "coarse", h, grad_coarse)
            extractor_backward(model, ecache, grad_h)
            continue

        fine = decode_rows(model, "fine", h, subjects, objects)
        result = None
        if ctx.disable_context:
            output = fine
        else:
            frozen = (
                np.stack(ctx.frozen_targets[start:stop]) if ctx.frozen_targets
                else None
            )
            result = context_forward(
                fine,
                *label_dists(model, x),
                store,
                ground_truth=(labels, subjects, objects),
                frozen_target=frozen,
            )
            output = fine + result.correction
            for gap in result.gap_loss.tolist():
                sc_sum += gap

        if ctx.disable_curriculum:
            crm_losses, grad_output = cross_entropy_rows(output, labels)
        else:
            lambda_rows = np.where(ctx.head_mask[labels], ctx.lambda_head, 1.0)
            crm_losses, grad_output = curriculum_cross_entropy_rows(
                output, labels, ctx.class_weights, lambda_rows
            )
        for loss in crm_losses.sum(axis=-1).tolist():
            crm_sum += loss
        grad_output *= (1.0 - ctx.alpha) / ctx.n_relations

        if ctx.distillation_on:
            teacher = (
                np.stack(ctx.frozen_teachers[start:stop]) if ctx.frozen_teachers
                else coarse
            )
            kd_losses, kd_grads = head_distillation_rows(
                teacher, output, ctx.tau, ctx.head_indices
            )
            for loss in kd_losses.sum(axis=-1).tolist():
                kd_sum += loss
            kd_grads *= ctx.mu / ctx.n_relations
            grad_output += kd_grads

        grad_fine = grad_output
        if result is not None:
            grad_fine = grad_output + context_backward(
                result, grad_output, 1.0 / ctx.n_images, store
            )
        grad_h = decode_rows_backward(model, "coarse", h, grad_coarse)
        grad_h += decode_rows_backward(model, "fine", h, grad_fine)
        extractor_backward(model, ecache, grad_h)
    return ce_sum, crm_sum, sc_sum, kd_sum


def _constant_context(cfg, vocab):
    """The fields of every iteration's _BatchContext that do not change."""
    heads = np.asarray(head_set(vocab, cfg.schedule.head_threshold), dtype=np.int64)
    head_mask = np.zeros(vocab.num_predicates + 1, dtype=bool)
    head_mask[heads] = True
    return _BatchContext(
        alpha=1.0,
        lambda_head=1.0,
        class_weights=effective_number_weights(vocab.train_counts, cfg.beta_en),
        head_indices=heads,
        head_mask=head_mask,
        tau=cfg.tau,
        mu=cfg.mu,
        n_relations=0,
        n_images=0,
        disable_curriculum=cfg.disable_curriculum,
        disable_context=cfg.disable_context,
        coarse_only=cfg.coarse_only,
    )


def _make_context(cfg, constants, k, batch):
    """Iteration k's _BatchContext: its schedule values and batch sizes."""
    sched = cfg.schedule
    return replace(
        constants,
        alpha=1.0 if cfg.coarse_only else branch_weight(k, sched),
        lambda_head=head_predicate_weight(k, True, sched),
        n_relations=sum(len(image) for image in batch),
        n_images=len(batch),
        distillation_on=not (
            cfg.disable_distillation
            or cfg.coarse_only
            or (cfg.distill_after_k1 and k <= sched.k1)
        ),
    )


def train(cfg, vocab, train_split, model, eval_instances=None):
    """Run the curriculum loop; mutates the model, returns the TrainLog.

    When eval_instances is given, an evaluation snapshot is appended every
    eval_every iterations (if nonzero) and at the end of training.
    """
    sched = cfg.schedule
    if not (cfg.disable_distillation or cfg.coarse_only):
        if len(head_set(vocab, sched.head_threshold)) < 2:
            raise ConfigurationError(
                "distillation needs at least two head predicates; raise or "
                "lower head_threshold, or disable distillation"
            )
    images = relations_by_image(train_split)
    if not images:
        raise ValueError("training split is empty")
    constants = _constant_context(cfg, vocab)
    batch_rng = np.random.default_rng([cfg.seed, 1])
    log = TrainLog()

    for k in range(1, sched.total_iterations + 1):
        chosen = batch_rng.choice(
            len(images), size=min(cfg.batch_size, len(images)), replace=False
        )
        batch = [images[i] for i in chosen]
        ctx = _make_context(cfg, constants, k, batch)
        model.store.zero_grads()
        ce_sum, crm_sum, sc_sum, kd_sum = batch_forward_backward(model, batch, ctx)
        l_ce = ce_sum / ctx.n_relations
        l_crm = crm_sum / ctx.n_relations
        l_sc = sc_sum / ctx.n_images
        l_kd = kd_sum / ctx.n_relations
        l_hybrid = hybrid_loss(ctx.alpha, l_ce, l_crm)
        l_total = total_loss(l_hybrid, l_sc, l_kd, cfg.mu)
        for name, value in (
            ("l_ce", l_ce), ("l_crm", l_crm), ("l_sc", l_sc),
            ("l_kd", l_kd), ("l_total", l_total),
        ):
            if not np.isfinite(value):
                raise TrainingDiverged(k, name)
        model.store.sgd_step(cfg.learning_rate)
        if k % cfg.log_every == 0 or k == sched.total_iterations:
            log.entries.append(
                LogEntry(
                    k,
                    LossBreakdown(
                        l_ce, l_crm, l_hybrid, l_sc, l_kd, l_total, ctx.alpha
                    ),
                    ctx.lambda_head,
                )
            )
        if (
            eval_instances is not None
            and cfg.eval_every
            and k % cfg.eval_every == 0
            and k < sched.total_iterations
        ):
            log.eval_snapshots.append(
                (k, evaluate(model, eval_instances, vocab, cfg.eval_ks))
            )
    if eval_instances is not None:
        log.eval_snapshots.append(
            (
                sched.total_iterations,
                evaluate(model, eval_instances, vocab, cfg.eval_ks),
            )
        )
    return log


def predictions_for_images(model, images):
    """Fine-branch score of every predicate for every relation.

    Returns a TripleTable with one row per (relation, predicate), relations
    in image order and predicates 1..num_predicates within each relation.
    """
    scores = []
    for start, stop in image_runs(images):
        x, subjects, objects, _ = run_inputs(model, images[start:stop])
        logits = fine_branch_rows(model, x, subjects, objects).output_logits
        scores.append(softmax(logits, axis=-1)[..., 1:].ravel())
    n_pred = model.num_predicates
    ids = np.concatenate([image.ids[:, :3] for image in images])
    return TripleTable(
        *(np.repeat(column, n_pred) for column in ids.T),
        predicate=np.tile(np.arange(1, n_pred + 1), len(ids)),
        score=np.concatenate(scores),
    )


def evaluate(model, test_split, vocab, ks=DEFAULT_KS):
    """Fine-branch evaluation report over the test split."""
    if not len(test_split):
        raise ValueError("evaluation needs a nonempty test split")
    images = relations_by_image(test_split)
    preds = predictions_for_images(model, images)
    gts = TripleTable(*test_split.ids[test_split.ids[:, 3] != 0].T)
    groups = group_split(vocab)
    return compute_report(preds, gts, vocab.num_predicates, groups, ks)


# ---------------------------------------------------------------------------
# training-log file format
# ---------------------------------------------------------------------------


def _f(value):
    return repr(float(value))


def write_log(path, log, vocab):
    with open_atomic(path) as fh:
        fh.write(f"# training-log {LOG_FORMAT_VERSION}\n")
        for entry in log.entries:
            b = entry.breakdown
            fh.write(
                f"iter {entry.iteration} alpha={_f(b.alpha_used)} "
                f"lambda_head={_f(entry.lambda_head)} l_ce={_f(b.l_ce)} "
                f"l_crm={_f(b.l_crm)} l_hybrid={_f(b.l_hybrid)} "
                f"l_sc={_f(b.l_sc)} l_kd={_f(b.l_kd)} l_total={_f(b.l_total)}\n"
            )
        for iteration, report in log.eval_snapshots:
            for k in report.ks:
                many, medium, few = (
                    "absent" if g is None else _f(g)
                    for g in report.group_recalls[k]
                )
                fh.write(
                    f"eval {iteration} {k} r={_f(report.r_at_k[k])} "
                    f"mr={_f(report.mr_at_k[k])} m={_f(report.m_at_k[k])} "
                    f"many={many} medium={medium} few={few}\n"
                )
                per_class = report.per_predicate[k]
                for i in range(1, per_class.shape[0]):
                    recall = (
                        "absent" if np.isnan(per_class[i]) else _f(per_class[i])
                    )
                    fh.write(
                        f"evalpred {iteration} {k} {i} {vocab.names[i]} "
                        f"{int(vocab.train_counts[i])} {recall}\n"
                    )


# record -> (positional fields, key=value fields), as write_log writes them
_LOG_RECORDS = {
    "iter": (("iteration",), ("alpha", "lambda_head", "l_ce", "l_crm", "l_hybrid",
                              "l_sc", "l_kd", "l_total")),
    "eval": (("iteration", "K"), ("r", "mr", "m", "many", "medium", "few")),
    "evalpred": (("iteration", "K", "index", "name", "train_count", "recall"), ()),
}


def _log_value(record, field, text):
    if field == "name":
        return text
    if field in ("iteration", "K", "index", "train_count"):
        return int(text)
    if text == "absent" and record != "iter":
        return None
    return float(text)


def parse_log(path):
    """Parse a training log into (iteration rows, eval rows, per-pred rows).

    A line must hold exactly the fields ``write_log`` writes for its record,
    and each evaluation's per-predicate rows must cover every K; otherwise
    one ValueError names the file, the line or iteration, and the field.
    """
    rows = {record: [] for record in _LOG_RECORDS}
    with open_text(path) as fh:
        header = fh.readline().split()
        if header[:2] != ["#", "training-log"]:
            raise ValueError(f"{path} is not a training log")
        for number, line in enumerate(fh, start=2):
            tok = line.split()
            if not tok:
                continue
            where = f"{path}, line {number}"
            if tok[0] not in _LOG_RECORDS:
                raise ValueError(f"{where}: unknown log record {tok[0]!r}")
            positional, keys = _LOG_RECORDS[tok[0]]
            fields = list(zip(positional, tok[1:]))
            for pair in tok[1 + len(positional):]:
                key, sep, text = pair.partition("=")
                if not sep or key not in keys:
                    raise ValueError(f"{where}: unexpected field {pair!r}")
                fields.append((key, text))
            row = {}
            for field, text in fields:
                try:
                    row[field] = _log_value(tok[0], field, text)
                except ValueError:
                    raise ValueError(
                        f"{where}: field {field} has bad value {text!r}"
                    ) from None
            missing = [field for field in positional + keys if field not in row]
            if missing:
                raise ValueError(f"{where}: field {missing[0]} is missing")
            rows[tok[0]].append(row)
    ks = {}
    for row in rows["evalpred"]:
        ks.setdefault(row["iteration"], set()).add(row["K"])
    seen = {(row["iteration"], row["index"], row["K"]) for row in rows["evalpred"]}
    for iteration, index, _ in sorted(seen):
        for k in sorted(ks[iteration]):
            if (iteration, index, k) not in seen:
                raise ValueError(
                    f"{path}: the evalpred rows of iteration {iteration} have no "
                    f"K={k} row for predicate index {index}"
                )
    return rows["iter"], rows["eval"], rows["evalpred"]
