"""Three-phase curriculum training loop and fine-branch evaluation.

Each iteration samples a mini-batch of images, runs the coarse branch under
plain cross-entropy and the fine branch under the curriculum objective plus
the context-gap and head-restricted distillation terms, combines them with
the scheduled branch weight, and takes one plain SGD step. Through
iteration k1 the branch weight is 1, so the curriculum term carries no
update and only the coarse branch (plus the gap/distillation terms) train;
the focus then shifts to the fine branch along the schedule, the one
source of the branch weight (``beta1=1.0`` pins it at 1: with the three
``disable_*`` flags, the coarse-branch baseline). Inference uses the fine
branch only.

Everything is deterministic given the config seed: batch sampling draws
from a dedicated generator stream and gradients accumulate in a fixed
order.

A step splits its mini-batch into runs of consecutive images with the same
relation count (``model.image_runs``) and runs every layer once per run,
on (G, n, ·) stacks without padding. Each loss sum is added in batch
order, and every extractor and decoder weight gradient image by image in
batch order, so a step gives the bits of a per-image loop, except in the
set encoder's weight and bias gradients: each is one product over a run's
rows (see ``semantic_context``). With context on, each run's
gap target is the ground truth's global token from
``semantic_context.target_global_token``, passed to ``context_forward`` as
a constant. Evaluation stacks the same way: each run of equal-size test
images makes one fine-branch forward (``model.fine_branch_rows``, which
returns the output logits), with the bits of one forward per image.
The snapshots taken during training are at ``metrics.DEFAULT_KS``.

``_LOG_RECORDS`` is the one statement of the train.log format: each
record's fields in file order, with each field's kind (one of
``datagen.FIELD_KINDS``: the type its text is read as and its range). A
``LogEntry`` is exactly an ``iter`` record, its fields in file order; the
record's loss keys are ``losses.LOSS_NAMES``, ``LossBreakdown``'s fields,
which the training loop's non-finite check walks too. The log states each
predicate once: a ``predicate`` row (index, name, train count) for each of
1..P follows the header, P is the count of those rows, and an ``evalpred``
row carries only the predicate index beside its recall. ``write_log``
writes every record through one formatter that reads the table,
``parse_log`` reads and range-checks each value with
``datagen.read_field``, and ``dualrel report`` takes its schedule trace
and evaluation-snapshot table from it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .datagen import (
    FIELD_KINDS,
    group_split,
    head_set,
    open_atomic,
    open_text,
    read_field,
    relations_by_image,
)
from .losses import (
    LOSS_NAMES,
    LossBreakdown,
    cross_entropy_rows,
    curriculum_cross_entropy_rows,
    effective_number_weights,
    head_distillation_rows,
    hybrid_loss,
    total_loss,
)
from .metrics import DEFAULT_KS, GROUP_NAMES, TripleTable, compute_report
from .model import (
    check_fit,
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
from .semantic_context import context_backward, context_forward, target_global_token

LOG_FORMAT_VERSION = 2


@dataclass(frozen=True)
class TrainConfig:
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
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
    log_every: int = 1
    eval_every: int = 0

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not self.learning_rate > 0:
            raise ConfigurationError("learning_rate must be positive")
        if not self.tau > 0:
            raise ConfigurationError("tau must be positive")
        if not self.mu >= 0:
            raise ConfigurationError("mu must be nonnegative")
        if not 0.0 <= self.beta_en < 1.0:
            raise ConfigurationError("beta_en must lie in [0, 1)")
        for name in ("batch_size", "hidden_dim", "context_dim", "log_every"):
            if not getattr(self, name) >= 1:
                raise ConfigurationError(f"{name} must be positive")
        for name in ("eval_every", "seed"):
            if not getattr(self, name) >= 0:
                raise ConfigurationError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class LogEntry:
    """One ``iter`` record of train.log: its fields in file order, the loss
    fields in the breakdown."""

    iteration: int
    alpha: float
    lambda_head: float
    breakdown: LossBreakdown


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
    disable_distillation: bool = False
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
        for loss in np.add.reduce(ce_losses, axis=-1).tolist():
            ce_sum += loss
        grad_coarse *= ctx.alpha / ctx.n_relations

        fine = decode_rows(model, "fine", h, subjects, objects)
        result = None
        if ctx.disable_context:
            output = fine
        else:
            target = (
                np.concatenate(ctx.frozen_targets[start:stop]).reshape(stop - start, -1)
                if ctx.frozen_targets
                else target_global_token(labels, subjects, objects, store)
            )
            result = context_forward(fine, *label_dists(model, x), store, target)
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
        for loss in np.add.reduce(crm_losses, axis=-1).tolist():
            crm_sum += loss
        grad_output *= (1.0 - ctx.alpha) / ctx.n_relations

        if not ctx.disable_distillation:
            teacher = (
                np.concatenate(ctx.frozen_teachers[start:stop]).reshape(coarse.shape)
                if ctx.frozen_teachers
                else coarse
            )
            kd_losses, kd_grads = head_distillation_rows(
                teacher, output, ctx.tau, ctx.head_indices
            )
            for loss in np.add.reduce(kd_losses, axis=-1).tolist():
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


# every step checks its losses for finiteness (TrainingDiverged), so numpy's
# overflow and invalid-value warnings on the way there would only repeat it
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(cfg, vocab, train_split, model, eval_instances=None):
    """Run the curriculum loop; mutates the model, returns the TrainLog.

    Iteration k's ``_BatchContext`` holds the schedule's branch weight and
    head weight at k and the batch's sizes. A LogEntry is appended at the
    last iteration and at every multiple of log_every; when eval_instances
    is given, an evaluation snapshot at ``metrics.DEFAULT_KS`` is appended
    at the last iteration and at every multiple of eval_every (if nonzero).
    Both splits must fit the model (``model.check_fit``).
    """
    sched = cfg.schedule
    for split in (train_split, eval_instances):
        if split is not None:
            check_fit(model, vocab, split)
    heads = np.asarray(head_set(vocab, sched.head_threshold), dtype=np.int64)
    if not cfg.disable_distillation and len(heads) < 2:
        raise ConfigurationError(
            f"head_threshold={sched.head_threshold} leaves {len(heads)} head "
            "predicates, and distillation needs at least two head predicates; "
            "lower head_threshold or set disable_distillation"
        )
    head_mask = np.zeros(vocab.num_predicates + 1, dtype=bool)
    head_mask[heads] = True
    class_weights = effective_number_weights(vocab.train_counts, cfg.beta_en)
    images = relations_by_image(train_split)
    if not images:
        raise ValueError("training split is empty")
    batch_rng = np.random.default_rng([cfg.seed, 1])
    log = TrainLog()

    for k in range(1, sched.total_iterations + 1):
        chosen = batch_rng.choice(
            len(images), size=min(cfg.batch_size, len(images)), replace=False
        )
        batch = [images[i] for i in chosen]
        ctx = _BatchContext(
            alpha=branch_weight(k, sched),
            lambda_head=head_predicate_weight(k, True, sched),
            class_weights=class_weights,
            head_indices=heads,
            head_mask=head_mask,
            tau=cfg.tau,
            mu=cfg.mu,
            n_relations=sum(len(image) for image in batch),
            n_images=len(batch),
            disable_curriculum=cfg.disable_curriculum,
            disable_context=cfg.disable_context,
            disable_distillation=cfg.disable_distillation,
        )
        model.store.zero_grads()
        ce_sum, crm_sum, sc_sum, kd_sum = batch_forward_backward(model, batch, ctx)
        l_ce = ce_sum / ctx.n_relations
        l_crm = crm_sum / ctx.n_relations
        l_sc = sc_sum / ctx.n_images
        l_kd = kd_sum / ctx.n_relations
        l_hybrid = hybrid_loss(ctx.alpha, l_ce, l_crm)
        l_total = total_loss(l_hybrid, l_sc, l_kd, cfg.mu)
        breakdown = LossBreakdown(l_ce, l_crm, l_hybrid, l_sc, l_kd, l_total)
        for name in LOSS_NAMES:
            if not math.isfinite(getattr(breakdown, name)):
                raise TrainingDiverged(k, name)
        model.store.sgd_step(cfg.learning_rate)
        last = k == sched.total_iterations
        if last or k % cfg.log_every == 0:
            log.entries.append(LogEntry(k, ctx.alpha, ctx.lambda_head, breakdown))
        if eval_instances is not None and (
            last or cfg.eval_every and k % cfg.eval_every == 0
        ):
            log.eval_snapshots.append((k, evaluate(model, eval_instances, vocab)))
    return log


def predictions_for_images(model, images):
    """Fine-branch score of every predicate for every relation.

    Returns a TripleTable with one row per (relation, predicate), relations
    in image order and predicates 1..num_predicates within each relation.
    """
    scores = []
    for start, stop in image_runs(images):
        x, subjects, objects, _ = run_inputs(model, images[start:stop])
        logits = fine_branch_rows(model, x, subjects, objects)
        scores.append(softmax(logits, axis=-1)[..., 1:].ravel())
    n_pred = model.num_predicates
    ids = np.concatenate([image.ids[:, :3] for image in images])
    return TripleTable(
        *(np.repeat(column, n_pred) for column in ids.T),
        predicate=np.tile(np.arange(1, n_pred + 1), len(ids)),
        score=np.concatenate(scores),
    )


def evaluate(model, test_split, vocab, ks=DEFAULT_KS):
    """Fine-branch evaluation report over a test split that fits the model."""
    check_fit(model, vocab, test_split)
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


# record -> (positional fields, key=value fields), each a {field: kind} dict
# in file order: the one statement of the train.log format
_LOG_RECORDS = {
    "predicate": ({"index": "index", "name": "name", "train_count": "count"}, {}),
    "iter": ({"iteration": "index"},
             {"alpha": "fraction", "lambda_head": "fraction",
              **dict.fromkeys(LOSS_NAMES, "float")}),
    "eval": ({"iteration": "index", "K": "index"},
             {**dict.fromkeys(("r", "mr", "m"), "fraction"),
              **dict.fromkeys(GROUP_NAMES, "recall")}),
    "evalpred": ({"iteration": "index", "K": "index", "index": "index",
                  "recall": "recall"}, {}),
}


def _log_line(record, values):
    """One train.log line of ``record``, its values in the table's order; a
    missing recall (None or NaN) is written ``absent``."""
    positional, keyed = _LOG_RECORDS[record]
    cells = [record]
    for (field, kind), value in zip([*positional.items(), *keyed.items()], values):
        text = ("absent" if kind == "recall" and (value is None or math.isnan(value))
                else str(FIELD_KINDS[kind][0](value)))  # str of a float is its repr
        cells.append(f"{field}={text}" if field in keyed else text)
    return " ".join(cells) + "\n"


def write_log(path, log, vocab):
    with open_atomic(path) as fh:
        fh.write(f"# training-log {LOG_FORMAT_VERSION}\n")
        for i in range(1, vocab.num_predicates + 1):
            fh.write(_log_line("predicate", [i, vocab.names[i], vocab.train_counts[i]]))
        for entry in log.entries:
            fh.write(_log_line("iter", [entry.iteration, entry.alpha, entry.lambda_head,
                                        *vars(entry.breakdown).values()]))
        for iteration, report in log.eval_snapshots:
            for k in report.ks:
                fh.write(_log_line("eval", [iteration, k, report.r_at_k[k],
                                            report.mr_at_k[k], report.m_at_k[k],
                                            *report.group_recalls[k]]))
                per_class = report.per_predicate[k]
                for i in range(1, per_class.shape[0]):
                    fh.write(_log_line("evalpred", [iteration, k, i, per_class[i]]))


def parse_log(path):
    """Parse a training log into {record: its rows in file order}, one row a
    {field: value} dict.

    The header must name ``LOG_FORMAT_VERSION``. A line must hold exactly
    the fields ``write_log`` writes for its record, each value in its kind's
    range (``datagen.FIELD_KINDS``); ``iter`` iterations must rise, and no
    two rows may share a record and index fields (iteration, K, predicate
    index) or two ``predicate`` rows a name. The ``predicate`` rows state
    each predicate once: P is their count, and their indices are 1..P in
    file order. The evaluation rows must form the grid ``write_log``
    writes: at each evaluated iteration the ``eval`` and ``evalpred`` rows
    have the same Ks, and at each K the ``evalpred`` indices are exactly
    1..P. Otherwise one ValueError names the file, the line or iteration,
    and the field.
    """
    rows = {record: [] for record in _LOG_RECORDS}
    # a row's record and index fields (iteration, K, predicate index), or a
    # predicate's name -> the line that holds it
    lines = {}
    with open_text(path) as fh:
        header = " ".join(fh.readline().split())
        if header != f"# training-log {LOG_FORMAT_VERSION}":
            raise ValueError(f"{path}, line 1: the header {header!r} is not "
                             f"'# training-log {LOG_FORMAT_VERSION}'")
        for number, line in enumerate(fh, start=2):
            tok = line.split()
            if not tok:
                continue
            where = f"{path}, line {number}"
            if tok[0] not in _LOG_RECORDS:
                raise ValueError(f"{where}: unknown log record {tok[0]!r}")
            positional, keys = _LOG_RECORDS[tok[0]]
            fields = [(field, kind, text)
                      for (field, kind), text in zip(positional.items(), tok[1:])]
            for pair in tok[1 + len(positional):]:
                key, sep, text = pair.partition("=")
                # a key given twice is one field too many
                if not sep or key not in keys or key in (f for f, _, _ in fields):
                    raise ValueError(f"{where}: unexpected field {pair!r}")
                fields.append((key, keys[key], text))
            row = {field: read_field(where, field, kind, text)
                   for field, kind, text in fields}
            missing = [field for field in [*positional, *keys] if field not in row]
            if missing:
                raise ValueError(f"{where}: field {missing[0]} is missing")
            if tok[0] == "iter" and rows["iter"] and (
                row["iteration"] <= rows["iter"][-1]["iteration"]
            ):
                raise ValueError(f"{where}: iteration {row['iteration']} does not "
                                 f"follow iteration {rows['iter'][-1]['iteration']}")
            names = [f"{tok[0]} row of " + ", ".join(
                f"{field} {row[field]}" for field, kind in positional.items()
                if kind == "index"
            )]
            if tok[0] == "predicate":  # a predicate's name is a key too
                names.append(f"predicate name {row['name']!r}")
            for name in names:
                if name in lines:
                    raise ValueError(f"{where}: the {name} repeats line {lines[name]}")
                lines[name] = number
            if tok[0] == "predicate" and row["index"] != len(rows["predicate"]) + 1:
                raise ValueError(f"{where}: predicate index {row['index']} is not "
                                 f"{len(rows['predicate']) + 1}, the next index")
            rows[tok[0]].append(row)
    every = set(range(1, len(rows["predicate"]) + 1))
    grid = {}  # (iteration, K) -> the predicate indices of its evalpred rows
    for row in rows["evalpred"]:
        grid.setdefault((row["iteration"], row["K"]), set()).add(row["index"])
    for (iteration, k), indices in sorted(grid.items()):
        if indices != every:
            index = min(indices ^ every)
            raise ValueError(
                f"{path}: the evalpred rows of iteration {iteration} have "
                f"{'no' if index in every else 'a'} K={k} row for predicate index "
                f"{index}, and the predicate rows give P = {len(every)}"
            )
    evaluated = {(row["iteration"], row["K"]) for row in rows["eval"]}
    unmatched = sorted(evaluated ^ grid.keys())
    if unmatched:
        iteration, k = unmatched[0]
        record = "evalpred" if (iteration, k) in evaluated else "eval"
        raise ValueError(f"{path}: iteration {iteration} has no {record} row at K={k}")
    return rows
