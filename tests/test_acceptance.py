"""Acceptance gate.

One test per criterion, each printing a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to see them). The curriculum and
ablation criteria share a cache of 20 seeded training runs (5 seeds x 4
configurations) on the default dataset; every run is deterministic.
"""

import time

import numpy as np
import pytest

from dualrel.cli import run_command
from dualrel.datagen import (
    GeneratorConfig,
    build_prior_bias,
    generate_dataset,
    relations_by_image,
)
from dualrel.losses import (
    cross_entropy_rows,
    curriculum_cross_entropy_rows,
    effective_number_weights,
    head_distillation_rows,
)
from dualrel.metrics import TripleTable, mean_at_k, mean_recall_at_k, recall_at_k
from dualrel.model import (
    DualBranchModel,
    decode_rows,
    decode_rows_backward,
    extractor_backward,
    extractor_forward,
    instance_matrix,
    parameter_layout,
)
from dualrel.numerics import ParamStore, grad_check
from dualrel.schedules import (
    SCHEDULE_KINDS,
    ScheduleConfig,
    branch_weight,
    head_predicate_weight,
    schedule_value,
)
from dualrel.semantic_context import (
    add_params,
    context_backward,
    context_forward,
    context_param_specs,
    embedding_specs,
    semantic_gap_loss,
    target_global_token,
)
from dualrel.training import (
    TrainConfig,
    _BatchContext,
    batch_forward_backward,
    evaluate,
    train,
)

PAPER_SCHEDULE = ScheduleConfig(
    k1=10_000, k2=20_000, total_iterations=40_000, beta1=0.1, beta2=0.2,
    head_threshold=10_000,
)

# desk-scale experiment setup: the default dataset, the default schedule
# shape compressed to 1600 iterations (ratios preserved)
EXPERIMENT_SEEDS = (0, 1, 2, 3, 4)
EXPERIMENT_SCHEDULE = ScheduleConfig(
    k1=400, k2=800, total_iterations=1600, head_threshold=52,
)


def experiment_config(seed, **flags):
    return TrainConfig(
        schedule=EXPERIMENT_SCHEDULE, batch_size=12, hidden_dim=64,
        context_dim=32, learning_rate=0.02, beta_en=0.0, mu=2.0, seed=seed,
        **flags,
    )


def verdict(number, description, ok):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    return ok


def frequency_weighted_recall(report, vocab, k):
    """Per-class recalls weighted by training frequency: the overall-recall
    analog of a naturally long-tailed test split (the balanced test split
    makes plain micro recall coincide with mean recall)."""
    per = report.per_predicate[k]
    counts = vocab.train_counts.astype(np.float64)
    mask = ~np.isnan(per)
    mask[0] = False
    return float(np.sum(per[mask] * counts[mask]) / np.sum(counts[mask]))


# ---------------------------------------------------------------------------
# criterion 1: gradient suite
# ---------------------------------------------------------------------------


def random_distributions(rng, n, width):
    raw = rng.random((n, width)) + 0.05
    return raw / raw.sum(axis=1, keepdims=True)


def logits_check(rng, rows_op, dim):
    """grad_check of a loss rows op on one (1, dim) logit row."""
    store = ParamStore([("z", (1, dim), True)])
    store.add("z", rng.normal(size=(1, dim)) * 2.0)

    def fn(s):
        losses, grads = rows_op(s["z"])
        s.accumulate("z", grads)
        return losses[0]

    return grad_check(fn, store)


def context_path_check(seed):
    n_pred, n_obj, dim = 6, 5, 16
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    specs = context_param_specs(n_pred, dim) + embedding_specs(n_pred, n_obj)
    store = ParamStore(parameter_layout(specs) + [("fine_logits", (n, n_pred + 1), True)])
    add_params(store, specs, rng)
    w = store["context.classifier.w"]
    w += rng.normal(size=w.shape) * 0.3
    subj = random_distributions(rng, n, n_obj + 1)
    obj = random_distributions(rng, n, n_obj + 1)
    gt = (
        rng.integers(1, n_pred + 1, size=n),
        rng.integers(1, n_obj + 1, size=n),
        rng.integers(1, n_obj + 1, size=n),
    )
    weight = rng.normal(size=(n, n_pred + 1))
    store.add("fine_logits", rng.normal(size=(n, n_pred + 1)))
    target = target_global_token(*gt, store)

    def loss(s):
        result = context_forward(s["fine_logits"], subj, obj, s, target=target)
        value = result.gap_loss + float(np.sum(result.correction * weight))
        s.accumulate("fine_logits", context_backward(result, weight, 1.0, s))
        return value

    return grad_check(loss, store)


def total_objective_check(seed):
    gcfg = GeneratorConfig(
        num_object_classes=6, num_head_predicates=3, tails_per_head=1,
        feature_dim=8, num_train=240, num_test=48, relations_per_image=4,
        seed=seed,
    )
    vocab, train_split, _ = generate_dataset(gcfg)
    prior = build_prior_bias(train_split, vocab)
    model = DualBranchModel.build(
        num_object_classes=6, num_predicates=6, feature_dim=8, hidden_dim=12,
        context_dim=16, prior_table=prior.table, seed=seed,
    )
    rng = np.random.default_rng(seed)
    w = model.store["context.classifier.w"]
    w += rng.normal(size=w.shape) * 0.2
    images = relations_by_image(train_split)
    batch = images[:2]
    heads = np.asarray([1, 2, 3], dtype=np.int64)
    head_mask = np.zeros(7, dtype=bool)
    head_mask[heads] = True
    teachers, targets = [], []
    for image in batch:
        x = instance_matrix(model, image)
        h, _ = extractor_forward(model, x)
        subjects = [i.subject_class for i in image]
        objects = [i.object_class for i in image]
        teachers.append(decode_rows(model, "coarse", h, subjects, objects))
        targets.append(
            target_global_token(
                [i.gt_predicate for i in image], subjects, objects, model.store
            )
        )
    ctx = _BatchContext(
        alpha=0.6, lambda_head=0.7,
        class_weights=effective_number_weights(vocab.train_counts, 0.99),
        head_indices=heads, head_mask=head_mask, tau=2.0, mu=0.05,
        n_relations=sum(len(image) for image in batch), n_images=len(batch),
        frozen_teachers=teachers, frozen_targets=targets,
    )

    def loss(store):
        ce, crm, sc, kd = batch_forward_backward(model, batch, ctx)
        return (
            ctx.alpha * ce / ctx.n_relations
            + (1.0 - ctx.alpha) * crm / ctx.n_relations
            + sc / ctx.n_images
            + ctx.mu * kd / ctx.n_relations
        )

    return grad_check(loss, model.store)


def test_criterion_1_gradient_suite():
    started = time.time()
    errors = []
    rng = np.random.default_rng(11)
    heads = np.array([1, 3, 4, 6])
    for _ in range(5):
        dim = int(rng.integers(4, 17))
        label = int(rng.integers(0, dim))
        errors.append(logits_check(rng, lambda z: cross_entropy_rows(z, [label]), dim))
    for _ in range(4):
        dim = int(rng.integers(4, 17))
        label = int(rng.integers(0, dim))
        weights = rng.uniform(0.2, 3.0, size=dim)
        lam = float(rng.uniform(0.0, 1.0))
        errors.append(
            logits_check(
                rng,
                lambda z: curriculum_cross_entropy_rows(z, [label], weights, [lam]),
                dim,
            )
        )
    for _ in range(4):
        teacher = rng.normal(size=(1, 8)) * 2
        errors.append(
            logits_check(
                rng,
                lambda z: head_distillation_rows(teacher, z, 2.0, heads),
                8,
            )
        )
    for _ in range(3):
        target = rng.normal(size=16)
        store = ParamStore([("s", (16,), True)])
        store.add("s", rng.normal(size=16))

        def gap(s):
            value, grad = semantic_gap_loss(s["s"], target)
            s.accumulate("s", grad)
            return value

        errors.append(grad_check(gap, store))
    for seed in (21, 22, 23):
        errors.append(context_path_check(seed))
    for seed in (31, 32):
        errors.append(total_objective_check(seed))

    elapsed = time.time() - started
    worst = max(errors)
    ok = len(errors) >= 20 and worst <= 1e-4 and elapsed < 120
    assert verdict(
        1,
        f"gradient suite: {len(errors)} instances, max relative error "
        f"{worst:.2e} (tolerance 1e-4), {elapsed:.0f}s",
        ok,
    )


# ---------------------------------------------------------------------------
# criterion 2: schedule suite
# ---------------------------------------------------------------------------


def test_criterion_2_schedule_suite():
    exact = (
        branch_weight(5_000, PAPER_SCHEDULE) == 1.0
        and branch_weight(15_000, PAPER_SCHEDULE) == 0.5
        and branch_weight(25_000, PAPER_SCHEDULE) == 0.1
        and head_predicate_weight(40_000, True, PAPER_SCHEDULE) == 0.2
        and head_predicate_weight(25_000, True, PAPER_SCHEDULE) == 0.5
    )
    monotone = True
    grid = np.linspace(0.0, 1000.0, 1000)
    for kind in SCHEDULE_KINDS:
        values = [schedule_value(kind, t, 1000.0) for t in grid]
        monotone &= all(a >= b for a, b in zip(values, values[1:]))
        monotone &= all(0.0 <= v <= 1.0 for v in values)
        cfg = ScheduleConfig(
            k1=250, k2=500, total_iterations=1000, kind=kind,
            head_threshold=52,
        )
        alphas = [branch_weight(k, cfg) for k in range(0, 1001)]
        lambdas = [head_predicate_weight(k, True, cfg) for k in range(0, 1001)]
        monotone &= all(a >= b for a, b in zip(alphas, alphas[1:]))
        monotone &= all(a >= b for a, b in zip(lambdas, lambdas[1:]))
    ok = exact and monotone
    assert verdict(
        2,
        "schedule suite: reference constants reproduced exactly, all three "
        "shapes monotone on a 1000-point grid",
        ok,
    )


# ---------------------------------------------------------------------------
# criterion 3: permutation invariance
# ---------------------------------------------------------------------------


def test_criterion_3_permutation_invariance():
    n_pred, n_obj, dim = 8, 6, 24
    rng = np.random.default_rng(77)
    specs = context_param_specs(n_pred, dim) + embedding_specs(n_pred, n_obj)
    store = ParamStore(parameter_layout(specs))
    add_params(store, specs, rng)
    w = store["context.classifier.w"]
    w += rng.normal(size=w.shape) * 0.3
    worst_gap = worst_global = worst_rows = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        fine = rng.normal(size=(n, n_pred + 1)) * 2.0
        subj = random_distributions(rng, n, n_obj + 1)
        obj = random_distributions(rng, n, n_obj + 1)
        gt = (
            rng.integers(1, n_pred + 1, size=n),
            rng.integers(1, n_obj + 1, size=n),
            rng.integers(1, n_obj + 1, size=n),
        )
        perm = rng.permutation(n)
        base = context_forward(
            fine, subj, obj, store, target=target_global_token(*gt, store)
        )
        moved = context_forward(
            fine[perm], subj[perm], obj[perm], store,
            target=target_global_token(gt[0][perm], gt[1][perm], gt[2][perm], store),
        )
        worst_gap = max(worst_gap, abs(moved.gap_loss - base.gap_loss))
        worst_global = max(
            worst_global,
            float(np.abs(moved.predicted_global - base.predicted_global).max()),
        )
        worst_rows = max(
            worst_rows,
            float(np.abs(moved.correction - base.correction[perm]).max()),
        )
    ok = worst_gap <= 1e-10 and worst_global <= 1e-10 and worst_rows <= 1e-10
    assert verdict(
        3,
        f"permutation invariance over 100 random images: gap drift "
        f"{worst_gap:.1e}, global-token drift {worst_global:.1e}, correction "
        f"row drift {worst_rows:.1e} (tolerance 1e-10)",
        ok,
    )


# ---------------------------------------------------------------------------
# criterion 4: metric oracle
# ---------------------------------------------------------------------------


def triple_table(rows, score=None):
    """TripleTable of (image, subject, object, predicate) tuples."""
    return TripleTable(*np.asarray(rows, dtype=np.int64).reshape(-1, 4).T, score)


def prediction_table(preds):
    """TripleTable of (image, subject, object, predicate, score) tuples."""
    return triple_table([p[:4] for p in preds],
                       np.asarray([p[4] for p in preds], dtype=np.float64))


def brute_force_matcher(preds, gts, k):
    """Matched ground truths per predicate; preds are (image, subject,
    object, predicate, score) tuples and gts (image, subject, object,
    predicate) tuples."""
    images = sorted({g[0] for g in gts} | {p[0] for p in preds})
    hits_by_class = {}
    for image_id in images:
        ranked = sorted(
            [p for p in preds if p[0] == image_id],
            key=lambda p: (-p[4], p[3], p[1], p[2]),
        )[:k]
        remaining = [g[1:] for g in gts if g[0] == image_id]
        for p in ranked:
            if p[1:4] in remaining:
                remaining.remove(p[1:4])
                hits_by_class[p[3]] = hits_by_class.get(p[3], 0) + 1
    return hits_by_class


def test_criterion_4_metric_oracle():
    rng = np.random.default_rng(99)
    agree = True
    for _ in range(50):
        n_images = int(rng.integers(1, 4))
        n_classes = int(rng.integers(2, 5))
        gts, preds = [], []
        for image_id in range(n_images):
            for _ in range(int(rng.integers(1, 4))):
                gts.append((image_id, int(rng.integers(1, 4)),
                            int(rng.integers(1, 4)),
                            int(rng.integers(1, n_classes + 1))))
            for _ in range(int(rng.integers(0, 11))):
                preds.append((image_id, int(rng.integers(1, 4)),
                              int(rng.integers(1, 4)),
                              int(rng.integers(1, n_classes + 1)),
                              float(rng.choice([0.2, 0.4, 0.6, 0.8]))))
        pred_table, gt_table = prediction_table(preds), triple_table(gts)
        for k in (1, 3, 6, 10):
            by_class = brute_force_matcher(preds, gts, k)
            hits = sum(by_class.values())
            agree &= recall_at_k(pred_table, gt_table, k) == hits / len(gts)
            mr, per_class = mean_recall_at_k(pred_table, gt_table, k, n_classes)
            gt_counts = {}
            for *_, predicate in gts:
                gt_counts[predicate] = gt_counts.get(predicate, 0) + 1
            expected = [
                by_class.get(c, 0) / gt_counts[c]
                for c in sorted(gt_counts)
            ]
            agree &= mr == float(np.mean(expected))
            for c, count in gt_counts.items():
                agree &= per_class[c] == by_class.get(c, 0) / count
    spot = abs(mean_at_k(0.490, 0.404) - 0.447) < 1e-12
    ok = agree and spot
    assert verdict(
        4,
        "metric oracle: 50 random tiny instances match the brute-force "
        "matcher exactly; Mean@K spot-check (49.0 + 40.4)/2 = 44.7",
        ok,
    )


# ---------------------------------------------------------------------------
# criteria 5 and 6: curriculum effect and ablation directions
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def experiment_runs():
    """5 seeds x {baseline, full, no-curriculum, no-distillation} on the
    default dataset; returns nested dict of evaluation summaries."""
    configurations = {
        "baseline": dict(disable_curriculum=True, disable_context=True,
                         disable_distillation=True),
        "full": {},
        "no_curriculum": dict(disable_curriculum=True),
        "no_distillation": dict(disable_distillation=True),
    }
    results = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for seed in EXPERIMENT_SEEDS:
            vocab, train_split, test_split = generate_dataset(
                GeneratorConfig(seed=seed)
            )
            prior = build_prior_bias(train_split, vocab)
            per_seed = {}
            for name, flags in configurations.items():
                cfg = experiment_config(seed, **flags)
                model = DualBranchModel.build(
                    num_object_classes=16, num_predicates=48, feature_dim=16,
                    hidden_dim=cfg.hidden_dim, context_dim=cfg.context_dim,
                    prior_table=prior.table, seed=seed,
                )
                started = time.time()
                train(cfg, vocab, train_split, model)
                runtime = time.time() - started
                report = evaluate(model, test_split, vocab, ks=(20,))
                many, medium, few = report.group_recalls[20]
                per_seed[name] = dict(
                    mr=report.mr_at_k[20], many=many, medium=medium, few=few,
                    weighted=frequency_weighted_recall(report, vocab, 20),
                    runtime=runtime,
                )
            results[seed] = per_seed
    return results


def test_criterion_5_curriculum_effect(experiment_runs):
    base_mr = np.mean([experiment_runs[s]["baseline"]["mr"] for s in EXPERIMENT_SEEDS])
    base_many = np.mean([experiment_runs[s]["baseline"]["many"] for s in EXPERIMENT_SEEDS])
    base_few = np.mean([experiment_runs[s]["baseline"]["few"] for s in EXPERIMENT_SEEDS])
    full_mr = np.mean([experiment_runs[s]["full"]["mr"] for s in EXPERIMENT_SEEDS])
    full_many = np.mean([experiment_runs[s]["full"]["many"] for s in EXPERIMENT_SEEDS])
    slowest = max(
        experiment_runs[s][name]["runtime"]
        for s in EXPERIMENT_SEEDS
        for name in experiment_runs[s]
    )
    part_a = base_few < 0.15 and base_many > 0.6
    part_b = full_mr >= 1.5 * base_mr
    part_c = (base_many - full_many) <= 0.10
    ok = part_a and part_b and part_c and slowest < 300
    assert verdict(
        5,
        "curriculum effect over 5 seeds: baseline many/few = "
        f"{base_many:.3f}/{base_few:.3f} (bounds >0.6 / <0.15); mean-recall "
        f"{base_mr:.3f} -> {full_mr:.3f} "
        f"(+{100 * (full_mr / base_mr - 1):.0f}%, bound +50%); many drop "
        f"{base_many - full_many:.3f} (bound 0.10); slowest run "
        f"{slowest:.0f}s (bound 300s)",
        ok,
    )


def test_criterion_6_ablation_directions(experiment_runs):
    crm_wins = sum(
        experiment_runs[s]["full"]["mr"] > experiment_runs[s]["no_curriculum"]["mr"]
        for s in EXPERIMENT_SEEDS
    )
    kd_wins = sum(
        experiment_runs[s]["full"]["weighted"]
        > experiment_runs[s]["no_distillation"]["weighted"]
        for s in EXPERIMENT_SEEDS
    )
    ok = crm_wins >= 4 and kd_wins >= 4
    assert verdict(
        6,
        f"ablation directions: removing curriculum re-weighting lowers mean "
        f"recall on {crm_wins}/5 seeds; removing distillation lowers "
        f"frequency-weighted recall on {kd_wins}/5 seeds (bound 4/5)",
        ok,
    )


# ---------------------------------------------------------------------------
# criterion 7: baseline equivalence
# ---------------------------------------------------------------------------


def standalone_coarse_trainer(model, train_split, cfg):
    """An independently written plain-CE loop over the coarse branch."""
    from dualrel.losses import cross_entropy_rows

    images = relations_by_image(train_split)
    rng = np.random.default_rng([cfg.seed, 1])
    totals = []
    for _ in range(cfg.schedule.total_iterations):
        chosen = rng.choice(
            len(images), size=min(cfg.batch_size, len(images)), replace=False
        )
        batch = [images[i] for i in chosen]
        n_rel = sum(len(image) for image in batch)
        model.store.zero_grads()
        ce_sum = 0.0
        for image in batch:
            x = instance_matrix(model, image)
            h, cache = extractor_forward(model, x)
            subjects = [inst.subject_class for inst in image]
            objects = [inst.object_class for inst in image]
            labels = np.asarray([inst.gt_predicate for inst in image])
            logits = decode_rows(model, "coarse", h, subjects, objects)
            losses, grads = cross_entropy_rows(logits, labels)
            ce_sum += float(np.sum(losses))
            grad_h = decode_rows_backward(
                model, "coarse", h, (1.0 / n_rel) * grads
            )
            extractor_backward(model, cache, grad_h)
        model.store.sgd_step(cfg.learning_rate)
        totals.append(ce_sum / n_rel)
    return totals


def test_criterion_7_baseline_equivalence():
    gcfg = GeneratorConfig(
        num_object_classes=6, num_head_predicates=3, tails_per_head=1,
        feature_dim=8, num_train=240, num_test=48, relations_per_image=4,
        seed=5,
    )
    vocab, train_split, _ = generate_dataset(gcfg)
    prior = build_prior_bias(train_split, vocab)
    # beta1=1.0 pins the scheduled branch weight at 1 for every iteration
    sched = ScheduleConfig(k1=15, k2=30, total_iterations=60, beta1=1.0,
                           head_threshold=10)
    cfg = TrainConfig(
        schedule=sched, batch_size=4, hidden_dim=12, context_dim=16,
        learning_rate=0.05, seed=5, disable_curriculum=True,
        disable_context=True, disable_distillation=True,
    )

    def build():
        return DualBranchModel.build(
            num_object_classes=6, num_predicates=6, feature_dim=8,
            hidden_dim=12, context_dim=16, prior_table=prior.table, seed=5,
        )

    model = build()
    log = train(cfg, vocab, train_split, model)
    trajectory = [entry.breakdown.l_total for entry in log.entries]

    reference_model = build()
    reference = standalone_coarse_trainer(reference_model, train_split, cfg)

    identical_losses = trajectory == reference
    identical_params = all(
        np.array_equal(model.store[name], reference_model.store[name])
        for name in model.store.names()
    )
    ok = identical_losses and identical_params
    assert verdict(
        7,
        "baseline equivalence: with every ablation flag set and the branch "
        "weight pinned at 1, the 60-iteration loss trajectory and final "
        "parameters are bitwise identical to a standalone coarse-branch "
        "cross-entropy trainer",
        ok,
    )


# ---------------------------------------------------------------------------
# criterion 8: reproducibility through the command line
# ---------------------------------------------------------------------------


GEN_CFG = """
num_object_classes=8
num_head_predicates=4
tails_per_head=2
feature_dim=8
num_train=600
num_test=120
relations_per_image=6
seed=13
"""

TRAIN_CFG = """
k1=10
k2=20
total_iterations=40
head_threshold=40
learning_rate=0.02
batch_size=4
hidden_dim=16
context_dim=16
mu=2.0
seed=13
"""


def test_criterion_8_reproducibility(tmp_path):
    gen_cfg = tmp_path / "gen.cfg"
    gen_cfg.write_text(GEN_CFG)
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text(TRAIN_CFG)
    artifacts = {}
    for tag in ("first", "second"):
        data = tmp_path / f"data_{tag}"
        run = tmp_path / f"run_{tag}"
        report = tmp_path / f"report_{tag}.txt"
        assert run_command(["generate", "--config", str(gen_cfg),
                            "--out", str(data)]) == 0
        assert run_command(["train", "--config", str(train_cfg),
                            "--data", str(data), "--out", str(run)]) == 0
        assert run_command(["eval", "--checkpoint", str(run / "model.ckpt"),
                            "--data", str(data), "--ks", "10,20",
                            "--out", str(report)]) == 0
        artifacts[tag] = dict(
            vocab=(data / "vocab.txt").read_bytes(),
            train=(data / "train.txt").read_bytes(),
            test=(data / "test.txt").read_bytes(),
            checkpoint=(run / "model.ckpt").read_bytes(),
            log=(run / "train.log").read_bytes(),
            report=report.read_bytes(),
        )
    ok = all(
        artifacts["first"][key] == artifacts["second"][key]
        for key in artifacts["first"]
    )
    assert verdict(
        8,
        "reproducibility: generate/train/eval rerun with fixed seeds gives "
        "bit-identical dataset files, checkpoint, training log, and report",
        ok,
    )
