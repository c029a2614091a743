import copy
import sys
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from dualrel.datagen import (
    GeneratorConfig,
    build_prior_bias,
    generate_dataset,
    group_split,
    head_set,
    relations_by_image,
)
from dualrel.losses import LOSS_NAMES, effective_number_weights
from dualrel.metrics import (
    DEFAULT_KS,
    EvalReport,
    format_report,
    group_mean_recall,
    mean_at_k,
)
from dualrel.model import (
    DualBranchModel,
    decode_rows,
    extractor_forward,
    fine_branch_forward,
    run_inputs,
    save_checkpoint,
)
from dualrel.numerics import ConfigurationError, grad_check, softmax
from dualrel.schedules import ScheduleConfig
from dualrel.semantic_context import target_global_token
from dualrel.training import (
    _LOG_RECORDS,
    LogEntry,
    TrainConfig,
    TrainingDiverged,
    _BatchContext,
    batch_forward_backward,
    evaluate,
    parse_log,
    predictions_for_images,
    train,
    write_log,
)

DATA_CFG = GeneratorConfig(
    num_object_classes=6, num_head_predicates=3, tails_per_head=1,
    feature_dim=8, num_train=240, num_test=48, relations_per_image=4, seed=9,
)
SCHED = ScheduleConfig(k1=10, k2=20, total_iterations=30, head_threshold=10)


def small_config(**overrides):
    params = dict(
        schedule=SCHED, learning_rate=0.05, batch_size=3, hidden_dim=12,
        context_dim=16, seed=1, log_every=1,
    )
    params.update(overrides)
    return TrainConfig(**params)


def coarse_only_config():
    """The coarse-branch baseline: beta1=1.0 pins the branch weight at 1 and
    every fine-side component is off."""
    return small_config(
        schedule=replace(SCHED, beta1=1.0), disable_curriculum=True,
        disable_context=True, disable_distillation=True,
    )


def parameters(model):
    return {name: model.store[name].copy() for name in model.store.names()}


def assert_parameters_equal(model, expected):
    for name, value in expected.items():
        np.testing.assert_array_equal(model.store[name], value, err_msg=name)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(DATA_CFG)


def build_model(dataset, cfg):
    vocab, train_split, _ = dataset
    prior = build_prior_bias(train_split, vocab)
    return DualBranchModel.build(
        num_object_classes=DATA_CFG.num_object_classes,
        num_predicates=DATA_CFG.num_predicates,
        feature_dim=DATA_CFG.feature_dim,
        hidden_dim=cfg.hidden_dim,
        context_dim=cfg.context_dim,
        prior_table=prior.table,
        seed=cfg.seed,
    )


def make_batch_context(model, vocab, batch, alpha=0.6, lambda_head=0.7, **overrides):
    heads = np.asarray(head_set(vocab, SCHED.head_threshold), dtype=np.int64)
    head_mask = np.zeros(vocab.num_predicates + 1, dtype=bool)
    head_mask[heads] = True
    params = dict(
        alpha=alpha,
        lambda_head=lambda_head,
        class_weights=effective_number_weights(vocab.train_counts, 0.99),
        head_indices=heads,
        head_mask=head_mask,
        tau=2.0,
        mu=0.05,
        n_relations=sum(len(image) for image in batch),
        n_images=len(batch),
    )
    params.update(overrides)
    return _BatchContext(**params)


def frozen_paths(model, batch):
    """Teacher logits and gap targets captured at the current parameters."""
    from dualrel.model import decode_rows, extractor_forward, instance_matrix

    teachers, targets = [], []
    for image in batch:
        x = instance_matrix(model, image)
        h, _ = extractor_forward(model, x)
        subjects = [inst.subject_class for inst in image]
        objects = [inst.object_class for inst in image]
        teachers.append(decode_rows(model, "coarse", h, subjects, objects))
        targets.append(
            target_global_token(
                [inst.gt_predicate for inst in image], subjects, objects,
                model.store,
            )
        )
    return teachers, targets


def batch_loss_value(ctx, sums, mu):
    ce, crm, sc, kd = sums
    return (
        ctx.alpha * ce / ctx.n_relations
        + (1.0 - ctx.alpha) * crm / ctx.n_relations
        + sc / ctx.n_images
        + mu * kd / ctx.n_relations
    )


class TestBatchGradients:
    def test_total_loss_gradcheck(self, dataset):
        vocab, train_split, _ = dataset
        cfg = small_config()
        model = build_model(dataset, cfg)
        rng = np.random.default_rng(0)
        w = model.store["context.classifier.w"]
        w += rng.normal(size=w.shape) * 0.2
        images = relations_by_image(train_split)
        batch = images[:2]
        teachers, targets = frozen_paths(model, batch)
        ctx = make_batch_context(
            model, vocab, batch, frozen_teachers=teachers, frozen_targets=targets
        )

        def loss(store):
            sums = batch_forward_backward(model, batch, ctx)
            return batch_loss_value(ctx, sums, ctx.mu)

        assert grad_check(loss, model.store) <= 1e-4

    def test_teacher_detached_from_coarse_decoder(self, dataset):
        vocab, train_split, _ = dataset
        cfg = small_config()
        model = build_model(dataset, cfg)
        images = relations_by_image(train_split)
        batch = images[:2]
        teachers, targets = frozen_paths(model, batch)
        # alpha 0 removes the only legitimate gradient path into the coarse
        # decoder; distillation must not add one through its teacher
        ctx = make_batch_context(
            model, vocab, batch, alpha=0.0,
            frozen_teachers=teachers, frozen_targets=targets,
        )
        model.store.zero_grads()
        sums = batch_forward_backward(model, batch, ctx)
        assert sums[3] > 0.0  # distillation active
        np.testing.assert_array_equal(model.store.grad("decoder.coarse.w"), 0.0)
        np.testing.assert_array_equal(model.store.grad("decoder.coarse.b"), 0.0)

    def test_live_and_frozen_teacher_agree_at_base_point(self, dataset):
        vocab, train_split, _ = dataset
        cfg = small_config()
        model = build_model(dataset, cfg)
        images = relations_by_image(train_split)
        batch = images[:2]
        teachers, targets = frozen_paths(model, batch)
        ctx_live = make_batch_context(model, vocab, batch)
        ctx_frozen = make_batch_context(
            model, vocab, batch, frozen_teachers=teachers, frozen_targets=targets
        )
        model.store.zero_grads()
        live = batch_forward_backward(model, batch, ctx_live)
        grads_live = {
            n: model.store.grad(n).copy() for n in model.store.trainable_names()
        }
        model.store.zero_grads()
        frozen = batch_forward_backward(model, batch, ctx_frozen)
        assert live == frozen
        for name in grads_live:
            np.testing.assert_array_equal(
                model.store.grad(name), grads_live[name]
            )


def mixed_size_batch(train_split):
    """Runs of 1, 1 and 2 images: a 3-relation image between 4-relation ones."""
    images = relations_by_image(train_split)
    assert {len(image) for image in images[:4]} == {4}
    return [images[0], images[1][:3], images[2], images[3]]


def stacked_and_sequential(model, batch, ctx):
    """(sums, grads) of one stacked call and of one call per image, in order
    and without zeroing in between."""
    store = model.store
    store.zero_grads()
    stacked = batch_forward_backward(model, batch, ctx)
    stacked_grads = {n: store.grad(n).copy() for n in store.trainable_names()}
    store.zero_grads()
    sums = [0.0] * 4
    for image in batch:
        for i, value in enumerate(batch_forward_backward(model, [image], ctx)):
            sums[i] += value
    grads = {n: store.grad(n).copy() for n in store.trainable_names()}
    return (stacked, stacked_grads), (tuple(sums), grads)


class TestStackedStep:
    @pytest.mark.parametrize(
        "flags",
        [
            dict(disable_context=True),
            dict(disable_context=True, disable_curriculum=True,
                 disable_distillation=True),
        ],
    )
    def test_context_off_matches_per_image_calls_bitwise(self, dataset, flags):
        vocab, train_split, _ = dataset
        model = build_model(dataset, small_config())
        batch = mixed_size_batch(train_split)
        ctx = make_batch_context(model, vocab, batch, **flags)
        (sums, grads), (ref_sums, ref_grads) = stacked_and_sequential(model, batch, ctx)
        assert sums == ref_sums
        for name in grads:
            np.testing.assert_array_equal(grads[name], ref_grads[name], err_msg=name)

    def test_context_on_matches_per_image_calls(self, dataset):
        vocab, train_split, _ = dataset
        model = build_model(dataset, small_config())
        w = model.store["context.classifier.w"]
        w += np.random.default_rng(3).normal(size=w.shape) * 0.2
        batch = mixed_size_batch(train_split)
        ctx = make_batch_context(model, vocab, batch)
        (sums, grads), (ref_sums, ref_grads) = stacked_and_sequential(model, batch, ctx)
        np.testing.assert_allclose(sums, ref_sums, rtol=1e-12, atol=0)
        for name in grads:
            scale = max(float(np.max(np.abs(ref_grads[name]))), 1e-300)
            error = float(np.max(np.abs(grads[name] - ref_grads[name]))) / scale
            assert error <= 1e-12, (name, error)


class TestTrainLoop:
    def test_loss_identity_and_alpha_schedule(self, dataset):
        vocab, train_split, _ = dataset
        cfg = small_config()
        model = build_model(dataset, cfg)
        log = train(cfg, vocab, train_split, model)
        assert [e.iteration for e in log.entries] == list(range(1, 31))
        for entry in log.entries:
            b = entry.breakdown
            assert abs(b.l_total - (b.l_hybrid + b.l_sc + cfg.mu * b.l_kd)) <= 1e-10
            if entry.iteration <= SCHED.k1:
                assert entry.alpha == 1.0
        # alpha plateau after k2
        assert log.entries[-1].alpha == SCHED.beta1

    def test_training_a_deepcopy_leaves_the_original_unchanged(self, dataset, tmp_path):
        vocab, train_split, _ = dataset
        cfg = small_config()
        model = build_model(dataset, cfg)
        before, after, trained = (tmp_path / f"{tag}.ckpt" for tag in ("a", "b", "c"))
        save_checkpoint(before, model)
        twin = copy.deepcopy(model)
        train(cfg, vocab, train_split, twin)
        save_checkpoint(after, model)
        save_checkpoint(trained, twin)
        assert after.read_bytes() == before.read_bytes()
        assert trained.read_bytes() != before.read_bytes()
        # the original still trains to the bits its twin reached
        train(cfg, vocab, train_split, model)
        save_checkpoint(after, model)
        assert after.read_bytes() == trained.read_bytes()

    def test_coarse_only_leaves_fine_side_at_init(self, dataset):
        vocab, train_split, _ = dataset
        cfg = coarse_only_config()
        model = build_model(dataset, cfg)
        fine_w0 = model.store["decoder.fine.w"].copy()
        fine_b0 = model.store["decoder.fine.b"].copy()
        proj0 = model.store["context.proj.w"].copy()
        log = train(cfg, vocab, train_split, model)
        np.testing.assert_array_equal(model.store["decoder.fine.w"], fine_w0)
        np.testing.assert_array_equal(model.store["decoder.fine.b"], fine_b0)
        np.testing.assert_array_equal(model.store["context.proj.w"], proj0)
        assert not np.array_equal(
            model.store["extractor.l1.w"],
            DualBranchModel.build(
                num_object_classes=DATA_CFG.num_object_classes,
                num_predicates=DATA_CFG.num_predicates,
                feature_dim=DATA_CFG.feature_dim,
                hidden_dim=cfg.hidden_dim,
                context_dim=cfg.context_dim,
                seed=cfg.seed,
            ).store["extractor.l1.w"],
        )
        for entry in log.entries:
            b = entry.breakdown
            assert entry.alpha == 1.0
            # the fine branch's cross-entropy is logged at zero weight
            assert b.l_crm > 0.0
            assert b.l_kd == 0.0 and b.l_sc == 0.0
            assert b.l_total == b.l_ce

    def test_rerun_is_bitwise_identical(self, dataset, tmp_path):
        vocab, train_split, _ = dataset
        cfg = small_config()
        ckpts = []
        for run in ("a", "b"):
            model = build_model(dataset, cfg)
            train(cfg, vocab, train_split, model)
            path = tmp_path / f"{run}.ckpt"
            save_checkpoint(path, model)
            ckpts.append(path.read_bytes())
        assert ckpts[0] == ckpts[1]

    def test_distillation_needs_two_heads(self, dataset):
        vocab, train_split, _ = dataset
        sched = ScheduleConfig(
            k1=10, k2=20, total_iterations=30, head_threshold=10**6
        )
        cfg = small_config(schedule=sched)
        model = build_model(dataset, cfg)
        before = parameters(model)
        with pytest.raises(ConfigurationError, match="two head predicates"):
            train(cfg, vocab, train_split, model)
        assert_parameters_equal(model, before)  # refused before any step
        # without distillation the same head set trains
        log = train(replace(cfg, disable_distillation=True), vocab, train_split,
                    model)
        assert len(log.entries) == sched.total_iterations

    def test_divergence_reported_with_iteration(self, dataset):
        vocab, train_split, _ = dataset
        cfg = small_config(learning_rate=1e9)
        model = build_model(dataset, cfg)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDiverged) as err:
                train(cfg, vocab, train_split, model)
        assert err.value.iteration >= 1
        assert err.value.component.startswith("l_")


class TestEvaluate:
    def test_deterministic(self, dataset):
        vocab, train_split, test_split = dataset
        cfg = small_config()
        model = build_model(dataset, cfg)
        train(cfg, vocab, train_split, model)
        a = evaluate(model, test_split, vocab, ks=(5, 20))
        b = evaluate(model, test_split, vocab, ks=(5, 20))
        assert a.r_at_k == b.r_at_k
        assert a.mr_at_k == b.mr_at_k

    def test_larger_k_dominates(self, dataset):
        vocab, train_split, test_split = dataset
        cfg = small_config()
        model = build_model(dataset, cfg)
        train(cfg, vocab, train_split, model)
        report = evaluate(model, test_split, vocab, ks=(5, 20, 60))
        assert report.r_at_k[5] <= report.r_at_k[20] <= report.r_at_k[60]
        assert report.mr_at_k[5] <= report.mr_at_k[20] <= report.mr_at_k[60]
        assert report.m_at_k[5] <= report.m_at_k[20] <= report.m_at_k[60]

    def test_coarse_only_model_prefers_frequent_predicates(self, dataset):
        # the frozen frequency prior alone should rank abundant predicates
        # above rare ones when the fine decoder is untrained
        vocab, train_split, test_split = dataset
        cfg = coarse_only_config()
        model = build_model(dataset, cfg)
        train(cfg, vocab, train_split, model)
        report = evaluate(model, test_split, vocab, ks=(2,))
        many, _, few = report.group_recalls[2]
        assert many > few


FIT_FIELDS = ("num_predicates", "num_object_classes", "feature_dim")


def model_off_by_one(field):
    """A model of DATA_CFG's dimensions except ``field``, one larger."""
    dims = {name: getattr(DATA_CFG, name) for name in FIT_FIELDS}
    dims[field] += 1
    return DualBranchModel.build(**dims, hidden_dim=12, context_dim=16, seed=1)


class TestFitRule:
    @pytest.mark.parametrize("field", FIT_FIELDS)
    def test_train_rejects_a_misfit_model_before_its_first_step(self, dataset, field):
        vocab, train_split, _ = dataset
        model = model_off_by_one(field)
        before = parameters(model)
        with pytest.raises(ValueError, match=f"model's {field} is"):
            train(small_config(), vocab, train_split, model)
        assert_parameters_equal(model, before)

    @pytest.mark.parametrize("field", FIT_FIELDS)
    def test_evaluate_rejects_a_misfit_model(self, dataset, field):
        vocab, _, test_split = dataset
        with pytest.raises(ValueError, match=f"model's {field} is"):
            evaluate(model_off_by_one(field), test_split, vocab)

    @pytest.mark.parametrize("field", ["num_object_classes", "feature_dim"])
    def test_misfit_eval_split_is_rejected_before_the_first_step(self, dataset,
                                                                 field):
        vocab, train_split, _ = dataset
        cfg = small_config()
        model = build_model(dataset, cfg)
        before = parameters(model)
        other = replace(DATA_CFG, **{field: getattr(DATA_CFG, field) + 1})
        _, _, eval_split = generate_dataset(other)
        with pytest.raises(ValueError, match=f"model's {field} is"):
            train(cfg, vocab, train_split, model, eval_instances=eval_split)
        assert_parameters_equal(model, before)


def object_and_sort_report(model, test_split, vocab, ks):
    """Evaluation with one Python tuple per prediction and one Python sort
    per image and K: the reference for the array ranking.
    Predictions are (image, subject, object, predicate, score) tuples and
    ground truths (image, subject, object, predicate) tuples."""
    preds = []
    for image in relations_by_image(test_split):
        probs = softmax(fine_branch_forward(model, image), axis=1)
        for inst, row in zip(image, probs):
            for predicate in range(1, model.num_predicates + 1):
                preds.append((inst.image_id, inst.subject_class, inst.object_class,
                              predicate, float(row[predicate])))
    gts = [
        (inst.image_id, inst.subject_class, inst.object_class, inst.gt_predicate)
        for inst in test_split if inst.gt_predicate != 0
    ]
    n = vocab.num_predicates
    totals = np.bincount([g[3] for g in gts], minlength=n + 1)
    report = EvalReport(tuple(ks), {}, {}, {}, {}, {})
    for k in ks:
        hits = np.zeros(n + 1, dtype=np.int64)
        for image_id in sorted({g[0] for g in gts}):
            ranked = sorted(
                (p for p in preds if p[0] == image_id),
                key=lambda p: (-p[4], p[3], p[1], p[2]),
            )[:k]
            top = Counter(p[1:4] for p in ranked)
            truth = Counter(g[1:] for g in gts if g[0] == image_id)
            for triple, count in truth.items():
                hits[triple[2]] += min(top[triple], count)
        per_class = np.full(n + 1, np.nan)
        present = totals > 0
        per_class[present] = hits[present] / totals[present]
        present[0] = False
        r = float(hits.sum()) / len(gts)
        mr = float(per_class[present].mean())
        report.r_at_k[k], report.mr_at_k[k] = r, mr
        report.m_at_k[k] = mean_at_k(r, mr)
        report.per_predicate[k] = per_class
        report.group_recalls[k] = group_mean_recall(per_class, group_split(vocab))
    return report


def test_evaluate_report_matches_the_object_and_sort_path(dataset):
    vocab, train_split, test_split = dataset
    cfg = small_config()
    model = build_model(dataset, cfg)
    train(cfg, vocab, train_split, model)
    ks = (1, 5, 20, 200)
    assert format_report(evaluate(model, test_split, vocab, ks), vocab) == format_report(
        object_and_sort_report(model, test_split, vocab, ks), vocab
    )


def test_stacked_eval_matches_one_forward_per_image(dataset):
    _, _, test_split = dataset
    model = build_model(dataset, small_config())
    rng = np.random.default_rng(6)
    w = model.store["context.classifier.w"]
    w += rng.normal(size=w.shape) * 0.2
    images = relations_by_image(test_split)
    images[1] = images[1][:-1]  # runs of 1, 1 and 10 images
    assert [len(image) for image in images[:3]] == [4, 3, 4]
    per_image = [fine_branch_forward(model, image) for image in images]

    def fine_logits(image):
        x, subjects, objects, _ = (a[0] for a in run_inputs(model, [image]))
        return decode_rows(model, "fine", extractor_forward(model, x)[0], subjects, objects)

    # every image gets a nonzero context correction
    assert min(
        np.abs(logits - fine_logits(image)).max() for logits, image in zip(per_image, images)
    ) > 0
    expected = np.concatenate(
        [softmax(logits, axis=1)[:, 1:].ravel() for logits in per_image]
    )
    np.testing.assert_array_equal(predictions_for_images(model, images).score, expected)


class TestTrainLogIO:
    def test_round_trip(self, dataset, tmp_path):
        vocab, train_split, test_split = dataset
        cfg = small_config(eval_every=15)
        model = build_model(dataset, cfg)
        log = train(cfg, vocab, train_split, model, eval_instances=test_split)
        assert [k for k, _ in log.eval_snapshots] == [15, 30]
        assert all(report.ks == DEFAULT_KS for _, report in log.eval_snapshots)
        path = tmp_path / "train.log"
        write_log(path, log, vocab)
        iters, evals, evalpreds = parse_log(path)
        assert len(iters) == 30
        for row, entry in zip(iters, log.entries):
            assert row["iteration"] == entry.iteration
            assert row["l_total"] == entry.breakdown.l_total
            assert row["alpha"] == entry.alpha
            assert row["lambda_head"] == entry.lambda_head
        assert {row["iteration"] for row in evals} == {15, 30}
        assert [row["K"] for row in evals] == [*DEFAULT_KS] * 2
        final = log.eval_snapshots[-1][1]
        for row in evals:
            if row["iteration"] == 30 and row["K"] == 20:
                assert row["r"] == final.r_at_k[20]
        names = {row["name"] for row in evalpreds}
        assert vocab.names[1] in names

    @pytest.mark.parametrize("eval_every, iterations", [
        (0, [30]),
        (7, [7, 14, 21, 28, 30]),
        (15, [15, 30]),
        (30, [30]),
    ])
    def test_snapshots_at_each_multiple_of_eval_every_and_the_last(
        self, dataset, eval_every, iterations
    ):
        vocab, train_split, test_split = dataset
        cfg = small_config(eval_every=eval_every)
        model = build_model(dataset, cfg)
        log = train(cfg, vocab, train_split, model, eval_instances=test_split)
        assert [k for k, _ in log.eval_snapshots] == iterations

    def test_entries_at_each_multiple_of_log_every_and_the_last(self, dataset):
        vocab, train_split, _ = dataset
        cfg = small_config(log_every=7)
        model = build_model(dataset, cfg)
        log = train(cfg, vocab, train_split, model)
        assert [entry.iteration for entry in log.entries] == [7, 14, 21, 28, 30]
        assert log.eval_snapshots == []

    def test_a_log_entry_holds_the_iter_record_fields_in_file_order(self):
        positional, keyed = _LOG_RECORDS["iter"]
        *head, breakdown = (f.name for f in fields(LogEntry))
        assert breakdown == "breakdown"
        assert [*head, *LOSS_NAMES] == [*positional, *keyed]


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            small_config(learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            small_config(batch_size=0)
        with pytest.raises(ConfigurationError):
            small_config(tau=0.0)
        with pytest.raises(ConfigurationError):
            small_config(mu=-1.0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("learning_rate", float("nan")),
            ("tau", float("nan")),
            ("mu", float("nan")),
            ("hidden_dim", 0),
            ("context_dim", 0),
            ("log_every", 0),
            ("log_every", -2),
            ("eval_every", -1),
            ("beta_en", float("nan")),
            ("beta_en", -0.5),
            ("beta_en", 1.0),
        ],
    )
    def test_rejects_nan_and_out_of_range_values(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            small_config(**{name: value})


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts Linux minor page faults")
@pytest.mark.parametrize("flags", [
    pytest.param({}, id="full"),
    pytest.param(dict(disable_curriculum=True, disable_context=True,
                      disable_distillation=True), id="baseline"),
])
def test_warm_training_steps_do_not_fault_in_fresh_pages(flags):
    """A step's temporaries come back from the heap, not from the kernel: a
    heap returned to the kernel after every step (glibc trims a heap top
    past its threshold) costs hundreds of minor faults per step."""
    import resource

    gcfg = GeneratorConfig(seed=1)
    vocab, train_split, _ = generate_dataset(gcfg)
    model = DualBranchModel.build(
        num_object_classes=gcfg.num_object_classes,
        num_predicates=gcfg.num_predicates, feature_dim=gcfg.feature_dim,
        hidden_dim=64, context_dim=32,
        prior_table=build_prior_bias(train_split, vocab).table, seed=1,
    )

    def steps(iterations):
        schedule = ScheduleConfig(k1=iterations // 4, k2=iterations // 2,
                                  total_iterations=iterations, head_threshold=52)
        train(TrainConfig(schedule=schedule, batch_size=12, hidden_dim=64,
                          context_dim=32, learning_rate=0.02, beta_en=0.0,
                          mu=2.0, seed=1, **flags),
              vocab, train_split, model)

    steps(20)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    steps(50)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / 50 < 100, f"{faults / 50:.0f} minor faults per step"
