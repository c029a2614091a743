import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualrel.datagen import (
    FEATURE_FIELDS,
    GeneratorConfig,
    RelationTable,
    build_prior_bias,
    generate_dataset,
    load_relations,
    relations_by_image,
    save_relations,
)
from dualrel.losses import cross_entropy_rows
from dualrel.model import (
    DualBranchModel,
    decode_rows,
    decode_rows_backward,
    extractor_backward,
    extractor_forward,
    fine_branch_forward,
    image_runs,
    instance_matrix,
    load_checkpoint,
    parameter_specs,
    parse_checkpoint,
    run_inputs,
    save_checkpoint,
)
from dualrel.numerics import grad_check

CFG = GeneratorConfig(
    num_object_classes=6, num_head_predicates=3, tails_per_head=1,
    feature_dim=8, num_train=240, num_test=24, relations_per_image=3, seed=5,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(CFG)


@pytest.fixture()
def model(dataset):
    vocab, train, _ = dataset
    prior = build_prior_bias(train, vocab)
    return DualBranchModel.build(
        num_object_classes=CFG.num_object_classes,
        num_predicates=CFG.num_predicates,
        feature_dim=CFG.feature_dim,
        hidden_dim=12,
        context_dim=16,
        prior_table=prior.table,
        seed=42,
    )


def feature_rows(rows):
    """Each row view's FEATURE_FIELDS concatenated, one row each."""
    return np.array(
        [np.concatenate([getattr(row, name) for name in FEATURE_FIELDS]) for row in rows]
    )


@pytest.fixture(params=["generated", "loaded"])
def split(request, dataset, tmp_path):
    _, train, _ = dataset
    if request.param == "generated":
        return train
    path = tmp_path / "train.txt"
    save_relations(path, train, CFG.num_object_classes, CFG.num_predicates,
                   CFG.feature_dim)
    return load_relations(path)[0]


class TestTableInputs:
    def test_instance_matrix_is_each_rows_feature_fields(self, split, model):
        x = instance_matrix(model, split)
        assert x.flags.c_contiguous
        assert x.shape == (len(split), model.input_dim)
        assert x.tobytes() == feature_rows(split).tobytes()

    def test_run_inputs_are_each_rows_fields(self, split, model):
        images = relations_by_image(split)
        for start, stop in image_runs(images):
            run = images[start:stop]
            x, subjects, objects, predicates = run_inputs(model, run)
            rows = [row for image in run for row in image]
            assert x.dtype == np.float64
            assert x.tobytes() == feature_rows(rows).tobytes()
            assert x.shape == (len(run), len(run[0]), model.input_dim)
            expected = [[r.subject_class, r.object_class, r.gt_predicate] for r in rows]
            got = np.stack([subjects, objects, predicates], axis=-1).reshape(-1, 3)
            assert got.tolist() == expected


def zero_contexts(model):
    return np.zeros((1, model.hidden_dim))


class TestExtractor:
    def test_identical_context_for_both_branches(self, dataset, model):
        _, train, _ = dataset
        one = train[:1]
        first, _ = extractor_forward(model, instance_matrix(model, one))
        second, _ = extractor_forward(model, instance_matrix(model, one))
        np.testing.assert_array_equal(first, second)
        # both decoders read the same context rows; only the heads differ
        subjects, objects = one.ids[:, 1], one.ids[:, 2]
        coarse = decode_rows(model, "coarse", first, subjects, objects)
        fine = decode_rows(model, "fine", first, subjects, objects)
        assert coarse.shape == fine.shape

    def test_zero_input_zero_bias_gives_zero_preactivation(self, model):
        x = np.zeros((1, model.input_dim))
        _, cache = extractor_forward(model, x)
        np.testing.assert_array_equal(cache["pre"], 0.0)

    def test_weight_perturbation_moves_both_branches(self, dataset, model):
        _, train, _ = dataset
        one = train[:1]
        subjects, objects = one.ids[:, 1], one.ids[:, 2]

        def both_branches():
            h, _ = extractor_forward(model, instance_matrix(model, one))
            return [decode_rows(model, branch, h, subjects, objects)
                    for branch in ("coarse", "fine")]

        before_c, before_f = both_branches()
        # perturb a first-layer weight feeding a relu unit that is active
        # for this relation, so the change must reach both branches
        _, cache = extractor_forward(model, instance_matrix(model, one))
        active_unit = int(np.argmax(cache["pre"][0]))
        assert cache["pre"][0, active_unit] > 0
        model.store["extractor.l1.w"][0, active_unit] += 0.5
        after_c, after_f = both_branches()
        assert not np.array_equal(before_c, after_c)
        assert not np.array_equal(before_f, after_f)

    def test_dimension_mismatch_rejected(self, dataset, model):
        _, train, _ = dataset
        d = CFG.feature_dim + 1
        bad = RelationTable(
            ids=train.ids[:1],
            x=np.zeros((1, 3 * d + 2 * (CFG.num_object_classes + 1))),
            num_object_classes=CFG.num_object_classes, feature_dim=d,
        )
        with pytest.raises(ValueError, match="feature dim"):
            instance_matrix(model, bad)
        with pytest.raises(ValueError, match="feature dim"):
            run_inputs(model, [bad])


class TestDecode:
    def test_zero_context_zero_bias_gives_prior_slice(self, model):
        model.store["decoder.coarse.b"][:] = 0.0
        logits = decode_rows(model, "coarse", zero_contexts(model), [2], [3])
        np.testing.assert_array_equal(logits[0], model.store["prior.table"][2, 3])

    def test_unseen_pair_gives_linear_output_alone(self, model):
        rng = np.random.default_rng(0)
        ctx = rng.normal(size=(1, model.hidden_dim))
        # object class 0 never appears in generated data, so the pair (0, 0)
        # has an all-zero prior slice
        np.testing.assert_array_equal(model.store["prior.table"][0, 0], 0.0)
        logits = decode_rows(model, "fine", ctx, [0], [0])
        expected = ctx @ model.store["decoder.fine.w"] + model.store["decoder.fine.b"]
        np.testing.assert_array_equal(logits, expected)

    def test_branches_differ_on_random_context(self, model):
        rng = np.random.default_rng(1)
        ctx = rng.normal(size=(1, model.hidden_dim))
        assert not np.array_equal(
            decode_rows(model, "coarse", ctx, [1], [2]),
            decode_rows(model, "fine", ctx, [1], [2]),
        )

    def test_affine_in_context(self, model):
        rng = np.random.default_rng(2)
        c1 = rng.normal(size=(1, model.hidden_dim))
        c2 = rng.normal(size=(1, model.hidden_dim))

        def fine(ctx):
            return decode_rows(model, "fine", ctx, [1], [2])

        lhs = fine(c1) + fine(c2) - fine(zero_contexts(model))
        np.testing.assert_allclose(lhs, fine(c1 + c2), atol=1e-9)

    def test_invalid_class_rejected(self, model):
        with pytest.raises(ValueError, match="object class 99"):
            decode_rows(model, "coarse", zero_contexts(model), [99], [0])


class TestFineBranchForward:
    def test_zero_correction_head_means_output_equals_fine(self, dataset, model):
        _, train, _ = dataset
        image = relations_by_image(train)[0]
        result = fine_branch_forward(model, image)
        np.testing.assert_array_equal(result.correction, 0.0)
        np.testing.assert_array_equal(result.output_logits, result.fine_logits)

    def test_single_relation_shape(self, dataset, model):
        _, train, _ = dataset
        result = fine_branch_forward(model, train[:1])
        assert result.output_logits.shape == (1, CFG.num_predicates + 1)

    def test_permutation_equivariance(self, dataset, model):
        rng = np.random.default_rng(3)
        w = model.store["context.classifier.w"]
        w += rng.normal(size=w.shape) * 0.2
        _, train, _ = dataset
        image = relations_by_image(train)[1]
        assert len(image) >= 2
        result = fine_branch_forward(model, image)
        swapped = image[::-1]
        result_swapped = fine_branch_forward(model, swapped)
        np.testing.assert_allclose(
            result_swapped.output_logits,
            result.output_logits[::-1],
            atol=1e-10,
        )
        assert result_swapped.gap_loss == pytest.approx(result.gap_loss, abs=1e-10)

    def test_empty_image_rejected(self, model):
        with pytest.raises(ValueError):
            fine_branch_forward(model, [])


class TestSharedExtractorGradients:
    def test_joint_loss_gradcheck_and_additivity(self, dataset, model):
        _, train, _ = dataset
        image = relations_by_image(train)[2][:3]
        labels = np.asarray([inst.gt_predicate for inst in image])
        subjects = [inst.subject_class for inst in image]
        objects = [inst.object_class for inst in image]
        store = model.store

        def branch_loss(s, branch):
            x = instance_matrix(model, image)
            h, cache = extractor_forward(model, x)
            logits = decode_rows(model, branch, h, subjects, objects)
            losses, grads = cross_entropy_rows(logits, labels)
            grad_h = decode_rows_backward(model, branch, h, grads)
            extractor_backward(model, cache, grad_h)
            return float(np.sum(losses))

        def joint(s):
            return branch_loss(s, "coarse") + branch_loss(s, "fine")

        names = [n for n in store.trainable_names() if n.startswith(("extractor", "decoder"))]
        assert grad_check(joint, store, names=names) <= 1e-4

        # extractor gradient of the joint loss is the sum of the two
        # branch contributions
        store.zero_grads()
        branch_loss(store, "coarse")
        coarse_grad = store.grad("extractor.l1.w").copy()
        store.zero_grads()
        branch_loss(store, "fine")
        fine_grad = store.grad("extractor.l1.w").copy()
        store.zero_grads()
        joint(store)
        np.testing.assert_allclose(
            store.grad("extractor.l1.w"), coarse_grad + fine_grad, atol=1e-12
        )


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """The bytes of a checkpoint of a 4-class, width-4 model, and the offsets
    of every byte that is not a parameter value (header, names, flags,
    shapes)."""
    model = DualBranchModel.build(
        num_object_classes=4, num_predicates=4, feature_dim=4, hidden_dim=4,
        context_dim=4, seed=3,
    )
    path = tmp_path_factory.mktemp("small") / "model.ckpt"
    save_checkpoint(path, model)
    raw = path.read_bytes()
    offsets = list(range(4 + 24 + 4))
    at = len(offsets)
    while at < len(raw):
        (name_len,) = struct.unpack_from("<H", raw, at)
        ndim = raw[at + 2 + name_len + 1]
        shape = struct.unpack_from(f"<{ndim}I", raw, at + 2 + name_len + 2)
        head = 2 + name_len + 2 + 4 * ndim
        offsets += range(at, at + head)
        at += head + 8 * int(np.prod(shape))
    return raw, offsets


def reference_parameters(dims, prior_table, seed):
    """Every parameter as one array each, drawn in ``parameter_specs`` order."""
    rng = np.random.default_rng(seed)
    values = {}
    for name, shape, init in parameter_specs(*dims):
        if init == "glorot":
            bound = np.sqrt(6.0 / (shape[0] + shape[1]))
            values[name] = rng.uniform(-bound, bound, size=shape)
        elif init == "embedding":
            table = rng.standard_normal(shape)
            values[name] = table / np.linalg.norm(table, axis=1, keepdims=True)
        elif init == "prior":
            values[name] = prior_table
        else:
            values[name] = np.zeros(shape)
    return values


class TestParameterArenas:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_build_gives_the_per_array_bytes(self, dataset, seed):
        vocab, train, _ = dataset
        prior = build_prior_bias(train, vocab).table
        dims = (CFG.num_object_classes, CFG.num_predicates, CFG.feature_dim, 12, 16)
        store = DualBranchModel.build(*dims, prior_table=prior, seed=seed).store
        expected = reference_parameters(dims, prior, seed)
        assert store.names() == sorted(expected)
        for name, value in expected.items():
            assert store[name].tobytes() == value.tobytes(), name

    def test_loaded_parameters_are_views_the_step_updates(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        store = load_checkpoint(path).store
        views = {name: store[name] for name in store.names()}
        for name in store.names():
            store.accumulate(name, np.ones_like(views[name]))
        store.sgd_step(0.5)
        for name, view in views.items():
            assert store[name] is view
            shift = 0.5 if store.is_trainable(name) else 0.0
            np.testing.assert_array_equal(view, model.store[name] - shift, err_msg=name)
        store.zero_grads()
        assert not any(store.grad(name).any() for name in store.names())


class TestCheckpoint:
    def test_round_trip_bitwise(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert loaded.num_predicates == model.num_predicates
        assert loaded.num_object_classes == model.num_object_classes
        assert loaded.feature_dim == model.feature_dim
        assert loaded.hidden_dim == model.hidden_dim
        assert loaded.context_dim == model.context_dim
        assert loaded.store.names() == model.store.names()
        for name in model.store.names():
            np.testing.assert_array_equal(loaded.store[name], model.store[name])
            assert loaded.store.is_trainable(name) == model.store.is_trainable(name)

    def test_rewrite_is_bit_identical(self, model, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, model)
        save_checkpoint(b, model)
        assert a.read_bytes() == b.read_bytes()

    def test_every_truncation_is_one_value_error_naming_the_file(self, small_checkpoint):
        raw, _ = small_checkpoint
        wrong = []
        for cut in range(len(raw)):
            try:
                parse_checkpoint(raw[:cut], "cut.ckpt")
            except ValueError as exc:
                message = str(exc)
                if "cut.ckpt" not in message or "\n" in message:
                    wrong.append((cut, message))
            except Exception as exc:  # noqa: BLE001 - the test reports any other
                wrong.append((cut, repr(exc)))
            else:
                wrong.append((cut, "loaded"))
        assert not wrong, f"{len(wrong)} of {len(raw)} cuts, first {wrong[:3]}"

    def test_truncated_file_names_its_path(self, small_checkpoint, tmp_path):
        path = tmp_path / "cut.ckpt"
        path.write_bytes(small_checkpoint[0][:-9])
        with pytest.raises(ValueError, match=f"^{path}: truncated checkpoint"):
            load_checkpoint(path)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_byte_flips_load_or_raise_one_value_error_naming_the_file(
        self, small_checkpoint, data
    ):
        raw, metadata = bytearray(small_checkpoint[0]), small_checkpoint[1]
        positions = st.sampled_from(metadata) | st.integers(0, len(raw) - 1)
        for position, mask in data.draw(
            st.lists(st.tuples(positions, st.integers(1, 255)), min_size=1, max_size=3)
        ):
            raw[position] ^= mask
        try:
            parse_checkpoint(bytes(raw), "flipped.ckpt")
        except ValueError as exc:
            message = str(exc)
            assert "flipped.ckpt" in message and "\n" not in message, message

    @pytest.mark.parametrize("bit", [11, 20, 31])
    def test_flipped_high_bit_in_hidden_dim_is_rejected_without_allocating(
        self, model, tmp_path, bit
    ):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 12, model.hidden_dim ^ (1 << bit))
        path.write_bytes(bytes(raw))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        message = str(info.value)
        assert message.startswith(f"{path}: parameter 'decoder.coarse.w' has shape")
        assert "\n" not in message
        # parsing holds the file's bytes, never a model of the flipped width
        assert peak < 2 * len(raw) + 64_000, peak

    @pytest.mark.parametrize("dims", [(4, 4, 4, 4, 4), (6, 7, 8, 12, 16), (1, 1, 1, 1, 1)])
    def test_parameter_specs_are_what_build_makes(self, dims):
        n_obj, n_pred, d, hidden, context = dims
        store = DualBranchModel.build(n_obj, n_pred, d, hidden, context).store
        specs = parameter_specs(n_obj, n_pred, d, hidden, context)
        assert [name for name, _, _ in specs] == list(store._params)
        for name, shape, init in specs:
            assert store[name].shape == shape
            assert store.is_trainable(name) == (init not in ("embedding", "prior"))

    @pytest.mark.parametrize("extra", [b"\x00", b"DBRM" * 3])
    def test_trailing_bytes_rejected(self, model, tmp_path, extra):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(ValueError, match=f"{len(extra)} trailing bytes"):
            load_checkpoint(path)

    def test_header_disagreeing_with_the_parameters_rejected(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 12, model.hidden_dim + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="parameter 'decoder.coarse.w' has shape"):
            load_checkpoint(path)

    def test_flipped_trainable_flag_rejected(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        raw = bytearray(path.read_bytes())
        raw[raw.index(b"prior.table") + len(b"prior.table")] = 1
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="'prior.table' .* trainable=True"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_checkpoint(path)
