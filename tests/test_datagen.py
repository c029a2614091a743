import hashlib
import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from dualrel.datagen import (
    GeneratorConfig,
    RelationTable,
    _build_vocabulary,
    build_prior_bias,
    generate_dataset,
    group_split,
    head_set,
    load_dataset,
    load_relations,
    relations_by_image,
    save_dataset,
    save_relations,
    zipf_allocation,
)
from dualrel.numerics import ConfigurationError

SMALL = GeneratorConfig(
    num_head_predicates=4, tails_per_head=4, zipf_exponent=1.2,
    num_train=5000, num_test=200, seed=7,
)


def vocab_with_counts(counts):
    from dualrel.datagen import PredicateVocabulary

    names = ["background"] + [f"p{i}" for i in range(1, len(counts) + 1)]
    parents = np.arange(len(names), dtype=np.int64)
    parents[0] = -1
    return PredicateVocabulary(
        names,
        np.concatenate([[0], np.asarray(counts, dtype=np.int64)]),
        parents,
    )


def instances_equal(a, b):
    return (
        a.image_id == b.image_id
        and a.subject_class == b.subject_class
        and a.object_class == b.object_class
        and a.gt_predicate == b.gt_predicate
        and np.array_equal(a.subject_feature, b.subject_feature)
        and np.array_equal(a.object_feature, b.object_feature)
        and np.array_equal(a.union_feature, b.union_feature)
        and np.array_equal(a.subject_label_dist, b.subject_label_dist)
        and np.array_equal(a.object_label_dist, b.object_label_dist)
    )


class TestGenerateDataset:
    def test_deterministic_per_seed(self):
        vocab_a, train_a, test_a = generate_dataset(SMALL)
        vocab_b, train_b, test_b = generate_dataset(SMALL)
        np.testing.assert_array_equal(vocab_a.train_counts, vocab_b.train_counts)
        assert vocab_a.names == vocab_b.names
        assert all(instances_equal(x, y) for x, y in zip(train_a, train_b))
        assert all(instances_equal(x, y) for x, y in zip(test_a, test_b))

    def test_counts_sum_exactly(self):
        vocab, train, _ = generate_dataset(SMALL)
        assert int(vocab.train_counts.sum()) == SMALL.num_train
        assert len(train) == SMALL.num_train
        observed = np.bincount(
            [inst.gt_predicate for inst in train], minlength=len(vocab.names)
        )
        np.testing.assert_array_equal(observed, vocab.train_counts)

    def test_default_config_zipf_ratio(self):
        vocab, _, _ = generate_dataset(GeneratorConfig())
        assert vocab.train_counts[1] / vocab.train_counts[20] >= 20

    def test_heads_ranked_above_their_tails(self):
        vocab, _, _ = generate_dataset(GeneratorConfig())
        for i, parent in enumerate(vocab.parent_of):
            if 0 < parent != i:
                assert vocab.train_counts[parent] > vocab.train_counts[i]

    def test_seed_changes_features_not_counts(self):
        cfg_a = SMALL
        cfg_b = GeneratorConfig(**{**SMALL.__dict__, "seed": 8})
        vocab_a, train_a, _ = generate_dataset(cfg_a)
        vocab_b, train_b, _ = generate_dataset(cfg_b)
        np.testing.assert_array_equal(vocab_a.train_counts, vocab_b.train_counts)
        assert not all(instances_equal(x, y) for x, y in zip(train_a, train_b))

    def test_degenerate_offsets_collapse_tails_onto_heads(self):
        cfg = GeneratorConfig(
            num_head_predicates=2, tails_per_head=2, tail_offset_scale=0.0,
            noise_scale=0.0, num_train=600, num_test=60, seed=3,
        )
        vocab, train, _ = generate_dataset(cfg)
        # with zero offset and zero noise every predicate in a head group
        # produces the head's exact anchor: tails are indistinguishable
        anchors = {}
        for inst in train:
            parent = int(vocab.parent_of[inst.gt_predicate])
            key = (parent, inst.gt_predicate)
            anchors.setdefault(key, inst.union_feature)
            np.testing.assert_array_equal(anchors[key], inst.union_feature)
        for parent in set(vocab.parent_of[1:].tolist()):
            group = {k: v for k, v in anchors.items() if k[0] == parent}
            reference = anchors[(parent, parent)]
            for vec in group.values():
                np.testing.assert_array_equal(vec, reference)

    def test_label_distributions_normalized(self):
        _, train, test = generate_dataset(SMALL)
        for inst in [*train[:100], *test[:100]]:
            assert abs(inst.subject_label_dist.sum() - 1.0) <= 1e-9
            assert abs(inst.object_label_dist.sum() - 1.0) <= 1e-9
            assert np.all(inst.subject_label_dist >= 0)

    def test_test_split_class_balanced(self):
        vocab, _, test = generate_dataset(SMALL)
        per_class = SMALL.num_test // SMALL.num_predicates
        observed = np.bincount(
            [inst.gt_predicate for inst in test], minlength=len(vocab.names)
        )
        np.testing.assert_array_equal(observed[1:], per_class)
        assert observed[0] == 0

    def test_image_grouping(self):
        cfg = GeneratorConfig(
            num_head_predicates=4, tails_per_head=1, num_train=100, num_test=16,
            relations_per_image=6, seed=1,
        )
        _, train, _ = generate_dataset(cfg)
        images = relations_by_image(train)
        sizes = [len(img) for img in images]
        assert sum(sizes) == 100
        assert all(size == 6 for size in sizes[:-1])

    def test_infeasible_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            # 200 classes over 300 samples with a steep law starves the tail
            zipf_allocation(200, 3.0, 300)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            GeneratorConfig(feature_dim=2)
        with pytest.raises(ConfigurationError):
            GeneratorConfig(num_head_predicates=0)
        with pytest.raises(ConfigurationError):
            GeneratorConfig(num_train=10)

    @pytest.mark.parametrize("field, value", [
        ("noise_scale", math.nan),
        ("noise_scale", math.inf),
        ("noise_scale", -0.1),
        ("tail_offset_scale", math.nan),
        ("tail_offset_scale", math.inf),
        ("zipf_exponent", math.nan),
    ])
    def test_nan_and_non_finite_knobs_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            GeneratorConfig(**{field: value})


def _reference_label_dist(rng, true_class, num_object_classes, label_noise):
    dist = np.zeros(num_object_classes + 1)
    dist[true_class] = 1.0
    noise = rng.random(num_object_classes + 1)
    noise /= noise.sum()
    return (1.0 - label_noise) * dist + label_noise * noise


def _reference_assign_images(rng, parents, relations_per_image):
    pools = {}
    for row, parent in enumerate(parents.tolist()):
        pools.setdefault(parent, []).append(row)
    for parent in pools:
        pool = pools[parent]
        order = rng.permutation(len(pool))
        pools[parent] = [pool[i] for i in order]
    packed, image_ids = [], []
    image_id = 0
    while pools:
        parents = sorted(pools)
        take = min(int(rng.integers(2, 4)), len(parents))
        sizes = np.array([len(pools[p]) for p in parents], dtype=np.float64)
        chosen = rng.choice(
            len(parents), size=take, replace=False, p=sizes / sizes.sum()
        )
        active = [parents[i] for i in sorted(chosen)]
        for _ in range(relations_per_image):
            active = [p for p in active if pools.get(p)]
            if not active:
                if not pools:
                    break
                active = [sorted(pools)[int(rng.integers(0, len(pools)))]]
            parent = active[int(rng.integers(0, len(active)))]
            packed.append(pools[parent].pop())
            image_ids.append(image_id)
            if not pools[parent]:
                del pools[parent]
        image_id += 1
    return packed, image_ids


def reference_generate(cfg):
    """The generator one row at a time: every row's features and label
    distributions computed as it is drawn. Returns the two splits' (ids, x)."""
    vocab = _build_vocabulary(cfg)
    rng = np.random.default_rng(cfg.seed)
    d, n_obj, n_pred = cfg.feature_dim, cfg.num_object_classes, cfg.num_predicates
    obj_anchors = rng.standard_normal((n_obj + 1, d))
    head_anchors = rng.standard_normal((cfg.num_head_predicates + 1, d))
    offsets = rng.standard_normal((n_pred + 1, d)) * cfg.tail_offset_scale
    pattern_anchors = np.zeros((n_pred + 1, d))
    for i in range(1, n_pred + 1):
        parent = vocab.parent_of[i]
        pattern_anchors[i] = head_anchors[parent]
        if i != parent:
            pattern_anchors[i] += offsets[i]
    canonical_pairs = {
        h: (int(rng.integers(1, n_obj + 1)), int(rng.integers(1, n_obj + 1)))
        for h in range(1, cfg.num_head_predicates + 1)
    }

    def split(per_predicate):
        predicates = np.repeat(np.arange(1, n_pred + 1), per_predicate)
        parents = vocab.parent_of[predicates]
        ids = np.zeros((len(predicates), 3), dtype=np.int64)
        x = np.empty((len(predicates), 3 * d + 2 * (n_obj + 1)))
        for row, predicate in enumerate(predicates.tolist()):
            if rng.random() < cfg.pair_concentration:
                subj, obj = canonical_pairs[int(parents[row])]
            else:
                subj = int(rng.integers(1, n_obj + 1))
                obj = int(rng.integers(1, n_obj + 1))
            ids[row] = subj, obj, predicate
            x[row] = np.concatenate([
                obj_anchors[subj] + cfg.noise_scale * rng.standard_normal(d),
                obj_anchors[obj] + cfg.noise_scale * rng.standard_normal(d),
                pattern_anchors[predicate] + cfg.noise_scale * rng.standard_normal(d),
                _reference_label_dist(rng, subj, n_obj, cfg.label_noise),
                _reference_label_dist(rng, obj, n_obj, cfg.label_noise),
            ])
        order, image_ids = _reference_assign_images(rng, parents,
                                                    cfg.relations_per_image)
        return np.column_stack([image_ids, ids[order]]), x[order]

    return split(vocab.train_counts[1:]), split(cfg.num_test // n_pred)


CRITERION_1 = GeneratorConfig(
    num_object_classes=6, num_head_predicates=3, tails_per_head=1,
    feature_dim=8, num_train=240, num_test=48, relations_per_image=4, seed=5,
)


class TestGeneratorMatchesRowByRowReference:
    @pytest.mark.parametrize("cfg", [
        pytest.param(GeneratorConfig(), id="default"),
        pytest.param(CRITERION_1, id="criterion-1-tiny"),
        pytest.param(replace(SMALL, pair_concentration=0.0), id="pair_concentration=0"),
        pytest.param(replace(SMALL, pair_concentration=1.0), id="pair_concentration=1"),
        pytest.param(replace(SMALL, label_noise=0.0), id="label_noise=0"),
        pytest.param(replace(CRITERION_1, relations_per_image=1), id="relations_per_image=1"),
        # label distributions wider than numpy's 128-element pairwise-sum block
        pytest.param(replace(CRITERION_1, num_object_classes=150, feature_dim=5),
                     id="150-object-classes"),
    ])
    def test_splits_are_byte_identical(self, cfg):
        _, train, test = generate_dataset(cfg)
        for table, (ids, x) in zip((train, test), reference_generate(cfg)):
            assert table.ids.tobytes() == ids.tobytes()
            assert table.x.tobytes() == x.tobytes()


class TestHeadSet:
    def test_threshold(self):
        vocab = vocab_with_counts([50_000, 12_000, 9_000, 500])
        assert head_set(vocab, 10_000) == [1, 2]

    def test_zero_threshold_includes_every_sampled_predicate(self):
        vocab = vocab_with_counts([5, 1, 0, 3])
        assert head_set(vocab, 0) == [1, 2, 4]

    def test_background_excluded(self):
        vocab = vocab_with_counts([5, 5])
        vocab.train_counts[0] = 10**6
        assert 0 not in head_set(vocab, 1)

    def test_partition_with_tails(self):
        vocab, _, _ = generate_dataset(GeneratorConfig())
        heads = head_set(vocab, 52)
        tails = [i for i in range(1, vocab.num_predicates + 1) if i not in heads]
        assert len(heads) == 16  # mirrors the reference 16-head setting
        assert sorted(heads + tails) == list(range(1, vocab.num_predicates + 1))


class TestGroupSplit:
    def test_fifty_class_sizes(self):
        vocab = vocab_with_counts(np.arange(50, 0, -1) * 10)
        many, medium, few = group_split(vocab)
        assert (len(many), len(medium), len(few)) == (17, 17, 16)

    def test_exact_thirds(self):
        vocab = vocab_with_counts([9, 8, 7, 3, 2, 1])
        many, medium, few = group_split(vocab)
        assert many == [1, 2]
        assert medium == [3, 4]
        assert few == [5, 6]

    def test_three_classes(self):
        vocab = vocab_with_counts([5, 3, 1])
        many, medium, few = group_split(vocab)
        assert (len(many), len(medium), len(few)) == (1, 1, 1)

    def test_partition_and_balance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(3, 60))
            vocab = vocab_with_counts(rng.integers(1, 1000, size=n))
            many, medium, few = group_split(vocab)
            assert sorted(many + medium + few) == list(range(1, n + 1))
            assert abs(len(medium) - len(few)) <= 1

    def test_ties_broken_by_index(self):
        vocab = vocab_with_counts([4, 4, 4, 4, 4, 4])
        many, medium, few = group_split(vocab)
        assert many == [1, 2]
        assert medium == [3, 4]
        assert few == [5, 6]


class TestPriorBias:
    def test_single_observation_dominates(self):
        vocab = vocab_with_counts([1, 1, 1, 1])
        _, train, _ = generate_dataset(SMALL)
        one = replace(train[:1], ids=np.array([[train[0].image_id, 1, 2, 3]]))
        prior = build_prior_bias(one, vocab)
        assert int(np.argmax(prior.table[1, 2])) == 3

    def test_unseen_pair_is_zero(self):
        vocab = vocab_with_counts([1, 1, 1])
        _, train, _ = generate_dataset(SMALL)
        one = replace(train[:1], ids=np.array([[train[0].image_id, 1, 2, 3]]))
        prior = build_prior_bias(one, vocab)
        np.testing.assert_array_equal(prior.table[0, 0], 0.0)
        np.testing.assert_array_equal(prior.table[2, 1], 0.0)

    def test_log_ratio_formula(self):
        vocab = vocab_with_counts([1, 1])
        _, train, _ = generate_dataset(SMALL)
        ids = train.ids[:4].copy()
        ids[:, 1:] = [(3, 4, predicate) for predicate in [1, 1, 1, 2]]
        base = replace(train[:4], ids=ids)
        prior = build_prior_bias(base, vocab)
        eps = 1e-3
        expected = np.log((3 + eps) / (1 + eps))
        assert prior.table[3, 4, 1] - prior.table[3, 4, 2] == pytest.approx(
            expected, rel=1e-12
        )

    def test_empty_training_split_rejected(self):
        vocab = vocab_with_counts([1])
        with pytest.raises(ValueError):
            build_prior_bias([], vocab)


class TestRelationTable:
    def test_image_slices_concatenate_back_to_the_table(self):
        _, train, _ = generate_dataset(SMALL)
        images = relations_by_image(train)
        assert all(len(set(image.ids[:, 0].tolist())) == 1 for image in images)
        assert len({int(image.ids[0, 0]) for image in images}) == len(images)
        np.testing.assert_array_equal(
            np.concatenate([image.ids for image in images]), train.ids
        )
        assert np.concatenate([image.x for image in images]).tobytes() == (
            train.x.tobytes()
        )

    def test_decreasing_image_ids_rejected(self):
        _, train, _ = generate_dataset(SMALL)
        with pytest.raises(ValueError, match="must not decrease"):
            relations_by_image(train[::-1])

    def test_row_view_is_a_frozen_view_of_its_row(self):
        _, train, _ = generate_dataset(SMALL)
        row = train[7]
        assert [row.image_id, row.subject_class, row.object_class,
                row.gt_predicate] == train.ids[7].tolist()
        assert all(np.shares_memory(getattr(row, name), train.x[7])
                   for name in ("subject_feature", "object_label_dist"))
        with pytest.raises(FrozenInstanceError):
            row.gt_predicate = 1
        with pytest.raises(FrozenInstanceError):
            row.union_feature = np.zeros(SMALL.feature_dim)
        assert len(list(train)) == len(train)


class TestDatasetFiles:
    @pytest.mark.parametrize("existing", [None, "previous\n"])
    def test_writer_failing_halfway_leaves_no_file(self, tmp_path, existing):
        cfg = GeneratorConfig(
            num_head_predicates=3, tails_per_head=2, num_train=120, num_test=36,
            seed=11,
        )
        _, train, _ = generate_dataset(cfg)
        path = tmp_path / "train.txt"
        if existing is not None:
            path.write_text(existing)
        with pytest.raises(AttributeError):
            # the header and ten relations are written before the bad entry
            save_relations(
                path, replace(train[:11], x=[*train.x[:10], None]),
                cfg.num_predicates,
            )
        assert [p.name for p in tmp_path.iterdir()] == (
            [] if existing is None else ["train.txt"]
        )
        if existing is not None:
            assert path.read_text() == existing

    def test_round_trip_is_exact(self, tmp_path):
        cfg = GeneratorConfig(
            num_head_predicates=3, tails_per_head=2, num_train=120, num_test=36,
            seed=11,
        )
        vocab, train, test = generate_dataset(cfg)
        save_dataset(tmp_path, vocab, train, test)
        vocab2, train2, test2 = load_dataset(tmp_path)
        assert vocab2.names == vocab.names
        np.testing.assert_array_equal(vocab2.train_counts, vocab.train_counts)
        np.testing.assert_array_equal(vocab2.parent_of, vocab.parent_of)
        for split in (train2, test2):
            assert (split.num_object_classes, split.feature_dim) == (
                cfg.num_object_classes, cfg.feature_dim)
        assert all(instances_equal(x, y) for x, y in zip(train, train2))
        assert all(instances_equal(x, y) for x, y in zip(test, test2))

    def test_rewrite_is_bit_identical(self, tmp_path):
        cfg = GeneratorConfig(
            num_head_predicates=3, tails_per_head=2, num_train=120, num_test=36,
            seed=11,
        )
        vocab, train, test = generate_dataset(cfg)
        save_dataset(tmp_path / "a", vocab, train, test)
        save_dataset(tmp_path / "b", vocab, train, test)
        for name in ("vocab.txt", "train.txt", "test.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_loaded_values_are_the_bits_of_float_of_every_token(self, tmp_path):
        cfg = GeneratorConfig(
            num_head_predicates=3, tails_per_head=2, num_train=120, num_test=36,
            seed=11,
        )
        _, train, _ = generate_dataset(cfg)
        path = tmp_path / "train.txt"
        save_relations(path, train, cfg.num_predicates)
        loaded, _ = load_relations(path)
        lines = path.read_text().splitlines()[1:]
        assert len(loaded) == len(lines)
        for inst, line in zip(loaded, lines):
            tokens = line.split()
            assert [inst.image_id, inst.subject_class, inst.object_class,
                    inst.gt_predicate] == [int(t) for t in tokens[:4]]
            values = np.concatenate([
                inst.subject_feature, inst.object_feature, inst.union_feature,
                inst.subject_label_dist, inst.object_label_dist,
            ])
            expected = np.array([float(t) for t in tokens[4:]])
            assert values.tobytes() == expected.tobytes()

    def test_save_load_save_is_a_byte_identical_fixed_point(self, tmp_path):
        cfg = GeneratorConfig(
            num_head_predicates=3, tails_per_head=2, num_train=120, num_test=36,
            seed=12,
        )
        vocab, train, test = generate_dataset(cfg)
        save_dataset(tmp_path / "a", vocab, train, test)
        vocab2, train2, test2 = load_dataset(tmp_path / "a")
        save_dataset(tmp_path / "b", vocab2, train2, test2)
        for name in ("vocab.txt", "train.txt", "test.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_header_records_the_tables_own_dimensions(self, tmp_path):
        _, train, _ = generate_dataset(CRITERION_1)
        path = tmp_path / "train.txt"
        save_relations(path, train, CRITERION_1.num_predicates)
        assert path.read_text().splitlines()[0].split() == [
            "relations", "1", str(train.num_object_classes),
            str(CRITERION_1.num_predicates), str(train.feature_dim),
        ]

    def test_empty_body_is_an_empty_split(self, tmp_path):
        path = tmp_path / "empty.txt"
        save_relations(path, RelationTable(np.zeros((0, 4), np.int64),
                                           np.zeros((0, 25)), 4, 5), 6)
        table, n_pred = load_relations(path)
        assert (len(table), table.num_object_classes, n_pred, table.feature_dim) == (
            0, 4, 6, 5)
        assert table.x.shape == (0, 25)


# criterion 8's generator config (tests/test_acceptance.py GEN_CFG), the
# benchmark's cli_pipeline data, GeneratorConfig(seed=1), and criterion 8's
# config with no tails or an all-or-nothing pair draw
GOLDEN_DATASETS = {
    "criterion-8": (
        GeneratorConfig(num_object_classes=8, num_head_predicates=4,
                        tails_per_head=2, feature_dim=8, num_train=600,
                        num_test=120, relations_per_image=6, seed=13),
        {
            "vocab.txt": "a7db55c0129d9d4640a06eec852c1d0bdf118799611e22e430c58d9df942060d",
            "train.txt": "695a9f9db518e4c86f6a954c978e436cc330530dfb20bfc4fd48fc9895eb61d2",
            "test.txt": "0a50a2b9fc2b32ddc80e42b4f48df2f6dd0b3297e96af4c3c20f091e96460c19",
        },
    ),
    "bench-seed-1": (
        GeneratorConfig(seed=1),
        {
            "vocab.txt": "298092007180074257dd442af83476f2dc26fb7e246ff16dbbb0260157113502",
            "train.txt": "0c46d23b82cdf9a793031bf5cb3d4bf6904778f3195fa8f0e283338ad50c9440",
            "test.txt": "d39cc56e500a78d67a1f3921cf9b21698afdafe3af0226b13211bfec50016223",
        },
    ),
    # an empty tail index
    "criterion-8-tails_per_head=0": (
        GeneratorConfig(num_object_classes=8, num_head_predicates=4,
                        tails_per_head=0, feature_dim=8, num_train=600,
                        num_test=120, relations_per_image=6, seed=13),
        {
            "vocab.txt": "7799983cbe6673198851ad3c78bcca070bc742fc2a86765ca9b02a33f47be4fd",
            "train.txt": "1cf86db5e8c4b1f98d6337efecd4f4066f5e3dc04148f68f0b22ce2f73f7f12d",
            "test.txt": "a3e505d3eb4f39b25f88e8bd817ab4e15e215db734ec9e91a2df342c9aa430ee",
        },
    ),
    # no pair redrawn
    "criterion-8-pair_concentration=1.0": (
        GeneratorConfig(num_object_classes=8, num_head_predicates=4,
                        tails_per_head=2, feature_dim=8, num_train=600,
                        num_test=120, relations_per_image=6, seed=13,
                        pair_concentration=1.0),
        {
            "vocab.txt": "a7db55c0129d9d4640a06eec852c1d0bdf118799611e22e430c58d9df942060d",
            "train.txt": "68eb3d5ed84df4adb0972ee9affd6007081c22f6f8c50b6d4392dc5132973f6d",
            "test.txt": "ca45a08d0e3f429d52f4b1de9300dc26bb5c17f95f3a70b006215a505a2f32cf",
        },
    ),
    # every pair redrawn
    "criterion-8-pair_concentration=0.0": (
        GeneratorConfig(num_object_classes=8, num_head_predicates=4,
                        tails_per_head=2, feature_dim=8, num_train=600,
                        num_test=120, relations_per_image=6, seed=13,
                        pair_concentration=0.0),
        {
            "vocab.txt": "a7db55c0129d9d4640a06eec852c1d0bdf118799611e22e430c58d9df942060d",
            "train.txt": "d5aa065504ab4aa3486a7bc940546f3e4c71cd07cebf59ed697e47fb5522f00e",
            "test.txt": "224b0c88385c927646428b6019bfd3f44ab4382ca29292efd3fbb4223a183cd1",
        },
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_DATASETS))
def test_generated_dataset_files_have_the_golden_bytes(tmp_path, name):
    """The sha256 of each file ``save_dataset`` writes for a generated
    dataset, recorded with numpy 2.4.6.

    Generating and writing a dataset runs no BLAS product: the bytes depend
    only on numpy's Generator streams and on ``repr`` of the floats, so they
    do not vary with the BLAS build or its thread count. A numpy whose
    Generator streams differ gives other bytes; that is a finding about the
    byte promise, not a reason to record new digests.
    """
    cfg, digests = GOLDEN_DATASETS[name]
    save_dataset(tmp_path, *generate_dataset(cfg))
    got = {
        file: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
        for file in digests
    }
    assert got == digests
