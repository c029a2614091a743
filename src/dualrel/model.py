"""Dual-branch relation model.

One shared two-layer feed-forward extractor maps each relation's
concatenated inputs (subject/object/union features plus the two object
label distributions) to a context vector. Two linear decoders read it: the
"coarse" branch, trained conventionally, and the "fine" branch, trained
with the curriculum objectives and used at inference. Both branches add the
frozen subject-object prior-bias slice to their logits. The extractor is a
single set of parameters, so sharing between branches is by construction.

The layers take one image's (n, ·) rows or a (G, n, ·) stack of equal-size
images; one relation is a one-row table. Two one-image forms remain,
``instance_matrix`` and ``fine_branch_forward``, because the benchmark in
``bench/`` resolves and calls them by name.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import semantic_context
from .datagen import open_atomic
from .numerics import (
    ParamStore,
    linear_backward,
    linear_forward,
    relu,
    relu_backward,
)

BRANCHES = ("coarse", "fine")
CHECKPOINT_MAGIC = b"DBRM"
CHECKPOINT_VERSION = 1
FROZEN_INITS = ("embedding", "prior")


@dataclass
class DualBranchModel:
    store: ParamStore
    num_object_classes: int
    num_predicates: int
    feature_dim: int
    hidden_dim: int
    context_dim: int

    @property
    def num_classes(self):
        return self.num_predicates + 1

    @property
    def input_dim(self):
        return 3 * self.feature_dim + 2 * (self.num_object_classes + 1)

    @classmethod
    def build(cls, num_object_classes, num_predicates, feature_dim, hidden_dim,
              context_dim, prior_table=None, seed=0):
        """Deterministically initialized model; prior defaults to all-zero.

        The store's arenas are sized once, from ``parameter_specs``."""
        rng = np.random.default_rng(seed)
        specs = parameter_specs(
            num_object_classes, num_predicates, feature_dim, hidden_dim, context_dim
        )
        model = cls(
            store=ParamStore(
                (name, shape, init not in FROZEN_INITS) for name, shape, init in specs
            ),
            num_object_classes=num_object_classes,
            num_predicates=num_predicates,
            feature_dim=feature_dim,
            hidden_dim=hidden_dim,
            context_dim=context_dim,
        )
        *drawn, (prior_name, expected, _) = specs
        semantic_context.add_params(model.store, drawn, rng)
        if prior_table is None:
            prior_table = np.zeros(expected)
        if prior_table.shape != expected:
            raise ValueError(
                f"prior table shape {prior_table.shape} does not match {expected}"
            )
        model.store.add(prior_name, prior_table, trainable=False)
        return model


def parameter_specs(num_object_classes, num_predicates, feature_dim, hidden_dim,
                    context_dim):
    """(name, shape, init) of every parameter of a model of these dimensions,
    in the order ``DualBranchModel.build`` adds them; allocates nothing.

    init is one of ``semantic_context.add_params``'s kinds, or "prior" for
    the frozen prior-bias table; "embedding" and "prior" are not trainable.
    """
    input_dim = 3 * feature_dim + 2 * (num_object_classes + 1)
    num_classes = num_predicates + 1
    specs = [
        ("extractor.l1.w", (input_dim, hidden_dim), "glorot"),
        ("extractor.l1.b", (hidden_dim,), "zeros"),
        ("extractor.l2.w", (hidden_dim, hidden_dim), "glorot"),
        ("extractor.l2.b", (hidden_dim,), "zeros"),
    ]
    for branch in BRANCHES:
        specs += [
            (f"decoder.{branch}.w", (hidden_dim, num_classes), "glorot"),
            (f"decoder.{branch}.b", (num_classes,), "zeros"),
        ]
    specs += semantic_context.context_param_specs(num_predicates, context_dim)
    specs += semantic_context.embedding_specs(num_predicates, num_object_classes)
    pairs = num_object_classes + 1
    specs.append(("prior.table", (pairs, pairs, num_classes), "prior"))
    return specs


def _check_dims(model, feature_dim, num_object_classes):
    dims = (model.feature_dim, model.num_object_classes)
    if (feature_dim, num_object_classes) != dims:
        raise ValueError(
            f"relations of feature dim {feature_dim} and {num_object_classes} object "
            f"classes do not fit the model's {dims[0]} and {dims[1]}"
        )


def instance_matrix(model, table):
    """A relation table's extractor input rows, its dims checked (the
    library gathers with ``run_inputs``; the benchmark calls this)."""
    _check_dims(model, table.feature_dim, table.num_object_classes)
    return table.x


def image_runs(images):
    """(start, stop) of each run of consecutive images with equal sizes."""
    start = 0
    for stop in range(1, len(images) + 1):
        if stop == len(images) or len(images[stop]) != len(images[start]):
            yield start, stop
            start = stop


def run_inputs(model, images):
    """Inputs of a run of equal-size images (table slices): the (G, n,
    input_dim) extractor input and the (G, n) subject, object, predicate ids."""
    _check_dims(model, images[0].feature_dim, images[0].num_object_classes)
    ids = np.stack([image.ids for image in images])
    return (np.stack([image.x for image in images]),
            ids[..., 1], ids[..., 2], ids[..., 3])


def label_dists(model, x):
    """The subject and object label-distribution columns of extractor input
    rows; ``FEATURE_FIELDS`` puts them last, after the three features."""
    start = 3 * model.feature_dim
    stop = start + model.num_object_classes + 1
    return x[..., start:stop], x[..., stop:]


def extractor_forward(model, x):
    """Shared extractor: linear -> relu -> linear. Returns (h, cache).

    x is one image's (n, input_dim) matrix or a (G, n, input_dim) stack.
    """
    store = model.store
    pre = linear_forward(x, store["extractor.l1.w"], store["extractor.l1.b"])
    hidden = relu(pre)
    h = linear_forward(hidden, store["extractor.l2.w"], store["extractor.l2.b"])
    return h, {"x": x, "pre": pre, "hidden": hidden}


def extractor_backward(model, cache, grad_h):
    """Accumulate extractor gradients for a batch of context-vector grads."""
    store = model.store
    grad_hidden, gw2, gb2 = linear_backward(
        cache["hidden"], store["extractor.l2.w"], grad_h
    )
    store.accumulate("extractor.l2.w", gw2)
    store.accumulate("extractor.l2.b", gb2)
    grad_pre = relu_backward(cache["pre"], grad_hidden)
    # the input rows are data: their gradient is never formed
    store.accumulate("extractor.l1.w", np.swapaxes(cache["x"], -1, -2) @ grad_pre)
    store.accumulate("extractor.l1.b", grad_pre.sum(axis=-2))


def _check_classes(model, subjects, objects):
    classes = np.asarray([subjects, objects])
    if classes.size and not (
        0 <= classes.min() and classes.max() <= model.num_object_classes
    ):
        bad = classes[(classes < 0) | (classes > model.num_object_classes)]
        raise ValueError(
            f"object class {bad[0]} out of range [0, {model.num_object_classes}]"
        )


def prior_rows(model, subjects, objects):
    """Prior-bias rows for class-id sequences, or (G, n) class-id arrays."""
    _check_classes(model, subjects, objects)
    return model.store["prior.table"][np.asarray(subjects), np.asarray(objects)]


def decode_rows(model, branch, contexts, subjects, objects):
    """Branch logits, a linear map of the context plus each pair's prior
    slice, for (n, hidden) context rows or a (G, n, hidden) stack."""
    store = model.store
    logits = linear_forward(
        contexts, store[f"decoder.{branch}.w"], store[f"decoder.{branch}.b"]
    )
    logits += prior_rows(model, subjects, objects)
    return logits


def decode_rows_backward(model, branch, contexts, grad_logits):
    """Accumulate decoder grads; returns gradient wrt the context rows."""
    store = model.store
    grad_ctx, gw, gb = linear_backward(
        contexts, store[f"decoder.{branch}.w"], grad_logits
    )
    store.accumulate(f"decoder.{branch}.w", gw)
    store.accumulate(f"decoder.{branch}.b", gb)
    return grad_ctx


@dataclass
class FineBranchResult:
    """Fine-branch logits before and after context correction."""

    fine_logits: np.ndarray
    correction: np.ndarray
    output_logits: np.ndarray
    gap_loss: float


def fine_branch_rows(model, x, subjects, objects, predicates=None):
    """Inference path, fine decode + context correction, for one image's
    (n, ·) rows or a (G, n, ·) stack as ``run_inputs`` gives them. The gap
    loss is computed only when the ground-truth predicates are given."""
    h, _ = extractor_forward(model, x)
    fine = decode_rows(model, "fine", h, subjects, objects)
    result = semantic_context.context_forward(
        fine,
        *label_dists(model, x),
        model.store,
        ground_truth=None if predicates is None else (predicates, subjects, objects),
    )
    return FineBranchResult(
        fine_logits=fine,
        correction=result.correction,
        output_logits=fine + result.correction,
        gap_loss=result.gap_loss,
    )


def fine_branch_forward(model, image, with_gap=True):
    """``fine_branch_rows`` for one image's relation table; the gap loss is
    skipped unless with_gap is true. The library evaluates with
    ``fine_branch_rows``; the benchmark traces this name."""
    if not len(image):
        raise ValueError("need at least one relation in the image")
    x, subjects, objects, predicates = (a[0] for a in run_inputs(model, [image]))
    return fine_branch_rows(model, x, subjects, objects, predicates if with_gap else None)


# ---------------------------------------------------------------------------
# checkpoints: little-endian binary, parameters in sorted-name order
# ---------------------------------------------------------------------------


def save_checkpoint(path, model):
    store = model.store
    names = store.names()
    with open_atomic(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(
            struct.pack(
                "<6I",
                CHECKPOINT_VERSION,
                model.feature_dim,
                model.hidden_dim,
                model.context_dim,
                model.num_predicates,
                model.num_object_classes,
            )
        )
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            raw = name.encode("utf-8")
            arr = store[name]
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<BB", int(store.is_trainable(name)), arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint file; see ``parse_checkpoint``."""
    with open(path, "rb") as fh:
        return parse_checkpoint(fh.read(), path)


def parse_checkpoint(data, name):
    """The model held by the bytes of a checkpoint from ``save_checkpoint``.

    Bytes that end early, run past the last parameter, or are otherwise
    malformed raise one ValueError that names ``name`` (the file). So do
    header dimensions below 1, parameters that differ in name, shape or
    trainable flag from those ``parameter_specs`` gives for the header's
    dimensions, and non-finite values. Each parameter is compared before
    its values are read, and the model is built only once all of them
    matched, so a corrupted header dimension cannot make it allocate more
    than the file holds.
    """
    offset = 0

    def take(size):
        nonlocal offset
        if offset + size > len(data):
            raise ValueError(
                f"{name}: truncated checkpoint ({len(data)} bytes; a read of "
                f"{size} at byte {offset} runs past the end)"
            )
        offset += size
        return data[offset - size : offset]

    def unpack(fmt):
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    if take(4) != CHECKPOINT_MAGIC:
        raise ValueError(f"{name} is not a model checkpoint")
    version, *header = unpack("<6I")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{name}: unsupported checkpoint version {version}")
    dims = dict(zip(
        ("feature_dim", "hidden_dim", "context_dim", "num_predicates",
         "num_object_classes"),
        header,
    ))
    for key, value in dims.items():
        if value < 1:
            raise ValueError(f"{name}: header {key} is {value}, must be at least 1")
    expected = {
        param: (shape, init not in FROZEN_INITS)
        for param, shape, init in parameter_specs(**dims)
    }
    (count,) = unpack("<I")
    loaded = {}
    for _ in range(count):
        (name_len,) = unpack("<H")
        raw = take(name_len)
        trainable, ndim = unpack("<BB")
        shape = unpack(f"<{ndim}I")
        data_bytes = take(8 * math.prod(shape))
        try:
            param = raw.decode("utf-8")
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
        if param in loaded:
            raise ValueError(f"{name}: duplicate parameter name {param!r}")
        loaded[param] = None  # not part of the model: reported below
        if param not in expected:
            continue
        if (shape, bool(trainable)) != expected[param]:
            raise ValueError(
                f"{name}: parameter {param!r} has shape {shape}, trainable="
                f"{bool(trainable)}; the header's model has {expected[param][0]}, "
                f"{expected[param][1]}"
            )
        values = np.frombuffer(data_bytes, dtype="<f8").reshape(shape)
        if not np.isfinite(values).all():
            raise ValueError(f"{name}: parameter {param!r} has a non-finite value")
        loaded[param] = values
    if offset != len(data):
        raise ValueError(
            f"{name}: {len(data) - offset} trailing bytes after the last parameter"
        )
    for param in sorted(set(loaded) | set(expected)):
        if param not in loaded:
            raise ValueError(f"{name}: parameter {param!r} is missing")
        if param not in expected:
            raise ValueError(f"{name}: parameter {param!r} is not part of the model")
    model = DualBranchModel.build(**dims)
    for param, values in loaded.items():
        model.store[param][...] = values
    return model
