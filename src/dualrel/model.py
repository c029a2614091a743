"""Dual-branch relation model.

One shared two-layer feed-forward extractor maps each relation's
concatenated inputs (subject/object/union features plus the two object
label distributions) to a context vector. Two linear decoders read it: the
"coarse" branch, trained conventionally, and the "fine" branch, trained
with the curriculum objectives and used at inference. Both branches add the
frozen subject-object prior-bias slice to their logits. The extractor is a
single set of parameters, so sharing between branches is by construction.
Every parameter lives in one ``ParamStore`` whose layout
``parameter_layout`` derives from ``parameter_specs``: ``build`` draws the
values, and a checkpoint fills them as stored. The five header dimensions
of a checkpoint fix that layout, so the file holds only the dimensions,
the layout's sha256 and the values in layout order (format 2). Inference
(``fine_branch_rows``) returns the fine logits plus the set encoder's
correction. ``check_fit`` is the one rule for whether a model fits a
vocabulary and a relation table; training, evaluation and ``dualrel eval``
apply it before any layer runs.

The layers take one image's (n, ·) rows or a (G, n, ·) stack of equal-size
images; one relation is a one-row table. Two one-image forms remain,
``instance_matrix`` and ``fine_branch_forward``, because the benchmark in
``bench/`` resolves and calls them by name.
"""

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import semantic_context
from .datagen import feature_widths, open_atomic
from .numerics import (
    ParamStore,
    linear_backward,
    linear_forward,
    relu,
    relu_backward,
)

BRANCHES = ("coarse", "fine")
CHECKPOINT_MAGIC = b"DBRM"
CHECKPOINT_VERSION = 2
# the checkpoint header's dimensions, in file order after the version
CHECKPOINT_DIMS = ("feature_dim", "hidden_dim", "context_dim", "num_predicates",
                   "num_object_classes")
FROZEN_INITS = ("embedding", "prior")


@dataclass
class DualBranchModel:
    store: ParamStore
    num_object_classes: int
    num_predicates: int
    feature_dim: int
    hidden_dim: int
    context_dim: int

    @classmethod
    def build(cls, num_object_classes, num_predicates, feature_dim, hidden_dim,
              context_dim, prior_table=None, seed=0):
        """Deterministically initialized model; prior defaults to all-zero.

        The store's arenas are sized once, from ``parameter_layout``."""
        rng = np.random.default_rng(seed)
        specs = parameter_specs(
            num_object_classes, num_predicates, feature_dim, hidden_dim, context_dim
        )
        model = cls(
            store=ParamStore(parameter_layout(specs)),
            num_object_classes=num_object_classes,
            num_predicates=num_predicates,
            feature_dim=feature_dim,
            hidden_dim=hidden_dim,
            context_dim=context_dim,
        )
        *drawn, _ = specs  # the prior table, last, is not drawn
        semantic_context.add_params(model.store, drawn, rng)
        if prior_table is not None:
            model.store.add("prior.table", prior_table)
        return model


def parameter_specs(num_object_classes, num_predicates, feature_dim, hidden_dim,
                    context_dim):
    """(name, shape, init) of every parameter of a model of these dimensions,
    in the order ``DualBranchModel.build`` adds them; allocates nothing.

    init is one of ``semantic_context.add_params``'s kinds, or "prior" for
    the prior-bias table; ``parameter_layout`` says which are trainable.
    """
    input_dim = sum(feature_widths(num_object_classes, feature_dim))
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


def parameter_layout(specs):
    """The ``ParamStore`` layout, (name, shape, trainable), of (name, shape,
    init) specs: parameters of a ``FROZEN_INITS`` kind are frozen."""
    return [(name, shape, init not in FROZEN_INITS) for name, shape, init in specs]


def check_fit(model, vocab, table):
    """The fit rule: the model's num_predicates must equal the vocabulary's
    (vocab None skips it), its num_object_classes and feature_dim the
    table's. The first that differs raises one ValueError naming it."""
    data = {"num_object_classes": table, "feature_dim": table}
    if vocab is not None:
        data = {"num_predicates": vocab, **data}
    for field, source in data.items():
        if getattr(model, field) != getattr(source, field):
            raise ValueError(f"the model's {field} is {getattr(model, field)}, "
                             f"but the data have {getattr(source, field)}")


def instance_matrix(model, table):
    """The extractor input rows of a table that ``check_fit`` passes (the
    library gathers with ``run_inputs``; the benchmark calls this)."""
    check_fit(model, None, table)
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
    shape = (len(images), len(images[0]), -1)
    # np.stack's values from one concatenate, without its per-slice views
    ids = np.concatenate([image.ids for image in images]).reshape(shape)
    return (np.concatenate([image.x for image in images]).reshape(shape),
            ids[..., 1], ids[..., 2], ids[..., 3])


def label_dists(model, x):
    """The subject and object label-distribution columns of extractor input
    rows; ``FEATURE_FIELDS`` puts them last, after the three features."""
    *features, subject, _ = feature_widths(model.num_object_classes, model.feature_dim)
    stop = sum(features) + subject
    return x[..., stop - subject : stop], x[..., stop:]


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
    store.accumulate("extractor.l1.w", cache["x"].swapaxes(-1, -2) @ grad_pre)
    store.accumulate("extractor.l1.b", np.add.reduce(grad_pre, axis=-2))


def _check_classes(model, subjects, objects):
    classes = np.asarray([subjects, objects])
    if classes.size and not (
        0 <= np.minimum.reduce(classes, axis=None)
        and np.maximum.reduce(classes, axis=None) <= model.num_object_classes
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


def fine_branch_rows(model, x, subjects, objects):
    """Inference logits, fine decode + context correction, for one image's
    (n, ·) rows or a (G, n, ·) stack as ``run_inputs`` gives them."""
    h, _ = extractor_forward(model, x)
    fine = decode_rows(model, "fine", h, subjects, objects)
    result = semantic_context.context_forward(fine, *label_dists(model, x), model.store)
    return fine + result.correction


def fine_branch_forward(model, image):
    """``fine_branch_rows`` for one image's relation table. The library
    evaluates with ``fine_branch_rows``; the benchmark traces this name."""
    if not len(image):
        raise ValueError("need at least one relation in the image")
    x = instance_matrix(model, image)
    return fine_branch_rows(model, x, image.ids[:, 1], image.ids[:, 2])


# ---------------------------------------------------------------------------
# checkpoints: little-endian binary. The header's dimensions fix the layout,
# so the file holds its digest, not the parameters' names, flags or shapes.
# ---------------------------------------------------------------------------

# after the magic: the version, the CHECKPOINT_DIMS, the layout digest
_HEADER = struct.Struct(f"<{1 + len(CHECKPOINT_DIMS)}I32s")


def _layout_digest(layout):
    """sha256 of a layout's names, shapes and trainable flags, in order."""
    text = "".join(f"{name} {tuple(map(int, shape))} {bool(trainable)}\n"
                   for name, shape, trainable in layout)
    return hashlib.sha256(text.encode("utf-8")).digest()


def save_checkpoint(path, model):
    dims = {dim: getattr(model, dim) for dim in CHECKPOINT_DIMS}
    layout = parameter_layout(parameter_specs(**dims))
    with open_atomic(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(_HEADER.pack(CHECKPOINT_VERSION, *dims.values(),
                              _layout_digest(layout)))
        for param, _, _ in layout:
            fh.write(np.ascontiguousarray(model.store[param], dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint file; see ``parse_checkpoint``."""
    with open(path, "rb") as fh:
        return parse_checkpoint(fh.read(), path)


def parse_checkpoint(data, name):
    """The model held by the bytes of a checkpoint from ``save_checkpoint``.

    Format 2 is the magic, the version, the ``CHECKPOINT_DIMS``, the sha256
    of the ``parameter_layout`` they give, then every value as float64 in
    layout order. Bytes that end early or run past the last value, another
    version, a dimension below 1, a digest of another layout (a parameter
    renamed, reshaped, frozen or moved) and a non-finite value each raise
    one ValueError naming ``name`` (the file). Nothing the size of the
    model is allocated before the digest and the length match, and the
    values fill the store as they are: no parameter is drawn.
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

    if take(4) != CHECKPOINT_MAGIC:
        raise ValueError(f"{name} is not a model checkpoint")
    version, *header, digest = _HEADER.unpack(take(_HEADER.size))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{name}: unsupported checkpoint version {version}")
    dims = dict(zip(CHECKPOINT_DIMS, header))
    for key, value in dims.items():
        if value < 1:
            raise ValueError(f"{name}: header {key} is {value}, must be at least 1")
    layout = parameter_layout(parameter_specs(**dims))
    if digest != _layout_digest(layout):
        raise ValueError(f"{name}: the layout digest is not that of the layout the "
                         "header's dimensions give (a parameter renamed, reshaped, "
                         "frozen or moved)")
    sizes = [math.prod(shape) for _, shape, _ in layout]
    values = np.frombuffer(take(8 * sum(sizes)), dtype="<f8")
    if offset != len(data):
        raise ValueError(
            f"{name}: {len(data) - offset} trailing bytes after the last parameter"
        )
    store = ParamStore(layout)
    chunks = np.split(values, np.cumsum(sizes)[:-1])
    for (param, shape, _), chunk in zip(layout, chunks):
        if not np.isfinite(chunk).all():
            raise ValueError(f"{name}: parameter {param!r} has a non-finite value")
        store.add(param, chunk.reshape(shape))
    return DualBranchModel(store, **dims)
