"""Synthetic long-tailed relation data.

The vocabulary is organized as head predicates with tail refinements: every
tail predicate draws its interaction pattern from its parent head's anchor
vector plus a fixed tail-specific offset, so a classifier can separate a
tail from its parent only through that offset (with offset scale 0 the two
are indistinguishable by construction). Training frequencies follow a Zipf
law over predicate rank with every head ranked above every tail; the test
split is class-balanced so per-class recall differences are attributable to
the model rather than to test frequencies.

Relations are grouped into synthetic images of a fixed size so the context
encoder sees coherent relation sets, and each image's subject-object pairs
are drawn from per-head-group canonical pairs, which gives the frequency
prior the same head-favoring shape it has on real scene-graph data.

``generator_parameters`` states those parameters as arrays, in the order
they are drawn: the object anchors, the pattern anchors (each predicate's
head anchor, plus a tail's offset) and each head's canonical pair.
``generate_dataset`` calls it, then draws each split's rows.

A relation row's layout is stated once, by ``feature_widths``. A relation
file's header records its table's own num_object_classes and feature_dim.

``read_field`` is the one reader of a text field: the vocabulary, a
relation file's header, the config files, train.log and ``--ks`` read each
field through it, by a kind of ``FIELD_KINDS`` that fixes the type the
text is read as and the range the value must lie in. A relation file's
body is read as one float matrix and checked as a whole.
"""

import contextlib
import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .numerics import ConfigurationError

DATASET_FORMAT_VERSION = 1
# a relation line: these fields in this order, the arrays flattened
ID_FIELDS = ("image_id", "subject_class", "object_class", "gt_predicate")
FEATURE_FIELDS = (
    "subject_feature",
    "object_feature",
    "union_feature",
    "subject_label_dist",
    "object_label_dist",
)
LABEL_DIST_TOLERANCE = 1e-6
# added to every count of the prior-bias table (Laplace smoothing)
PRIOR_EPSILON = 1e-3


def feature_widths(num_object_classes, feature_dim):
    """The FEATURE_FIELDS' widths: three features, then two label
    distributions over the object classes and background."""
    return (feature_dim,) * 3 + (num_object_classes + 1,) * 2


@dataclass(frozen=True)
class GeneratorConfig:
    num_object_classes: int = 16
    num_head_predicates: int = 16
    tails_per_head: int = 2
    feature_dim: int = 16
    zipf_exponent: float = 1.2
    tail_offset_scale: float = 0.2
    noise_scale: float = 0.4
    label_noise: float = 0.2
    pair_concentration: float = 0.7
    num_train: int = 5000
    num_test: int = 960
    relations_per_image: int = 18
    seed: int = 0

    @property
    def num_predicates(self):
        return self.num_head_predicates * (1 + self.tails_per_head)

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not self.num_head_predicates >= 1:
            raise ConfigurationError("need at least one head predicate")
        # before the num_train check: num_predicates is not positive here
        if not self.tails_per_head >= 0:
            raise ConfigurationError("tails_per_head must be nonnegative")
        if not self.feature_dim >= 4:
            raise ConfigurationError("feature_dim must be at least 4")
        if not self.num_train >= self.num_predicates:
            raise ConfigurationError(
                "num_train must be at least the number of predicates"
            )
        if not self.zipf_exponent > 0:
            raise ConfigurationError("zipf_exponent must be positive")
        zipf_allocation(self.num_predicates, self.zipf_exponent, self.num_train)
        if not self.num_test >= self.num_predicates:
            raise ConfigurationError(
                f"num_test={self.num_test} is too small for a class-balanced split "
                f"over {self.num_predicates} predicates"
            )
        for name in ("tail_offset_scale", "noise_scale"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be finite and nonnegative")
        if not self.num_object_classes >= 2:
            raise ConfigurationError("need at least two object classes")
        if not self.relations_per_image >= 1:
            raise ConfigurationError("relations_per_image must be positive")
        if not 0.0 <= self.pair_concentration <= 1.0:
            raise ConfigurationError("pair_concentration must lie in [0, 1]")
        if not 0.0 <= self.label_noise < 1.0:
            raise ConfigurationError("label_noise must lie in [0, 1)")
        if not self.seed >= 0:
            raise ConfigurationError("seed must be nonnegative")


@dataclass
class PredicateVocabulary:
    """Predicate labels, training frequencies, and the head/tail structure.

    Index 0 is the background class (no parent, count 0 in generated data);
    heads are their own parent; every tail has exactly one head parent.
    """

    names: list
    train_counts: np.ndarray
    parent_of: np.ndarray

    @property
    def num_predicates(self):
        return len(self.names) - 1


@dataclass(frozen=True)
class RelationInstance:
    """One subject-predicate-object sample; a table's row view shares its arrays."""

    image_id: int
    subject_class: int
    object_class: int
    gt_predicate: int
    subject_feature: np.ndarray
    object_feature: np.ndarray
    union_feature: np.ndarray
    subject_label_dist: np.ndarray
    object_label_dist: np.ndarray


@dataclass(frozen=True, eq=False)
class RelationTable:
    """A split, one row per relation, as two arrays.

    ``ids`` is the (N, 4) int64 array of the ID_FIELDS. ``x`` holds the
    C-contiguous float64 rows of the FEATURE_FIELDS (``feature_widths``):
    both the extractor input and a relation file's columns after the ids.
    An int index gives a row view (a RelationInstance), a slice a table view.
    """

    ids: np.ndarray
    x: np.ndarray
    num_object_classes: int
    feature_dim: int

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return replace(self, ids=self.ids[index], x=self.x[index])
        widths = feature_widths(self.num_object_classes, self.feature_dim)
        fields = np.split(self.x[index], np.cumsum(widths[:-1]))
        return RelationInstance(*self.ids[index].tolist(), *fields)


@dataclass
class PriorBias:
    """Per (subject, object) pair log-frequency bias over predicates.

    Slices for pairs never seen in training are all-zero.
    """

    table: np.ndarray


def zipf_allocation(num_classes, exponent, total):
    """Integer counts proportional to rank**(-exponent), summing to total.

    Largest-remainder rounding with ties broken by rank; raises if any
    class would receive zero samples.
    """
    ranks = np.arange(1, num_classes + 1, dtype=np.float64)
    weights = ranks**-exponent
    raw = total * weights / weights.sum()
    counts = np.floor(raw).astype(np.int64)
    remainder = total - int(counts.sum())
    frac = raw - counts
    order = np.lexsort((ranks, -frac))
    counts[order[:remainder]] += 1
    if counts.min() <= 0:
        raise ConfigurationError(
            f"zipf_exponent={exponent} gives zero samples to the rarest of "
            f"{num_classes} classes at num_train={total}"
        )
    return counts


def _build_vocabulary(cfg):
    names = ["background"]
    parents = [-1]
    for h in range(1, cfg.num_head_predicates + 1):
        names.append(f"head{h:02d}")
        parents.append(h)
    for h in range(1, cfg.num_head_predicates + 1):
        for t in range(cfg.tails_per_head):
            names.append(f"head{h:02d}.t{t}")
            parents.append(h)
    counts = np.zeros(len(names), dtype=np.int64)
    counts[1:] = zipf_allocation(cfg.num_predicates, cfg.zipf_exponent, cfg.num_train)
    return PredicateVocabulary(names, counts, np.asarray(parents, dtype=np.int64))


def _assign_images(rng, parents, relations_per_image):
    """Pack relations, given by their head groups, into group-coherent images.

    Every image draws its relations from two or three head groups, so the
    rest of an image carries evidence about which interaction patterns are
    plausible for each relation (the signal the context encoder exploits).
    Exact per-predicate counts are preserved: samples are only regrouped,
    never resampled. Returns the packed row order and each row's image id.
    """
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
        # a parent leaves `active` when, and only when, its pool empties
        active = [parents[i] for i in sorted(chosen)]
        start = len(packed)
        for _ in range(relations_per_image):
            if not active:
                if not pools:
                    break
                active = [sorted(pools)[int(rng.integers(0, len(pools)))]]
            parent = active[int(rng.integers(0, len(active)))]
            pool = pools[parent]
            packed.append(pool.pop())
            if not pool:
                del pools[parent]
                active.remove(parent)
        image_ids += [image_id] * (len(packed) - start)
        image_id += 1
    return packed, image_ids


def generator_parameters(cfg, vocab, rng):
    """(obj_anchors, pattern_anchors, canonical_pairs), drawn from ``rng``
    in this order: object anchors, head anchors, tail offsets, then each
    head's canonical subject and object.

    A predicate's pattern anchor is its head's anchor, plus its own offset
    for a tail; the background's row is zero. ``canonical_pairs`` is the
    (H + 1, 2) int64 array of each head's (subject, object); row 0 is unused.
    """
    n_obj, d = cfg.num_object_classes, cfg.feature_dim
    obj_anchors = rng.standard_normal((n_obj + 1, d))
    head_anchors = rng.standard_normal((cfg.num_head_predicates + 1, d))
    offsets = rng.standard_normal((cfg.num_predicates + 1, d)) * cfg.tail_offset_scale
    rows = np.arange(len(vocab.parent_of))
    tails = rows[(vocab.parent_of > 0) & (vocab.parent_of != rows)]
    pattern_anchors = head_anchors[vocab.parent_of]
    pattern_anchors[0] = 0.0
    pattern_anchors[tails] += offsets[tails]
    canonical_pairs = np.zeros((cfg.num_head_predicates + 1, 2), dtype=np.int64)
    for pair in canonical_pairs[1:]:
        pair[:] = rng.integers(1, n_obj + 1), rng.integers(1, n_obj + 1)
    return obj_anchors, pattern_anchors, canonical_pairs


def generate_dataset(cfg):
    """Build (vocabulary, train split, test split); bit-identical per seed."""
    vocab = _build_vocabulary(cfg)
    rng = np.random.default_rng(cfg.seed)
    d = cfg.feature_dim
    n_obj = cfg.num_object_classes
    n_pred = cfg.num_predicates
    obj_anchors, pattern_anchors, canonical_pairs = generator_parameters(cfg, vocab, rng)

    def split(per_predicate):
        """per_predicate relations of each predicate, packed into images.

        The row loop only draws, in the order the FEATURE_FIELDS are laid
        out: the three feature noises are one standard-normal stream and
        the two label-distribution noises one uniform stream. The arithmetic
        then runs over the whole split, each element getting the same IEEE
        operations a row at a time would give it.
        """
        predicates = np.repeat(np.arange(1, n_pred + 1), per_predicate)
        parents = vocab.parent_of[predicates]
        n, widths = len(predicates), feature_widths(n_obj, d)
        features = sum(widths[:3])  # the label distributions follow
        pairs = canonical_pairs[parents]
        x = np.empty((n, sum(widths)))
        for pair, noise, dist_noise in zip(pairs, x[:, :features], x[:, features:]):
            if rng.random() >= cfg.pair_concentration:
                pair[:] = rng.integers(1, n_obj + 1), rng.integers(1, n_obj + 1)
            rng.standard_normal(out=noise)
            rng.random(out=dist_noise)
        ids = np.column_stack([pairs, predicates])
        # features: anchor + noise_scale * noise, one (n, d) gather at a time
        x[:, :features] *= cfg.noise_scale
        for block, (anchors, index) in enumerate(((obj_anchors, ids[:, 0]),
                                                  (obj_anchors, ids[:, 1]),
                                                  (pattern_anchors, predicates))):
            x[:, block * d : (block + 1) * d] += anchors[index]
        # label distributions: (1 - label_noise) * one_hot + label_noise * noise
        # / noise.sum(), where the one-hot's zeros add exact zeros
        dists = x[:, features:].reshape(n, 2, widths[3])
        dists /= dists.sum(axis=2, keepdims=True)
        dists *= cfg.label_noise
        dists[np.arange(n)[:, None], [0, 1], ids[:, :2]] += 1.0 - cfg.label_noise
        order, image_ids = _assign_images(rng, parents, cfg.relations_per_image)
        return RelationTable(np.column_stack([image_ids, ids[order]]), x[order],
                             n_obj, d)

    train = split(vocab.train_counts[1:])
    test = split(cfg.num_test // n_pred)
    return vocab, train, test


def head_set(vocab, threshold):
    """Indices of predicates with more than ``threshold`` training samples."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    return [
        i for i in range(1, len(vocab.names)) if vocab.train_counts[i] > threshold
    ]


def group_split(vocab):
    """Partition predicates by training frequency into (many, medium, few).

    Predicates are sorted by descending count (ties by ascending index) and
    split into thirds of sizes ceil(n/3), ceil((n - first)/2), remainder;
    for 50 predicates this yields 17/17/16.
    """
    n = vocab.num_predicates
    order = sorted(range(1, n + 1), key=lambda i: (-int(vocab.train_counts[i]), i))
    n_many = math.ceil(n / 3)
    n_medium = math.ceil((n - n_many) / 2)
    many = sorted(order[:n_many])
    medium = sorted(order[n_many : n_many + n_medium])
    few = sorted(order[n_many + n_medium :])
    return many, medium, few


def build_prior_bias(train, vocab):
    """Laplace-smoothed log-frequency bias per (subject, object) pair.

    table[s][o][r] = log((count(s,o,r) + eps) / (count(s,o) + eps*(R+1)))
    with eps = PRIOR_EPSILON; pairs never observed get an all-zero slice.
    """
    if not len(train):
        raise ValueError("prior bias needs a nonempty training split")
    n_obj = train.num_object_classes
    n_classes = vocab.num_predicates + 1
    counts = np.zeros((n_obj + 1, n_obj + 1, n_classes))
    np.add.at(counts, tuple(train.ids[:, 1:].T), 1.0)
    totals = counts.sum(axis=2)
    table = np.zeros_like(counts)
    seen = totals > 0
    table[seen] = np.log(
        (counts[seen] + PRIOR_EPSILON)
        / (totals[seen][:, None] + PRIOR_EPSILON * n_classes)
    )
    return PriorBias(table)


def relations_by_image(table):
    """Per-image slices of a table, in image-id order; image ids that
    decrease from one row to the next raise ValueError."""
    if not len(table):
        return []
    steps = np.diff(table.ids[:, 0])
    if (steps < 0).any():
        raise ValueError("image ids must not decrease from one row to the next")
    edges = [0, *(np.flatnonzero(steps) + 1).tolist(), len(table)]
    return [table[start:stop] for start, stop in zip(edges[:-1], edges[1:])]


# ---------------------------------------------------------------------------
# file formats: one relation per line, floats as shortest round-trip decimals
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def open_atomic(path, mode="w"):
    """Open a temp file beside path and rename it over path on success.

    Text is written as UTF-8, the encoding ``open_text`` reads, whatever
    the locale. If the block raises, the temp file is removed and nothing
    is left at path that was not there before.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@contextlib.contextmanager
def open_text(path):
    """Open a UTF-8 text file for reading.

    Bytes that are not UTF-8, wherever the block meets them, raise one
    ValueError that names the file and the line of the first such byte.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ValueError(
                f"{path}, line {line}: byte 0x{data[exc.start]:02x} is not UTF-8 "
                f"text ({exc.reason})"
            ) from None
        raise


# kind -> (the type its text is read as, lowest, highest, what it expects);
# every float range is finite, so NaN and inf lie outside it
FIELD_KINDS = {
    "int": (int, -np.inf, np.inf, "an integer"),
    "index": (int, 1, np.inf, "an integer of at least 1"),
    "count": (int, 0, np.inf, "a nonnegative integer"),
    "name": (str, None, None, "a name"),
    "bool": (bool, None, None, "a boolean (true/false/yes/no/1/0)"),
    "float": (float, -np.finfo(float).max, np.finfo(float).max, "a finite number"),
    "fraction": (float, 0.0, 1.0, "a number in [0, 1]"),
    "recall": (float, 0.0, 1.0, "a number in [0, 1] or absent"),
}
_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}


def read_field(where, field, kind, text):
    """The value of one text field, read by its kind (``FIELD_KINDS``); a
    recall may be ``absent`` (None) and a bool's word may be in any case.
    A number is ASCII text without ``_``: the form every writer produces
    (``int`` and ``float`` would also take other scripts' digits and digit
    group underscores).

    Text that does not read as the kind's type, or a value outside the
    kind's range, raises one ValueError that names ``where`` (a file and
    its line, or an option), the field, the text and what the kind takes.
    """
    read, low, high, expects = FIELD_KINDS[kind]
    if kind == "recall" and text == "absent":
        return None
    try:
        if read in (int, float) and (not text.isascii() or "_" in text):
            raise ValueError(text)
        value = _BOOL_WORDS[text.lower()] if read is bool else read(text)
        if low is not None and not low <= value <= high:
            raise ValueError(text)
    except (KeyError, ValueError):
        raise ValueError(
            f"{where}: field {field} has bad value {text!r}, expected {expects}"
        ) from None
    return value


def save_vocabulary(path, vocab):
    with open_atomic(path) as fh:
        for i, name in enumerate(vocab.names):
            fh.write(
                f"{i} {name} {int(vocab.train_counts[i])} {int(vocab.parent_of[i])}\n"
            )


def load_vocabulary(path):
    """Read a vocabulary file: one ``index name train_count parent`` line per
    predicate, background first.

    Raises one ValueError naming the file, the line and the field for a line
    without four fields, an index out of order, a negative count, or a
    parent that is not a head predicate (the background's parent is -1),
    and naming the file and both lines for a name that an earlier line
    gives.
    """
    names, counts, parents = [], [], []
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            tok = line.split()
            if len(tok) != 4:
                raise ValueError(
                    f"{path}, line {line_no}: expected 4 fields (index name "
                    f"train_count parent), got {len(tok)}"
                )
            idx, count, parent = (
                read_field(f"{path}, line {line_no}", field, kind, token)
                for field, kind, token in zip(
                    ("index", "train_count", "parent"), ("int", "count", "int"),
                    (tok[0], tok[2], tok[3]),
                )
            )
            if idx != len(names):
                raise ValueError(
                    f"{path}, line {line_no}: index is {idx}, expected {len(names)}"
                )
            if tok[1] in names:
                raise ValueError(f"{path}, line {line_no}: the predicate name "
                                 f"{tok[1]!r} repeats line {names.index(tok[1]) + 1}")
            names.append(tok[1])
            counts.append(count)
            parents.append(parent)
    if len(names) < 2:
        raise ValueError(f"{path}: a vocabulary needs background and a predicate")
    for i, parent in enumerate(parents):
        valid = (
            parent == -1 if i == 0
            else 1 <= parent < len(parents) and parents[parent] == parent
        )
        if not valid:
            must = "-1" if i == 0 else "a head predicate (its own parent)"
            raise ValueError(
                f"{path}, line {i + 1}: parent is {parent}, must be {must}"
            )
    return PredicateVocabulary(
        names, np.asarray(counts, dtype=np.int64), np.asarray(parents, dtype=np.int64)
    )


def save_relations(path, table, num_predicates):
    """Write a relation file; its header records the table's own
    num_object_classes and feature_dim."""
    with open_atomic(path) as fh:
        fh.write(
            f"relations {DATASET_FORMAT_VERSION} {table.num_object_classes} "
            f"{num_predicates} {table.feature_dim}\n"
        )
        # row by row: a whole split as Python floats is far larger than x
        for ids, row in zip(table.ids, table.x):
            fh.write(f"{' '.join(map(str, ids.tolist()))} "
                     f"{' '.join(map(repr, row.tolist()))}\n")


def _show(value):
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


def _check_relations(path, rows, n_obj, n_pred, d):
    """Validate a relation file's body matrix, one row per line, against
    its header's dimensions.

    Every failure is one ValueError naming the file, the line (the header
    is line 1; loadtxt skips blank lines, which are not counted) and the
    field of the first bad value.
    """
    widths = feature_widths(n_obj, d)
    if rows.shape[1] != 4 + sum(widths):
        raise ValueError(
            f"{path}, line 2: expected {4 + sum(widths)} fields, got {rows.shape[1]}"
        )
    fields = list(ID_FIELDS) + [
        f"{name}[{j}]" for name, width in zip(FEATURE_FIELDS, widths)
        for j in range(width)
    ]

    def reject(row, field, text):
        raise ValueError(f"{path}, line {row + 2}: {field} {text}")

    def first_bad(start, bad, must):
        bad_rows, bad_cols = np.nonzero(bad)
        if bad_rows.size:
            row, col = bad_rows[0], start + bad_cols[0]
            reject(row, fields[col], f"is {_show(rows[row, col])}, must be {must}")

    first_bad(0, ~np.isfinite(rows), "finite")
    ids = rows[:, :4]
    first_bad(0, ids != np.floor(ids), "an integer")
    first_bad(0, ids[:, :1] < 0, "nonnegative")
    for col, high in ((1, n_obj), (2, n_obj), (3, n_pred)):
        column = ids[:, col : col + 1]
        first_bad(col, (column < 0) | (column > high), f"in [0, {high}]")
    dist_start = 4 + sum(widths[:3])
    first_bad(dist_start, rows[:, dist_start:] < 0, "nonnegative")
    start = dist_start
    for side, width in zip(FEATURE_FIELDS[3:], widths[3:]):
        sums = rows[:, start : start + width].sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > LABEL_DIST_TOLERANCE)
        if bad.size:
            reject(bad[0], side, f"sums to {float(sums[bad[0]])!r}, must sum to 1 "
                                 f"within {LABEL_DIST_TOLERANCE:g}")
        start += width
    image_ids = ids[:, 0]
    steps = np.diff(image_ids)
    bad = np.flatnonzero(np.r_[image_ids[:1] != 0, (steps != 0) & (steps != 1)])
    if bad.size:
        reject(bad[0], "image_id", f"is {_show(image_ids[bad[0]])}; image ids must "
               "start at 0 and rise by 0 or 1 from line to line")


def load_relations(path):
    """Returns (table, num_predicates); the header's num_object_classes and
    feature_dim are the table's.

    The body is read into one float matrix, validated, and split into the
    table's ids and x. A malformed header or body, bytes that are not UTF-8,
    an id that is not an integer or is out of range, a non-finite value, a
    label distribution that is negative or does not sum to 1, or image ids
    that do not start at 0 and rise by 0 or 1 per line raise one ValueError
    naming the file (and for the body, the line and the field).
    """
    with open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 5 or header[0] != "relations":
            raise ValueError(f"{path} is not a relation file")
        version, n_obj, n_pred, d = (
            read_field(f"{path}, line 1", field, kind, token)
            for field, kind, token in zip(
                ("version", "num_object_classes", "num_predicates", "feature_dim"),
                ("int", "index", "index", "index"),
                header[1:],
            )
        )
        if version != DATASET_FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported relation file version {version}")
        try:
            with warnings.catch_warnings():
                # an empty body is an empty split, not a warning
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(fh, dtype=np.float64, ndmin=2, comments=None)
        except UnicodeDecodeError:
            raise  # open_text names the line
        except ValueError as exc:
            raise ValueError(f"{path}: malformed relation data: {exc}") from None
    if rows.size == 0:
        rows = rows.reshape(0, 4 + sum(feature_widths(n_obj, d)))
    _check_relations(path, rows, n_obj, n_pred, d)
    table = RelationTable(rows[:, :4].astype(np.int64),
                          np.ascontiguousarray(rows[:, 4:]), n_obj, d)
    return table, n_pred


def save_dataset(directory, vocab, train, test):
    os.makedirs(directory, exist_ok=True)
    save_vocabulary(os.path.join(directory, "vocab.txt"), vocab)
    for name, split in (("train.txt", train), ("test.txt", test)):
        save_relations(os.path.join(directory, name), split, vocab.num_predicates)


def load_split(directory, name, vocab):
    """Load the relation file ``name`` of a dataset directory whose
    vocabulary is ``vocab``; a file with no relation whose gt_predicate is
    above 0 (background only, or empty), or a header whose num_predicates
    differs from the vocabulary's, raises one ValueError."""
    path = os.path.join(directory, name)
    table, n_pred = load_relations(path)
    if not (table.ids[:, 3] > 0).any():
        raise ValueError(f"{path}: holds no relations with gt_predicate above 0")
    if n_pred != vocab.num_predicates:
        raise ValueError(
            f"{directory}: vocab.txt has {vocab.num_predicates} predicates, "
            f"{name} {n_pred}"
        )
    return table


def load_dataset(directory):
    """Returns (vocab, train, test), two splits of the same dimensions."""
    vocab = load_vocabulary(os.path.join(directory, "vocab.txt"))
    train = load_split(directory, "train.txt", vocab)
    test = load_split(directory, "test.txt", vocab)
    dims = (train.num_object_classes, train.feature_dim)
    if dims != (test.num_object_classes, test.feature_dim):
        raise ValueError(f"{directory}: train.txt and test.txt headers disagree")
    return vocab, train, test
