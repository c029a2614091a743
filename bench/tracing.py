"""Span tracing from outside the program.

A `Tracer` wraps dualrel functions at every module attribute they are called
through, records one span per call (name, start, end, parent span), and
restores the original attributes when its `installed()` block ends. Nothing
under `src/` knows about it. The spans are turned into per-layer call counts
and self times: a span's self time is its duration minus the part of it that
its child spans cover.

`schedules` and `config` get no span: each call costs microseconds and falls
into the self time of `training.train`.
"""

import contextlib
import functools
import importlib
import math
import statistics
import sys
import time
from collections import defaultdict

# Span name -> where it is called through. The name is `<module>.<attribute>`
# under `dualrel` (`<module>.<Class>.<method>` for methods). `only` restricts
# the patched bindings to the listed modules; otherwise every `dualrel` module
# attribute bound to the same function object is patched.
SPANS = {
    "training.batch_forward_backward": {"per_step": True},
    "training.train": {},
    "training.predictions_for_images": {},
    "training.evaluate": {},
    "training.write_log": {},
    "training.parse_log": {},
    # predicted path only: the eval-time call from model.fine_branch_forward
    # stays in fine_branch_forward's self time
    "semantic_context.context_forward": {"per_step": True, "only": ("dualrel.training",)},
    "semantic_context.target_global_token": {"per_step": True},
    "semantic_context.context_backward": {"per_step": True},
    "model.instance_matrix": {"per_step": True},
    "model.extractor_forward": {"per_step": True},
    "model.extractor_backward": {"per_step": True},
    "model.decode_rows": {"per_step": True},
    "model.decode_rows_backward": {"per_step": True},
    "model.fine_branch_forward": {},
    "model.save_checkpoint": {},
    "model.load_checkpoint": {},
    "losses.cross_entropy_rows": {"per_step": True},
    "losses.curriculum_cross_entropy_rows": {"per_step": True},
    "losses.head_distillation_rows": {"per_step": True},
    "numerics.ParamStore.sgd_step": {"per_step": True},
    "numerics.ParamStore.zero_grads": {"per_step": True},
    "numerics.grad_check": {},
    "metrics.compute_report": {"measure": lambda args, result: len(args[0])},
    "metrics.recall_at_k": {},
    "metrics.mean_recall_at_k": {},
    "metrics.format_report": {},
    "datagen.generate_dataset": {},
    "datagen.build_prior_bias": {},
    "datagen.relations_by_image": {},
    "datagen.save_relations": {},
    "datagen.load_relations": {"measure": lambda args, result: len(result[0])},
}

STEP_SPAN = "training.batch_forward_backward"
CHECK_SPAN = "numerics.grad_check"
UNSPANNED = {
    "schedules": "no span: microseconds per call, counted in training.train self time",
    "config": "no span: microseconds per call, counted in training.train self time",
}
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9, 99.99)
TOLERANCE_S = 1e-9


def _resolve(name):
    """(owner, attribute) of a span name's defining binding."""
    module_name, *path = name.split(".")
    owner = importlib.import_module(f"dualrel.{module_name}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


def bindings(name, spec):
    """Every (owner, attribute) through which the span's function is called."""
    owner, attr = _resolve(name)
    if isinstance(owner, type):
        return [(owner, attr)]
    original = vars(owner)[attr]
    modules = spec.get("only") or sorted(
        m for m in sys.modules if m == "dualrel" or m.startswith("dualrel.")
    )
    found = [
        (sys.modules[m], key)
        for m in modules
        for key, value in vars(sys.modules[m]).items()
        if value is original
    ]
    if not found:
        raise LookupError(f"span {name}: no binding found")
    return found


def installed_wrappers():
    """(owner, attribute) pairs in dualrel that currently hold a span wrapper."""
    found = []
    for m in sorted(sys.modules):
        if m != "dualrel" and not m.startswith("dualrel."):
            continue
        owners = [sys.modules[m]] + [
            v for v in vars(sys.modules[m]).values()
            if isinstance(v, type) and v.__module__ == m
        ]
        for owner in owners:
            for key, value in vars(owner).items():
                if hasattr(value, "__bench_span__"):
                    found.append((getattr(owner, "__name__", owner), key))
    return found


class Tracer:
    """Records spans of the wrapped dualrel calls, in call order.

    `records` holds one `[span index, start, end, parent record]` list per
    call; parent is -1 for a span with no traced caller. `sizes` accumulates
    the per-span `measure` values (list lengths, row counts).
    """

    def __init__(self, spans=None, clock=time.perf_counter):
        self.spans = dict(SPANS if spans is None else spans)
        self.names = list(self.spans)
        self.clock = clock
        self.records = []
        self.sizes = defaultdict(float)
        self._stack = [-1]

    def wrap(self, index, fn):
        """The traced stand-in for one function."""
        records, stack, clock = self.records, self._stack, self.clock
        measure = self.spans[self.names[index]].get("measure")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [index, clock(), 0.0, stack[-1]]
            stack.append(len(records))
            records.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if measure is not None:
                self.sizes[index] += measure(args, result)
            return result

        traced.__bench_span__ = self.names[index]
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding for the block; restore all of them after."""
        saved = []
        try:
            for index, name in enumerate(self.names):
                for owner, attr in bindings(name, self.spans[name]):
                    original = vars(owner)[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(index, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def take(self):
        """Return and clear the records and sizes gathered so far."""
        records, sizes = list(self.records), dict(self.sizes)
        self.records.clear()
        self.sizes.clear()
        return records, sizes


def self_times(records):
    """Self time per record: duration minus the clipped durations of children."""
    covered = [0.0] * len(records)
    for _, start, end, parent in records:
        if parent >= 0:
            _, p_start, p_end, _ = records[parent]
            covered[parent] += max(0.0, min(end, p_end) - max(start, p_start))
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(records)]


def step_mismatches(records, selfs, step_index):
    """Steps whose spans' self times do not add up to the step span.

    Returns (step position, sum of self times, step duration) for each step
    whose subtree sum differs from its duration, or that holds a span with
    negative self time. Child spans that stick out of their parent or
    overlap a sibling show up here.
    """
    step_of = [-1] * len(records)
    sums = defaultdict(float)
    negative = set()
    for i, (index, _, _, parent) in enumerate(records):
        step_of[i] = i if index == step_index else (step_of[parent] if parent >= 0 else -1)
        if step_of[i] >= 0:
            sums[step_of[i]] += selfs[i]
            if selfs[i] < -TOLERANCE_S:
                negative.add(step_of[i])
    bad = []
    for step, total in sums.items():
        duration = records[step][2] - records[step][1]
        if abs(total - duration) > TOLERANCE_S or step in negative:
            bad.append((step, total, duration))
    return bad


def nested_calls(records, ancestor_index, child_index):
    """Count child_index records that have an ancestor_index record above them."""
    under = [False] * len(records)
    count = 0
    for i, (index, _, _, parent) in enumerate(records):
        under[i] = parent >= 0 and (under[parent] or records[parent][0] == ancestor_index)
        if under[i] and index == child_index:
            count += 1
    return count


def tail_percentile(samples, min_beyond=10):
    """Highest ladder percentile with at least `min_beyond` samples above it.

    Nearest-rank percentiles. Returns (percentile, value, n), or None when
    even the median has fewer than `min_beyond` samples beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    best = None
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= min_beyond:
            best = (pct, xs[rank - 1], n)
    return best


class LayerStats:
    """Per-span totals over many record batches: calls, self time, samples."""

    def __init__(self, names):
        self.names = list(names)
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.per_call = [[] for _ in self.names]
        self.sizes = [0.0] * len(self.names)
        self.step_ms = []
        self.step_index = self.names.index(STEP_SPAN)
        self.check_index = self.names.index(CHECK_SPAN)
        self.steps_in_checks = 0

    def add(self, records, sizes):
        """Fold in one batch of records; returns its steps whose self times
        do not add up to the step span."""
        selfs = self_times(records)
        for (index, start, end, _), own in zip(records, selfs):
            self.calls[index] += 1
            self.self_s[index] += own
            self.per_call[index].append(own)
            if index == self.step_index:
                self.step_ms.append((end - start) * 1e3)
        for index, value in sizes.items():
            self.sizes[index] += value
        self.steps_in_checks += nested_calls(records, self.check_index, self.step_index)
        return len(step_mismatches(records, selfs, self.step_index))

    def scaled(self, factor):
        """Calls, self seconds and sizes multiplied by factor, per span."""
        return {
            name: (self.calls[i] * factor, self.self_s[i] * factor, self.sizes[i] * factor)
            for i, name in enumerate(self.names)
        }

    def self_ms_p50(self, name):
        values = self.per_call[self.names.index(name)]
        return statistics.median(values) * 1e3 if values else 0.0


def layer_metrics(spans, setup_stats, stats, units, overhead):
    """Per-layer figures of a traced run, as {name: (value, unit)}.

    `.calls` and `.self_s` cover one traced set-up plus the mean of the
    traced units; `.self_ms_p50` is the median self time of one call within
    the units. A span that never ran reads 0.
    """
    setup_part, unit_part = setup_stats.scaled(1.0), stats.scaled(1.0 / units)
    total = {name: [a + b for a, b in zip(setup_part[name], unit_part[name])] for name in spans}

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {}
    for name, spec in spans.items():
        metrics[f"{name}.calls"] = (total[name][0], "count")
        metrics[f"{name}.self_s"] = (total[name][1], "s")
        if spec.get("per_step"):
            metrics[f"{name}.self_ms_p50"] = (stats.self_ms_p50(name), "ms")
    step_ms = stats.step_ms
    pct, tail, n = tail_percentile(step_ms) or (0.0, 0.0, len(step_ms))
    metrics["training.step_ms.p50"] = (statistics.median(step_ms) if step_ms else 0.0, "ms")
    metrics["training.step_ms.tail"] = (tail, "ms")
    metrics["training.step_ms.tail_pct"] = (pct, "%")
    metrics["training.step_ms.n"] = (n, "count")
    reports = total["metrics.compute_report"]
    rankings = total["metrics.recall_at_k"][0] + total["metrics.mean_recall_at_k"][0]
    metrics["metrics.predictions_ranked"] = (ratio(reports[2], reports[0]), "count")
    metrics["metrics.rankings"] = (ratio(rankings, reports[0]), "count")
    metrics["numerics.grad_check.loss_evals"] = (
        ratio(stats.steps_in_checks, stats.calls[stats.check_index]), "count")
    loads = total["datagen.load_relations"]
    metrics["datagen.load_relations.rows_per_s"] = (ratio(loads[2], loads[1]), "1/s")
    metrics["bench.tracing_overhead"] = (overhead, "ratio")
    return metrics
