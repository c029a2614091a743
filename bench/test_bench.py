"""Tests of the benchmark's own arithmetic and of its attribute wrapping.

Run with `python3 -m pytest bench` from the repository root.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import dualrel  # noqa: E402
from dualrel import cli, datagen, numerics, semantic_context, training  # noqa: E402
from tracing import (  # noqa: E402
    SPANS,
    LayerStats,
    Tracer,
    installed_wrappers,
    layer_metrics,
    nested_calls,
    self_times,
    step_mismatches,
    tail_percentile,
)


def record(index, start, end, parent):
    return [index, float(start), float(end), parent]


# parent [0, 10] holds children [1, 3] and [4, 8]; the second holds [5, 6]
NESTED = [record(0, 0, 10, -1), record(1, 1, 3, 0), record(1, 4, 8, 0), record(2, 5, 6, 2)]


def test_self_time_is_duration_minus_children():
    assert self_times(NESTED) == [4.0, 2.0, 3.0, 1.0]
    assert sum(self_times(NESTED)) == 10.0


def test_self_times_add_up_to_each_step():
    assert step_mismatches(NESTED, self_times(NESTED), step_index=0) == []


def test_child_sticking_out_of_its_parent_is_a_mismatch():
    records = [record(0, 0, 10, -1), record(1, 8, 12, 0)]
    bad = step_mismatches(records, self_times(records), step_index=0)
    assert bad == [(0, 12.0, 10.0)]  # the 2 s past the parent's end are extra


def test_overlapping_children_give_negative_self_time_and_a_mismatch():
    records = [record(0, 0, 10, -1), record(1, 0, 7, 0), record(1, 3, 10, 0)]
    assert self_times(records)[0] == -4.0
    assert len(step_mismatches(records, self_times(records), step_index=0)) == 1


def test_nested_calls_counts_only_below_the_ancestor():
    records = [record(0, 0, 10, -1), record(1, 1, 2, 0), record(2, 1.2, 1.5, 1),
               record(2, 11, 12, -1)]
    assert nested_calls(records, ancestor_index=0, child_index=2) == 1


@pytest.mark.parametrize(
    "n, expected",
    [
        (10, None),  # even the median has only 5 samples beyond it
        (20, (50, 10.0, 20)),
        (100, (90, 90.0, 100)),  # p95 would leave 5 beyond
        (1000, (99, 990.0, 1000)),
        (10010, (99.9, 10000.0, 10010)),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    samples = [float(i) for i in range(n, 0, -1)]
    assert tail_percentile(samples) == expected


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_tracer_records_nesting_and_sizes():
    spans = {"outer": {"measure": lambda args, result: len(result)}, "inner": {}}
    tracer = Tracer(spans=spans, clock=FakeClock())
    inner = tracer.wrap(1, lambda x: x)
    outer = tracer.wrap(0, lambda n: [inner(i) for i in range(n)])
    assert outer(2) == [0, 1]
    records, sizes = tracer.take()
    assert records == [[0, 1.0, 6.0, -1], [1, 2.0, 3.0, 0], [1, 4.0, 5.0, 0]]
    assert sizes == {0: 2.0}
    assert tracer.records == [] and not tracer.sizes
    stats = LayerStats(["training.batch_forward_backward", "x", "numerics.grad_check"])
    assert stats.add(records, sizes) == 0  # no mismatched steps
    assert stats.calls == [1, 2, 0]
    assert stats.self_s == [3.0, 2.0, 0.0]
    assert stats.step_ms == [5000.0]


def snapshot():
    """Every attribute of every dualrel module and class, by identity."""
    seen = {}
    for name in sorted(sys.modules):
        if name == "dualrel" or name.startswith("dualrel."):
            module = sys.modules[name]
            for owner in [module] + [v for v in vars(module).values() if isinstance(v, type)]:
                for key, value in vars(owner).items():
                    seen[(name, getattr(owner, "__qualname__", name), key)] = value
    return seen


def test_installed_patches_every_binding_and_restores_them():
    before = snapshot()
    original_train = training.train
    original_sgd = numerics.ParamStore.sgd_step
    tracer = Tracer()
    with tracer.installed():
        # every name the function is called through is wrapped
        for owner in (training, cli, dualrel):
            assert owner.train.__bench_span__ == "training.train"
            assert owner.train.__wrapped__ is original_train
        assert numerics.ParamStore.sgd_step.__bench_span__ == "numerics.ParamStore.sgd_step"
        # the predicted path only: semantic_context's own binding stays plain
        assert training.context_forward.__bench_span__
        assert not hasattr(semantic_context.context_forward, "__bench_span__")
        assert len(installed_wrappers()) >= len(SPANS)
        assert datagen.relations_by_image([]) == []
    assert tracer.take()[0][0][0] == tracer.names.index("datagen.relations_by_image")
    assert training.train is original_train
    assert numerics.ParamStore.sgd_step is original_sgd
    assert installed_wrappers() == []
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_installed_restores_after_an_exception():
    before = snapshot()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("unit failed")
    assert installed_wrappers() == []
    assert all(snapshot()[key] is value for key, value in before.items())


def test_benchmark_json_lists_every_metric_the_runs_print():
    import json

    from workloads import END_TO_END_UNITS

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = list(SPANS)
    printed = layer_metrics(SPANS, LayerStats(names), LayerStats(names), 1, 1.0)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, (_, unit) in printed.items()
    ]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END_UNITS


def test_stopwatch_scales_each_piece_by_the_samples_around_it():
    from hostspeed import REFERENCE_S, Stopwatch

    samples = iter([REFERENCE_S, REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S])
    watch = Stopwatch(sampler=lambda: next(samples), clock=FakeClock())
    out = {}
    with watch.piece(out, "a"):  # samples before and after: host at reference speed
        pass
    with watch.piece(out, "b"):  # host slows to half speed across the piece
        pass
    with watch.piece(out, "c"):  # at half speed throughout
        pass
    assert out["wall"] == {"a": 1.0, "b": 1.0, "c": 1.0}
    assert out["scaled"] == pytest.approx({"a": 1.0, "b": 1 / 1.5, "c": 0.5})
    assert next(samples, None) is None  # one sample between pieces, not two


def test_stopwatch_without_sampler_keeps_wall_times_only():
    from hostspeed import Stopwatch

    out = {}
    with Stopwatch(sampler=None, clock=FakeClock()).piece(out, "a"):
        pass
    assert out == {"wall": {"a": 1.0}}


def test_piece_that_raises_records_nothing():
    from hostspeed import Stopwatch

    out = {}
    with pytest.raises(ValueError):
        with Stopwatch(sampler=lambda: 1.0, clock=FakeClock()).piece(out, "a"):
            raise ValueError("unit failed")
    assert out == {}
