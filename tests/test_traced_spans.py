"""The benchmark's traced span gates, run at unit-test scale.

A traced ``train_baseline`` run fails if its unit (train + evaluate) records
a call to a span of a component the baseline turns off; the eval path must
therefore reach the context module without going through the binding the
tracer wraps in ``training``. These tests install the benchmark's own
``Tracer`` around a few training iterations and one evaluation.

Every workload's set-up also runs here, so that the library names and call
forms the benchmark uses (``model.instance_matrix``, ``decode_rows`` with
list ids, ``training._BatchContext``, row iteration of a table slice, ...)
are checked by the test suite and not only by a benchmark run.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

from tracing import Tracer, nested_calls  # noqa: E402
from workloads import BASELINE_ABSENT_SPANS, BASELINE_FLAGS, WORKLOADS  # noqa: E402

from dualrel import datagen, training  # noqa: E402
from dualrel.model import DualBranchModel  # noqa: E402
from dualrel.schedules import ScheduleConfig  # noqa: E402

DATA_CFG = datagen.GeneratorConfig(
    num_object_classes=6, num_head_predicates=3, tails_per_head=1,
    feature_dim=8, num_train=240, num_test=48, relations_per_image=4, seed=9,
)


@pytest.fixture(scope="module")
def dataset():
    return datagen.generate_dataset(DATA_CFG)


def traced_spans(dataset, **flags):
    """Span names of the records of 4 training iterations plus an evaluate."""
    vocab, train_split, test_split = dataset
    cfg = training.TrainConfig(
        schedule=ScheduleConfig(k1=1, k2=2, total_iterations=4, head_threshold=10),
        batch_size=3, hidden_dim=12, context_dim=16, seed=1, **flags,
    )
    model = DualBranchModel.build(
        num_object_classes=DATA_CFG.num_object_classes,
        num_predicates=DATA_CFG.num_predicates,
        feature_dim=DATA_CFG.feature_dim,
        hidden_dim=cfg.hidden_dim,
        context_dim=cfg.context_dim,
        prior_table=datagen.build_prior_bias(train_split, vocab).table,
        seed=cfg.seed,
    )
    tracer = Tracer()
    with tracer.installed():
        training.train(cfg, vocab, train_split, model)
        training.evaluate(model, test_split, vocab, (5,))
    records, _ = tracer.take()
    return tracer.names, records


def test_baseline_records_no_span_of_a_disabled_component(dataset):
    names, records = traced_spans(dataset, **BASELINE_FLAGS)
    called = {names[index] for index, *_ in records}
    assert "training.batch_forward_backward" in called
    assert "training.predictions_for_images" in called
    assert called.isdisjoint(BASELINE_ABSENT_SPANS), called & set(BASELINE_ABSENT_SPANS)


def test_full_run_records_the_context_module_under_the_training_step(dataset):
    names, records = traced_spans(dataset)
    step = names.index("training.batch_forward_backward")
    context = names.index("semantic_context.context_forward")
    under_step = nested_calls(records, step, context)
    assert under_step >= 4
    # the evaluation's context forwards are not recorded at all
    assert under_step == sum(index == context for index, *_ in records)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_setup_runs(workload, tmp_path):
    WORKLOADS[workload](1, str(tmp_path)).setup()
