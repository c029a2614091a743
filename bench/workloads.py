"""The benchmark's workloads, driven through dualrel's public API.

Each workload has a set-up (timed separately, as `setup_s`), a unit of work
that the runner repeats for the measured time, and checks on every unit's
outputs. Units call dualrel through module attributes (`training.train`,
`cli.run_command`, ...), so a traced run sees every call.

A unit times its pieces with the runner's `hostspeed.Stopwatch`, which
keeps each piece's wall time and, in untraced runs, its host-scaled time.
Every workload reports the same end-to-end metrics, from `unit_time` (the
time of one unit) and `rate_of` (the unit's throughput), applied to either.
The workload-specific figures named in the README (`train_it_per_s`,
`eval_s`, the per-command times, `mr_at_20`, ...) come from `summarize` and
go into the run's detail record as measured.
"""

import contextlib
import copy
import hashlib
import io
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

import numpy as np

from dualrel import cli, datagen, losses, model as model_mod, numerics, semantic_context, training
from dualrel.schedules import ScheduleConfig

TRAIN_ITERATIONS = 200
CLI_ITERATIONS = 40
KS = (20, 50, 100)
GRADCHECK_TOLERANCE = 1e-4
# grad_check covers every trainable tensor of at most this many elements: 18
# of the tiny model's 23 tensors, 1589 of its 12669 elements, including
# context.ffn.b1. One check then takes about 4.5 s on one core.
GRADCHECK_MAX_TENSOR = 256
END_TO_END_UNITS = {"setup_s": "s", "unit_s": "s", "rate_per_s": "1/s", "peak_rss_mb": "MB"}
BASELINE_FLAGS = dict(
    disable_curriculum=True, disable_context=True, disable_distillation=True
)
# spans that must get zero calls when those components are off
BASELINE_ABSENT_SPANS = (
    "semantic_context.context_forward",
    "semantic_context.target_global_token",
    "semantic_context.context_backward",
    "losses.curriculum_cross_entropy_rows",
    "losses.head_distillation_rows",
)


def experiment_config(seed, iterations, **flags):
    """The acceptance experiment config with its schedule scaled to `iterations`."""
    schedule = ScheduleConfig(
        k1=iterations // 4, k2=iterations // 2, total_iterations=iterations,
        head_threshold=52,
    )
    return training.TrainConfig(
        schedule=schedule, batch_size=12, hidden_dim=64, context_dim=32,
        learning_rate=0.02, beta_en=0.0, mu=2.0, seed=seed, **flags,
    )


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Ledger:
    """Operations attempted and failed, with the first 20 failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops = set()
        self.messages = []

    def attempt(self, name):
        self.attempted += 1
        return (self.attempted, name)

    def fail(self, op, message):
        self.failed_ops.add(op)
        if len(self.messages) < 20:
            self.messages.append(f"{op[1]}: {message}")

    def check(self, op, ok, message):
        if not ok:
            self.fail(op, message)

    @contextlib.contextmanager
    def running(self, op):
        """Record an exception raised by the operation as its failure."""
        try:
            yield
        except Exception as exc:  # the benchmark keeps running and reports it
            self.fail(op, f"raised {type(exc).__name__}: {exc}")
            raise

    @property
    def failed(self):
        return len(self.failed_ops)


def recalls_ok(report):
    values = []
    for k in report.ks:
        values += [report.r_at_k[k], report.mr_at_k[k], report.m_at_k[k]]
        values += [g for g in report.group_recalls[k] if g is not None]
        per = report.per_predicate[k]
        values += list(per[~np.isnan(per)])
    return all(0.0 <= v <= 1.0 for v in values)


class TrainWorkload:
    """Train on the default dataset, then one evaluate at K = 20, 50, 100."""

    setup_repeats = 7

    def __init__(self, seed, workdir, flags, absent_spans=()):
        self.seed = seed
        self.absent_spans = absent_spans
        self.workdir = workdir
        self.cfg = experiment_config(seed, TRAIN_ITERATIONS, **flags)
        self.reference = None

    def setup(self):
        gcfg = datagen.GeneratorConfig(seed=self.seed)
        vocab, train_split, test_split = datagen.generate_dataset(gcfg)
        prior = datagen.build_prior_bias(train_split, vocab)
        self.vocab, self.train_split, self.test_split = vocab, train_split, test_split
        # each unit trains its own copy of this freshly built model
        self.initial = model_mod.DualBranchModel.build(
            num_object_classes=gcfg.num_object_classes,
            num_predicates=gcfg.num_predicates,
            feature_dim=gcfg.feature_dim,
            hidden_dim=self.cfg.hidden_dim,
            context_dim=self.cfg.context_dim,
            prior_table=prior.table,
            seed=self.cfg.seed,
        )

    def unit(self, ledger, watch):
        model = copy.deepcopy(self.initial)
        out = {"model": model}
        op = out["train_op"] = ledger.attempt("train")
        with ledger.running(op), watch.piece(out, "train_s"):
            out["log"] = training.train(self.cfg, self.vocab, self.train_split, model)
        op = out["eval_op"] = ledger.attempt("evaluate")
        with ledger.running(op), watch.piece(out, "eval_s"):
            out["report"] = training.evaluate(model, self.test_split, self.vocab, KS)
        return out

    def check(self, out, ledger):
        op = out["train_op"]
        components = [
            value
            for entry in out["log"].entries
            for value in vars(entry.breakdown).values()
        ]
        ledger.check(op, all(math.isfinite(v) for v in components), "non-finite loss")
        path = os.path.join(self.workdir, "model.ckpt")
        model_mod.save_checkpoint(path, out["model"])
        fingerprint = (out["log"].entries[-1].breakdown.l_total, sha256_of(path))
        os.remove(path)
        if self.reference is None:
            self.reference = fingerprint
        ledger.check(
            op, fingerprint == self.reference,
            f"final l_total/checkpoint {fingerprint} differs from first repeat "
            f"{self.reference}",
        )
        report = out.pop("report")
        ledger.check(out["eval_op"], recalls_ok(report), "recall outside [0, 1]")
        # keep only figures: a run's peak RSS must not grow with its unit count
        out["quality"] = (report.mr_at_k[20], report.group_recalls[20][0])
        del out["model"], out["log"]

    def summarize(self, units):
        mr, many = units[-1]["quality"]
        return {
            "train_it_per_s": (statistics.median(self.rate_of(u["wall"]) for u in units), "1/s"),
            "eval_s": (statistics.median(u["wall"]["eval_s"] for u in units), "s"),
            "mr_at_20": (mr, "ratio"),
            "many_recall_at_20": (many, "ratio"),
        }

    @staticmethod
    def unit_time(times):
        return times["train_s"] + times["eval_s"]

    @staticmethod
    def rate_of(times):
        return TRAIN_ITERATIONS / times["train_s"]


class CliWorkload:
    """generate -> train -> eval -> report through `cli.run_command`."""

    setup_repeats = 7
    absent_spans = ()

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.reference = None

    def setup(self):
        # a `dualrel` command pays the package import on every call
        subprocess.run(
            [sys.executable, "-c", "import dualrel.cli"], check=True,
            env=dict(os.environ), stdout=subprocess.DEVNULL,
        )
        self.gen_cfg = os.path.join(self.workdir, "gen.cfg")
        self.train_cfg = os.path.join(self.workdir, "train.cfg")
        with open(self.gen_cfg, "w") as fh:
            fh.write(f"seed={self.seed}\n")
        gcfg = datagen.GeneratorConfig(seed=self.seed)
        self.relations = gcfg.num_train + gcfg.num_test
        cfg = experiment_config(self.seed, CLI_ITERATIONS, eval_every=CLI_ITERATIONS // 4)
        lines = [f"{key}={getattr(cfg.schedule, key)}"
                 for key in ("k1", "k2", "total_iterations", "head_threshold")]
        lines += [f"{key}={getattr(cfg, key)}"
                  for key in ("batch_size", "hidden_dim", "context_dim", "learning_rate",
                              "beta_en", "mu", "seed", "eval_every")]
        with open(self.train_cfg, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def unit(self, ledger, watch):
        root = tempfile.mkdtemp(dir=self.workdir)
        data, run = os.path.join(root, "data"), os.path.join(root, "run")
        report, summary = os.path.join(root, "report.txt"), os.path.join(root, "summary.txt")
        commands = {
            "generate": ["generate", "--config", self.gen_cfg, "--out", data],
            "train": ["train", "--config", self.train_cfg, "--data", data, "--out", run],
            "eval": ["eval", "--checkpoint", os.path.join(run, "model.ckpt"),
                     "--data", data, "--ks", ",".join(map(str, KS)), "--out", report],
            "report": ["report", "--log", os.path.join(run, "train.log"), "--out", summary],
        }
        out = {"root": root, "ops": {}, "codes": {}, "errors": {}}
        for name, argv in commands.items():
            op = out["ops"][name] = ledger.attempt(name)
            sink = io.StringIO()
            with ledger.running(op), watch.piece(out, f"{name}_cmd_s"):
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    out["codes"][name] = cli.run_command(argv)
            out["errors"][name] = sink.getvalue()[-300:]
        return out

    def check(self, out, ledger):
        root, ops = out["root"], out["ops"]
        artifacts = {
            "generate": ["data/vocab.txt", "data/train.txt", "data/test.txt"],
            "train": ["run/model.ckpt", "run/train.log"],
            "eval": ["report.txt"],
            "report": ["summary.txt"],
        }
        written = {}
        for name, paths in artifacts.items():
            code = out["codes"].get(name)
            ledger.check(ops[name], code == 0, f"exit {code}: {out['errors'].get(name)}")
            missing = [
                p for p in paths
                if not os.path.isfile(os.path.join(root, p))
                or not os.path.getsize(os.path.join(root, p))
            ]
            ledger.check(ops[name], not missing, f"missing or empty {missing}")
            written[name] = code == 0 and not missing
        if written["train"]:
            self.check_training(root, ops["train"], ledger)
        if written["eval"]:
            values = read_report(os.path.join(root, "report.txt"))
            out["quality"] = (values[("mr_at_k", 20)], values[("many_recall", 20)])
            ledger.check(
                ops["eval"], all(0.0 <= v <= 1.0 for v in values.values()),
                "recall outside [0, 1]",
            )
        shutil.rmtree(root)

    def check_training(self, root, op, ledger):
        losses_seen = []
        with open(os.path.join(root, "run", "train.log")) as fh:
            for line in fh:
                if line.startswith("iter "):
                    losses_seen += [float(p.split("=")[1]) for p in line.split()[2:]]
        finite = bool(losses_seen) and all(math.isfinite(v) for v in losses_seen)
        ledger.check(op, finite, "non-finite or missing loss in train.log")
        if not finite:
            return
        fingerprint = (losses_seen[-1], sha256_of(os.path.join(root, "run", "model.ckpt")))
        if self.reference is None:
            self.reference = fingerprint
        ledger.check(
            op, fingerprint == self.reference,
            f"final l_total/checkpoint {fingerprint} differs from first repeat "
            f"{self.reference}",
        )

    def summarize(self, units):
        names = ("generate", "train", "eval", "report")
        mr, many = next((u["quality"] for u in units if "quality" in u), (None, None))
        detail = {
            f"{name}_cmd_s": (statistics.median(u["wall"][f"{name}_cmd_s"] for u in units), "s")
            for name in names
        }
        detail["pipeline_s"] = (statistics.median(self.unit_time(u["wall"]) for u in units), "s")
        detail["mr_at_20"] = (mr, "ratio")
        detail["many_recall_at_20"] = (many, "ratio")
        return detail

    @staticmethod
    def unit_time(times):
        """`pipeline_s`: the four commands together."""
        return sum(times.values())

    def rate_of(self, times):
        """Dataset relations per second through the whole chain."""
        return self.relations / self.unit_time(times)


def read_report(path):
    """{(metric, K): value} from an eval report, plus per-predicate recalls."""
    values = {}
    with open(path) as fh:
        lines = fh.read().splitlines()
    blank = lines.index("")
    for line in lines[1:blank]:
        metric, k, value = line.split("\t")
        if value != "absent":
            values[(metric, int(k))] = float(value)
    for line in lines[blank + 2:]:
        cells = line.split("\t")
        for i, value in enumerate(cells[2:]):
            if value != "absent":
                values[(cells[0], i)] = float(value)
    return values


class GradcheckWorkload:
    """`numerics.grad_check` over `training.batch_forward_backward` on the
    tiny model of the acceptance suite's criterion 1."""

    setup_repeats = 15
    absent_spans = ()

    def __init__(self, seed, workdir):
        self.seed = seed
        self.evals = 0

    def setup(self):
        seed = self.seed
        gcfg = datagen.GeneratorConfig(
            num_object_classes=6, num_head_predicates=3, tails_per_head=1,
            feature_dim=8, num_train=240, num_test=48, relations_per_image=4,
            seed=seed,
        )
        vocab, train_split, _ = datagen.generate_dataset(gcfg)
        prior = datagen.build_prior_bias(train_split, vocab)
        model = model_mod.DualBranchModel.build(
            num_object_classes=6, num_predicates=6, feature_dim=8, hidden_dim=12,
            context_dim=16, prior_table=prior.table, seed=seed,
        )
        rng = np.random.default_rng(seed)
        w = model.store["context.classifier.w"]
        w += rng.normal(size=w.shape) * 0.2
        batch = datagen.relations_by_image(train_split)[:2]
        heads = np.asarray([1, 2, 3], dtype=np.int64)
        head_mask = np.zeros(7, dtype=bool)
        head_mask[heads] = True
        teachers, targets = [], []
        for image in batch:
            h, _ = model_mod.extractor_forward(model, model_mod.instance_matrix(model, image))
            subjects = [i.subject_class for i in image]
            objects = [i.object_class for i in image]
            teachers.append(model_mod.decode_rows(model, "coarse", h, subjects, objects))
            targets.append(
                semantic_context.target_global_token(
                    [i.gt_predicate for i in image], subjects, objects, model.store
                )
            )
        ctx = training._BatchContext(
            alpha=0.6, lambda_head=0.7,
            class_weights=losses.effective_number_weights(vocab.train_counts, 0.99),
            head_indices=heads, head_mask=head_mask, tau=2.0, mu=0.05,
            n_relations=sum(len(image) for image in batch), n_images=len(batch),
            frozen_teachers=teachers, frozen_targets=targets,
        )
        self.model, self.batch, self.ctx = model, batch, ctx
        self.names = [
            n for n in model.store.trainable_names()
            if model.store[n].size <= GRADCHECK_MAX_TENSOR
        ]

    def loss(self, store):
        self.evals += 1
        ctx = self.ctx
        ce, crm, sc, kd = training.batch_forward_backward(self.model, self.batch, ctx)
        return (
            ctx.alpha * ce / ctx.n_relations
            + (1.0 - ctx.alpha) * crm / ctx.n_relations
            + sc / ctx.n_images
            + ctx.mu * kd / ctx.n_relations
        )

    def unit(self, ledger, watch):
        out = {"op": ledger.attempt("grad_check")}
        before = self.evals
        with ledger.running(out["op"]), watch.piece(out, "check_s"):
            out["error"] = numerics.grad_check(self.loss, self.model.store, names=self.names)
        self.evals_per_check = self.evals - before
        return out

    def check(self, out, ledger):
        ledger.check(
            out["op"], out["error"] <= GRADCHECK_TOLERANCE,
            f"max relative error {out['error']:.3e} > {GRADCHECK_TOLERANCE:g}",
        )

    def summarize(self, units):
        return {
            "gradcheck_evals_per_s": (statistics.median(self.rate_of(u["wall"]) for u in units), "1/s"),
            "gradcheck_max_rel_error": (units[-1]["error"], "ratio"),
            "gradcheck_elements": (sum(self.model.store[n].size for n in self.names), "count"),
        }

    @staticmethod
    def unit_time(times):
        return times["check_s"]

    def rate_of(self, times):
        return self.evals_per_check / times["check_s"]


WORKLOADS = {
    "train_full": lambda seed, workdir: TrainWorkload(seed, workdir, {}),
    "train_baseline": lambda seed, workdir: TrainWorkload(
        seed, workdir, BASELINE_FLAGS, absent_spans=BASELINE_ABSENT_SPANS
    ),
    "cli_pipeline": CliWorkload,
    "gradcheck_tiny": GradcheckWorkload,
}
