import hashlib
import os
import re
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

import dualrel
from dualrel.cli import run_command
from dualrel.config import config_keys, read_config
from dualrel.datagen import GeneratorConfig, PredicateVocabulary
from dualrel.losses import LossBreakdown
from dualrel.metrics import EvalReport
from dualrel.model import DualBranchModel, save_checkpoint
from dualrel.schedules import ScheduleConfig, branch_weight, head_predicate_weight
from dualrel.training import LogEntry, TrainConfig, TrainLog, parse_log, write_log

GEN_CFG = """
num_object_classes=6
num_head_predicates=3
tails_per_head=1
feature_dim=8
num_train=240
num_test=48
relations_per_image=4
seed=9
"""

TRAIN_CFG = """
k1=10
k2=20
total_iterations=30
head_threshold=10
learning_rate=0.05
batch_size=3
hidden_dim=12
context_dim=16
seed=1
"""


@pytest.fixture()
def workspace(tmp_path):
    gen = tmp_path / "gen.cfg"
    gen.write_text(GEN_CFG)
    tr = tmp_path / "train.cfg"
    tr.write_text(TRAIN_CFG)
    return tmp_path


def test_generate_train_eval_report_end_to_end(workspace, capsys):
    data = workspace / "data"
    run = workspace / "run"
    assert run_command(["generate", "--config", str(workspace / "gen.cfg"),
                        "--out", str(data)]) == 0
    assert (data / "vocab.txt").exists()
    assert run_command(["train", "--config", str(workspace / "train.cfg"),
                        "--data", str(data), "--out", str(run)]) == 0
    assert (run / "model.ckpt").exists()
    assert (run / "train.log").exists()
    report = workspace / "report.txt"
    assert run_command(["eval", "--checkpoint", str(run / "model.ckpt"),
                        "--data", str(data), "--ks", "5,10",
                        "--out", str(report)]) == 0
    text = report.read_text()
    assert "r_at_k\t5\t" in text
    assert "head01" in text
    summary = workspace / "summary.txt"
    assert run_command(["report", "--log", str(run / "train.log"),
                        "--out", str(summary)]) == 0
    assert "schedule trace" in summary.read_text()


def test_python_dash_m_runs_the_command(workspace):
    src = os.path.dirname(os.path.dirname(dualrel.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    data = workspace / "data"
    done = subprocess.run(
        [sys.executable, "-m", "dualrel.cli", "generate",
         "--config", str(workspace / "gen.cfg"), "--out", str(data)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert {"vocab.txt", "train.txt", "test.txt"} <= {p.name for p in data.iterdir()}


def test_repeated_runs_are_bit_identical(workspace):
    paths = {}
    for tag in ("a", "b"):
        data = workspace / f"data_{tag}"
        run = workspace / f"run_{tag}"
        report = workspace / f"report_{tag}.txt"
        assert run_command(["generate", "--config", str(workspace / "gen.cfg"),
                            "--out", str(data)]) == 0
        assert run_command(["train", "--config", str(workspace / "train.cfg"),
                            "--data", str(data), "--out", str(run)]) == 0
        assert run_command(["eval", "--checkpoint", str(run / "model.ckpt"),
                            "--data", str(data), "--ks", "5,10",
                            "--out", str(report)]) == 0
        paths[tag] = (data, run, report)
    data_a, run_a, report_a = paths["a"]
    data_b, run_b, report_b = paths["b"]
    for name in ("vocab.txt", "train.txt", "test.txt"):
        assert (data_a / name).read_bytes() == (data_b / name).read_bytes()
    assert (run_a / "model.ckpt").read_bytes() == (run_b / "model.ckpt").read_bytes()
    assert (run_a / "train.log").read_bytes() == (run_b / "train.log").read_bytes()
    assert report_a.read_bytes() == report_b.read_bytes()


def test_log_traces_match_schedule_module(workspace):
    data = workspace / "data"
    run = workspace / "run"
    run_command(["generate", "--config", str(workspace / "gen.cfg"),
                 "--out", str(data)])
    run_command(["train", "--config", str(workspace / "train.cfg"),
                 "--data", str(data), "--out", str(run)])
    cfg = read_config(workspace / "train.cfg", TrainConfig)
    iters = parse_log(run / "train.log")["iter"]
    assert len(iters) == cfg.schedule.total_iterations
    for row in iters:
        k = row["iteration"]
        assert row["alpha"] == branch_weight(k, cfg.schedule)
        assert row["lambda_head"] == head_predicate_weight(k, True, cfg.schedule)


def _hand_built_log():
    """A TrainLog of fixed floats: three iterations, two snapshots at K = 20
    and 50, a group with no ground truth (None) and a predicate with none
    (NaN), over a three-predicate vocabulary."""
    vocab = PredicateVocabulary(["__background__", "on", "has", "near"],
                                np.array([0, 9, 4, 1]), np.array([0, 1, 2, 1]))
    entries = [
        LogEntry(k, alpha, lambda_head,
                 LossBreakdown(l_ce, l_crm, l_hybrid, 0.0, 1e-05, l_total))
        for k, alpha, lambda_head, l_ce, l_crm, l_hybrid, l_total in [
            (1, 1.0, 1.0, 2.5, 2.75, 2.5, 2.50002),
            (2, 0.55, 0.9, 0.1 + 0.2, 1 / 3, 0.3150000000000001, 1.2345678901234567),
            (4, 0.1, 0.2, 3e-12, 123456.789, 111111.1101, 111111.1101),
        ]
    ]
    snapshots = [
        (iteration, EvalReport(
            ks=(20, 50),
            r_at_k={20: 0.25 * scale, 50: 0.5 * scale},
            mr_at_k={20: 1 / 3, 50: 2 / 3},
            m_at_k={20: 0.1 + 0.2, 50: 0.7},
            per_predicate={20: np.array([np.nan, 0.5, np.nan, 1.0]),
                           50: np.array([np.nan, 0.75, np.nan, 1.0])},
            group_recalls={20: (0.5, None, 1.0), 50: (0.75, None, 1.0)},
        ))
        for iteration, scale in [(2, 1.0), (4, 1.5)]
    ]
    return TrainLog(entries, snapshots), vocab


def test_log_and_report_bytes_are_pinned(tmp_path):
    """The bytes of a train.log and of its ``dualrel report`` summary.

    The log is built by hand, so the bytes depend only on ``repr(float)``
    and the format, not on BLAS or on training: a format change that a rerun
    comparison cannot see (it happens in both runs) fails here.
    """
    log, vocab = _hand_built_log()
    path, summary = tmp_path / "train.log", tmp_path / "summary.txt"
    write_log(path, log, vocab)
    assert run_command(["report", "--log", str(path), "--out", str(summary)]) == 0
    assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in (path, summary)] == [
        "00cffc377f6d312db64a9445df1233925cb6b9510cb14bc288ec70c9012aad8f",
        "c5bc6857c58a31865da5c51bae747f5b8f4d309a88dae30b4a857a4c0f82daa8",
    ]


def test_eval_missing_checkpoint_leaves_no_report(workspace, capsys):
    data = workspace / "data"
    run_command(["generate", "--config", str(workspace / "gen.cfg"),
                 "--out", str(data)])
    report = workspace / "report.txt"
    status = run_command(["eval", "--checkpoint", str(workspace / "missing.ckpt"),
                          "--data", str(data), "--ks", "5",
                          "--out", str(report)])
    assert status != 0
    assert not report.exists()
    assert "error:" in capsys.readouterr().err


def test_eval_truncated_checkpoint_is_one_error_line(workspace, capsys):
    data = workspace / "data"
    assert run_command(["generate", "--config", str(workspace / "gen.cfg"),
                        "--out", str(data)]) == 0
    gcfg = read_config(workspace / "gen.cfg", GeneratorConfig)
    model = DualBranchModel.build(
        num_object_classes=gcfg.num_object_classes,
        num_predicates=gcfg.num_predicates,
        feature_dim=gcfg.feature_dim,
        hidden_dim=64,
        context_dim=64,
    )
    ckpt = workspace / "model.ckpt"
    save_checkpoint(ckpt, model)
    ckpt.write_bytes(ckpt.read_bytes()[:-5])
    capsys.readouterr()
    report = workspace / "report.txt"
    status = run_command(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                          "--ks", "5", "--out", str(report)])
    err = capsys.readouterr().err
    assert status == 1
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(ckpt) in err
    assert not report.exists()


def test_unknown_flag_fails(workspace, capsys):
    assert run_command(["generate", "--config", "x", "--bogus", "y"]) != 0


def test_unknown_subcommand_fails(capsys):
    assert run_command(["transmogrify"]) != 0


def test_missing_config_fails(workspace, capsys):
    status = run_command(["generate", "--config", str(workspace / "nope.cfg"),
                          "--out", str(workspace / "d")])
    assert status != 0


class TestConfigParsing:
    def test_unknown_generator_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("zipf_exponent=1.2\nwombats=3\n")
        with pytest.raises(ValueError, match=(
            f"^{re.escape(str(path))}, line 2: unknown GeneratorConfig key 'wombats'$"
        )):
            read_config(path, GeneratorConfig)

    def test_unknown_train_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("learning_rate=0.1\nmomentum=0.9\n")
        with pytest.raises(ValueError, match="bad.cfg, line 2: .*'momentum'"):
            read_config(path, TrainConfig)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("# a comment\n\nlearning_rate=0.2\n")
        cfg = read_config(path, TrainConfig)
        assert cfg.learning_rate == 0.2

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("# a comment\nlearning_rate 0.2\n")
        with pytest.raises(ValueError, match=(
            "bad.cfg, line 2: expected key=value, got 'learning_rate 0.2'"
        )):
            read_config(path, TrainConfig)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed=1\nseed=2\n")
        with pytest.raises(ValueError, match="bad.cfg, line 2: duplicate key 'seed'"):
            read_config(path, TrainConfig)

    @pytest.mark.parametrize("word, value", [
        ("true", True), ("1", True), ("yes", True), ("TRUE", True), ("Yes", True),
        ("false", False), ("0", False), ("no", False), ("False", False), ("NO", False),
    ])
    def test_bool_words(self, tmp_path, word, value):
        path = tmp_path / "ok.cfg"
        path.write_text(f"disable_context={word}\n")
        assert read_config(path, TrainConfig).disable_context is value

    def test_bool_and_kind_coercion(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("disable_context=true\nkind=parabolic\nnu=0.5\n")
        cfg = read_config(path, TrainConfig)
        assert cfg.disable_context is True
        assert cfg.schedule.kind == "parabolic"

    def test_bad_bool_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("disable_context=maybe\n")
        with pytest.raises(ValueError,
                           match="bad.cfg, line 1: field disable_context has bad value "
                                 "'maybe', expected a boolean"):
            read_config(path, TrainConfig)

    def test_bad_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("kind=spline\n")
        with pytest.raises(ValueError, match="bad.cfg: unknown schedule kind 'spline'"):
            read_config(path, TrainConfig)

    def test_accepted_keys_are_the_scalar_dataclass_fields(self):
        assert set(config_keys(GeneratorConfig)) == {
            "num_object_classes", "num_head_predicates", "tails_per_head",
            "feature_dim", "zipf_exponent", "tail_offset_scale", "noise_scale",
            "label_noise", "pair_concentration", "num_train", "num_test",
            "relations_per_image", "seed",
        }
        keys = config_keys(TrainConfig)
        assert {key for key, (holder, _) in keys.items() if holder == "schedule"} == {
            "k1", "k2", "total_iterations", "beta1", "beta2", "head_threshold",
            "kind", "nu",
        }
        train_keys = {key for key, (holder, _) in keys.items() if holder is None}
        assert train_keys == {
            "tau", "mu", "beta_en", "learning_rate", "batch_size", "hidden_dim",
            "context_dim", "seed", "disable_curriculum", "disable_context",
            "disable_distillation", "log_every", "eval_every",
        }
        assert len(keys) == 8 + 13

    def test_coarse_only_is_an_unknown_key(self, tmp_path):
        # the schedule's beta1=1.0 pins the branch weight instead
        path = tmp_path / "bad.cfg"
        path.write_text("coarse_only=true\n")
        with pytest.raises(ValueError, match="unknown TrainConfig key 'coarse_only'"):
            read_config(path, TrainConfig)

    @pytest.mark.parametrize("line", ["eval_ks=5,10", "schedule=linear"])
    def test_non_scalar_fields_are_unknown_keys(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        key = line.split("=")[0]
        with pytest.raises(ValueError,
                           match=f"bad.cfg, line 1: unknown TrainConfig key '{key}'"):
            read_config(path, TrainConfig)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_rejected(self, tmp_path, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"tail_offset_scale={value}\n")
        with pytest.raises(ValueError, match=(
            f"bad.cfg, line 1: field tail_offset_scale has bad value '{value}', "
            "expected a finite number"
        )):
            read_config(path, GeneratorConfig)

    def test_every_key_set_to_a_non_default_value(self, tmp_path):
        def changed(value):
            if isinstance(value, bool):
                return not value
            if isinstance(value, str):
                return "exponential"
            if isinstance(value, int):
                return value + 1
            return value / 2 or 0.5

        def read(text, cls):
            path = tmp_path / "all.cfg"
            path.write_text(text)
            return read_config(path, cls)

        train_keys = config_keys(TrainConfig)
        defaults = {
            "generator": (GeneratorConfig(), config_keys(GeneratorConfig)),
            "schedule": (ScheduleConfig(), [k for k, (holder, _) in train_keys.items()
                                            if holder == "schedule"]),
            "train": (TrainConfig(), [k for k, (holder, _) in train_keys.items()
                                      if holder is None]),
        }
        values = {
            part: {key: changed(getattr(cfg, key)) for key in keys}
            for part, (cfg, keys) in defaults.items()
        }
        for part, (cfg, _) in defaults.items():
            for key, value in values[part].items():
                assert value != getattr(cfg, key), key

        def text(*parts):
            return "".join(
                f"{k}={v}\n" for part in parts for k, v in values[part].items()
            )

        gen = read(text("generator"), GeneratorConfig)
        assert gen == GeneratorConfig(**values["generator"])
        trained = read(text("schedule", "train"), TrainConfig)
        assert trained == TrainConfig(
            schedule=ScheduleConfig(**values["schedule"]), **values["train"]
        )
        for cfg, part in ((gen, "generator"), (trained.schedule, "schedule"),
                          (trained, "train")):
            for key, value in values[part].items():
                assert type(getattr(cfg, key)) is type(value), key

    def test_default_schedule_restates_only_the_breakpoints(self):
        assert ScheduleConfig() == ScheduleConfig(
            k1=1000, k2=2000, total_iterations=4000
        )
        assert ScheduleConfig(k2=3000, kind="parabolic") == ScheduleConfig(
            k1=1000, k2=3000, total_iterations=4000, kind="parabolic"
        )


# ---------------------------------------------------------------------------
# bad input: exit status 1, one stderr line naming the key or the file, and
# no output left behind
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    root = tmp_path_factory.mktemp("generated")
    (root / "gen.cfg").write_text(GEN_CFG)
    assert run_command(["generate", "--config", str(root / "gen.cfg"),
                        "--out", str(root / "data")]) == 0
    return root / "data"


def _config_values(text):
    return dict(line.split("=") for line in text.split())


def _config_text(base, **changes):
    values = {**_config_values(base), **changes}
    return "".join(f"{key}={value}\n" for key, value in values.items())


def _renamed_parameter(path, model):
    save_checkpoint(path, model)
    path.write_bytes(path.read_bytes().replace(b"decoder.fine.w", b"decoder.fine.x"))


def _nan_bias(path, model):
    model.store["decoder.fine.b"][:] = np.nan
    save_checkpoint(path, model)


def _zero_hidden_dim(path, model):
    save_checkpoint(path, model)
    raw = bytearray(path.read_bytes())
    raw[12:16] = struct.pack("<I", 0)  # after the magic, version, feature_dim
    path.write_bytes(bytes(raw))


def _edit_line(name, line, edit):
    """A dataset defect: ``edit`` changes the tokens of one line of one file
    (line 1 is the first; -1 is the last)."""

    def change(data):
        path = data / name
        lines = path.read_text().splitlines()
        index = line - 1 if line > 0 else line
        tokens = lines[index].split()
        edit(tokens)
        lines[index] = " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")

    return change


def _non_utf8(name, line):
    """A dataset defect: byte 0xff at the end of one line of one file."""

    def change(data):
        path = data / name
        lines = path.read_bytes().split(b"\n")
        lines[line - 1] += b"\xff"
        path.write_bytes(b"\n".join(lines))

    return change


def _header_only(name):
    """A dataset defect: one file keeps its header line and no relation."""

    def change(data):
        path = data / name
        path.write_text(path.read_text().splitlines()[0] + "\n")

    return change


def _background_only(name):
    """A dataset defect: every relation of one file has gt_predicate 0."""

    def change(data):
        path = data / name
        header, *lines = path.read_text().splitlines()
        rows = [line.split() for line in lines]
        for tokens in rows:
            tokens[3] = "0"
        path.write_text("\n".join([header, *map(" ".join, rows)]) + "\n")

    return change


def _set(column, value):
    def edit(tokens):
        tokens[column] = value(tokens[column]) if callable(value) else value
    return edit


def _scale(start, stop, factor):
    def edit(tokens):
        tokens[start:stop] = [repr(float(t) * factor) for t in tokens[start:stop]]
    return edit


def _model_with(**dims):
    """A checkpoint change: save a model whose dims differ from the dataset's."""

    def change(path, model):
        save_checkpoint(path, DualBranchModel.build(**{
            "num_object_classes": model.num_object_classes,
            "num_predicates": model.num_predicates,
            "feature_dim": model.feature_dim,
            "hidden_dim": model.hidden_dim,
            "context_dim": model.context_dim,
            **dims,
        }))

    return change


ITER_LINE = ("iter 1 alpha=1.0 lambda_head=1.0 l_ce=1.0 l_crm=1.0 l_hybrid=1.0 "
             "l_sc=0.0 l_kd=0.0 l_total=1.0")
EVAL_LINE = "eval 1 20 r=0.5 mr=0.5 m=0.5 many=0.5 medium=absent few=0.5"
EVALPRED_LINE = "evalpred 1 20 1 0.5"
PREDICATE_LINES = "predicate 1 a 3\npredicate 2 b 2"
# predicate 2 has no K=10 row
EVALPRED_LINES = "\n".join([PREDICATE_LINES, "evalpred 10 5 1 0.5",
                            "evalpred 10 10 1 0.5", "evalpred 10 5 2 0.5"])

# two snapshots (iterations 1 and 2, K = 20 and 50) of a two-predicate
# evaluation grid, laid out as write_log writes it: the predicate rows on
# lines 2-3, the iter row on line 4, the snapshots on lines 5-7, 8-10,
# 11-13 and 14-16
GRID_LOG = "\n".join([PREDICATE_LINES, ITER_LINE, *(
    line
    for iteration in (1, 2) for k in (20, 50)
    for line in [EVAL_LINE.replace("eval 1 20 ", f"eval {iteration} {k} "),
                 f"evalpred {iteration} {k} 1 0.5",
                 f"evalpred {iteration} {k} 2 0.5"]
)])


def _without(text, *starts):
    """``text`` without its lines that begin with one of ``starts``."""
    return "\n".join(line for line in text.split("\n") if not line.startswith(starts))


# GEN_CFG relation lines: 4 ids, 3 x 8 features, 2 x 7 label distributions
SUBJECT_DIST = slice(4 + 3 * 8, 4 + 3 * 8 + 7)

BAD_INPUTS = [
    pytest.param("train", {"log_every": "0"}, "log_every", id="log_every=0"),
    pytest.param("train", {"log_every": "-2"}, "log_every", id="log_every=-2"),
    pytest.param("train", {"hidden_dim": "0"}, "hidden_dim", id="hidden_dim=0"),
    pytest.param("train", {"context_dim": "0"}, "context_dim", id="context_dim=0"),
    pytest.param("train", {"eval_every": "-1"}, "eval_every", id="eval_every=-1"),
    pytest.param("train", {"learning_rate": "nan"}, "learning_rate",
                 id="learning_rate=nan"),
    pytest.param("generate", {"tail_offset_scale": "nan"}, "tail_offset_scale",
                 id="tail_offset_scale=nan"),
    pytest.param("generate", {"seed": "-1"}, "seed", id="generate-seed=-1"),
    pytest.param("generate", {"tails_per_head": "-1"}, "tails_per_head",
                 id="tails_per_head=-1"),
    pytest.param("train", {"seed": "-4"}, "seed", id="train-seed=-4"),
    # "\udcff" is written as the byte 0xff
    pytest.param("generate", {"seed": "9\udcff"}, ("bad.cfg", "line 8", "UTF-8"),
                 id="config-non-utf8"),
    pytest.param("generate", {"seed": "x"}, ("line 8", "field seed ", "'x'"),
                 id="generate-seed=x"),
    # a number is ASCII without digit-group underscores
    pytest.param("generate", {"seed": "1_0"}, ("line 8", "field seed ", "'1_0'"),
                 id="generate-seed=1_0"),
    pytest.param("generate", {"num_test": "5"}, "num_test=5", id="num_test=5"),
    pytest.param("generate", {"num_train": "60", "zipf_exponent": "5"},
                 ("zipf_exponent=5.0", "num_train=60"), id="zipf-starves-the-tail"),
    pytest.param("train", {"disable_context": "maybe"},
                 ("line 10", "field disable_context ", "'maybe'"),
                 id="disable_context=maybe"),
    pytest.param("generate", {"wombats": "3"}, ("line 9", "'wombats'"),
                 id="unknown-key-wombats"),
    pytest.param("train", {"k1": "5000"}, "k1=5000", id="k1=5000"),
    pytest.param("train", {"head_threshold": "100000"},
                 ("head_threshold=100000", "disable_distillation"),
                 id="head_threshold=100000"),
    pytest.param("eval", _renamed_parameter, "decoder.fine.w", id="renamed-parameter"),
    pytest.param("eval", _nan_bias, "decoder.fine.b", id="nan-bias"),
    pytest.param("eval", _zero_hidden_dim, "hidden_dim", id="zero-hidden-dim"),
    pytest.param("data", _edit_line("train.txt", 2, _set(1, "99")),
                 ("train.txt", "line 2", "subject_class"), id="subject-class-99"),
    pytest.param("data", _edit_line("test.txt", 3, _set(2, "1.5")),
                 ("test.txt", "line 3", "object_class"), id="object-class-1.5"),
    pytest.param("data", _edit_line("train.txt", 3,
                                    _scale(SUBJECT_DIST.start, SUBJECT_DIST.stop, 5.0)),
                 ("train.txt", "line 3", "subject_label_dist"), id="label-dist-sums-to-5"),
    pytest.param("data", _edit_line("train.txt", 4, _set(4 + 2 * 8, "nan")),
                 ("train.txt", "line 4", "union_feature[0]"), id="nan-feature"),
    pytest.param("data", _edit_line("train.txt", -1, _set(0, lambda t: str(int(t) + 2))),
                 ("train.txt", "line 241", "image_id"), id="image-id-gap"),
    pytest.param("data", _edit_line("vocab.txt", 3, lambda tokens: tokens.pop()),
                 ("vocab.txt", "line 3", "4 fields"), id="vocab-line-of-3-fields"),
    pytest.param("data", _edit_line("vocab.txt", 5, _set(1, "head02")),
                 ("vocab.txt", "line 5", "'head02'", "repeats line 3"),
                 id="vocab-name-repeated"),
    pytest.param("data", _edit_line("vocab.txt", 5, _set(3, "77")),
                 ("vocab.txt", "line 5", "parent"), id="vocab-parent-77"),
    pytest.param("data", _edit_line("vocab.txt", 3, _set(2, "x")),
                 ("vocab.txt", "line 3", "field train_count ", "'x'"),
                 id="vocab-train_count-x"),
    pytest.param("data", _edit_line("vocab.txt", 3, _set(2, "-1")),
                 ("vocab.txt", "line 3", "field train_count ", "'-1'"),
                 id="vocab-train_count=-1"),
    pytest.param("data", _edit_line("vocab.txt", 3, _set(2, "\u0661\u0660")),
                 ("vocab.txt", "line 3", "field train_count ", "'\u0661\u0660'"),
                 id="vocab-train_count-arabic-indic-10"),
    pytest.param("data", _edit_line("train.txt", 1, _set(4, "0")),
                 ("train.txt", "line 1", "field feature_dim ", "'0'"),
                 id="header-feature_dim=0"),
    pytest.param("data", _header_only("train.txt"), ("train.txt", "no relations"),
                 id="train-header-only"),
    pytest.param("data", _header_only("test.txt"), ("test.txt", "no relations"),
                 id="test-header-only"),
    pytest.param("data", _background_only("train.txt"), ("train.txt", "gt_predicate"),
                 id="train-background-only"),
    pytest.param("data", _background_only("test.txt"), ("test.txt", "gt_predicate"),
                 id="test-background-only"),
    pytest.param("data", _non_utf8("vocab.txt", 4), ("vocab.txt", "line 4", "UTF-8"),
                 id="vocab-non-utf8"),
    # line 200 is past the header's read buffer: np.loadtxt meets the byte
    pytest.param("data", _non_utf8("train.txt", 200), ("train.txt", "line 200", "UTF-8"),
                 id="train-non-utf8"),
    pytest.param("data", _non_utf8("test.txt", 1), ("test.txt", "line 1", "UTF-8"),
                 id="test-header-non-utf8"),
    pytest.param("ks", "20,20", ("--ks", "20", "twice"), id="ks-repeated"),
    pytest.param("ks", "abc", ("--ks", "'abc'"), id="ks-abc"),
    pytest.param("ks", "2.5", ("--ks", "'2.5'"), id="ks-2.5"),
    pytest.param("ks", "0", ("--ks", "0"), id="ks-0"),
    pytest.param("ks", "5,-3", ("--ks", "-3"), id="ks-negative"),
    pytest.param("ks", "20,,50", ("--ks", "field K ", "''"), id="ks-empty-middle-item"),
    pytest.param("ks", "20,", ("--ks", "field K ", "''"), id="ks-empty-last-item"),
    pytest.param("ks", ",20", ("--ks", "field K ", "''"), id="ks-empty-first-item"),
    pytest.param("mismatch", _model_with(num_predicates=4), "num_predicates",
                 id="4-predicate-checkpoint"),
    pytest.param("mismatch", _model_with(num_object_classes=8), "num_object_classes",
                 id="8-object-class-checkpoint"),
    pytest.param("mismatch", _model_with(feature_dim=4), "feature_dim",
                 id="feature-dim-4-checkpoint"),
    pytest.param("report", "iter 1 l_total=1.0", ("line 2", "alpha"),
                 id="iter-without-alpha"),
    pytest.param("report", "iter", ("line 2", "iteration"), id="bare-iter"),
    pytest.param("report", ITER_LINE.replace("alpha=1.0", "alpha=abc"),
                 ("line 2", "alpha"), id="alpha=abc"),
    pytest.param("report", ITER_LINE.replace("iter 1", "iter x"),
                 ("line 2", "iteration"), id="iter-x"),
    pytest.param("report", f"{ITER_LINE}\neval 1 20 r", ("line 3", "'r'"),
                 id="eval-field-without-value"),
    pytest.param("report", EVALPRED_LINES, ("iteration 10", "K=10", "index 2"),
                 id="evalpred-missing-a-k"),
    pytest.param("report", _without(GRID_LOG, "evalpred 2 20 1 ", "evalpred 2 50 1 "),
                 ("iteration 2", "K=20", "index 1"),
                 id="evalpred-index-missing-at-an-iteration"),
    pytest.param("report", _without(GRID_LOG, "eval 2 50 "),
                 ("iteration 2", "no eval row", "K=50"), id="eval-row-missing"),
    pytest.param("report", _without(GRID_LOG, "evalpred 2 50 "),
                 ("iteration 2", "no evalpred row", "K=50"),
                 id="eval-row-without-evalpred"),
    # the last predicate's rows missing at every snapshot: P is 2, not 1
    pytest.param("report", _without(GRID_LOG, *(f"evalpred {i} {k} 2 " for i in (1, 2)
                                                for k in (20, 50))),
                 ("iteration 1", "no K=20 row", "index 2"),
                 id="evalpred-last-index-missing-everywhere"),
    pytest.param("report", _without(GRID_LOG, "predicate 2 "),
                 ("iteration 1", "K=20", "index 2", "P = 1"), id="evalpred-index-above-p"),
    pytest.param("report", GRID_LOG.replace("predicate 2 b", "predicate 3 b"),
                 ("line 3", "predicate index 3", "2"), id="predicate-index-gap"),
    pytest.param("report", GRID_LOG.replace("predicate 2 b 2", "predicate 1 a 3"),
                 ("line 3", "repeats line 2", "predicate row of index 1"),
                 id="predicate-repeated"),
    pytest.param("report", GRID_LOG.replace("predicate 2 b", "predicate 2 a"),
                 ("line 3", "repeats line 2", "predicate name 'a'"),
                 id="predicate-name-repeated"),
    pytest.param("report", f"{ITER_LINE}\udcff", ("line 2", "UTF-8"), id="log-non-utf8"),
    pytest.param("report", ITER_LINE.replace("alpha=1.0", "alpha=nan"),
                 ("line 2", "field alpha "), id="alpha=nan"),
    pytest.param("report", ITER_LINE.replace("l_ce=1.0", "l_ce=inf"),
                 ("line 2", "field l_ce "), id="l_ce=inf"),
    pytest.param("report", ITER_LINE.replace("l_ce=1.0", "l_ce=1_0"),
                 ("line 2", "field l_ce ", "'1_0'"), id="l_ce=1_0"),
    pytest.param("report", ITER_LINE.replace("l_total=1.0", "l_total=-inf"),
                 ("line 2", "field l_total "), id="l_total=-inf"),
    pytest.param("report", ITER_LINE.replace("alpha=1.0", "alpha=1.5"),
                 ("line 2", "field alpha "), id="alpha=1.5"),
    pytest.param("report", ITER_LINE.replace("lambda_head=1.0", "lambda_head=-0.1"),
                 ("line 2", "field lambda_head "), id="lambda_head=-0.1"),
    pytest.param("report", f"{ITER_LINE}\n{EVAL_LINE.replace(' r=0.5', ' r=7.0')}",
                 ("line 3", "field r "), id="eval-r=7.0"),
    # r, mr and m are numbers; only a group recall may be absent
    *(pytest.param("report", f"{ITER_LINE}\n" + EVAL_LINE.replace(f" {key}=0.5",
                                                                 f" {key}=absent"),
                   ("line 3", f"field {key} ", "'absent'"), id=f"eval-{key}=absent")
      for key in ("r", "mr", "m")),
    pytest.param("report", f"{ITER_LINE}\n{EVAL_LINE.replace('few=0.5', 'few=nan')}",
                 ("line 3", "field few "), id="eval-few=nan"),
    pytest.param("report", f"{ITER_LINE}\n{EVALPRED_LINE.replace(' 0.5', ' -0.5')}",
                 ("line 3", "field recall "), id="evalpred-recall=-0.5"),
    pytest.param("report", ITER_LINE.replace("iter 1", "iter 0"),
                 ("line 2", "field iteration "), id="iter-0"),
    pytest.param("report", f"{ITER_LINE}\n{EVAL_LINE.replace(' 20 ', ' 0 ')}",
                 ("line 3", "field K "), id="eval-K=0"),
    pytest.param("report", f"{ITER_LINE}\n{EVALPRED_LINE.replace(' 20 1 ', ' 20 0 ')}",
                 ("line 3", "field index "), id="evalpred-index=0"),
    pytest.param("report", PREDICATE_LINES.replace(" b 2", " b -1"),
                 ("line 3", "field train_count "), id="predicate-train_count=-1"),
    pytest.param("report", f"{ITER_LINE}\n{ITER_LINE}", ("line 3", "iteration 1"),
                 id="iter-repeated"),
    pytest.param("report", f"{ITER_LINE} alpha=0.5", ("line 2", "'alpha=0.5'"),
                 id="iter-alpha-twice"),
    pytest.param("report", f"{ITER_LINE}\n{EVAL_LINE}\n{EVAL_LINE}",
                 ("line 4", "repeats line 3", "iteration 1, K 20"), id="eval-repeated"),
    pytest.param("report", f"{ITER_LINE}\n{EVALPRED_LINE}\n"
                           f"{EVALPRED_LINE.replace(' 0.5', ' 0.25')}",
                 ("line 4", "repeats line 3", "iteration 1, K 20, index 1"),
                 id="evalpred-repeated"),
    pytest.param("report", f"{ITER_LINE.replace('iter 1', 'iter 5')}\n{ITER_LINE}",
                 ("line 3", "iteration 1", "iteration 5"), id="iter-goes-down"),
    pytest.param("report", f"# training-log 1\n{ITER_LINE}",
                 ("line 1", "'# training-log 1'"), id="log-version-1"),
    pytest.param("report", f"# training-log\n{ITER_LINE}",
                 ("line 1", "'# training-log'"), id="log-without-version"),
    pytest.param("report", f"# training-log x\n{ITER_LINE}",
                 ("line 1", "'# training-log x'"), id="log-version-x"),
]


@pytest.mark.parametrize("command, change, named", BAD_INPUTS)
def test_bad_input_is_one_error_line_and_no_output(
    generated, tmp_path, capsys, command, change, named
):
    out = tmp_path / "out"
    if command in ("eval", "mismatch", "ks"):
        gcfg = read_config(generated.parent / "gen.cfg", GeneratorConfig)
        model = DualBranchModel.build(
            num_object_classes=gcfg.num_object_classes,
            num_predicates=gcfg.num_predicates,
            feature_dim=gcfg.feature_dim,
            hidden_dim=64,
            context_dim=64,
        )
        ckpt = inputs = tmp_path / "model.ckpt"
        ks = "5"
        if command == "ks":  # a sound checkpoint; the --ks value is the defect
            save_checkpoint(ckpt, model)
            ks, named = change, list(named)
        else:
            change(ckpt, model)
            named = [named, str(ckpt)]
        if command == "mismatch":  # names the dataset too
            named.append(str(generated))
        argv = ["eval", "--checkpoint", str(ckpt), "--data", str(generated),
                "--ks", ks, "--out", str(out)]
    elif command == "data":
        data = tmp_path / "data"
        shutil.copytree(generated, data)
        change(data)
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN_CFG)
        inputs = [data, cfg]
        name, *named = named
        named.append(str(data / name))
        argv = ["train", "--config", str(cfg), "--data", str(data), "--out", str(out)]
    elif command == "report":
        log = inputs = tmp_path / "train.log"
        if not change.startswith("#"):  # a change may bring its own header
            change = f"# training-log 2\n{change}"
        log.write_bytes(f"{change}\n".encode("utf-8", "surrogateescape"))
        named = [*named, str(log)]
        argv = ["report", "--log", str(log), "--out", str(out)]
    else:
        cfg = inputs = tmp_path / "bad.cfg"
        text = _config_text(GEN_CFG if command == "generate" else TRAIN_CFG, **change)
        cfg.write_bytes(text.encode("utf-8", "surrogateescape"))
        # a config fault names the file as well as the key
        named = [*([named] if isinstance(named, str) else named), str(cfg)]
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "train":
            argv += ["--data", str(generated)]
    capsys.readouterr()
    status = run_command(argv)
    err = capsys.readouterr().err
    assert status == 1
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert all(name in err for name in named), err
    assert sorted(tmp_path.iterdir()) == sorted(
        inputs if isinstance(inputs, list) else [inputs]
    )


# ---------------------------------------------------------------------------
# eval reads the vocabulary and the test split, nothing else of the dataset
# ---------------------------------------------------------------------------


def test_eval_report_does_not_depend_on_train_txt(workspace):
    data, run = workspace / "data", workspace / "run"
    assert run_command(["generate", "--config", str(workspace / "gen.cfg"),
                        "--out", str(data)]) == 0
    assert run_command(["train", "--config", str(workspace / "train.cfg"),
                        "--data", str(data), "--out", str(run)]) == 0
    reports = []
    for tag in ("with", "without"):
        if tag == "without":
            (data / "train.txt").unlink()
        report = workspace / f"report_{tag}.txt"
        assert run_command(["eval", "--checkpoint", str(run / "model.ckpt"),
                            "--data", str(data), "--ks", "5,10",
                            "--out", str(report)]) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("change, named", [
    pytest.param(_edit_line("test.txt", 3, _set(2, "1.5")),
                 ["{data}/test.txt", "line 3", "object_class"], id="object-class-1.5"),
    pytest.param(_edit_line("test.txt", 5, _set(4 + 2 * 8, "nan")),
                 ["{data}/test.txt", "line 5", "union_feature[0]"], id="nan-feature"),
    pytest.param(_edit_line("test.txt", 4, _scale(SUBJECT_DIST.start,
                                                  SUBJECT_DIST.stop, 5.0)),
                 ["{data}/test.txt", "line 4", "subject_label_dist"],
                 id="label-dist-sums-to-5"),
    pytest.param(_background_only("test.txt"), ["{data}/test.txt", "gt_predicate"],
                 id="background-only"),
    # a header num_predicates of 9 lets every body line pass its own checks
    pytest.param(_edit_line("test.txt", 1, _set(3, "9")),
                 ["{data}:", "vocab.txt has 6 predicates", "test.txt 9"],
                 id="header-predicates-disagree-with-vocab"),
])
def test_eval_test_split_defect_is_one_error_line(generated, tmp_path, capsys,
                                                  change, named):
    data = tmp_path / "data"
    shutil.copytree(generated, data)
    change(data)
    gcfg = read_config(generated.parent / "gen.cfg", GeneratorConfig)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, DualBranchModel.build(
        num_object_classes=gcfg.num_object_classes,
        num_predicates=gcfg.num_predicates,
        feature_dim=gcfg.feature_dim,
        hidden_dim=12,
        context_dim=16,
    ))
    report = tmp_path / "report.txt"
    capsys.readouterr()
    status = run_command(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                          "--ks", "5", "--out", str(report)])
    err = capsys.readouterr().err
    assert status == 1
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert all(name.format(data=data) in err for name in named), err
    assert not report.exists()
