import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

import dualrel
from dualrel import config
from dualrel.cli import run_command
from dualrel.config import generator_config_from, parse_kv_file, train_config_from
from dualrel.datagen import GeneratorConfig
from dualrel.model import DualBranchModel, save_checkpoint
from dualrel.schedules import ScheduleConfig, branch_weight, head_predicate_weight
from dualrel.training import TrainConfig, default_schedule, parse_log

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
    cfg = train_config_from(parse_kv_file(workspace / "train.cfg"))
    iters, _, _ = parse_log(run / "train.log")
    assert len(iters) == cfg.schedule.total_iterations
    for row in iters:
        k = row["iteration"]
        assert row["alpha"] == branch_weight(k, cfg.schedule)
        assert row["lambda_head"] == head_predicate_weight(k, True, cfg.schedule)


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
    gcfg = generator_config_from(parse_kv_file(workspace / "gen.cfg"))
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
        with pytest.raises(ValueError, match="wombats"):
            generator_config_from(parse_kv_file(path))

    def test_unknown_train_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("learning_rate=0.1\nmomentum=0.9\n")
        with pytest.raises(ValueError, match="momentum"):
            train_config_from(parse_kv_file(path))

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("# a comment\n\nlearning_rate=0.2\n")
        cfg = train_config_from(parse_kv_file(path))
        assert cfg.learning_rate == 0.2

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("learning_rate 0.2\n")
        with pytest.raises(ValueError, match="key=value"):
            parse_kv_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed=1\nseed=2\n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_kv_file(path)

    def test_bool_and_kind_coercion(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("disable_context=true\nkind=parabolic\nnu=0.5\n")
        cfg = train_config_from(parse_kv_file(path))
        assert cfg.disable_context is True
        assert cfg.schedule.kind == "parabolic"

    def test_bad_bool_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("disable_context=maybe\n")
        with pytest.raises(ValueError, match="boolean"):
            train_config_from(parse_kv_file(path))

    def test_bad_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("kind=spline\n")
        with pytest.raises(ValueError, match="kind"):
            train_config_from(parse_kv_file(path))

    def test_accepted_keys_are_the_scalar_dataclass_fields(self):
        assert set(config.GENERATOR_KEYS) == {
            "num_object_classes", "num_head_predicates", "tails_per_head",
            "feature_dim", "zipf_exponent", "tail_offset_scale", "noise_scale",
            "label_noise", "pair_concentration", "num_train", "num_test",
            "relations_per_image", "seed",
        }
        assert set(config.SCHEDULE_KEYS) == {
            "k1", "k2", "total_iterations", "beta1", "beta2", "head_threshold",
            "kind", "nu",
        }
        assert set(config.TRAIN_KEYS) == {
            "tau", "mu", "beta_en", "learning_rate", "batch_size", "hidden_dim",
            "context_dim", "seed", "disable_curriculum", "disable_context",
            "disable_distillation", "coarse_only", "distill_after_k1",
            "log_every", "eval_every",
        }

    @pytest.mark.parametrize("line", ["eval_ks=5,10", "schedule=linear"])
    def test_non_scalar_fields_are_unknown_keys(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match="unknown training config key"):
            train_config_from(parse_kv_file(path))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_rejected(self, tmp_path, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"tail_offset_scale={value}\n")
        with pytest.raises(ValueError, match="tail_offset_scale.*finite"):
            generator_config_from(parse_kv_file(path))

    def test_every_key_set_to_a_non_default_value(self, tmp_path):
        def changed(value):
            if isinstance(value, bool):
                return not value
            if isinstance(value, str):
                return "exponential"
            if isinstance(value, int):
                return value + 1
            return value / 2 or 0.5

        def read(text, parse):
            path = tmp_path / "all.cfg"
            path.write_text(text)
            return parse(parse_kv_file(path))

        defaults = {
            "generator": (GeneratorConfig(), config.GENERATOR_KEYS),
            "schedule": (default_schedule(), config.SCHEDULE_KEYS),
            "train": (TrainConfig(), config.TRAIN_KEYS),
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

        gen = read(text("generator"), generator_config_from)
        assert gen == GeneratorConfig(**values["generator"])
        trained = read(text("schedule", "train"), train_config_from)
        assert trained == TrainConfig(
            schedule=ScheduleConfig(**values["schedule"]), **values["train"]
        )
        for cfg, part in ((gen, "generator"), (trained.schedule, "schedule"),
                          (trained, "train")):
            for key, value in values[part].items():
                assert type(getattr(cfg, key)) is type(value), key

    def test_default_schedule_restates_only_the_breakpoints(self):
        assert default_schedule() == ScheduleConfig(
            k1=1000, k2=2000, total_iterations=4000
        )
        assert default_schedule(k2=3000, kind="parabolic") == ScheduleConfig(
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
# predicate 2 has no K=10 row
EVALPRED_LINES = "\n".join(["evalpred 10 5 1 a 3 0.5", "evalpred 10 10 1 a 3 0.5",
                            "evalpred 10 5 2 b 2 0.5"])

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
    pytest.param("data", _edit_line("vocab.txt", 5, _set(3, "77")),
                 ("vocab.txt", "line 5", "parent"), id="vocab-parent-77"),
    pytest.param("data", _header_only("train.txt"), ("train.txt", "no relations"),
                 id="train-header-only"),
    pytest.param("data", _header_only("test.txt"), ("test.txt", "no relations"),
                 id="test-header-only"),
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
    pytest.param("report", f"{ITER_LINE}\udcff", ("line 2", "UTF-8"), id="log-non-utf8"),
]


@pytest.mark.parametrize("command, change, named", BAD_INPUTS)
def test_bad_input_is_one_error_line_and_no_output(
    generated, tmp_path, capsys, command, change, named
):
    out = tmp_path / "out"
    if command in ("eval", "mismatch", "ks"):
        gcfg = generator_config_from(_config_values(GEN_CFG))
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
        log.write_bytes(f"# training-log 1\n{change}\n".encode("utf-8", "surrogateescape"))
        named = [*named, str(log)]
        argv = ["report", "--log", str(log), "--out", str(out)]
    else:
        cfg = inputs = tmp_path / "bad.cfg"
        text = _config_text(GEN_CFG if command == "generate" else TRAIN_CFG, **change)
        cfg.write_bytes(text.encode("utf-8", "surrogateescape"))
        named = [named] if isinstance(named, str) else list(named)
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
    gcfg = generator_config_from(_config_values(GEN_CFG))
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
