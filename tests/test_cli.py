import numpy as np
import pytest

from dualrel.cli import run_command
from dualrel.config import generator_config_from, parse_kv_file, train_config_from
from dualrel.model import DualBranchModel, save_checkpoint
from dualrel.schedules import branch_weight, head_predicate_weight
from dualrel.training import parse_log

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
