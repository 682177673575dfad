"""End-to-end command-line tests, run in process via main()."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from urgentbayes import cli
from urgentbayes.autodiff import GradCheckFailure, GradCheckReport
from urgentbayes.cli import main
from urgentbayes.corpus import LabeledExample, save_dataset
from urgentbayes.errors import (
    CheckpointError,
    ConfigurationError,
    DataError,
    DivergenceError,
    DomainError,
    FormatError,
    InsufficientDataError,
    NonFiniteError,
    ParseError,
    ShapeError,
    StratificationError,
    UrgentBayesError,
    UsageError,
)
from urgentbayes.gradchecks import NamedCheck
from urgentbayes.synthetic import synthetic_posts, write_posts_csv

TINY_CFG = """
max_len = 8
embed_dim = 4
hidden_dim = 3
z_dim = 2
epochs = 2
batch_size = 8
min_frequency = 1
mcd_samples = 5
vi_test_samples = 5
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    csv_path = root / "posts.csv"
    write_posts_csv(str(csv_path), synthetic_posts(24, 0.5, seed=0))
    cfg_path = root / "tiny.cfg"
    cfg_path.write_text(TINY_CFG)
    prepared = root / "prep"
    code = main(
        [
            "prepare",
            "--data", str(csv_path),
            "--out", str(prepared),
            "--config", str(cfg_path),
        ]
    )
    assert code == 0
    return {
        "root": root,
        "csv": str(csv_path),
        "cfg": str(cfg_path),
        "vocab": str(prepared / "vocab.txt"),
        "dataset": str(prepared / "dataset.npz"),
        "summary": str(prepared / "summary.json"),
    }


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPrepare:
    def test_summary_contents(self, workspace):
        summary = json.loads(Path(workspace["summary"]).read_text())
        assert summary["n_posts"] == 24
        assert summary["class_counts"] == {"0": 12, "1": 12}
        assert summary["vocab_size"] > 2
        assert 0.0 < summary["token_coverage"] <= 1.0

    def test_hand_counted_small_file(self, tmp_path, capsys):
        posts = synthetic_posts(10, 0.3, seed=5)
        csv_path = tmp_path / "ten.csv"
        write_posts_csv(str(csv_path), posts)
        code, out, _ = run_cli(
            capsys,
            ["prepare", "--data", str(csv_path), "--out", str(tmp_path / "o"),
             "--min-freq", "1", "--max-len", "8"],
        )
        assert code == 0
        summary = json.loads(out)
        expected_pos = sum(1 for p in posts if p.urgency > 4)
        assert summary["class_counts"]["1"] == expected_pos == 3

    def test_empty_file_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, _, err = run_cli(
            capsys, ["prepare", "--data", str(empty), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "error" in err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            ["prepare", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")],
        )
        assert code == 2


class TestTrain:
    def train(self, capsys, workspace, out_dir, model="base", seed=0):
        return run_cli(
            capsys,
            [
                "train", "--model", model,
                "--config", workspace["cfg"],
                "--seed", str(seed),
                "--data", workspace["dataset"],
                "--vocab", workspace["vocab"],
                "--out", out_dir,
            ],
        )

    def test_writes_artifacts(self, workspace, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _ = self.train(capsys, workspace, str(out))
        assert code == 0
        info = json.loads(stdout)
        assert info["model_kind"] == "base"
        assert info["epochs"] == 2
        trace = json.loads((out / "loss_trace.json").read_text())
        assert len(trace) == 2 and "cross_entropy" in trace[0]["parts"]
        assert (out / "model_base.ckpt").exists()
        assert (out / "effective_config.txt").exists()

    def test_same_seed_identical_checkpoints(self, workspace, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.train(capsys, workspace, str(a), seed=9)[0] == 0
        assert self.train(capsys, workspace, str(b), seed=9)[0] == 0
        assert (a / "model_base.ckpt").read_bytes() == (b / "model_base.ckpt").read_bytes()

    def test_vi_trace_parts(self, workspace, tmp_path, capsys):
        out = tmp_path / "vi"
        code, _, _ = self.train(capsys, workspace, str(out), model="vi")
        assert code == 0
        trace = json.loads((out / "loss_trace.json").read_text())
        assert set(trace[0]["parts"]) == {"reconstruction", "kl"}

    def test_missing_paths_usage_error(self, workspace, capsys):
        code, _, err = run_cli(
            capsys, ["train", "--model", "base", "--config", workspace["cfg"]]
        )
        assert code == 1
        assert "error" in err


@pytest.fixture(scope="module")
def mcd_checkpoint(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("eval")
    code = main(
        ["train", "--model", "mcd", "--config", workspace["cfg"],
         "--data", workspace["dataset"], "--vocab", workspace["vocab"],
         "--out", str(out)]
    )
    assert code == 0
    return str(out / "model_mcd.ckpt")


@pytest.fixture(scope="module")
def vi_checkpoint(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("pred")
    code = main(
        ["train", "--model", "vi", "--config", workspace["cfg"],
         "--data", workspace["dataset"], "--vocab", workspace["vocab"],
         "--out", str(out)]
    )
    assert code == 0
    return str(out / "model_vi.ckpt")


class TestEvaluate:
    def test_report_schema_and_order(self, workspace, mcd_checkpoint, capsys):
        checkpoint = mcd_checkpoint
        code, out, _ = run_cli(
            capsys, ["evaluate", "--checkpoint", checkpoint, "--test", workspace["dataset"]]
        )
        assert code == 0
        report = json.loads(out)
        assert list(report)[:2] == ["accuracy", "mean_entropy"]
        assert list(report["class_0"]) == ["precision", "recall", "f1"]
        assert 0.0 <= report["accuracy"] <= 1.0
        assert report["n_test"] == 24

    def test_missing_checkpoint_is_data_error(self, workspace, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            [
                "evaluate",
                "--checkpoint",
                str(tmp_path / "absent.ckpt"),
                "--test",
                workspace["dataset"],
            ],
        )
        assert code == 2
        assert "error" in err

    def test_truncated_checkpoint(self, workspace, mcd_checkpoint, tmp_path, capsys):
        broken = tmp_path / "broken.ckpt"
        blob = Path(mcd_checkpoint).read_bytes()
        broken.write_bytes(blob[: len(blob) // 2])
        code, _, err = run_cli(
            capsys,
            ["evaluate", "--checkpoint", str(broken), "--test", workspace["dataset"]],
        )
        assert code == 2
        assert "error" in err


    def test_impossible_block_shape_is_data_error(
        self, workspace, mcd_checkpoint, tmp_path, capsys, declare_first_shape, impossible_shape
    ):
        bad = tmp_path / "huge.ckpt"
        bad.write_bytes(Path(mcd_checkpoint).read_bytes())
        declare_first_shape(str(bad), impossible_shape)
        for argv in (
            ["evaluate", "--checkpoint", str(bad), "--test", workspace["dataset"]],
            ["predict", "--checkpoint", str(bad), "--text", "the quiz"],
        ):
            code, _, err = run_cli(capsys, argv)
            assert code == 2
            assert err.startswith("error: ") and "Traceback" not in err


class TestExperiment:
    def run_exp(self, capsys, workspace, extra=()):
        return run_cli(
            capsys,
            [
                "experiment", "--protocol", "80_20", "--runs", "1",
                "--models", "base", "--config", workspace["cfg"],
                "--data", workspace["dataset"], "--vocab", workspace["vocab"],
                "--seed", "3", *extra,
            ],
        )

    def test_single_run_zero_variance(self, workspace, capsys):
        code, out, _ = self.run_exp(capsys, workspace)
        assert code == 0
        summary = json.loads(out)
        assert summary["n_runs"] == 1
        assert all(v == 0.0 for v in summary["models"]["base"]["variance"].values())

    def test_byte_identical_reruns(self, workspace, capsys):
        _, first, _ = self.run_exp(capsys, workspace)
        _, second, _ = self.run_exp(capsys, workspace)
        assert first == second

    def test_writes_summary_file(self, workspace, tmp_path, capsys):
        out_dir = tmp_path / "expout"
        code, stdout, _ = self.run_exp(capsys, workspace, ("--out", str(out_dir)))
        assert code == 0
        on_disk = (out_dir / "experiment_summary.json").read_text()
        assert on_disk == stdout.rstrip("\n")

    @pytest.mark.parametrize("n0, n1, missing", [(2, 2, 0), (7, 2, 1)])
    def test_split_missing_a_class_is_data_error(self, workspace, tmp_path, capsys, n0, n1, missing):
        # at 0.8, 2 rounds to 2 of 2 in train: the test split would lack the class
        labels = [0] * n0 + [1] * n1
        data = tmp_path / "small.npz"
        save_dataset(str(data), [LabeledExample(np.full(8, 2), 1, y) for y in labels])
        code, _, err = run_cli(
            capsys,
            ["experiment", "--protocol", "80_20", "--runs", "1", "--models", "base",
             "--config", workspace["cfg"], "--data", str(data), "--vocab", workspace["vocab"]],
        )
        assert code == 2
        assert f"class {missing} has {labels.count(missing)} member(s)" in err

    def test_out_dir_from_config(self, workspace, tmp_path, capsys):
        # the config's out_dir is honoured as train honours it; --out wins over it
        keyed = tmp_path / "keyed"
        cfg = tmp_path / "out.cfg"
        cfg.write_text(TINY_CFG + f"out_dir = {keyed}\n")
        argv = ["experiment", "--protocol", "80_20", "--runs", "1", "--models", "base",
                "--config", str(cfg), "--data", workspace["dataset"],
                "--vocab", workspace["vocab"], "--seed", "3"]
        flag = tmp_path / "flag"
        code, stdout, _ = run_cli(capsys, argv + ["--out", str(flag)])
        assert code == 0
        assert (flag / "experiment_summary.json").read_text() == stdout.rstrip("\n")
        assert (flag / "effective_config.txt").exists()
        assert not keyed.exists()
        code, stdout, _ = run_cli(capsys, argv)
        assert code == 0
        assert (keyed / "experiment_summary.json").read_text() == stdout.rstrip("\n")
        assert f"out_dir = {keyed}\n" in (keyed / "effective_config.txt").read_text()

    def test_negative_seed_is_usage_error(self, workspace, capsys):
        code, out, err = self.run_exp(capsys, workspace, ("--seed", "-1"))
        assert code == 1
        assert out == ""
        assert err == "error: seed must be a non-negative integer, got -1\n"

    def test_unknown_model_kind(self, workspace, capsys):
        code, _, err = run_cli(
            capsys,
            ["experiment", "--protocol", "80_20", "--runs", "1",
             "--models", "base,transformer", "--data", workspace["dataset"],
             "--vocab", workspace["vocab"]],
        )
        assert code == 1


class TestPredict:
    def test_record_schema(self, vi_checkpoint, capsys):
        code, out, _ = run_cli(
            capsys,
            ["predict", "--checkpoint", vi_checkpoint,
             "--text", "deadline tomorrow for the quiz"],
        )
        assert code == 0
        record = json.loads(out)
        assert record["model_kind"] == "vi"
        assert record["predicted_label"] in (0, 1)
        assert len(record["mean_probs"]) == 2
        assert record["num_samples"] == 5
        assert "per_sample_logits" not in record
        error = record["mc_standard_error"]
        assert set(error) == {"mean_probs", "entropy"}
        assert error["mean_probs"] > 0.0 and error["entropy"] >= 0.0

    def test_show_samples(self, vi_checkpoint, capsys):
        code, out, _ = run_cli(
            capsys,
            ["predict", "--checkpoint", vi_checkpoint, "--text", "thanks for sharing",
             "--show-samples"],
        )
        record = json.loads(out)
        assert len(record["per_sample_logits"]) == 5

    def test_deterministic_given_seed(self, vi_checkpoint, capsys):
        argv = ["predict", "--checkpoint", vi_checkpoint, "--text", "the quiz", "--seed", "4"]
        _, a, _ = run_cli(capsys, argv)
        _, b, _ = run_cli(capsys, argv)
        assert a == b

    def test_blank_text_rejected(self, vi_checkpoint, capsys):
        code, _, err = run_cli(
            capsys, ["predict", "--checkpoint", vi_checkpoint, "--text", "   "]
        )
        assert code == 2
        assert "no tokens" in err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "model_kind", "xyz"),
            ("hyperparams", "num_layers", 3),
            ("mcd", "aggregate", "median"),
            ("mcd", "num_samples", 2.5),
            ("hyperparams", "hidden_dim", True),
        ],
    )
    def test_bad_header_is_data_error(
        self, mcd_checkpoint, tmp_path, capsys, edit_header, section, key, value
    ):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(Path(mcd_checkpoint).read_bytes())

        def set_value(header):
            (header if section is None else header[section])[key] = value

        edit_header(str(bad), set_value)
        code, _, err = run_cli(capsys, ["predict", "--checkpoint", str(bad), "--text", "the quiz"])
        assert code == 2
        assert key in err and f"got {value!r}" in err

    def test_legacy_block_at_other_shape_is_data_error(
        self, vi_checkpoint, tmp_path, capsys, edit_blocks
    ):
        bad = tmp_path / "legacy.ckpt"
        bad.write_bytes(Path(vi_checkpoint).read_bytes())
        edit_blocks(str(bad), lambda blocks: blocks.append(("head.bias", np.zeros(3))))
        code, _, err = run_cli(capsys, ["predict", "--checkpoint", str(bad), "--text", "the quiz"])
        assert code == 2
        assert "legacy block 'head.bias'" in err

    def test_non_finite_block_is_data_error(
        self, workspace, mcd_checkpoint, tmp_path, capsys, edit_blocks
    ):
        bad = tmp_path / "nan.ckpt"
        bad.write_bytes(Path(mcd_checkpoint).read_bytes())

        def poison(blocks):
            dict(blocks)["head.bias"][0] = np.nan

        edit_blocks(str(bad), poison)
        for argv in (
            ["evaluate", "--checkpoint", str(bad), "--test", workspace["dataset"]],
            ["predict", "--checkpoint", str(bad), "--text", "the quiz"],
        ):
            code, out, err = run_cli(capsys, argv)
            assert code == 2
            assert out == ""
            assert err == f"error: {bad}: non-finite values in block 'head.bias'\n"

    @pytest.mark.parametrize("problem", ["expected <pad>, <unk> first", "duplicate token"])
    def test_bad_vocab_is_data_error(
        self, workspace, mcd_checkpoint, tmp_path, capsys, edit_header, problem
    ):
        def edit(header):
            vocab = header["vocab"]
            if problem == "duplicate token":
                vocab[3] = vocab[2]
            else:
                vocab[:2] = ["help", "exam"]  # `help` would be read as the pad row

        bad = tmp_path / "vocab.ckpt"
        bad.write_bytes(Path(mcd_checkpoint).read_bytes())
        edit_header(str(bad), edit)
        for argv in (
            ["evaluate", "--checkpoint", str(bad), "--test", workspace["dataset"]],
            ["predict", "--checkpoint", str(bad), "--text", "the quiz"],
        ):
            code, out, err = run_cli(capsys, argv)
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: {bad}: header vocab is not a vocabulary ({problem}")
            assert err.count("\n") == 1

    def test_missing_head_is_data_error(self, mcd_checkpoint, tmp_path, capsys, edit_blocks):
        bad = tmp_path / "headless.ckpt"
        bad.write_bytes(Path(mcd_checkpoint).read_bytes())

        def drop_head(blocks):
            blocks[:] = [(name, a) for name, a in blocks if not name.startswith("head.")]

        edit_blocks(str(bad), drop_head)
        code, _, err = run_cli(capsys, ["predict", "--checkpoint", str(bad), "--text", "the quiz"])
        assert code == 2
        assert "missing ['head.bias', 'head.weight']" in err


class TestGradcheck:
    def test_exit_codes_and_tally(self, monkeypatch, capsys):
        passing = NamedCheck("ok_op", GradCheckReport(n_checked=4, max_rel_error=1e-9))
        failing = NamedCheck(
            "bad_op",
            GradCheckReport(
                n_checked=4, max_rel_error=0.5,
                failures=[GradCheckFailure("p", 0, 1.0, 2.0, 0.5)],
            ),
        )
        monkeypatch.setattr(cli, "run_all", lambda size, seed: [passing])
        code, out, _ = run_cli(capsys, ["gradcheck"])
        assert code == 0
        assert "1/1 checks passed" in out
        monkeypatch.setattr(cli, "run_all", lambda size, seed: [passing, failing])
        code, out, _ = run_cli(capsys, ["gradcheck"])
        assert code == 3
        assert "1/2 checks passed, 1 FAILED" in out

    def test_negative_seed_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, ["gradcheck", "--seed", "-1"])
        assert code == 1
        assert out == ""
        assert err == "error: seed must be a non-negative integer, got -1\n"


class TestOutputIsAFile:
    """An --out naming an existing file is a usage error, reported before
    any data is loaded or any model trained."""

    @pytest.fixture
    def blocker(self, tmp_path):
        path = tmp_path / "taken"
        path.write_text("not a directory\n")
        return str(path)

    @pytest.fixture
    def no_training(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "train", refuse)
        monkeypatch.setattr(cli, "run_experiment", refuse)

    def assert_usage_error(self, capsys, argv, blocker):
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert err.startswith("error: cannot create output directory") and blocker in err

    def test_prepare(self, workspace, capsys, blocker):
        self.assert_usage_error(
            capsys, ["prepare", "--data", workspace["csv"], "--out", blocker], blocker
        )

    def test_train(self, workspace, capsys, blocker, no_training):
        self.assert_usage_error(
            capsys,
            ["train", "--model", "base", "--config", workspace["cfg"],
             "--data", workspace["dataset"], "--vocab", workspace["vocab"], "--out", blocker],
            blocker,
        )

    def test_experiment(self, workspace, capsys, blocker, no_training):
        self.assert_usage_error(
            capsys,
            ["experiment", "--protocol", "80_20", "--runs", "1", "--models", "base",
             "--config", workspace["cfg"], "--data", workspace["dataset"],
             "--vocab", workspace["vocab"], "--out", blocker],
            blocker,
        )


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys, [])[0] == 1

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, ["frobnicate"])[0] == 1

    def test_missing_required_flag(self, capsys):
        assert run_cli(capsys, ["evaluate", "--test", "x.npz"])[0] == 1

    def test_bad_config_key_maps_to_usage(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("hidden_dims = 4\n")
        code, _, err = run_cli(
            capsys,
            ["train", "--model", "base", "--config", str(bad),
             "--data", workspace["dataset"], "--vocab", workspace["vocab"],
             "--out", str(tmp_path / "o")],
        )
        assert code == 1
        assert "unknown key" in err


# the exit code each package error class declares; a class missing here
# fails its case below
EXIT_CODES = {
    UrgentBayesError: 1,
    ConfigurationError: 1,
    UsageError: 1,
    DomainError: 2,
    ShapeError: 2,
    ParseError: 2,
    FormatError: 2,
    DataError: 2,
    StratificationError: 2,
    CheckpointError: 2,
    InsufficientDataError: 2,
    NonFiniteError: 3,
    DivergenceError: 3,
}


def _error_classes(cls=UrgentBayesError):
    return [cls] + [sub for c in cls.__subclasses__() for sub in _error_classes(c)]


@pytest.mark.parametrize("error", _error_classes(), ids=lambda cls: cls.__name__)
def test_every_error_class_exits_with_its_code(monkeypatch, capsys, error):
    def fail(size, seed):
        raise error("boom")

    monkeypatch.setattr(cli, "run_all", fail)
    assert run_cli(capsys, ["gradcheck"]) == (EXIT_CODES[error], "", "error: boom\n")


class TestMalformedInputs:
    """Inputs that are not UTF-8 or otherwise malformed end in one
    `error:` line and the exit code of the reader's error class."""

    def assert_clean_error(self, capsys, argv, code, *fragments):
        got, _, err = run_cli(capsys, argv)
        assert got == code
        assert err.startswith("error: ") and err.count("\n") == 1
        for fragment in fragments:
            assert fragment in err

    def train_argv(self, workspace, tmp_path, config=None, vocab=None):
        return ["train", "--model", "base", "--config", config or workspace["cfg"],
                "--data", workspace["dataset"], "--vocab", vocab or workspace["vocab"],
                "--out", str(tmp_path / "o")]

    def test_config_not_utf8(self, workspace, tmp_path, capsys):
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes(b"max_len = 8  # caf\xe9\n")
        self.assert_clean_error(
            capsys, self.train_argv(workspace, tmp_path, config=str(bad)), 1,
            f"cannot read config {bad}", "utf-8",
        )

    def test_posts_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"text,urgency\ncaf\xe9 closed,5\n")
        self.assert_clean_error(
            capsys, ["prepare", "--data", str(bad), "--out", str(tmp_path / "o")], 2,
            f"cannot read dataset {bad}", "utf-8",
        )

    def test_oversized_csv_field(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_text("text,urgency\nshort post,2\n" + "word " * 40_000 + ",5\n")
        self.assert_clean_error(
            capsys, ["prepare", "--data", str(big), "--out", str(tmp_path / "o")], 2,
            "line 3: ", "field larger than field limit",
        )

    def test_vocabulary_not_utf8(self, workspace, tmp_path, capsys):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"<pad>\n<unk>\ncaf\xe9\n")
        self.assert_clean_error(
            capsys, self.train_argv(workspace, tmp_path, vocab=str(bad)), 2,
            f"cannot read vocabulary {bad}", "utf-8",
        )

    def test_embeddings_not_utf8(self, workspace, tmp_path, capsys):
        bad = tmp_path / "latin1.vec"
        bad.write_bytes(b"the 0.1 0.2 0.3 0.4\ncaf\xe9 0.1 0.2 0.3 0.4\n")
        cfg = tmp_path / "vec.cfg"
        cfg.write_text(TINY_CFG + f"embeddings_path = {bad}\n")
        self.assert_clean_error(
            capsys, self.train_argv(workspace, tmp_path, config=str(cfg)), 2,
            f"cannot read embeddings {bad}", "utf-8",
        )

    @pytest.mark.parametrize("key", ["token_ids", "true_lengths", "labels"])
    def test_float_dataset_array(self, mcd_checkpoint, workspace, tmp_path, capsys, key):
        with np.load(workspace["dataset"]) as archive:
            arrays = {k: archive[k] for k in archive.files}
        arrays[key] = arrays[key] + (0.5 if key == "token_ids" else 0.0)
        bad = tmp_path / "float.npz"
        np.savez(bad, **arrays)
        self.assert_clean_error(
            capsys, ["evaluate", "--checkpoint", mcd_checkpoint, "--test", str(bad)], 2,
            f"{key!r} has dtype float64",
        )

    def test_block_name_not_utf8(self, mcd_checkpoint, tmp_path, capsys, edit_blocks):
        bad = tmp_path / "name.ckpt"
        shutil.copyfile(mcd_checkpoint, bad)
        edit_blocks(str(bad), lambda blocks: blocks.append(("MARKER-block", np.zeros(1))))
        blob = bad.read_bytes()
        assert blob.count(b"MARKER-block") == 1
        bad.write_bytes(blob.replace(b"MARKER-block", b"\xffARKER-block"))
        self.assert_clean_error(
            capsys, ["predict", "--checkpoint", str(bad), "--text", "the quiz"], 2,
            "block name is not UTF-8",
        )

    @pytest.mark.parametrize(
        "replacement", ["model_kind hyperparams vocab", ["model_kind", "hyperparams", "vocab"]],
        ids=["string", "list"],
    )
    def test_header_not_an_object(self, mcd_checkpoint, tmp_path, capsys, edit_header, replacement):
        bad = tmp_path / "header.ckpt"
        shutil.copyfile(mcd_checkpoint, bad)
        edit_header(str(bad), lambda header: replacement)
        self.assert_clean_error(
            capsys, ["predict", "--checkpoint", str(bad), "--text", "the quiz"], 2,
            "header is not a JSON object",
        )
