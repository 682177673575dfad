"""Flat key-value configuration parsing."""

import pytest

from urgentbayes.config import RunConfig, load_config, parse_config
from urgentbayes.encoder import HyperParams
from urgentbayes.errors import ConfigurationError
from urgentbayes.mcd import McdConfig
from urgentbayes.training import TrainConfig
from urgentbayes.vi import ViConfig

EVERY_KEY = """\
max_len = 12
embed_dim = 6
hidden_dim = 5
attention_mode = ratio
z_dim = 3
learning_rate = 0.005
batch_size = 8
epochs = 3
gradient_clip_norm = 2.5
dropout_rate = 0.25
mcd_samples = 7
vi_train_samples = 2
vi_test_samples = 6
kl_weight = 0.5
min_frequency = 1
train_data = a.npz
vocab_path = v.txt
embeddings_path = e.txt
out_dir = o
"""


class TestParse:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg == RunConfig()
        assert cfg.hp == HyperParams()
        assert cfg.train_cfg == TrainConfig()
        assert cfg.mcd_cfg == McdConfig()
        assert cfg.vi_cfg == ViConfig()

    def test_values_and_comments(self):
        cfg = parse_config(
            """
            # architecture
            hidden_dim = 32   # small
            learning_rate = 0.01
            attention_mode = ratio

            epochs = 5
            """
        )
        assert cfg.hp.hidden_dim == 32
        assert cfg.train_cfg.learning_rate == 0.01
        assert cfg.hp.attention_mode == "ratio"
        assert cfg.train_cfg.epochs == 5
        assert cfg.train_cfg.batch_size == 64  # untouched default

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            parse_config("hiden_dim = 32")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_config("epochs = 5\nepochs = 6")

    def test_bad_value_type(self):
        with pytest.raises(ConfigurationError, match="must be a int"):
            parse_config("epochs = five")

    def test_missing_equals(self):
        with pytest.raises(ConfigurationError, match="key = value"):
            parse_config("epochs 5")

    def test_empty_value(self):
        with pytest.raises(ConfigurationError, match="empty value"):
            parse_config("epochs = ")

    def test_clip_none(self):
        cfg = parse_config("gradient_clip_norm = none")
        assert cfg.train_cfg.gradient_clip_norm is None

    def test_bad_attention_mode(self):
        with pytest.raises(ConfigurationError, match="attention_mode"):
            parse_config("attention_mode = fancy")

    def test_semantic_validation_applied(self):
        with pytest.raises(ConfigurationError):
            parse_config("learning_rate = -1.0")
        with pytest.raises(ConfigurationError):
            parse_config("dropout_rate = 1.5")
        for text in ("learning_rate = inf", "learning_rate = nan", "kl_weight = nan",
                     "kl_weight = inf"):
            with pytest.raises(ConfigurationError):
                parse_config(text)

    def test_paths_are_plain_strings(self):
        cfg = parse_config("train_data = /tmp/x.npz\nout_dir = runs/a")
        assert cfg.train_data == "/tmp/x.npz"
        assert cfg.out_dir == "runs/a"


class TestEffectiveEcho:
    def test_round_trips(self):
        cfg = parse_config(
            "hidden_dim = 16\nlearning_rate = 0.005\ngradient_clip_norm = none\n"
            "train_data = data.npz"
        )
        again = parse_config(cfg.effective_text())
        assert again == cfg

    def test_defaults_round_trip(self):
        assert parse_config(RunConfig().effective_text()) == RunConfig()

    def test_every_key_echoes_in_file_order(self):
        cfg = parse_config(EVERY_KEY)
        assert cfg.effective_text() == "# effective configuration\n" + EVERY_KEY
        assert parse_config(cfg.effective_text()) == cfg

    def test_float_and_none_rendering(self):
        cfg = parse_config("learning_rate = 2\nkl_weight = 1e-5\ngradient_clip_norm = NONE")
        text = cfg.effective_text()
        assert "\nlearning_rate = 2.0\n" in text
        assert "\nkl_weight = 1e-05\n" in text
        assert "\ngradient_clip_norm = none\n" in text


class TestLoad:
    def test_from_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("epochs = 2\nhidden_dim = 8\n")
        cfg = load_config(str(p))
        assert cfg.train_cfg.epochs == 2 and cfg.hp.hidden_dim == 8

    def test_byte_order_mark_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(EVERY_KEY, encoding="utf-8")
        marked.write_text("\ufeff" + EVERY_KEY, encoding="utf-8")
        assert load_config(str(marked)) == load_config(str(plain)) == parse_config(EVERY_KEY)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_config(str(tmp_path / "absent.cfg"))

    def test_derived_configs(self):
        cfg = parse_config("z_dim = 4\ndropout_rate = 0.2\nvi_test_samples = 7")
        # the one z_dim key sets the latent size of both sections that hold it
        assert cfg.hp.z_dim == 4
        assert cfg.mcd_cfg.dropout_rate == 0.2
        vi = cfg.vi_cfg
        assert vi.m_test == 7 and vi.z_dim == 4
        # commands set these per run; the file leaves them at their defaults
        tc = cfg.train_cfg
        assert tc.model_kind == "base" and tc.seed == 0
