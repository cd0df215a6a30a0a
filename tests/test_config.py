import re

import pytest

from sentmatch.config import TrainConfig, read_config_file
from sentmatch.errors import ConfigError


class TestDefaults:
    def test_defaults_match_the_published_recipe(self):
        cfg = TrainConfig()
        assert cfg.static_dim == 300
        assert cfg.contextual_dim == 1024
        assert cfg.hidden == 150
        assert cfg.kernel == 3
        assert cfg.lr == 0.0005
        assert (cfg.beta1, cfg.beta2, cfg.adam_eps) == (0.9, 0.999, 1e-8)
        assert cfg.dropout == 0.2
        assert cfg.epochs == 30
        assert cfg.batch_size == 128

    def test_task_caps_resolve_from_task(self):
        assert TrainConfig(task="snli").effective_max_len == 64
        assert TrainConfig(task="wikiqa").effective_max_len == 32
        assert TrainConfig(task="snli", max_len=10).effective_max_len == 10

    def test_no_elmo_zeroes_contextual_width(self):
        assert TrainConfig(no_elmo=True).effective_contextual_dim == 0
        assert TrainConfig().effective_contextual_dim == 1024


class TestValidation:
    def test_conflicting_attention_flags_rejected(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            TrainConfig(only_h2p=True, only_p2h=True).validate()

    def test_bad_learning_rate_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0).validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lr", float("nan")),
            ("lr", float("inf")),
            ("batch_size", 0),
            ("epochs", 0),
            ("grad_clip", -1.0),
            ("grad_clip", float("nan")),
            ("grad_clip", float("inf")),
            ("max_len", -1),
            ("contextual_dim", -1),
            ("kernel", -1),
            ("kernel", 0),
            ("seed", -1),
            ("early_stop_patience", -1),
            ("beta1", 1.0),
            ("beta1", -0.5),
            ("beta1", float("nan")),
            ("beta2", 1.5),
            ("beta2", 1.0),
            ("adam_eps", 0.0),
            ("adam_eps", -1e-8),
            ("adam_eps", float("nan")),
            ("adam_eps", float("inf")),
        ],
    )
    def test_out_of_range_value_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value}).validate()

    def test_zero_grad_clip_and_max_len_accepted(self):
        # 0 disables clipping and selects the task's length cap
        TrainConfig(grad_clip=0.0, max_len=0, contextual_dim=0).validate()

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            TrainConfig(dropout=1.0).validate()

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(kernel=4).validate()

    def test_unknown_task_rejected(self):
        from sentmatch.errors import DataError

        with pytest.raises(DataError):
            TrainConfig(task="imagenet").validate()


class TestFingerprint:
    def test_full_when_no_flags(self):
        assert TrainConfig().fingerprint() == "full"

    def test_single_flag(self):
        assert TrainConfig(no_fusion=True).fingerprint() == "no_fusion"

    def test_combined_flags_sorted_stable(self):
        fp = TrainConfig(no_fusion=True, no_elmo=True).fingerprint()
        assert fp == "no_elmo+no_fusion"


class TestFileAndOverrides:
    def test_file_parsing_with_comments(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("hidden = 32  # small\n\n# full line comment\nlr = 0.01\nno_fusion = true\n")
        values = read_config_file(path)
        cfg = TrainConfig.from_dict(values)
        assert cfg.hidden == 32 and cfg.lr == 0.01 and cfg.no_fusion is True

    def test_a_repeated_key_is_refused_naming_both_lines(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("lr = 0.1\n# comment\nhidden = 8\n  lr=0.2  # again\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:4: key 'lr' repeats line 1$"):
            read_config_file(path)

    def test_unknown_key_lists_valid_ones(self):
        with pytest.raises(ConfigError, match="valid keys"):
            TrainConfig.from_dict({"hiden": "32"})

    def test_bad_boolean_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict({"no_fusion": "maybe"})

    @pytest.mark.parametrize("field", ["epochs", "hidden", "seed", "batch_size", "max_len", "lr", "task", "pool"])
    @pytest.mark.parametrize("value", [True, False])
    def test_a_boolean_for_a_field_that_is_not_boolean_is_refused(self, field, value):
        with pytest.raises(ConfigError, match=f"{field}: cannot read the boolean {value}"):
            TrainConfig.from_dict({field: value})

    def test_roundtrip_through_dict(self):
        cfg = TrainConfig(hidden=64, no_alignment=True, seed=9)
        again = TrainConfig.from_dict({k: str(v) for k, v in cfg.to_dict().items()})
        assert again == cfg


class TestRetiredKeys:
    @pytest.mark.parametrize("key", ["sum_loss", "include_unanswerable"])
    @pytest.mark.parametrize("value", ["false", "False", "0", False])
    def test_retired_key_at_its_old_default_reads(self, key, value):
        assert TrainConfig.from_dict({key: value, "hidden": "32"}) == TrainConfig(hidden=32)

    @pytest.mark.parametrize("key", ["sum_loss", "include_unanswerable"])
    @pytest.mark.parametrize("value", ["true", "1", True])
    def test_retired_key_set_is_an_error_naming_it(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}' is retired"):
            TrainConfig.from_dict({key: value})

    def test_retired_key_is_no_field(self):
        cfg = TrainConfig.from_dict({"sum_loss": "false"})
        assert "sum_loss" not in cfg.to_dict() and "include_unanswerable" not in cfg.to_dict()
