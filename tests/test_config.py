"""Config file parsing, validation, and round-tripping."""

import dataclasses
import re
from pathlib import Path

import pytest

from maskprune.cli import main
from maskprune.config import ExperimentConfig, config_text, parse_config, write_effective_config
from maskprune.errors import ConfigError

#: keys older configs and checkpoints carry for settings now fixed in code, at
#: the values those versions wrote for them
REMOVED_KEYS = {"influence_mode": "absolute", "scorer_input": "absolute",
                "binary_cutoff": 1e-6, "delta_freeze": 1e-3,
                "strategy_weight_scale": 5.0, "anneal_start_fc": 0.01,
                "anneal_end_factor_fc": 100.0, "ema_decay": 0.9, "score_margin": 14.0,
                "stall_boost": 2.0, "stall_patience": 3, "strategy_eval_every": 20,
                "scorer_lr": 0.05, "scorer_momentum": 0.9, "train_limit": 0, "test_limit": 0,
                "delta_bin": 0.01, "window": 3, "anneal_start": 0.01,
                "anneal_end_factor": 100.0, "momentum": 0.9, "weight_decay": 5e-4,
                "lr_decay": 0.1, "lr_milestones": "0.5, 0.75"}


def write_cfg(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return p


class TestParsing:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, ""))
        assert cfg == ExperimentConfig()

    def test_assignments_comments_and_blanks(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, """
# a comment line
model = lenet
rate = 0.25          # trailing comment
flip = true

batch_size=64
finetune_lr = 1e-3
"""))
        assert cfg.model == "lenet"
        assert cfg.rate == 0.25
        assert cfg.flip is True
        assert cfg.batch_size == 64
        assert cfg.finetune_lr == 0.001

    def test_unknown_key_names_key_and_line(self, tmp_path):
        with pytest.raises(ConfigError, match=r"line 3.*learning_rate"):
            parse_config(write_cfg(tmp_path, "model = lenet\n\nlearning_rate = 0.1\n"))

    def test_bad_value_names_key_and_line(self, tmp_path):
        with pytest.raises(ConfigError, match=r"line 1.*'rate'.*float"):
            parse_config(write_cfg(tmp_path, "rate = lots\n"))

    def test_missing_equals_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(write_cfg(tmp_path, "just some words\n"))

    def test_bool_spellings(self, tmp_path):
        for raw, expect in [("yes", True), ("on", True), ("1", True),
                            ("no", False), ("off", False), ("0", False)]:
            cfg = parse_config(write_cfg(tmp_path, f"flip = {raw}\n"))
            assert cfg.flip is expect
        with pytest.raises(ConfigError):
            parse_config(write_cfg(tmp_path, "flip = maybe\n"))


class TestValidation:
    def test_rate_bounds(self):
        with pytest.raises(ConfigError, match="rate"):
            ExperimentConfig(rate=1.0).validate()
        with pytest.raises(ConfigError, match="rate"):
            ExperimentConfig(rate=-0.1).validate()
        ExperimentConfig(rate=0.0).validate()

    def test_batch_size_floor(self):
        with pytest.raises(ConfigError, match="batch_size"):
            ExperimentConfig(batch_size=1).validate()

    @pytest.mark.parametrize("name", ["eval_batch", "log_every", "prune_epochs",
                                      "max_prune_epochs"])
    def test_counts_at_least_one(self, name):
        for bad in (0, -1):
            with pytest.raises(ConfigError, match=rf"{name} must be >= 1, got {bad}"):
                ExperimentConfig(**{name: bad}).validate()
        ExperimentConfig(**{name: 1}).validate()

    @pytest.mark.parametrize("name", ["synthetic_train", "synthetic_test"])
    def test_sizes_nonnegative(self, name):
        # a negative synthetic_train would split the generated images
        # silently (-5 with 1000 test images: 990 train, 5 test)
        with pytest.raises(ConfigError, match=rf"{name} must be >= 0, got -1"):
            ExperimentConfig(**{name: -1}).validate()
        ExperimentConfig(**{name: 0}).validate()

    def test_epoch_counts_nonnegative(self):
        with pytest.raises(ConfigError, match="prune_epochs"):
            ExperimentConfig(prune_epochs=-1).validate()
        ExperimentConfig(baseline_epochs=0, finetune_epochs=0).validate()

    def test_crop_pad_nonnegative(self):
        # batches() treated a negative pad as 0 without a word
        with pytest.raises(ConfigError, match="crop_pad must be >= 0, got -1"):
            ExperimentConfig(crop_pad=-1).validate()
        ExperimentConfig(crop_pad=0).validate()

    @pytest.mark.parametrize("line", ["crop_pad = -1", "lr = nan", "lr = -1",
                                      "prune_lr = inf", "finetune_lr = 0"])
    def test_cli_exits_1_naming_the_key(self, tmp_path, capsys, line):
        assert main(["eval", "--config", str(write_cfg(tmp_path, line + "\n"))]) == 1
        assert line.split()[0] in capsys.readouterr().err


class TestRoundTrip:
    def test_text_round_trip_exact(self, tmp_path):
        cfg = ExperimentConfig(model="vgg16", rate=1 / 3, lr=0.048, flip=True,
                               prune_lr=0.1 + 0.2, out_dir="runs/v")
        back = parse_config(write_cfg(tmp_path, config_text(cfg)))
        assert back == cfg

    def test_effective_config_artifact(self, tmp_path):
        cfg = ExperimentConfig(rate=0.4)
        path = write_effective_config(cfg, tmp_path / "out")
        assert path.name == "effective-config.txt"
        assert parse_config(path) == cfg

    def test_dict_round_trip(self):
        cfg = ExperimentConfig(rate=0.37, flip=True, seed=9, out_dir="runs/d")
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        assert all(type(v) in (str, int, float, bool) for v in cfg.to_dict().values())

    def test_dict_unknown_key_is_config_error(self):
        d = ExperimentConfig().to_dict()
        d["learning_rate"] = 0.1
        with pytest.raises(ConfigError, match="unknown configuration key.*learning_rate"):
            ExperimentConfig.from_dict(d)


#: string values ``config_text`` cannot write so that they parse back: a
#: comment start, line breaks, and whitespace the parser strips; ``{d}`` is a
#: scratch directory
UNWRITABLE = {"hash": "{d}/#1", "leading-space": " {d}/x", "trailing-space": "{d}/x ",
              "trailing-tab": "{d}/x\t", "newline": "{d}/a\nseed = 3",
              "carriage-return": "{d}/a\rb", "line-separator": "{d}/a\u2028b"}


def reparsed(tmp_path, cfg):
    """``cfg`` written by ``config_text`` and parsed back, or None if the text
    does not parse."""
    try:
        return parse_config(write_cfg(tmp_path, config_text(cfg)))
    except ConfigError:
        return None


class TestStringValues:
    @pytest.mark.parametrize("value", UNWRITABLE.values(), ids=UNWRITABLE)
    def test_a_value_that_would_not_round_trip_is_refused(self, tmp_path, value):
        value = value.format(d=tmp_path / "runs")
        cfg = ExperimentConfig()
        cfg.out_dir = value
        assert reparsed(tmp_path, cfg) != cfg
        message = (r"^out_dir must hold no '#', line break, or leading or trailing "
                   rf"whitespace, got {re.escape(repr(value))}$")
        with pytest.raises(ConfigError, match=message):
            cfg.validate()
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(cfg.to_dict())

    @pytest.mark.parametrize("value", UNWRITABLE.values(), ids=UNWRITABLE)
    def test_cli_exits_1_naming_the_key(self, tmp_path, capsys, value):
        path = write_cfg(tmp_path, "synthetic_train = 64\nsynthetic_test = 32\n"
                                   "batch_size = 32\nbaseline_epochs = 1\n")
        out = value.format(d=tmp_path / "runs")
        assert main(["train", "--config", str(path), "--out", out]) == 1
        assert "error: out_dir must hold no '#'" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_every_string_field_is_checked(self):
        for f in dataclasses.fields(ExperimentConfig):
            if f.type == "str":
                with pytest.raises(ConfigError, match=rf"^{f.name} must hold no '#'"):
                    ExperimentConfig(**{f.name: "a#b"}).validate()

    def test_a_value_that_round_trips_is_accepted(self, tmp_path):
        cfg = ExperimentConfig(out_dir=f"{tmp_path}/runs/with space/a=b;c",
                               train_files="a.bin, b.bin", model="lenet", test_images="")
        assert cfg.validate() is cfg
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        assert reparsed(tmp_path, cfg) == cfg


class TestRemovedKeys:
    def test_field_count(self):
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert len(fields) == 26 and not fields & set(REMOVED_KEYS)
        # every value is one scalar: the format has no tuple or list field
        assert {f.type for f in dataclasses.fields(ExperimentConfig)} == {
            "str", "int", "float", "bool"}

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_refused_as_unknown_even_at_the_value_in_force(self, tmp_path, key):
        value = REMOVED_KEYS[key]
        with pytest.raises(ConfigError, match=rf"^line 2: unknown configuration key '{key}'$"):
            parse_config(write_cfg(tmp_path, f"rate = 0.3\n{key} = {value}\n"))
        d = dict(ExperimentConfig().to_dict(), **{key: value})
        with pytest.raises(ConfigError, match=rf"^unknown configuration key\(s\): {key}$"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_cli_exits_1_naming_the_key(self, tmp_path, capsys, key):
        path = write_cfg(tmp_path, f"{key} = {REMOVED_KEYS[key]}\n")
        assert main(["eval", "--config", str(path)]) == 1
        assert f"unknown configuration key '{key}'" in capsys.readouterr().err


class TestShippedConfigs:
    def test_example_configs_parse_and_validate(self):
        configs = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.conf"))
        assert len(configs) == 2
        for path in configs:
            cfg = parse_config(path)
            assert cfg.dataset == "cifar10"
            assert cfg.model in ("vgg16", "resnet56")
            assert cfg.baseline_epochs > 100  # these are the long-running recipes
