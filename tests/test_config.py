"""Config file parsing, validation, and round-tripping."""

import dataclasses
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
                "scorer_lr": 0.05, "scorer_momentum": 0.9}


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
lr_milestones = 0.4, 0.8
"""))
        assert cfg.model == "lenet"
        assert cfg.rate == 0.25
        assert cfg.flip is True
        assert cfg.batch_size == 64
        assert cfg.lr_milestones == (0.4, 0.8)

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

    def test_anneal_positivity(self):
        with pytest.raises(ConfigError, match="anneal_start"):
            ExperimentConfig(anneal_start=0.0).validate()
        with pytest.raises(ConfigError, match="anneal_end_factor"):
            ExperimentConfig(anneal_end_factor=0.5).validate()

    @pytest.mark.parametrize("name", ["eval_batch", "log_every", "window",
                                      "max_prune_epochs"])
    def test_counts_at_least_one(self, name):
        for bad in (0, -1):
            with pytest.raises(ConfigError, match=rf"{name} must be >= 1, got {bad}"):
                ExperimentConfig(**{name: bad}).validate()
        ExperimentConfig(**{name: 1}).validate()

    @pytest.mark.parametrize("name", ["train_limit", "test_limit", "synthetic_train",
                                      "synthetic_test"])
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

    @pytest.mark.parametrize("bad", [0.0, 0.5, -0.01, 0.75])
    def test_delta_bin_inside_open_half_interval(self, bad):
        with pytest.raises(ConfigError, match=rf"delta_bin must be in \(0, 0.5\), got {bad}"):
            ExperimentConfig(delta_bin=bad).validate()
        ExperimentConfig(delta_bin=0.49).validate()

    def test_crop_pad_nonnegative(self):
        # batches() treated a negative pad as 0 without a word
        with pytest.raises(ConfigError, match="crop_pad must be >= 0, got -1"):
            ExperimentConfig(crop_pad=-1).validate()
        ExperimentConfig(crop_pad=0).validate()

    def test_number_bounds_are_inclusive_where_stated(self):
        ExperimentConfig(momentum=0.0, weight_decay=0.0, lr_decay=1.0,
                         lr_milestones=()).validate()

    @pytest.mark.parametrize("line", ["stall_boost = 0", "score_margin = 0",
                                      "delta_bin = 0.5", "crop_pad = -1",
                                      "anneal_start = nan", "anneal_end_factor = inf",
                                      "lr = nan", "lr = -1", "momentum = nan",
                                      "prune_lr = inf", "weight_decay = -1",
                                      "lr_milestones = 0.5, nan", "lr_decay = 0",
                                      "lr_decay = 1.5", "momentum = 1", "momentum = -0.1",
                                      "finetune_lr = 0"])
    def test_cli_exits_1_naming_the_key(self, tmp_path, capsys, line):
        assert main(["eval", "--config", str(write_cfg(tmp_path, line + "\n"))]) == 1
        assert line.split()[0] in capsys.readouterr().err


class TestRoundTrip:
    def test_text_round_trip_exact(self, tmp_path):
        cfg = ExperimentConfig(model="vgg16", rate=1 / 3, lr=0.048, flip=True,
                               lr_milestones=(0.3, 0.6, 0.9), out_dir="runs/v")
        back = parse_config(write_cfg(tmp_path, config_text(cfg)))
        assert back == cfg

    def test_effective_config_artifact(self, tmp_path):
        cfg = ExperimentConfig(rate=0.4)
        path = write_effective_config(cfg, tmp_path / "out")
        assert path.name == "effective-config.txt"
        assert parse_config(path) == cfg

    def test_dict_round_trip(self):
        cfg = ExperimentConfig(rate=0.37, lr_milestones=(0.5,))
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        assert cfg.to_dict()["lr_milestones"] == [0.5]

    def test_dict_unknown_key_is_config_error(self):
        d = ExperimentConfig().to_dict()
        d["learning_rate"] = 0.1
        with pytest.raises(ConfigError, match="unknown configuration key.*learning_rate"):
            ExperimentConfig.from_dict(d)


class TestRemovedKeys:
    def test_field_count(self):
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert len(fields) == 36 and not fields & set(REMOVED_KEYS)

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_refused_as_unknown_even_at_the_value_in_force(self, tmp_path, key):
        value = REMOVED_KEYS[key]
        with pytest.raises(ConfigError, match=rf"^line 2: unknown configuration key '{key}'$"):
            parse_config(write_cfg(tmp_path, f"rate = 0.3\n{key} = {value}\n"))
        d = dict(ExperimentConfig().to_dict(), **{key: value})
        with pytest.raises(ConfigError, match=rf"^unknown configuration key\(s\): {key}$"):
            ExperimentConfig.from_dict(d)


class TestShippedConfigs:
    def test_example_configs_parse_and_validate(self):
        configs = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.conf"))
        assert len(configs) == 2
        for path in configs:
            cfg = parse_config(path)
            assert cfg.dataset == "cifar10"
            assert cfg.model in ("vgg16", "resnet56")
            assert cfg.baseline_epochs > 100  # these are the long-running recipes
