"""Config file parsing, validation, and round-tripping."""

import dataclasses
import re
from pathlib import Path

import pytest

from maskprune.cli import main
from maskprune.config import (
    RETIRED_KEYS,
    ExperimentConfig,
    config_text,
    parse_config,
    write_effective_config,
)
from maskprune.errors import ConfigError

#: the retired keys at the values older configs and checkpoints wrote for them
RETIRED_DEFAULTS = {"influence_mode": "absolute", "scorer_input": "absolute",
                    "binary_cutoff": 1e-6, "delta_freeze": 1e-3,
                    "strategy_weight_scale": 5.0, "anneal_start_fc": 0.01,
                    "anneal_end_factor_fc": 100.0}


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

    @pytest.mark.parametrize("name", ["eval_batch", "log_every", "strategy_eval_every",
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

    def test_ema_decay_range(self):
        with pytest.raises(ConfigError, match="ema_decay"):
            ExperimentConfig(ema_decay=1.0).validate()

    @pytest.mark.parametrize("bad", [0.0, 0.5, -0.01, 0.75])
    def test_delta_bin_inside_open_half_interval(self, bad):
        with pytest.raises(ConfigError, match=rf"delta_bin must be in \(0, 0.5\), got {bad}"):
            ExperimentConfig(delta_bin=bad).validate()
        ExperimentConfig(delta_bin=0.49).validate()

    @pytest.mark.parametrize("bad", [0.0, -14.0])
    def test_score_margin_positive(self, bad):
        # zero collapses every score to the bias; a negative margin inverts
        # the ranking
        with pytest.raises(ConfigError, match=f"score_margin must be positive, got {bad}"):
            ExperimentConfig(score_margin=bad).validate()
        ExperimentConfig(score_margin=1e-3).validate()

    @pytest.mark.parametrize("bad", [0.0, 0.5, float("nan")])
    def test_stall_boost_at_least_one(self, bad):
        # 0 divided StrategyMonitor.observe's log line by zero at the first
        # stall; anything below 1 would lower the sharpness it should raise
        with pytest.raises(ConfigError, match=f"stall_boost must be >= 1, got {bad}"):
            ExperimentConfig(stall_boost=bad).validate()
        ExperimentConfig(stall_boost=1.0).validate()

    def test_crop_pad_nonnegative(self):
        # batches() treated a negative pad as 0 without a word
        with pytest.raises(ConfigError, match="crop_pad must be >= 0, got -1"):
            ExperimentConfig(crop_pad=-1).validate()
        ExperimentConfig(crop_pad=0).validate()

    @pytest.mark.parametrize("line", ["stall_boost = 0", "score_margin = 0",
                                      "delta_bin = 0.5", "crop_pad = -1"])
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


class TestRetiredKeys:
    def test_retired_set(self):
        assert RETIRED_KEYS == set(RETIRED_DEFAULTS)
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert len(fields) == 43 and not fields & RETIRED_KEYS

    def test_old_effective_config_parses(self, tmp_path):
        # the effective config an older run wrote: every retired key at the
        # value now in force, the fc anneal pair after the conv pair
        cfg = ExperimentConfig(rate=0.3, anneal_start=0.02, anneal_end_factor=50.0)
        old = dict(RETIRED_DEFAULTS, anneal_start_fc=0.02, anneal_end_factor_fc=50.0)
        text = config_text(cfg) + "".join(f"{k} = {v!r}\n".replace("'", "")
                                          for k, v in old.items())
        assert parse_config(write_cfg(tmp_path, text)) == cfg
        # the fc pair may also come first: it is checked against the final values
        fc_first = "anneal_start_fc = 0.02\nanneal_start = 0.02\n"
        assert parse_config(write_cfg(tmp_path, fc_first)).anneal_start == 0.02

    def test_old_checkpoint_config_loads(self):
        d = dict(ExperimentConfig(anneal_end_factor=30.0).to_dict(), **RETIRED_DEFAULTS)
        d["anneal_end_factor_fc"] = 30.0
        assert ExperimentConfig.from_dict(d) == ExperimentConfig(anneal_end_factor=30.0)

    @pytest.mark.parametrize("key,bad,want", [
        ("influence_mode", "signed", "'absolute'"),
        ("scorer_input", "signed", "'absolute'"),
        ("binary_cutoff", 1e-4, "1e-06"),
        ("delta_freeze", 0.0, "0.001"),
        ("strategy_weight_scale", 2.0, "5.0"),
        ("anneal_start_fc", 0.05, "0.01"),
        ("anneal_end_factor_fc", 10.0, "100.0"),
    ])
    def test_other_value_refused_naming_both(self, tmp_path, key, bad, want):
        message = rf"'{key}' is no longer configurable: fixed at {want}, got .*{bad}"
        with pytest.raises(ConfigError, match=message):
            parse_config(write_cfg(tmp_path, f"{key} = {bad}\n"))
        d = dict(ExperimentConfig().to_dict(), **{key: bad})
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(d)

    def test_fc_pair_follows_the_conv_pair(self, tmp_path):
        # the old default 0.01 is refused once the conv value moved
        text = "anneal_start = 0.02\nanneal_start_fc = 0.01\n"
        with pytest.raises(ConfigError, match="anneal_start_fc.*fixed at 0.02, got '0.01'"):
            parse_config(write_cfg(tmp_path, text))
        d = dict(ExperimentConfig(anneal_start=0.02).to_dict(), anneal_start_fc=0.01)
        with pytest.raises(ConfigError, match="anneal_start_fc.*fixed at 0.02, got 0.01"):
            ExperimentConfig.from_dict(d)

    def test_unparsable_value_refused(self, tmp_path):
        with pytest.raises(ConfigError, match="delta_freeze.*got 'small'"):
            parse_config(write_cfg(tmp_path, "delta_freeze = small\n"))


class TestNoDeadKnobs:
    def test_every_field_is_read_by_the_package(self):
        # a field that no module reads through a config object is a knob that
        # changes nothing; config.py itself does not count
        src = Path(__file__).resolve().parent.parent / "src" / "maskprune"
        text = "".join(p.read_text() for p in sorted(src.glob("*.py"))
                       if p.name != "config.py")
        read = set(re.findall(r"\bcfg\.(\w+)", text))
        unread = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in read]
        assert unread == []


class TestShippedConfigs:
    def test_example_configs_parse_and_validate(self):
        configs = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.conf"))
        assert len(configs) == 2
        for path in configs:
            cfg = parse_config(path)
            assert cfg.dataset == "cifar10"
            assert cfg.model in ("vgg16", "resnet56")
            assert cfg.baseline_epochs > 100  # these are the long-running recipes
