"""Command-line surface: exit codes, artifacts, and the stage chain."""

import csv

import numpy as np
import pytest

from maskprune.checkpoint import load_checkpoint, save_checkpoint
from maskprune.cli import main
from maskprune.metrics import load_report_csv, load_report_json
from maskprune.models import build_model


def write_quick_config(tmp_path, **over):
    values = dict(dataset="synthetic", synthetic_train=240, synthetic_test=80,
                  batch_size=32, eval_batch=80, baseline_epochs=1, prune_epochs=1,
                  max_prune_epochs=6, finetune_epochs=1, rate=0.25, seed=11,
                  crop_pad=0, out_dir=str(tmp_path / "run"))
    values.update(over)
    path = tmp_path / "quick.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "inspect-influence" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        assert main(["compress"]) == 1
        capsys.readouterr()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["eval", "--config", str(tmp_path / "absent.cfg")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_value(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("rate = 1.5\n")
        assert main(["eval", "--config", str(bad)]) == 1
        assert "rate" in capsys.readouterr().err

    def test_corrupted_checkpoint_is_runtime_failure(self, tmp_path, capsys):
        cfg = write_quick_config(tmp_path)
        ckpt = tmp_path / "junk.ckpt"
        ckpt.write_bytes(b"MPRNCKPT" + b"\x00" * 64)
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 2
        assert "runtime failure" in capsys.readouterr().err

    def test_inconsistent_array_with_valid_digest_is_runtime_failure(self, tmp_path, capsys):
        import hashlib

        from maskprune.checkpoint import save_checkpoint

        cfg = write_quick_config(tmp_path)
        ckpt = save_checkpoint(tmp_path / "bent.ckpt", {}, {"w": np.zeros((4, 3))})
        raw = ckpt.read_bytes()
        # the first shape word (4) follows name length, name and dtype/ndim
        at = len(b"MPRNCKPT") + 4 + 8 + len(b"{}") + 4 + 2 + 1 + 2
        body = raw[:at] + (5).to_bytes(8, "little") + raw[at + 8:-32]
        ckpt.write_bytes(body + hashlib.sha256(body).digest())
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 2
        assert "runtime failure" in capsys.readouterr().err


    def test_nan_loss_is_runtime_failure(self, tmp_path, capsys, monkeypatch):
        import maskprune.cli as cli

        def poisoned(*args, **kwargs):
            model = build_model(*args, **kwargs)
            model.blocks[1].conv.weight.data[0, 0, 0, 0] = np.nan
            return model

        monkeypatch.setattr(cli, "build_model", poisoned)
        assert main(["train", "--config", str(write_quick_config(tmp_path))]) == 2
        err = capsys.readouterr().err
        assert "runtime failure: non-finite loss nan in stage baseline, epoch 0, step 0" in err
        assert not (tmp_path / "run" / "checkpoint-baseline.ckpt").exists()


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """train -> prune -> finetune once; the chain tests inspect the artifacts."""
    tmp_path = tmp_path_factory.mktemp("chain")
    cfg = write_quick_config(tmp_path)
    out = tmp_path / "run"
    rc_train = main(["train", "--config", str(cfg)])
    ckpt = out / "checkpoint-baseline.ckpt"
    rc_prune = main(["prune", "--config", str(cfg), "--checkpoint", str(ckpt)])
    last = out / "checkpoint-prune-conv4.ckpt"
    rc_tune = main(["finetune", "--config", str(cfg), "--checkpoint", str(last)])
    return {"tmp": tmp_path, "cfg": cfg, "out": out,
            "codes": (rc_train, rc_prune, rc_tune)}


class TestStageChain:
    def test_all_stages_succeed(self, run, capsys):
        assert run["codes"] == (0, 0, 0)
        capsys.readouterr()

    def test_stage_checkpoints_exist(self, run):
        names = {p.name for p in run["out"].glob("*.ckpt")}
        assert "checkpoint-baseline.ckpt" in names
        assert "checkpoint-measure.ckpt" in names
        assert {f"checkpoint-prune-conv{i}.ckpt" for i in (1, 2, 3, 4)} <= names
        assert "checkpoint-final.ckpt" in names

    def test_effective_config_written(self, run):
        text = (run["out"] / "effective-config.txt").read_text()
        assert "rate = 0.25" in text

    def test_report_artifacts(self, run):
        report = load_report_json(run["out"] / "report.json")
        row = load_report_csv(run["out"] / "report.csv")
        assert report.model == "tiny-cnn"
        assert row["r_actual"] == report.rate_actual
        assert 0.0 <= report.rate_actual <= report.rate_target
        assert report.flops_after < report.flops_before

    def test_eval_subcommand(self, run, capsys):
        rc = main(["eval", "--config", str(run["cfg"]),
                   "--checkpoint", str(run["out"] / "checkpoint-final.ckpt")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy:" in out and "80 test examples" in out

    def test_report_subcommand_on_finished_run(self, run, capsys):
        rc = main(["report", "--config", str(run["cfg"]),
                   "--checkpoint", str(run["out"] / "checkpoint-final.ckpt")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "flops:" in out and "channels removed:" in out

    def test_report_refuses_unfinished_run(self, run, capsys):
        rc = main(["report", "--config", str(run["cfg"]),
                   "--checkpoint", str(run["out"] / "checkpoint-baseline.ckpt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "remaining stages" in err and "prune:conv1" in err

    def test_a_full_width_state_with_a_frozen_layer_is_a_runtime_failure(self, run, tmp_path,
                                                                           capsys):
        # a prune-stage checkpoint holds its frozen layers narrowed; one whose
        # model arrays are full width names the first array that does not fit
        meta, arrays = load_checkpoint(run["out"] / "checkpoint-prune-conv1.ckpt")
        _, measured = load_checkpoint(run["out"] / "checkpoint-measure.ckpt")
        model = {k: v for k, v in measured.items()
                 if not k.startswith(("map.", "strategy.", "scorer."))}
        ckpt = save_checkpoint(tmp_path / "full.ckpt", meta, {**arrays, **model})
        assert main(["eval", "--config", str(run["cfg"]), "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert "runtime failure" in err and "state array conv1.conv.weight" in err

    def test_resumed_run_matches_straight_run(self, run, capsys):
        # a single finetune from scratch must produce the same report as the
        # chained train/prune/finetune above (timings aside)
        cfg2 = write_quick_config(run["tmp"], out_dir=str(run["tmp"] / "straight"))
        assert main(["finetune", "--config", str(cfg2)]) == 0
        capsys.readouterr()
        a = load_report_json(run["out"] / "report.json")
        b = load_report_json(run["tmp"] / "straight" / "report.json")
        assert a.comparable() == b.comparable()


def reblessed(src, dst, numbered=True, **config):
    """A copy of checkpoint ``src`` whose stored config is updated with
    ``config``, with a valid digest; without its state format number, as
    format 1 wrote it, if not ``numbered``."""
    meta, arrays = load_checkpoint(src)
    meta["config"].update(config)
    if not numbered:
        del meta["state_format"]
    return save_checkpoint(dst, meta, arrays)


class TestCheckpointConfig:
    def test_unknown_key_is_usage_error(self, run, tmp_path, capsys):
        ckpt = reblessed(run["out"] / "checkpoint-final.ckpt", tmp_path / "odd.ckpt",
                         learning_rate=0.1)
        assert main(["eval", "--config", str(run["cfg"]), "--checkpoint", str(ckpt)]) == 1
        assert "error: unknown configuration key(s): learning_rate" in capsys.readouterr().err

    def test_removed_key_is_usage_error(self, run, tmp_path, capsys):
        ckpt = reblessed(run["out"] / "checkpoint-measure.ckpt", tmp_path / "old.ckpt",
                         influence_mode="absolute")
        out = tmp_path / "resumed"
        assert main(["prune", "--config", str(run["cfg"]), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 1
        assert ("error: unknown configuration key(s): influence_mode"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_format_1_state_is_a_runtime_failure(self, run, tmp_path, capsys):
        ckpt = reblessed(run["out"] / "checkpoint-measure.ckpt", tmp_path / "old.ckpt",
                         numbered=False)
        out = tmp_path / "resumed"
        assert main(["prune", "--config", str(run["cfg"]), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 2
        assert (f"runtime failure: checkpoint {ckpt} holds trainer state format 1; "
                "this version reads format 2 only") in capsys.readouterr().err
        assert not out.exists()


class TestConfigRefusals:
    @pytest.mark.parametrize("over,message", [
        ({"log_every": 0}, "log_every must be >= 1, got 0"),
        ({"eval_batch": 0}, "eval_batch must be >= 1, got 0"),
        ({"synthetic_test": 0}, "test split is empty"),
        ({"synthetic_train": 16}, "train split holds 16 images, fewer than one batch"),
        ({"lr": "nan"}, "lr must be finite, got nan"),
        ({"anneal_end_factor": "inf"}, "anneal_end_factor must be finite, got inf"),
        ({"lr_milestones": "0.5, nan"}, "lr_milestones must be finite, got (0.5, nan)"),
        ({"prune_lr": "-1"}, "prune_lr must be > 0, got -1.0"),
        ({"momentum": "1"}, "momentum must be in [0, 1), got 1.0"),
        ({"weight_decay": "-1"}, "weight_decay must be >= 0, got -1.0"),
        ({"lr_decay": "0"}, "lr_decay must be in (0, 1], got 0.0"),
    ], ids=["log_every", "eval_batch", "empty-test", "train-below-batch", "lr-nan",
            "anneal-inf", "milestone-nan", "prune-lr-negative", "momentum-one",
            "weight-decay-negative", "lr-decay-zero"])
    def test_value_that_would_crash_later_is_usage_error(self, tmp_path, capsys, over,
                                                         message):
        cfg = write_quick_config(tmp_path, **over)
        assert main(["train", "--config", str(cfg)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not list(tmp_path.glob("run/*.ckpt"))


class TestInspectInfluence:
    def test_csv_sorted_and_typed(self, tmp_path, capsys):
        cfg = write_quick_config(tmp_path, baseline_epochs=1)
        table = tmp_path / "infl.csv"
        rc = main(["inspect-influence", "--config", str(cfg), "--table", str(table)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        with open(table, newline="") as f:
            rows = list(csv.DictReader(f))
        assert rows and set(rows[0]) == {"layer", "channel", "influence"}
        widths = {"conv1": 8, "conv2": 16, "conv3": 24, "conv4": 32}
        assert len(rows) == sum(widths.values())
        values = [float(r["influence"]) for r in rows]
        assert values == sorted(values)
        per_layer = {name: sum(1 for r in rows if r["layer"] == name)
                     for name in widths}
        assert per_layer == widths

    def test_default_destination_is_out_dir(self, tmp_path, capsys):
        cfg = write_quick_config(tmp_path)
        assert main(["inspect-influence", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert (tmp_path / "run" / "influence.csv").exists()


class TestZeroEpochTrain:
    def test_train_with_zero_epochs_is_a_noop(self, tmp_path, capsys):
        cfg = write_quick_config(tmp_path, baseline_epochs=0)
        assert main(["train", "--config", str(cfg)]) == 0
        assert "nothing to train" in capsys.readouterr().out
        assert not list((tmp_path / "run").glob("*.ckpt"))
