"""Cost accounting and run-report serialization."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from maskprune.layers import DELTA_FREEZE, BatchNorm2d, MaskedConv2d, MaskedLinear
from maskprune.metrics import (
    RunReport,
    count_flops,
    emit_report,
    load_report_csv,
    load_report_json,
)
from maskprune.models import (
    ConvBlock,
    FlattenBlock,
    LinearBlock,
    Model,
    PoolBlock,
    build_model,
)


def single_conv_model(cout=16, cin=3, k=3, hw=32, bn=False):
    conv = MaskedConv2d(np.zeros((cout, cin, k, k)), np.zeros(cout), 1, 1)
    blocks = [ConvBlock("conv", conv, BatchNorm2d(cout) if bn else None),
              PoolBlock("gap"),
              LinearBlock("fc", MaskedLinear(np.zeros((10, cout)), np.zeros(10)),
                          relu=False, prunable=False)]
    return Model("single", blocks, (cin, hw, hw), 10)


class TestFlopCounting:
    def test_conv_fixture(self):
        # 16 * 3 * 3 * 3 * 32 * 32 = 442,368 MACs at padding 1 / stride 1
        m = single_conv_model()
        cost = count_flops(m)
        conv = cost["layers"][0]
        assert conv["macs"] == 442_368
        assert conv["flops"] == 884_736

    def test_linear_fixture(self):
        lin = LinearBlock("fc", MaskedLinear(np.zeros((10, 10)), np.zeros(10)),
                          relu=False, prunable=False)
        m = Model("fc-only", [FlattenBlock(), lin], (10, 1, 1), 10)
        cost = count_flops(m)
        assert cost["layers"][0]["macs"] == 100
        assert cost["layers"][0]["params"] == 110

    def test_param_count_includes_bias_and_bn(self):
        m = single_conv_model(bn=True)
        conv = count_flops(m)["layers"][0]
        assert conv["params"] == 16 * 3 * 3 * 3 + 16 + 2 * 16

    def test_halving_out_channels_halves_macs(self):
        full = count_flops(single_conv_model(cout=16))["layers"][0]["macs"]
        half = count_flops(single_conv_model(cout=8))["layers"][0]["macs"]
        assert half * 2 == full

    def test_gated_off_channels_do_not_count(self):
        m = single_conv_model()
        m.blocks[0].conv.gate[:8] = np.nextafter(DELTA_FREEZE, 0.0)
        cost = count_flops(m)["layers"][0]
        assert cost["macs"] == 442_368 // 2
        # the fc layer consumes only the surviving channels
        fc = count_flops(m)["layers"][1]
        assert fc["macs"] == 10 * 8

    def test_gate_at_threshold_counts(self):
        m = single_conv_model()
        m.blocks[0].conv.gate[:] = DELTA_FREEZE
        assert count_flops(m)["layers"][0]["macs"] == 442_368

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("arch,channels,size", [
        ("tiny-cnn", 1, 28), ("lenet", 1, 28), ("vgg16", 3, 32), ("resnet56", 3, 32)])
    def test_gated_model_matches_compacted_model(self, arch, channels, size, seed):
        """Every entry, flatten widths and residual projections included: a
        closed channel costs nothing whether its gate is 0 or frozen above 0."""
        from maskprune.pruning import frozen_keep
        from tests.test_models import frozen_strategies, random_keep

        m = build_model(arch, channels, size, 10, seed=seed)
        dense = count_flops(m)
        rng = np.random.default_rng(seed)
        strategies = frozen_strategies(m, random_keep(m, rng))
        for ref in m.prunable():
            gate = ref.layer.gate
            frozen_open = (gate == 0.0) & (rng.random(gate.size) < 0.5)
            gate[frozen_open] = DELTA_FREEZE * rng.uniform(0.05, 0.95, frozen_open.sum())
        gated = count_flops(m)
        assert gated["total_macs"] < dense["total_macs"]
        assert gated == count_flops(m.compact(frozen_keep(strategies)))

    def test_resnet_block_counts_both_convs_and_projection(self):
        m = build_model("resnet56", 3, 32, 10, seed=0)
        cost = count_flops(m)
        by_name = {l["name"]: l for l in cost["layers"]}
        plain_macs = by_name["res1"]["macs"]
        # conv1 16*16*9*(32*32) + conv2 16*16*9*(32*32)
        assert plain_macs == 2 * 16 * 16 * 9 * 32 * 32
        # first block of stage 2 carries the 16->32 stride-2 projection
        proj = by_name["res10"]
        expected = 32 * 16 * 9 * 16 * 16 + 32 * 32 * 9 * 16 * 16 + 32 * 16 * 1 * 16 * 16
        assert proj["macs"] == expected

    def test_total_is_sum_of_layers(self):
        cost = count_flops(build_model("vgg16", 3, 32, 10, seed=0))
        assert cost["total_macs"] == sum(l["macs"] for l in cost["layers"])
        assert cost["total_flops"] == 2 * cost["total_macs"]


class TestRunReport:
    def _report(self, **over):
        kw = dict(model="tiny-cnn", dataset="synthetic", rate_target=0.4,
                  rate_actual=0.35, baseline_acc=93.89, pruned_acc=94.40,
                  flops_before=1000, flops_after=600, params_before=500,
                  params_after=300, seed=7,
                  config={"out_dir": "/tmp/x", "lr": 0.1})
        kw.update(over)
        return RunReport(**kw)

    def test_derived_fields(self):
        r = self._report()
        assert_allclose(r.acc_drop, -0.51, atol=1e-12)
        assert_allclose(r.flops_reduction, 0.4)
        assert_allclose(r.params_reduction, 0.4)

    def test_comparable_ignores_timing_and_out_dir(self):
        a = self._report()
        a.phase_seconds = {"baseline": 1.0}
        b = self._report(config={"out_dir": "/srv/elsewhere", "lr": 0.1})
        b.phase_seconds = {"baseline": 99.0}
        assert a.comparable() == b.comparable()

    def test_comparable_detects_substantive_change(self):
        assert self._report().comparable() != \
            self._report(pruned_acc=94.41).comparable()

    def test_json_round_trip(self, tmp_path):
        r = self._report()
        paths = emit_report(r, tmp_path)
        assert [p.name for p in paths] == ["report.json", "report.csv"]
        back = load_report_json(tmp_path / "report.json")
        assert back.to_dict() == r.to_dict()

    def test_csv_full_precision(self, tmp_path):
        r = self._report(baseline_acc=93.8888888888889, pruned_acc=2 / 3 * 100)
        emit_report(r, tmp_path)
        row = load_report_csv(tmp_path / "report.csv")
        assert row["baseline_acc"] == r.baseline_acc
        assert row["pruned_acc"] == r.pruned_acc
        assert row["acc_drop"] == r.acc_drop
        assert row["model"] == "tiny-cnn"

    def test_csv_rejects_multiple_rows(self, tmp_path):
        from maskprune.errors import ShapeError

        emit_report(self._report(), tmp_path)
        path = tmp_path / "report.csv"
        with open(path) as f:
            lines = f.readlines()
        path.write_text("".join(lines + [lines[-1]]))
        with pytest.raises(ShapeError):
            load_report_csv(path)

    def test_writes_exactly_json_and_csv(self, tmp_path):
        paths = emit_report(self._report(), tmp_path / "out")
        assert paths == [tmp_path / "out" / "report.json", tmp_path / "out" / "report.csv"]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["report.csv",
                                                                        "report.json"]
