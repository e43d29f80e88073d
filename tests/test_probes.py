"""Every function the benchmark's traced run wraps still exists.

``perfbench/probes.py`` names each probed function or method as
``"package.module:Class.method"``.  A refactor that drops or renames one
fails only the traced benchmark; this test reads the same probe list and
resolves every target against the package instead.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def probe_targets() -> list[str]:
    sys.path.insert(0, str(BENCH))
    try:
        import probes
    finally:
        sys.path.remove(str(BENCH))
    return [probe.target for probe in probes.probes()]


def resolves(target: str) -> bool:
    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return callable(owner)


def test_every_probe_target_resolves():
    targets = probe_targets()
    assert "maskprune.layers:MaskedConv2d.forward" in targets
    assert [t for t in targets if not resolves(t)] == []
