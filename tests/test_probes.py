"""Every function the benchmark's traced run wraps still exists.

``perfbench/probes.py`` names each probed function or method as
``"package.module:Class.method"``.  A refactor that drops or renames one
fails only the traced benchmark; this test reads the same probe list and
resolves every target against the package instead.
"""

import importlib
import inspect
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
    """Whether the traced run can wrap ``target`` the way its patcher does:
    a function by attribute lookup, a method only from its class's own
    ``__dict__``, so an inherited method (or a name bound to a subclass that
    inherits it) does not resolve."""
    module, _, path = target.partition(":")
    *owners, attr = path.split(".")
    owner = importlib.import_module(module)
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    if inspect.isclass(owner):
        return callable(owner.__dict__.get(attr))
    return callable(getattr(owner, attr, None))


def test_every_probe_target_resolves():
    targets = probe_targets()
    assert "maskprune.layers:MaskedConv2d.forward" in targets
    assert [t for t in targets if not resolves(t)] == []


def test_an_inherited_method_does_not_resolve():
    assert resolves("maskprune.layers:_MaskedLayer.gate_forward")
    assert not resolves("maskprune.layers:MaskedConv2d.gate_forward")
    assert resolves("maskprune.layers:sgd_step")
    assert not resolves("maskprune.layers:no_such_function")
