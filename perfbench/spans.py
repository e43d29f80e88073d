"""In-memory span recorder, function patching, and the statistics the
benchmark reports.

A span is ``(name, start_ns, end_ns, parent, detail)``; ``parent`` is the
index of the enclosing span or -1.  The recorder is single-threaded, like the
program it measures, so spans nest strictly and a span's self time is its
duration minus the durations of its direct children.

:class:`Patcher` installs timing wrappers around functions and methods of an
already-imported package.  A module-level function is replaced at *every*
module attribute that refers to it, because ``from .x import f`` binds ``f``
into the importing module at load time and patching only the defining module
would miss those call sites.  Everything is restored on exit.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

NO_PARENT = -1


class Tracer:
    """Records spans and named counters in memory; writes them out on request."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []   # [name, start, end, parent, detail]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def begin(self, name: str, detail=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else NO_PARENT
        self.spans.append([name, self.clock(), None, parent, detail])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")
        self.spans[idx][2] = self.clock()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def write(self, path) -> None:
        """One JSON object per line, in start order."""
        with open(path, "w") as f:
            for i, (name, start, end, parent, detail) in enumerate(self.spans):
                rec = {"i": i, "name": name, "start_ns": start, "end_ns": end,
                       "parent": parent}
                if detail is not None:
                    rec["detail"] = detail
                f.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def durations(spans) -> list[int]:
    return [s[2] - s[1] for s in spans]


def self_times(spans) -> list[int]:
    """Per span: duration minus the summed durations of its direct children."""
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent != NO_PARENT:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def totals_by_name(spans, inclusive: bool = False) -> dict[str, int]:
    """Summed self (or inclusive) nanoseconds per span name."""
    times = durations(spans) if inclusive else self_times(spans)
    out: dict[str, int] = defaultdict(int)
    for s, t in zip(spans, times):
        out[s[0]] += t
    return dict(out)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]) of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


# ---------------------------------------------------------------------------
# patching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Probe:
    """A function to time.

    ``target`` is ``"package.module:function"`` or ``"package.module:Class.method"``.
    ``detail(args, kwargs)`` labels the span (e.g. a block's name);
    ``count(tracer, args, kwargs, result)`` adds counters after the call.
    A ``generator`` probe times each ``next()`` on the returned iterator
    instead of the call that creates it, which is the time a loop waits on it.
    """

    target: str
    name: str
    detail: Callable | None = None
    count: Callable | None = None
    generator: bool = False


def _wrap(tracer: Tracer, fn, probe: Probe):
    name, detail_fn, count_fn = probe.name, probe.detail, probe.count

    if probe.generator:
        def wrapper(*args, **kwargs):
            detail = detail_fn(args, kwargs) if detail_fn else None
            it = fn(*args, **kwargs)
            while True:
                idx = tracer.begin(name, detail)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.end(idx)
                yield item
    else:
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name, detail_fn(args, kwargs) if detail_fn else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if count_fn is not None:
                count_fn(tracer, args, kwargs, result)
            return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    return wrapper


def _resolve(target: str):
    module_name, _, attr_path = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Patcher:
    """Installs probes (``install``) and puts the originals back (``restore``);
    as a context manager, does both around its block.

    ``package`` bounds the search for module-level aliases: every loaded
    module whose name is the package or starts with ``package + "."``.
    """

    def __init__(self, tracer: Tracer, probes, package: str):
        self.tracer = tracer
        self.probes = list(probes)
        self.package = package
        self._saved: list[tuple[object, str, object]] = []

    def _modules(self):
        prefix = self.package + "."
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == self.package or n.startswith(prefix))]

    def install(self) -> None:
        try:
            for probe in self.probes:
                owner, attr = _resolve(probe.target)
                if inspect.isclass(owner):
                    original = owner.__dict__[attr]
                    self._set(owner, attr, _wrap(self.tracer, original, probe))
                    continue
                original = getattr(owner, attr)
                wrapper = _wrap(self.tracer, original, probe)
                for module in self._modules():
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, alias, wrapper)
        except BaseException:
            self.restore()
            raise

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
