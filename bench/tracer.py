"""Timing wrappers installed from outside the program.

A `Tracer` replaces every public function of the traced cutcal modules with
a wrapper that records a span (name, start, end, parent span, op id) and
keeps per-function totals: calls, self time, errors and item counts. Each
wrapper is bound under every name that refers to the original function, in
the defining module and in each module that imported it, so calls through
``from .geometry import compose`` are seen too. ``uninstall`` puts the
originals back.

Self time is a span's duration minus the time covered by its child spans;
it is accumulated on the fly, so totals stay exact when the span list is
capped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

TRACED_MODULES = (
    "cli",
    "logio",
    "metrics",
    "planner",
    "simrig",
    "handeye",
    "pointcal",
    "report",
    "geometry",
)

# Spans beyond this many are counted, not kept: one ruso trial alone makes
# tens of thousands of geometry spans.
MAX_SPANS = 100_000


def _motion_counts(args, kwargs, result) -> dict:
    n = len(args[0])
    pairing = kwargs.get("pairing", args[2] if len(args) > 2 else "consecutive")
    tried = n * (n - 1) // 2 if pairing == "all_pairs" else n - 1
    return {"pairs_tried": tried, "motions_kept": len(result)}


def _gated_counts(args, _kwargs, result) -> dict:
    return {"gated": len(result), "gate_input": len(args[0])}


def _exit_code(_args, _kwargs, result) -> dict:
    return {"exit_nonzero": int(result != 0)}


# Item counters: function name -> (args, kwargs, result) -> {item: count}.
ITEMS = {
    "cli.main": _exit_code,
    "logio.parse_pose_log": lambda a, k, r: {"rows": len(r)},
    "logio.parse_trajectory_log": lambda a, k, r: {"rows": len(r)},
    "logio.serialize_trajectory_log": lambda a, k, r: {"rows": len(a[0])},
    "planner.sample_sequence": lambda a, k, r: {"samples": len(r)},
    "simrig.synthesize_ruso_trial": lambda a, k, r: {"samples": len(r)},
    "simrig.synthesize_muso_trial": lambda a, k, r: {"samples": len(r)},
    "handeye.build_relative_motions": _motion_counts,
    "metrics.perpendicular_errors": _gated_counts,
}


class LayerStat:
    __slots__ = ("calls", "self_s", "errors", "items")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0
        self.items = defaultdict(int)


class Tracer:
    """Records spans and per-function totals while installed."""

    def __init__(self):
        self.stats: dict[str, LayerStat] = defaultdict(LayerStat)
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.op_id = -1
        self._next_id = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._patches: list[tuple] = []  # (owner, attribute, original)

    def _call(self, name, fn, items, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, 0.0]
        self._stack.append(frame)
        stat = self.stats[name]
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            stat.errors += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            stat.calls += 1
            stat.self_s += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span_id, name, start, end, parent, self.op_id))
            else:
                self.spans_dropped += 1
        if items is not None:
            for key, value in items(args, kwargs, result).items():
                stat.items[key] += value
        return result

    def _wrapper(self, name, fn):
        items = ITEMS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, items, args, kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every traced module, and the
        `RigidTransform` constructor, under all names bound to them."""
        loaded = [m for n, m in list(sys.modules.items()) if n == "cutcal" or n.startswith("cutcal.")]
        wrappers = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"cutcal.{short}")
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    wrappers[value] = self._wrapper(f"{short}.{attr}", value)
        for module in loaded:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])

        rigid = importlib.import_module("cutcal.geometry").RigidTransform
        self._patch(rigid, "__post_init__", self._wrapper("geometry.RigidTransform", rigid.__post_init__))

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_spans(self, path: Path) -> None:
        """One JSON object per line: id, name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            for span_id, name, start, end, parent, op in self.spans:
                f.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )

    def table(self) -> dict:
        """Per-function totals, for the run's result file."""
        return {
            name: {"calls": s.calls, "self_s": s.self_s, "errors": s.errors, **s.items}
            for name, s in sorted(self.stats.items())
        }
