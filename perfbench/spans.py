"""Per-layer spans around calls into the turanstar modules.

A layer is one module of the package.  Every public function of a layer
module is replaced, in every turanstar namespace that imported it, by a
wrapper that opens a span; ``graphs`` is limited to ``Graph.add_edge`` and
``Graph.relabel``, whose cost the augmentation loop pays per child.  A call
made while the innermost open span belongs to the same layer runs
unwrapped, so ``calls`` counts entries into a layer from outside it.  A
layer's self time is its spans' duration minus the spans of other layers
they enclose.  Spans stay in memory and are written out once at the end.

Run as a program, it executes one turanstar CLI command with every layer
wrapped and writes the counters as JSON:

    PYTHONPATH=src python3 perfbench/spans.py OUT.json verify --jobs 1 ...
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("canonical", "detectors", "graph6", "graphs", "oracle", "constructions", "formulas", "harness")
# Class methods that belong to a layer besides its module-level functions.
METHODS = {
    "graphs": ("Graph.add_edge", "Graph.relabel"),
    "constructions": ("PartitionCertificate.holds_for",),
    "harness": ("ResultCache.__init__", "ResultCache.lookup", "ResultCache.append"),
}


def recording_levels(levels, sink: list):
    """Wrap oracle._levels so each level's [edge count, classes, augmentations] lands in sink."""

    def recorded(*args, **kwargs):
        for level, codes, visited in levels(*args, **kwargs):
            sink.append([level, len(codes), visited])
            yield level, codes, visited

    return recorded


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.levels: list[list[int]] = []  # [edge count, classes, augmentations] per level
        self.expanding = 0
        self._stack: list[list] = []  # [layer, time covered by child spans]

    def wrap(self, layer: str, fn, hook=None):
        stack = self._stack
        calls, self_s = self.calls, self.self_s

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                if hook is None:
                    return fn(*args, **kwargs)
                start = perf_counter()
                result = fn(*args, **kwargs)
                hook(args, result, perf_counter() - start)
                return result
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(args, result, elapsed)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # hooks: (args, result, seconds) of every call, nested ones included

    def _on_free_check(self, args, free, _):
        self.counts["detectors.verdicts"] += 1
        self.counts["detectors.free"] += bool(free)
        if self.expanding and free:
            self.counts["oracle.free_children"] += 1

    def _on_add_edge(self, args, graph, _):
        self.counts["graphs.add_edge"] += 1

    def _on_lookup(self, args, record, _):
        self.counts["harness.cache_misses" if record is None else "harness.cache_hits"] += 1

    def _timed(self, key):
        def hook(args, result, seconds):
            self.inclusive_s[key] += seconds
        return hook

    def _on_suite(self, args, report, seconds):
        self.inclusive_s[f"harness.suite_s.{args[0]}"] += seconds

    def _expand(self, expand):
        def counted(*args, **kwargs):
            self.expanding += 1
            try:
                return expand(*args, **kwargs)
            finally:
                self.expanding -= 1
        return counted

    def install(self) -> None:
        """Wrap every layer in every loaded turanstar module."""
        import turanstar.cli  # noqa: F401  (its namespace holds imported names too)

        modules = {name: mod for name, mod in sys.modules.items() if name.startswith("turanstar")}
        hooks = {
            "is_family_free": self._on_free_check,
            "Graph.add_edge": self._on_add_edge,
            "ResultCache.lookup": self._on_lookup,
            "ResultCache.__init__": self._timed("harness.cache_load_s"),
            "ResultCache.append": self._timed("harness.cache_append_s"),
            "run_suite": self._on_suite,
        }
        replaced = {}
        for layer in LAYERS:
            mod = modules[f"turanstar.{layer}"]
            if layer != "graphs":
                for name, fn in vars(mod).items():
                    if (
                        inspect.isfunction(fn)
                        and not name.startswith("_")
                        and fn.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(fn)
                    ):
                        replaced[fn] = self.wrap(layer, fn, hooks.get(name))
            for qual in METHODS.get(layer, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(layer, getattr(cls, meth), hooks.get(qual)))
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(mod, name, replaced[value])
        oracle = modules["turanstar.oracle"]
        oracle._levels = recording_levels(oracle._levels, self.levels)
        oracle._expand_codes = self._expand(oracle._expand_codes)

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "inclusive_s": dict(self.inclusive_s),
            "counts": dict(self.counts),
            "levels": self.levels,
        }


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    import turanstar.cli

    tracer = Tracer()
    tracer.install()
    try:
        turanstar.cli.main(cli_args, prog_name="turanstar")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(tracer.report(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
