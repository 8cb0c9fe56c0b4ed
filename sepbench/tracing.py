"""Per-layer tracing of sepkit from the outside.

``Tracer.install`` replaces public module attributes of sepkit with
wrappers that record one span per call (layer, start, end, parent span)
and the layer's counts. A layer's self time is the time of its spans
minus the time of the wrapped calls inside them. A name that no longer
exists is skipped, and the metrics of a layer with no wrapped name are
reported as absent. ``uninstall`` puts every original back.
"""

from __future__ import annotations

import json
import time
import types
from collections import defaultdict

# (module, attribute, layer). Names imported into several modules are
# wrapped where each caller looks them up.
TARGETS = (
    ("sepkit.flow", "kernel", "kernel"),
    ("sepkit.flow", "leftmost_cut", "flow"),
    ("sepkit.leftmost", "leftmost_cut", "flow"),
    ("sepkit.treewidth", "leftmost_cut", "flow"),
    ("sepkit.graph", "reachable_from", "graph.reach"),
    ("sepkit.flow", "reachable_from", "graph.reach"),
    ("sepkit.leftmost", "reachable_from", "graph.reach"),
    ("sepkit.treewidth", "reachable_from", "graph.reach"),
    ("sepkit.graph", "connected_components", "graph.components"),
    ("sepkit.treewidth", "connected_components", "graph.components"),
    ("sepkit.leftmost", "enumerate_leftmost", "leftmost"),
    ("sepkit.leftmost", "enumerate_important", "leftmost"),
    ("sepkit.flow", "leftmost_min_separator", "flow"),
    ("sepkit.treewidth", "enumerate_leftmost", "leftmost"),
    ("sepkit.treewidth", "decompose", "treewidth"),
    ("sepkit.cli", "decompose", "treewidth"),
    ("sepkit.pace", "validate_td", "validate"),
    ("sepkit.cli", "validate_td", "validate"),
    ("sepkit.pace", "parse_graph", "pace.parse"),
    ("sepkit.pace", "parse_td", "pace.parse"),
    ("sepkit.pace", "emit_td", "pace.emit"),
    ("sepkit.cli", "cli", "cli"),
)

# metric -> (unit, layer it needs)
METRICS = {
    "kernel.calls": ("count", "kernel"),
    "kernel.self_s": ("s", "kernel"),
    "kernel.augmentations": ("count", "kernel"),
    "kernel.vertices_built": ("count", "kernel"),
    "kernel.vertices_active": ("count", "kernel"),
    "kernel.active_ratio": ("ratio", "kernel"),
    "flow.self_s": ("s", "flow"),
    "flow.too_large": ("count", "flow"),
    "graph.reach_calls": ("count", "graph.reach"),
    "graph.reach_s": ("s", "graph.reach"),
    "graph.components_calls": ("count", "graph.components"),
    "graph.components_s": ("s", "graph.components"),
    "leftmost.self_s": ("s", "leftmost"),
    "leftmost.flow_calls": ("count", "leftmost"),
    "leftmost.branch_nodes": ("count", "leftmost"),
    "leftmost.emitted_raw": ("count", "leftmost"),
    "leftmost.kept_ratio": ("ratio", "leftmost"),
    "treewidth.self_s": ("s", "treewidth"),
    "treewidth.flow_calls": ("count", "treewidth"),
    "treewidth.volume_enum_calls": ("count", "treewidth"),
    "treewidth.validate_s": ("s", "validate"),
    "pace.parse_s": ("s", "pace.parse"),
    "pace.emit_s": ("s", "pace.emit"),
    "cli.self_s": ("s", "cli"),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, layer, start, end)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, layer, time of wrapped children]
        self._saved: list[tuple] = []
        self._next_id = 0
        self.layers: set[str] = set()

    # -- installing ------------------------------------------------------

    def install(self, modules: dict) -> None:
        for mod_name, attr, layer in TARGETS:
            mod = modules.get(mod_name)
            if mod is None or not hasattr(mod, attr):
                continue
            orig = getattr(mod, attr)
            if attr == "kernel":
                if not hasattr(orig, "solve"):
                    continue
                wrapped = types.SimpleNamespace(solve=self._wrap(orig.solve, layer, _on_kernel))
            else:
                wrapped = self._wrap(orig, layer, _HOOKS.get(attr))
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, wrapped)
            self.layers.add(layer)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def _wrap(self, fn, layer, hook):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            self._next_id += 1
            frame = [self._next_id, layer, 0.0]
            self._stack.append(frame)
            raised = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                raised = exc
                raise
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.self_s[layer] += (t1 - t0) - frame[2]
                self.spans.append((frame[0], parent[0] if parent else None, layer, t0, t1))
                if hook is not None:
                    hook(self, parent[1] if parent else None, args, result if raised is None else None, raised)
                if parent is not None:
                    # The hook's own time counts in no layer's self time.
                    parent[2] += time.perf_counter() - t0
            return result

        return wrapper

    # -- report ----------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Every per-layer metric of a present layer, per round."""
        c = self.counts
        values = {}
        for name, (unit, layer) in METRICS.items():
            if unit == "s":
                values[name] = self.self_s[layer]
            elif unit == "count":
                values[name] = c[name]
        built, raw = c["kernel.vertices_built"], c["leftmost.emitted_raw"]
        values["kernel.active_ratio"] = c["kernel.vertices_active"] / built if built else 0.0
        values["leftmost.kept_ratio"] = c["leftmost.kept"] / raw if raw else 0.0
        out = {}
        for name, (unit, layer) in METRICS.items():
            if layer not in self.layers:
                continue
            v = values[name]
            if unit == "count":
                v = v // rounds if v % rounds == 0 else v / rounds
            elif unit == "s":
                v = v / rounds
            out[name] = {"value": v, "unit": unit}
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# Count hooks: (tracer, layer of the calling span, call arguments, result
# or None, exception or None).


def _on_kernel(tracer, parent, args, result, raised):
    if result is None:
        return
    n, active, warm = args[0], args[6], args[8]  # solve(n, ..., active, cap, warm)
    tracer.counts["kernel.calls"] += 1
    tracer.counts["kernel.vertices_built"] += n
    tracer.counts["kernel.vertices_active"] += sum(active)
    tracer.counts["kernel.augmentations"] += result[0] - len(warm)


def _on_cut(tracer, parent, args, result, raised):
    if parent in ("leftmost", "treewidth"):
        tracer.counts[f"{parent}.flow_calls"] += 1
    if raised is not None and type(raised).__name__ == "TooLarge":
        tracer.counts["flow.too_large"] += 1


def _on_reach(tracer, parent, args, result, raised):
    tracer.counts["graph.reach_calls"] += 1


def _on_components(tracer, parent, args, result, raised):
    tracer.counts["graph.components_calls"] += 1


def _on_enumerate_leftmost(tracer, parent, args, result, raised):
    if parent == "treewidth":
        tracer.counts["treewidth.volume_enum_calls"] += 1
    if result is not None:
        tracer.counts["leftmost.branch_nodes"] += result.invocations
        tracer.counts["leftmost.emitted_raw"] += result.emitted_raw
        tracer.counts["leftmost.kept"] += len(result.separators)


_HOOKS = {
    "leftmost_cut": _on_cut,
    "reachable_from": _on_reach,
    "connected_components": _on_components,
    "enumerate_leftmost": _on_enumerate_leftmost,
}
