"""Outside-in layer tracing.

Wrappers are installed on the names a calling module imported (for example
``occurs`` inside ``zimrev.decide``), so nothing under ``src/`` changes.
Each call records a span ``[name, start, end, parent, outcome, nodes]`` in
memory; the spans are written out when the run ends and reduced to the
per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time

# (layer span name, calling module, imported name, outcome kind)
HOOKS = (
    ("decide", "zimrev.cli", "decide", None),
    ("zimin.divides_zimin", "zimrev.decide", "divides_zimin", "found"),
    ("morphisms.occurs", "zimrev.decide", "occurs", "found"),
    ("morphisms.occurs", "zimrev.oracle", "occurs", "found"),
    ("oracle.search_avoiding_word", "zimrev.decide", "search_avoiding_word", "report"),
    ("oracle.generate_power_free", "zimrev.decide", "generate_power_free", "report"),
    ("classic.decide_classic", "zimrev.decide", "decide_classic", None),
    ("morphisms.divides", "zimrev.classic", "divides", "found"),
    ("words.max_exponent", "zimrev.oracle", "max_exponent", None),
)


def _outcome(kind, result):
    if kind == "found":
        return ("absent" if result is None else "found"), 0
    if kind == "report":
        return ("found" if result.word is not None else result.mode), result.nodes
    return None, 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.installed = []

    def wrap(self, name, fn, kind=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                span[4] = "budget_exceeded" if type(exc).__name__ == "SearchBudgetExceeded" else "raised"
                raise
            span[2] = clock()
            stack.pop()
            span[4], span[5] = _outcome(kind, result)
            return result

        return traced

    def install(self):
        for name, module, attr, kind in HOOKS:
            mod = sys.modules[module]
            original = getattr(mod, attr)
            self.installed.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original, kind))

    def uninstall(self):
        for mod, attr, original in reversed(self.installed):
            setattr(mod, attr, original)
        self.installed = []


def layer_metrics(spans):
    """Reduce spans to per-layer counts, busy time and self time."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layers = {}
    for idx, (name, start, end, parent, outcome, nodes) in enumerate(spans):
        layer = layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "nodes": 0,
                                         "outcomes": {}, "outcome_s": {}})
        duration = end - start
        layer["calls"] += 1
        layer["s"] += duration
        layer["self_s"] += duration - child_time[idx]
        layer["nodes"] += nodes
        if outcome is not None:
            layer["outcomes"][outcome] = layer["outcomes"].get(outcome, 0) + 1
            layer["outcome_s"][outcome] = layer["outcome_s"].get(outcome, 0.0) + duration
    return layers


def per_layer(layers, wall_s, cli_extra):
    """The flat metric table the benchmark reports with --trace 1."""

    def get(name):
        return layers.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "nodes": 0,
                                 "outcomes": {}, "outcome_s": {}})

    def share(seconds):
        return 100.0 * seconds / wall_s if wall_s > 0 else 0.0

    out = {}
    cli = get("cli.main")
    out["cli.main_s"] = (cli["s"], "s")
    out["cli.self_s"] = (cli["self_s"], "s")
    out["cli.pool_speedup"] = (cli_extra.get("pool_speedup", 0.0), "x")
    dec = get("decide")
    out["decide.calls"] = (dec["calls"], "count")
    out["decide.s"] = (dec["s"], "s")
    out["decide.self_s"] = (dec["self_s"], "s")
    zim = get("zimin.divides_zimin")
    out["zimin.divides_zimin.calls"] = (zim["calls"], "count")
    for outcome in ("found", "absent", "budget_exceeded"):
        out[f"zimin.divides_zimin.{outcome}"] = (zim["outcomes"].get(outcome, 0), "count")
    out["zimin.divides_zimin.found_s"] = (zim["outcome_s"].get("found", 0.0), "s")
    out["zimin.divides_zimin.absent_s"] = (zim["outcome_s"].get("absent", 0.0), "s")
    out["zimin.divides_zimin.share"] = (share(zim["s"]), "%")
    occ = get("morphisms.occurs")
    out["morphisms.occurs.calls"] = (occ["calls"], "count")
    for outcome in ("found", "absent", "budget_exceeded"):
        out[f"morphisms.occurs.{outcome}"] = (occ["outcomes"].get(outcome, 0), "count")
    out["morphisms.occurs.s"] = (occ["s"], "s")
    out["morphisms.occurs.share"] = (share(occ["s"]), "%")
    div = get("morphisms.divides")
    out["morphisms.divides.calls"] = (div["calls"], "count")
    out["morphisms.divides.s"] = (div["s"], "s")
    saw = get("oracle.search_avoiding_word")
    out["oracle.search_avoiding_word.calls"] = (saw["calls"], "count")
    out["oracle.search_avoiding_word.found"] = (saw["outcomes"].get("found", 0), "count")
    out["oracle.search_avoiding_word.nodes"] = (saw["nodes"], "count")
    out["oracle.search_avoiding_word.s"] = (saw["s"], "s")
    out["oracle.search_avoiding_word.nodes_per_s"] = (saw["nodes"] / saw["s"] if saw["s"] else 0.0, "1/s")
    out["oracle.search_avoiding_word.share"] = (share(saw["s"]), "%")
    gpf = get("oracle.generate_power_free")
    out["oracle.generate_power_free.calls"] = (gpf["calls"], "count")
    out["oracle.generate_power_free.nodes"] = (gpf["nodes"], "count")
    out["oracle.generate_power_free.s"] = (gpf["s"], "s")
    cls = get("classic.decide_classic")
    out["classic.decide_classic.calls"] = (cls["calls"], "count")
    out["classic.decide_classic.s"] = (cls["s"], "s")
    mex = get("words.max_exponent")
    out["words.max_exponent.calls"] = (mex["calls"], "count")
    out["words.max_exponent.s"] = (mex["s"], "s")
    return out
