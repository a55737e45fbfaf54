"""Spans around the calls between `renflow` modules, and the metrics they give.

`Tracer.install` replaces, from outside the package, every public function
that one `renflow` module imports from another (for example
`renflow.cli.load_csv` or `renflow.surrogate.count_words`) with a timing
wrapper.  It also wraps the entry point `renflow.cli.main`, the
surrogate builder `renflow.surrogate.make_surrogate` that the ensemble
loop calls by module name, and the validation of every
`renflow.infocore.JointDistribution`.  No file under `src/` changes.

A span is [name, start, end, parent, hook_seconds]: `parent` is the
index of the enclosing span (-1 at top level) and `hook_seconds` is the
time the tracer's own counters spent inside the span, which is taken off
its duration.  Spans stay in memory until `dump` writes them out.

`layer_metrics` turns the spans and counters of one traced run into the
per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import time
import types
import weakref
from collections import Counter

import numpy as np

LAYERS = ("cli", "ingest", "symbolize", "transfer", "infocore", "surrogate", "report", "synth")

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.hook_s = 0.0
        self.counters: Counter = Counter()
        self.word_fill: float | None = None  # of the sparsest count_words result
        self._digests: dict[int, bytes] = {}
        self._seen: dict[str, set] = {"count_words": set(), "make_surrogate": set()}

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None or after is not None:
                h0 = clock()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if before is not None:
                    before(self, bound.arguments)
                self.hook_s += clock() - h0
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            span = [name, 0.0, 0.0, parent, self.hook_s]
            self.spans.append(span)
            self.stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self.stack.pop()
                span[4] = self.hook_s - span[4]
            if after is not None:
                h0 = clock()
                after(self, bound.arguments, result)
                self.hook_s += clock() - h0
            return result

        return traced

    def install(self):
        modules = {layer: importlib.import_module(f"renflow.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                origin = obj.__module__.rpartition(".")[2]
                if origin == layer or origin not in modules:
                    continue
                if obj not in wrappers:
                    name = f"{origin}.{attr}"
                    wrappers[obj] = self.wrap(name, obj, *HOOKS.get(name, (None, None)))
                setattr(module, attr, wrappers[obj])
        cli, surrogate, infocore = modules["cli"], modules["surrogate"], modules["infocore"]
        cli.main = self.wrap("cli.main", cli.main)
        surrogate.make_surrogate = self.wrap(
            "surrogate.make_surrogate", surrogate.make_surrogate, *HOOKS["surrogate.make_surrogate"]
        )
        joint = infocore.JointDistribution
        joint.__post_init__ = self.wrap("infocore.JointDistribution", joint.__post_init__)

    # -- counters -----------------------------------------------------------

    def digest(self, array) -> bytes:
        """Content hash of a read-only symbol array, cached while the array lives."""
        key = id(array)
        if key not in self._digests:
            h = hashlib.blake2b(repr((array.dtype.str, array.shape)).encode(), digest_size=16)
            h.update(np.ascontiguousarray(array).data)
            self._digests[key] = h.digest()
            weakref.finalize(array, self._digests.pop, key, None)
        return self._digests[key]

    def seen_before(self, kind: str, key) -> bool:
        seen = key in self._seen[kind]
        self._seen[kind].add(key)
        return seen

    def dump(self, path) -> None:
        payload = {"spans": self.spans, "counters": dict(self.counters),
                   "word_fill": self.word_fill or 0.0}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _series_key(tracer, s):
    return (tracer.digest(s.symbols), s.alphabet_size)


def _count_words_before(tracer, a):
    key = (_series_key(tracer, a["x"]), _series_key(tracer, a["y"]),
           a["h"].m, a["h"].l, a["pseudo_count"])
    tracer.counters["transfer.count_words_redundant"] += tracer.seen_before("count_words", key)


def _count_words_after(tracer, a, words):
    tracer.counters["transfer.windows_counted"] += words.n_windows
    tracer.counters["transfer.words_observed"] += int(words.codes.size)
    possible = words.target_alphabet ** (words.m + 1) * words.source_alphabet**words.l
    fill = words.codes.size / possible
    tracer.word_fill = fill if tracer.word_fill is None else min(tracer.word_fill, fill)


def _make_surrogate_before(tracer, a):
    y = a["y"]
    key = (_series_key(tracer, y), y.label, a["spec"], a["replica_index"])
    tracer.counters["surrogate.make_surrogate_redundant"] += tracer.seen_before("make_surrogate", key)


def _load_csv_after(tracer, a, series):
    with open(a["path"], "rb") as fh:
        data = fh.read()
    rows = data.count(b"\n") - 1
    tracer.counters["ingest.bytes_read"] += len(data)
    tracer.counters["ingest.rows_read"] += rows
    tracer.counters["ingest.cells_omitted"] += rows * len(series) - sum(len(s) for s in series)


def _align_many_after(tracer, a, aligned):
    before = sum(len(s) for s in a["series"])
    tracer.counters["ingest.rows_dropped"] += before - sum(len(s) for s in aligned)


def _prepare_series_after(tracer, a, series):
    tracer.counters["symbolize.symbols_out"] += len(series)


def _conditional_entropy_before(tracer, a):
    joint = a["joint"]
    tracer.counters["infocore.cells"] += int(np.size(getattr(joint, "probs", joint)))


def _generate_before(tracer, a):
    tracer.counters["synth.steps"] += int(a["length"])


HOOKS = {
    "transfer.count_words": (_count_words_before, _count_words_after),
    "surrogate.make_surrogate": (_make_surrogate_before, None),
    "ingest.load_csv": (None, _load_csv_after),
    "ingest.align_many": (None, _align_many_after),
    "symbolize.prepare_series": (None, _prepare_series_after),
    "infocore.conditional_entropy": (_conditional_entropy_before, None),
    "synth.generate": (_generate_before, None),
}


# -- analysis -------------------------------------------------------------------

def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer calls, total and self time, and the layer-specific figures."""
    spans = trace["spans"]
    layer = [s[0].partition(".")[0] for s in spans]
    duration = [s[2] - s[1] - s[4] for s in spans]
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    self_s = [duration[i] - sum(duration[c] for c in children[i]) for i in range(len(spans))]

    def nested_in_own_layer(i: int) -> bool:
        p = spans[i][3]
        while p >= 0:
            if layer[p] == layer[i]:
                return True
            p = spans[p][3]
        return False

    out: dict[str, float] = {}
    for name in LAYERS:
        mine = [i for i in range(len(spans)) if layer[i] == name]
        out[f"{name}.calls"] = len(mine)
        out[f"{name}.total_s"] = sum(duration[i] for i in mine if not nested_in_own_layer(i))
        out[f"{name}.self_s"] = sum(self_s[i] for i in mine)

    def total(*names):
        return sum(duration[i] for i, s in enumerate(spans) if s[0] in names)

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    c = trace["counters"]
    load_s = total("ingest.load_csv")
    generate_s = total("synth.generate")
    effective = [i for i, s in enumerate(spans) if s[0] == "surrogate.effective_transfer_entropy"]
    # The first two children of an effective estimate count and score the raw
    # pair; every later child works on a surrogate replica.
    replica_s = sum(duration[c] for i in effective for c in children[i][2:])
    effective_s = sum(duration[i] for i in effective)
    out.update({
        "ingest.load_csv_s": load_s,
        "ingest.align_many_s": total("ingest.align_many"),
        "ingest.sha256_s": total("ingest.sha256_file"),
        "ingest.rows_read": c.get("ingest.rows_read", 0),
        "ingest.cells_omitted": c.get("ingest.cells_omitted", 0),
        "ingest.rows_dropped": c.get("ingest.rows_dropped", 0),
        "ingest.mb_per_s": c.get("ingest.bytes_read", 0) / 1e6 / load_s if load_s else 0.0,
        "symbolize.prepare_series_s": total("symbolize.prepare_series"),
        "symbolize.symbols_out": c.get("symbolize.symbols_out", 0),
        "transfer.count_words_s": total("transfer.count_words"),
        "transfer.count_words_calls": calls("transfer.count_words"),
        "transfer.count_words_redundant": c.get("transfer.count_words_redundant", 0),
        "transfer.windows_counted": c.get("transfer.windows_counted", 0),
        "transfer.words_observed": c.get("transfer.words_observed", 0),
        "transfer.word_fill": trace["word_fill"],
        "transfer.estimate_s": total("transfer.renyi_transfer_entropy",
                                     "transfer.shannon_transfer_entropy"),
        "transfer.estimate_calls": calls("transfer.renyi_transfer_entropy")
        + calls("transfer.shannon_transfer_entropy"),
        "infocore.conditional_entropy_s": total("infocore.conditional_entropy"),
        "infocore.conditional_entropy_calls": calls("infocore.conditional_entropy"),
        "infocore.cells": c.get("infocore.cells", 0),
        "surrogate.effective_s": effective_s,
        "surrogate.make_surrogate_s": total("surrogate.make_surrogate"),
        "surrogate.make_surrogate_calls": calls("surrogate.make_surrogate"),
        "surrogate.make_surrogate_redundant": c.get("surrogate.make_surrogate_redundant", 0),
        "surrogate.replica_share": replica_s / effective_s if effective_s else 0.0,
        "report.driver_self_s": sum(
            self_s[i] for i, s in enumerate(spans)
            if s[0] in ("report.pairwise_matrix", "report.q_sweep", "report.m_sweep")
        ),
        "report.emit_s": total("report.emit"),
        "report.net_flow_s": total("report.net_flow"),
        "report.parse_matrix_csv_s": total("report.parse_matrix_csv"),
        "synth.generate_s": generate_s,
        "synth.steps_per_s": c.get("synth.steps", 0) / generate_s if generate_s else 0.0,
        "synth.oracle_s": total("synth.exact_transfer_entropy"),
    })
    return out
