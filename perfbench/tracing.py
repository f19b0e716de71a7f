"""Span tracing for the hallguard benchmark, kept outside the package.

``instrument`` wraps the public functions of the hallguard modules, in every
module namespace and default argument that holds them, so each call records
one span: name, start, end, parent span and the id of the record it serves.
Spans of one record share that id.  Spans stay in memory and are written
once, when the traced command has finished.

Run one traced CLI command (``src`` must be importable):

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json -- pipeline --input ...

The last stdout line is ``{"spans_write_s": ...}``, the time spent writing
the spans, so a caller can take it out of the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

TRACED = {
    "records": ("parse_records", "write_records"),
    "mockgen": ("generate_corpus", "generate_fact_store"),
    "uncertainty": ("sequence_entropy_profile",),
    "semantic": ("default_embed", "cluster_embeddings", "semantic_entropy_of_record"),
    "consistency": ("self_consistency_consensus", "race_metrics"),
    "grounding": ("load_fact_store", "check_claims"),
    "calibration": ("fit_temperature",),
    "pipeline": ("detect", "route", "validate", "ledger_to_json", "ledger_to_markdown"),
}

# spans whose first argument names the record they serve; others inherit it
_RECORD_OF = {
    "pipeline.detect": lambda record: record.id,
    "pipeline.route": lambda signals: signals.record_id,
    "pipeline.validate": lambda before: before.record_id,
}

SPAN_FIELDS = ("name", "start", "end", "parent", "record_id")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # one list per span, laid out as SPAN_FIELDS
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        record_of = _RECORD_OF.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            if record_of is not None and args:
                record_id = record_of(args[0])
            else:
                record_id = self.spans[parent][4] if parent is not None else None
            span = [name, 0.0, 0.0, parent, record_id]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()

        return traced


def instrument(tracer: Tracer) -> None:
    """Replace every reference to a TRACED function inside the package."""
    modules = [importlib.import_module(f"hallguard.{m}") for m in (*TRACED, "cli")]
    modules.append(importlib.import_module("hallguard"))
    wrapped = {}
    for short, names in TRACED.items():
        module = sys.modules[f"hallguard.{short}"]
        for name in names:
            fn = getattr(module, name)
            wrapped[id(fn)] = tracer.wrap(f"{short}.{name}", fn)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value.__defaults__:
                value.__defaults__ = tuple(wrapped.get(id(d), d) for d in value.__defaults__)
            if id(value) in wrapped:
                setattr(module, attr, wrapped[id(value)])


def summarize(spans) -> dict:
    """Per span name: call count, inclusive seconds and per-call durations."""
    stats: dict[str, dict] = {}
    for name, start, end, _, _ in spans:
        s = stats.setdefault(name, {"calls": 0, "s": 0.0, "durations": []})
        s["calls"] += 1
        s["s"] += end - start
        s["durations"].append(end - start)
    return stats


def self_time_under(spans, root: str) -> dict[str, float]:
    """Self seconds of every span name inside spans named ``root``, the root
    included; the values add up to the roots' inclusive time.

    A span's self time is its duration minus its direct children's; children
    of one span run one after another, so their durations never overlap.
    """
    child_s = [0.0] * len(spans)
    inside = [False] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent is not None:
            child_s[parent] += end - start
        inside[i] = name == root or (parent is not None and inside[parent])
    out: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        if inside[i]:
            out[name] = out.get(name, 0.0) + end - start - child_s[i]
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- <hallguard command> [args...]", file=sys.stderr)
        return 1
    spans_path, cli_args = Path(argv[0]), argv[2:]
    from hallguard import cli

    tracer = Tracer()
    instrument(tracer)
    code = tracer.wrap(f"cli.{cli_args[0]}", cli.main)(cli_args)
    t0 = time.perf_counter()
    spans_path.write_text(json.dumps({"fields": SPAN_FIELDS, "spans": tracer.spans}))
    print(json.dumps({"spans_write_s": time.perf_counter() - t0}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
