"""The benchmark's traced run wraps hallguard functions by name; keep them
there, and keep the benchmark's start-up (``import hallguard.cli``) lean."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

TRACING_PY = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PY)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_is_a_module_function():
    tracing = _load_tracing()
    missing = []
    for short, names in tracing.TRACED.items():
        module = importlib.import_module(f"hallguard.{short}")
        for name in names:
            fn = getattr(module, name, None)
            if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                missing.append(f"hallguard.{short}.{name}")
    assert missing == []


def _run(argv, cwd):
    root = TRACING_PY.parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# run in a fresh interpreter: import the CLI, run the command given after
# "--" if any, then print its exit code, the hallguard modules loaded and
# whether numpy is
_FOOTPRINT = """
import json, sys
from hallguard import cli
code = cli.main(sys.argv[2:]) if sys.argv[1:] else None
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("hallguard.")),
                  "numpy" in sys.modules, "dataclasses" in sys.modules]))
"""

_NO_NUMPY = {"cli", "errors"}
_CORPUS_COMMAND = {"cli", "consistency", "errors", "grounding", "pipeline", "records", "semantic",
                   "uncertainty"}


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    """The benchmark's start-up, ``import hallguard.cli``, loads no numpy and
    no dataclasses, and each command loads only what it runs."""
    spec = {"n_records": 4, "samples_per_record": 2, "true_temperature": 1.5,
            "inject_rates": {"model": 0.25}, "seed": 1}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    (tmp_path / "doc.txt").write_text("One sentence. And another one.\n")
    for argv, code, modules, numpy, dataclasses in (
        (None, None, _NO_NUMPY, False, False),
        ([], 1, _NO_NUMPY, False, False),
        (["--help"], 0, _NO_NUMPY, False, False),
        (["analyze"], 1, _NO_NUMPY, False, False),  # a usage error: no --input
        (["chunk", "--input", "doc.txt", "--target-size", "8", "--output", "chunks.json"], 0,
         {"cli", "errors", "mitigation", "records"}, False, True),
        (["mockgen", "--spec", "spec.json", "--out", "corpus.jsonl", "--store-out", "store.json"], 0,
         {"cli", "errors", "grounding", "mockgen", "records", "uncertainty"}, True, True),
        (["calibrate", "--input", "corpus.jsonl", "--kind", "isotonic", "--output", "map.json"], 0,
         {"calibration", "cli", "errors", "records", "uncertainty"}, True, True),
        (["analyze", "--input", "corpus.jsonl", "--output", "report.json"], 0, _CORPUS_COMMAND, True, True),
    ):
        command = [] if argv is None else ["--", *argv]
        seen = json.loads(_run(["-c", _FOOTPRINT, *command], tmp_path).splitlines()[-1])
        assert seen == [code, [f"hallguard.{m}" for m in sorted(modules)], numpy, dataclasses], argv


def test_traced_mockgen_and_calibrate_record_their_spans(tmp_path):
    """The commands import these modules when they run; the traced run still
    reads their spans by name.  The pipeline reaches the embedder through
    the semantic module's global, which the tracer wraps."""
    spec = {"n_records": 12, "samples_per_record": 3, "true_temperature": 1.5,
            "inject_rates": {"model": 0.2, "context": 0.2, "data": 0.2}, "vocab_size": 5, "seed": 1}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    tracing = _load_tracing()
    for argv, calls in (
        (["mockgen", "--spec", "spec.json", "--out", "corpus.jsonl", "--store-out", "store.json"],
         {"mockgen.generate_corpus": 1, "mockgen.generate_fact_store": 1}),
        (["calibrate", "--input", "corpus.jsonl", "--kind", "temperature", "--output", "t.json"],
         {"calibration.fit_temperature": 1}),
        # one embedding per distinct string of each distinct tuple a record
        # clusters; the ledger is written through the name the benchmark times
        (["pipeline", "--input", "corpus.jsonl", "--store", "store.json", "--output", "ledger.json"],
         {"semantic.default_embed": 30, "grounding.check_claims": 12, "pipeline.ledger_to_json": 1}),
        # analyze imports the detect loop when it runs, after the tracer has
        # wrapped what the loop calls through the pipeline module's globals
        (["analyze", "--input", "corpus.jsonl", "--store", "store.json", "--output", "report.json"],
         {"grounding.check_claims": 12}),
    ):
        _run([str(TRACING_PY), "spans.json", "--", *argv], tmp_path)
        stats = tracing.summarize(json.loads((tmp_path / "spans.json").read_text())["spans"])
        assert {name: stats[name]["calls"] for name in calls} == calls
