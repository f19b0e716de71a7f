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


def test_cli_import_loads_no_calibration_mitigation_or_mockgen(tmp_path):
    loaded = _run(["-c", "import sys, hallguard.cli; print(' '.join(sys.modules))"], tmp_path)
    assert not {"hallguard.calibration", "hallguard.mitigation", "hallguard.mockgen"} & set(loaded.split())


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
        # one embedding per distinct string of each clustered list; the
        # ledger is written through the name the benchmark times
        (["pipeline", "--input", "corpus.jsonl", "--store", "store.json", "--output", "ledger.json"],
         {"pipeline.detect": 12, "semantic.default_embed": 19, "pipeline.ledger_to_json": 1}),
    ):
        _run([str(TRACING_PY), "spans.json", "--", *argv], tmp_path)
        stats = tracing.summarize(json.loads((tmp_path / "spans.json").read_text())["spans"])
        assert {name: stats[name]["calls"] for name in calls} == calls
