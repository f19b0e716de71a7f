"""The benchmark's traced run wraps hallguard functions by name; keep them there."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING_PY = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_is_a_module_function():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PY)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for short, names in tracing.TRACED.items():
        module = importlib.import_module(f"hallguard.{short}")
        for name in names:
            fn = getattr(module, name, None)
            if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                missing.append(f"hallguard.{short}.{name}")
    assert missing == []
