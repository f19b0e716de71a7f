"""Runs of the scripts: the demo scripts, which build on the mockgen and
pipeline API, and compare_outputs.py with its one-interpreter runner."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/run_demo_cycle.py", "--n", "30"],
        ["scripts/calibration_sweep.py", "--n", "200"],
    ],
)
def test_script_runs_cleanly(argv):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout


def test_compare_outputs_finds_a_tree_identical_to_itself():
    proc = subprocess.run(
        [sys.executable, "scripts/compare_outputs.py", "src", "src", "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("0 of 731 files differ"), proc.stdout


# the runner is checked against fresh processes on these commands of one workload
RUNNER_COMMANDS = ("pipeline-stdout", "pipeline-md", "analyze-json", "race", "help", "no-command",
                   "analyze-no-input", "chunk-bad-overlap", "analyze-malformed", "factcheck-bad-store",
                   "pipeline-bad-rule-fields", "analyze-fault-sample_string")


def test_the_runner_writes_what_fresh_processes_write(tmp_path, monkeypatch):
    """run_commands runs every command through cli.main in one interpreter;
    each command's output files, stdout, stderr and exit code are the bytes
    that a fresh ``python -m hallguard.cli`` process writes."""
    # sys.path is restored after the test, with the entries write_corpora adds
    monkeypatch.setattr(sys, "path", [str(ROOT / "scripts"), *sys.path])
    import compare_outputs as compare

    src = ROOT / "src"
    compare.write_corpora(src, 3, tmp_path / "all")
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    (tmp_path / "all" / "retry-embed-s10").rename(inputs / "retry-embed-s10")
    monkeypatch.setattr(compare, "COMMANDS", {name: compare.COMMANDS[name] for name in RUNNER_COMMANDS})
    compare.run_commands(src, inputs, tmp_path / "runner")

    env = dict(os.environ, PYTHONPATH=str(src))
    corpus, out = inputs / "retry-embed-s10", tmp_path / "fresh" / "retry-embed-s10"
    out.mkdir(parents=True)
    names = {**{path.stem.replace("-", "_"): path for path in corpus.iterdir()}, "out": out}
    for name in RUNNER_COMMANDS:
        argv = [arg.format(**names) for arg in compare.COMMANDS[name].split()]
        proc = subprocess.run([sys.executable, "-m", "hallguard.cli", *argv], capture_output=True, env=env)
        (out / f"{name}.stdout").write_bytes(proc.stdout.replace(str(out).encode(), b"{out}"))
        (out / f"{name}.stderr").write_bytes(proc.stderr.replace(str(out).encode(), b"{out}"))
        (out / f"{name}.exit").write_text(f"{proc.returncode}\n")
    assert len(list(out.iterdir())) == 3 * len(RUNNER_COMMANDS) + 2  # and analyze.json, race.json
    assert {p.read_text() for p in out.glob("*.exit")} == {"0\n", "1\n", "2\n"}
    assert compare.differing_files(tmp_path / "runner", tmp_path / "fresh") == []


def test_compare_outputs_finds_a_changed_byte(tmp_path):
    """A tree whose analyze markdown heading differs by one byte from src's
    differs in each workload's analyze.md and nowhere else."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "hallguard" / "cli.py"
    text = cli.read_text()
    assert text.count('"# Detection report"') == 1
    cli.write_text(text.replace('"# Detection report"', '"# Detection Report"'))
    proc = subprocess.run(
        [sys.executable, "scripts/compare_outputs.py", "src", str(tmp_path / "src"), "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    *differs, count = proc.stdout.splitlines()
    assert sorted(differs) == [f"differs: {name}/analyze.md" for name in ("deep-s40", "retry-embed-s10", "wide-s5")]
    assert count == f"{len(differs)} of 731 files differ (seed 3)"


def test_differing_records_matches_entries_by_id(tmp_path, monkeypatch):
    """An entry that one tree inserts or drops names only itself, wherever it
    stands, and so does a trailing entry that only one tree has."""
    monkeypatch.setattr(sys, "path", [str(ROOT / "scripts"), *sys.path])
    import compare_outputs as compare

    def write(tree, records, entries):
        d = tmp_path / tree / compare.STRESS
        d.mkdir(parents=True)
        (d / "analyze.json").write_text(json.dumps({"records": [{"record_id": r} for r in records]}))
        (d / "ledger.json").write_text(json.dumps({"entries": [{"record_id": r, "outcome": "pass"}
                                                               for r in entries]}))

    write("a", ["x", "y", "z"], ["x", "y", "z"])
    write("b", ["x", "y", "z"], ["x", "inserted", "y", "z", "extra"])
    assert compare.differing_records(tmp_path / "a", tmp_path / "b") == ["extra", "inserted"]
    assert compare.differing_records(tmp_path / "b", tmp_path / "a") == ["extra", "inserted"]


def test_code_lines_counts_neither_docstrings_nor_comments_nor_blank_lines(monkeypatch):
    monkeypatch.setattr(sys, "path", [str(ROOT / "scripts"), *sys.path])
    from code_lines import code_lines

    source = '''"""A module docstring
over two lines."""

import math  # a comment


# a comment line
class Box:
    """One line."""

    size = (1,
            2)

    def area(self):
        """Two
        lines."""
        text = """a string that is
        no docstring"""
        return math.prod(self.size) or text
'''
    assert code_lines(source) == 8
