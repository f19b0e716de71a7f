import builtins
import copy
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hallguard
from hallguard.calibration import apply_isotonic, compute_ece, fit_isotonic, fit_temperature
from hallguard.cli import main
from hallguard.mitigation import SamplingPolicy, chunk_document
from hallguard.mockgen import MockSpec, generate_corpus, generate_fact_store
from hallguard.grounding import FactEntry, FactStore, check_claims, fact_store_to_json
from hallguard.pipeline import RETRY_SUFFIX, PipelineConfig, RouterRule, default_rules
from hallguard.records import write_records
from hallguard.semantic import cluster_embeddings, cluster_texts
from hallguard.uncertainty import apply_temperature, entropy_nats

from conftest import decoded


@pytest.fixture
def mock_paths(tmp_path):
    spec = MockSpec(
        n_records=40, samples_per_record=4, true_temperature=1.5,
        inject_rates={"model": 0.15, "context": 0.15, "data": 0.15}, seed=7,
    )
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(write_records(generate_corpus(spec)))
    store = tmp_path / "store.json"
    store.write_text(json.dumps(fact_store_to_json(generate_fact_store(spec))))
    return corpus, store, spec


def test_analyze_reports_every_record(mock_paths, tmp_path, capsys):
    corpus, store, spec = mock_paths
    out = tmp_path / "report.json"
    code = main(["analyze", "--input", str(corpus), "--store", str(store), "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert len(report["records"]) == spec.n_records
    assert report["aggregates"]["n_records"] == spec.n_records
    # schema round trip: every signal field is present on every row
    for row in report["records"]:
        assert set(row) == {
            "record_id", "h_p_mean", "h_s", "consensus_support",
            "self_confidence", "race", "fact_verdicts",
        }


def test_shuffling_records_permutes_analyze_entries(mock_paths, tmp_path):
    """Each record's entry is the same text wherever the record stands; half
    the records carry sign vectors from {-1, 0, 1}^3, whose distances tie."""
    corpus, store, _ = mock_paths
    rng = np.random.default_rng(31)
    records = [json.loads(line) for line in corpus.read_bytes().splitlines()]
    for record in records[::2]:
        for sample in record["samples"]:
            sample["embedding"] = rng.integers(-1, 2, size=3).astype(float).tolist()
    shuffled = [records[i] for i in rng.permutation(len(records))]
    entries = []
    for name, rows in (("ordered", records), ("shuffled", shuffled)):
        (tmp_path / f"{name}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        out = tmp_path / f"{name}.json"
        assert main(["analyze", "--input", str(tmp_path / f"{name}.jsonl"), "--store", str(store),
                     "--output", str(out)]) == 0
        # numbers kept as their text, so equal entries are equal to the digit
        entries.append(json.loads(out.read_text(), parse_float=str)["records"])
    assert [e["record_id"] for e in entries[1]] == [r["id"] for r in shuffled]
    by_id = {e["record_id"]: e for e in entries[0]}
    assert all(e == by_id[e["record_id"]] for e in entries[1])


def test_analyze_markdown_format(mock_paths, capsys):
    corpus, store, _ = mock_paths
    assert main(["analyze", "--input", str(corpus), "--format", "md"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# Detection report")


def test_analyze_empty_corpus_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["analyze", "--input", str(empty)]) == 2
    assert "no records" in capsys.readouterr().err


def test_the_first_diagnostic_in_field_order_is_printed(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "r1", "prompt": "q", "samples": [{"text": "a", "self_confidence": 2}, "x"]}\n')
    assert main(["analyze", "--input", str(corpus)]) == 2
    assert capsys.readouterr().err == \
        "invalid data: record 'r1': samples[0].self_confidence: must lie in [0, 1]\n"


@pytest.mark.parametrize("command", ["analyze", "factcheck", "pipeline"])
def test_a_unit_or_as_of_that_is_not_a_string_is_one_line_error(tmp_path, capsys, command):
    """The store is read before the corpus, so its error is the one reported
    while both are bad, and the corpus's once the store is mended."""
    record = {"id": "r1", "prompt": "q", "samples": [{"text": "a"}],
              "reference_claims": [{"key": "k", "value": 5.0, "unit": {"x": [1]}}]}
    corpus, store = tmp_path / "corpus.jsonl", tmp_path / "store.json"
    corpus.write_text(json.dumps(record) + "\n")
    store.write_text(json.dumps({"k": {"value": 5.0, "unit": ["%"], "as_of": 3}}))
    argv = [command, "--input", str(corpus), "--store", str(store), "--output", str(tmp_path / "out.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "invalid data: unit for 'k' must be a string\n"
    store.write_text(json.dumps({"k": {"value": 5.0, "unit": "%", "as_of": "2024"}}))
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        "invalid data: record 'r1': reference_claims[0].unit: must be a string\n"


def test_analyze_missing_file_exits_1(mock_paths, tmp_path, capsys):
    corpus, _, _ = mock_paths
    for argv in (["--input", str(tmp_path / "nope.jsonl")],  # unreadable input
                 ["--input", str(corpus), "--output", str(tmp_path / "nodir" / "a.json")]):  # unwritable output
        assert main(["analyze", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot access file: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["analyze", "pipeline"])
@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 2.98 GiB for an array with shape (20000, 20000)"),
     "out of memory: Unable to allocate 2.98 GiB for an array with shape (20000, 20000)\n"),
    (MemoryError(), "out of memory: an allocation failed\n"),
], ids=["numpy-message", "no-message"])
def test_out_of_memory_is_one_line_and_exits_1(mock_paths, monkeypatch, capsys, command, error, line):
    """A record too large to cluster (its k x k distances) ends in one line,
    not a traceback; the failed allocation is simulated, never made."""
    from hallguard import pipeline

    def allocate(*args, **kwargs):
        raise error

    monkeypatch.setattr(pipeline, "semantic_entropy_of_record", allocate)
    corpus, _, _ = mock_paths
    assert main([command, "--input", str(corpus)]) == 1
    assert capsys.readouterr().err == line


CLI = [sys.executable, "-m", "hallguard.cli"]


def _block_buffered_env() -> dict:
    """The environment of a fresh hallguard process: src on its path, and
    stdout block-buffered, as it is when PYTHONUNBUFFERED is not set."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(hallguard.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return env


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["chunk", "--input", "doc.txt", "--target-size", "400"], ["--help"]],
                         ids=["chunk", "help"])
def test_a_stdout_that_cannot_be_flushed_is_one_line_and_exits_1(tmp_path, argv):
    """The output fits in stdout's buffer, so nothing fails until the flush."""
    (tmp_path / "doc.txt").write_text("x" * 1000)
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([*CLI, *argv], cwd=tmp_path, stdout=full, stderr=subprocess.PIPE,
                              env=_block_buffered_env())
    assert (proc.returncode, proc.stderr) == (1, b"cannot access file: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("command, code", [
    ("chunk", 1), ("analyze", 1), ("pipeline", 1), ("calibrate", 1), ("mockgen", 1), ("analyze-to-file", 0),
])
def test_a_closed_stdout_is_one_line_and_exits_1(mock_paths, tmp_path, monkeypatch, capsys, command, code):
    """A process started with stdout closed has sys.stdout None: a command
    that writes there fails with one line, one that writes only files runs."""
    corpus, store, _ = mock_paths
    doc, spec = tmp_path / "doc.txt", tmp_path / "spec.json"
    doc.write_text("x" * 1000)
    spec.write_text(json.dumps({"n_records": 5, "seed": 1}))
    argv = {
        "chunk": ["chunk", "--input", str(doc), "--target-size", "400"],
        "analyze": ["analyze", "--input", str(corpus)],
        "pipeline": ["pipeline", "--input", str(corpus), "--store", str(store), "--format", "md"],
        "calibrate": ["calibrate", "--input", str(corpus), "--kind", "temperature",
                      "--output", str(tmp_path / "map.json")],
        "mockgen": ["mockgen", "--spec", str(spec), "--out", str(tmp_path / "mock.jsonl")],
        "analyze-to-file": ["analyze", "--input", str(corpus), "--output", str(tmp_path / "a.json")],
    }[command]
    monkeypatch.setattr(sys, "stdout", None)
    assert main(argv) == code
    assert capsys.readouterr().err == ("cannot access file: stdout is closed\n" if code else "")


def test_a_process_started_with_stdout_closed_exits_1(tmp_path):
    (tmp_path / "doc.txt").write_text("x" * 1000)
    proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *CLI, "chunk", "--input", "doc.txt",
                           "--target-size", "400"], cwd=tmp_path, capture_output=True, env=_block_buffered_env())
    assert (proc.returncode, proc.stderr) == (1, b"cannot access file: stdout is closed\n")


@pytest.mark.parametrize("argv", [
    ["analyze", "--input", "{corpus}", "--store", "{store}"],
    ["analyze", "--input", "{corpus}", "--store", "{store}", "--format", "md"],
    ["pipeline", "--input", "{corpus}", "--store", "{store}", "--format", "md"],
    ["mockgen", "--spec", "{spec}", "--out", "{tmp}/mock.jsonl"],
    ["analyze", "--input", "{corpus}", "--format", "csv"],
    ["analyze", "--input", "{empty}"],
], ids=["analyze-json", "analyze-md", "pipeline-md", "mockgen", "usage-error", "no-records"])
def test_a_fresh_process_writes_what_main_writes(mock_paths, tmp_path, capsys, argv):
    """``python -m hallguard.cli`` with a block-buffered stdout writes the same
    stdout and stderr bytes and exits with the same code as ``main`` in this
    interpreter: the process skips the interpreter's teardown, and nothing
    written is lost."""
    corpus, store, _ = mock_paths
    empty, spec = tmp_path / "empty.jsonl", tmp_path / "spec.json"
    empty.write_text("")
    spec.write_text(json.dumps({"n_records": 5, "seed": 1}))
    argv = [a.format(corpus=corpus, store=store, spec=spec, empty=empty, tmp=tmp_path) for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    proc = subprocess.run([*CLI, *argv], capture_output=True, env=_block_buffered_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out.encode(), captured.err.encode())


def test_entry_runs_atexit_callbacks_and_keeps_the_exit_code(tmp_path):
    """The callback's line has no newline, so it stays in stderr's buffer
    until the flush that follows the callbacks."""
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    script = ("import atexit, sys\n"
              "atexit.register(sys.stderr.write, 'atexit marker')\n"
              "sys.argv = ['hallguard', 'analyze', '--input', sys.argv[1]]\n"
              "from hallguard.cli import entry\n"
              "entry()\n")
    proc = subprocess.run([sys.executable, "-c", script, str(empty)], capture_output=True,
                          env=_block_buffered_env())
    assert (proc.returncode, proc.stderr) == (2, b"no records\natexit marker")


def test_analyze_corrupt_corpus_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "r1"}\n')  # missing prompt/samples
    assert main(["analyze", "--input", str(bad)]) == 2


def test_calibrate_temperature_recovers_generator(mock_paths, tmp_path, capsys):
    corpus, _, _ = mock_paths
    # a bigger clean corpus for a tight fit
    spec = MockSpec(n_records=1200, samples_per_record=2, true_temperature=1.5, seed=13)
    big = tmp_path / "big.jsonl"
    big.write_bytes(write_records(generate_corpus(spec)))
    out = tmp_path / "map.json"
    code = main(["calibrate", "--input", str(big), "--kind", "temperature", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "temperature"
    assert abs(payload["T"] - 1.5) < 0.2
    assert "fitted temperature" in capsys.readouterr().out


def test_calibrate_isotonic_writes_monotone_map(mock_paths, tmp_path):
    corpus, _, _ = mock_paths
    out = tmp_path / "map.json"
    assert main(["calibrate", "--input", str(corpus), "--kind", "isotonic", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "isotonic"
    values = payload["values"]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_calibrate_unknown_kind_is_usage_error(mock_paths):
    corpus, _, _ = mock_paths
    assert main(["calibrate", "--input", str(corpus), "--kind", "platt"]) == 1


def test_calibrate_insufficient_data_exits_2(tmp_path, capsys):
    thin = tmp_path / "thin.jsonl"
    thin.write_text('{"id": "r1", "prompt": "q", "samples": [{"text": "a"}]}\n')
    assert main(["calibrate", "--input", str(thin), "--kind", "temperature"]) == 2
    assert "insufficient" in capsys.readouterr().err


def test_race_command(mock_paths, tmp_path):
    corpus, _, _ = mock_paths
    out = tmp_path / "race.json"
    assert main(["race", "--input", str(corpus), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["records"]) == 40
    assert any(r["race"] is not None for r in payload["records"])


def test_factcheck_command(mock_paths, tmp_path):
    corpus, store, _ = mock_paths
    out = tmp_path / "facts.json"
    assert main(["factcheck", "--input", str(corpus), "--store", str(store), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["mismatches"] > 0
    assert len(payload["records"]) == 40


def test_pipeline_injected_counts_match_labels(mock_paths, tmp_path):
    corpus, store, spec = mock_paths
    out = tmp_path / "ledger.json"
    code = main([
        "pipeline", "--input", str(corpus), "--store", str(store), "--output", str(out),
    ])
    assert code == 0
    ledger = json.loads(out.read_text())
    records = generate_corpus(spec)
    injected = {"model": 0, "context": 0, "data": 0}
    for rec in records:
        if rec.ground_truth.failure_class:
            injected[rec.ground_truth.failure_class] += 1
    assert ledger["summary"]["model"] == injected["model"]
    assert ledger["summary"]["context"] == injected["context"]
    assert ledger["summary"]["data"] == injected["data"]
    assert (tmp_path / "ledger.md").exists()


def test_pipeline_markdown_output_path_is_usage_error(mock_paths, tmp_path, capsys):
    # the markdown ledger goes to --output with a .md suffix, which would
    # overwrite the JSON ledger written there first
    corpus, _, _ = mock_paths
    out = tmp_path / "ledger.md"
    assert main(["pipeline", "--input", str(tmp_path / "missing.jsonl"), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("hallguard pipeline: error: ") and err.count("\n") == 1
    assert main(["pipeline", "--input", str(corpus), "--output", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("name", ["ledger.MD", "ledger.Md"])
def test_pipeline_markdown_output_path_is_usage_error_in_any_case(mock_paths, tmp_path, capsys, name):
    # where case is ignored, the markdown ledger.md would overwrite ledger.MD
    corpus, _, _ = mock_paths
    out = tmp_path / name
    assert main(["pipeline", "--input", str(corpus), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("hallguard pipeline: error: --output must not end in .md")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "store.json"]


def test_pipeline_all_clean_corpus(tmp_path):
    spec = MockSpec(n_records=12, seed=3)
    corpus = tmp_path / "clean.jsonl"
    corpus.write_bytes(write_records(generate_corpus(spec)))
    out = tmp_path / "ledger.json"
    assert main(["pipeline", "--input", str(corpus), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["summary"]["tiered"] == 0


def test_pipeline_routes_disagreeing_answers_in_one_hash_bucket(tmp_path):
    """10.00 and 57.81 shared a bucket of the old hashing embedder, which read
    the record as unanimous and passed it."""
    answers = ["10.00", "10.00", "57.81", "57.81", "57.81"]
    record = {"id": "r1", "prompt": "q?", "samples": [{"text": a, "answer": a} for a in answers]}
    corpus = tmp_path / "one.jsonl"
    corpus.write_text(json.dumps(record) + "\n")
    out = tmp_path / "ledger.json"
    assert main(["pipeline", "--input", str(corpus), "--output", str(out)]) == 0
    [entry] = json.loads(out.read_text())["entries"]
    assert entry["signals"]["consensus_support"] == 0.6
    assert entry["verdict"]["fired_rules"] == ["high_semantic_entropy"]
    assert entry["verdict"]["tier"] == "model"


def test_pipeline_missing_store_warns_and_passes(mock_paths, tmp_path, capsys):
    corpus, _, _ = mock_paths
    out = tmp_path / "ledger.json"
    code = main(["pipeline", "--input", str(corpus), "--output", str(out)])
    assert code == 0
    assert "no fact store" in capsys.readouterr().err
    assert json.loads(out.read_text())["summary"]["data"] == 0


def test_pipeline_bad_rules_file_names_offender(mock_paths, tmp_path, capsys):
    corpus, _, _ = mock_paths
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps([
        {"name": "bogus_rule", "signal": "not_a_signal", "comparator": ">", "threshold": 1, "tier": "model"}
    ]))
    assert main(["pipeline", "--input", str(corpus), "--rules", str(rules)]) == 1
    assert "bogus_rule" in capsys.readouterr().err


def test_pipeline_accepts_custom_rules(mock_paths, tmp_path):
    corpus, store, _ = mock_paths
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps(decoded(default_rules())))
    out = tmp_path / "ledger.json"
    assert main([
        "pipeline", "--input", str(corpus), "--store", str(store),
        "--rules", str(rules), "--output", str(out),
    ]) == 0


def test_mockgen_command_and_seed_override(tmp_path, capsys):
    """The spec's "seed" is the one way to set the seed: mockgen has no --seed."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"n_records": 10, "seed": 99}))
    out = tmp_path / "corpus.jsonl"
    store_out = tmp_path / "store.json"
    argv = ["mockgen", "--spec", str(spec_path), "--out", str(out), "--store-out", str(store_out)]
    assert main(argv) == 0
    expected = write_records(generate_corpus(MockSpec(n_records=10, seed=99)))
    assert out.read_bytes() == expected
    json.loads(store_out.read_text())  # store is valid JSON
    capsys.readouterr()
    assert main([*argv, "--seed", "1"]) == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_chunk_command(tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_text("x" * 1000)
    out = tmp_path / "chunks.json"
    code = main([
        "chunk", "--input", str(doc), "--target-size", "400",
        "--overlap", "0.15", "--output", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert [c["start"] for c in payload["chunks"]] == [0, 340, 680]


@pytest.mark.parametrize(
    "target_size, overlap",
    [("0", "0.15"), ("400", "0.7"), ("400", "nan")],
)
def test_chunk_bad_flag_is_usage_error(tmp_path, capsys, target_size, overlap):
    doc = tmp_path / "doc.txt"
    doc.write_text("x" * 1000)
    argv = ["chunk", "--input", str(doc), "--target-size", target_size, "--overlap", overlap]
    assert main(argv) == 1
    assert capsys.readouterr().err.count("\n") == 1


def test_chunk_target_size_too_large_for_a_float_is_one_chunk(tmp_path, capsys):
    doc = tmp_path / "doc.txt"
    doc.write_text("one two three")
    out = tmp_path / "chunks.json"
    argv = ["chunk", "--input", str(doc), "--target-size", "1" + "0" * 400, "--output", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["chunks"] == [{"index": 0, "start": 0, "end": 13, "text": "one two three"}]


def test_chunk_non_utf8_input_is_data_error(tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_bytes(b"caf\xe9")
    assert main(["chunk", "--input", str(doc), "--target-size", "400"]) == 2


@pytest.mark.parametrize("kind, code, start", [
    ("input", 2, "invalid data: line 2: input is not valid UTF-8: 'utf-8' codec"),
    ("store", 2, "invalid data: fact store is not valid UTF-8: 'utf-8' codec"),
    ("config", 1, "config error: malformed JSON in "),
])
def test_invalid_utf8_is_one_line_error_naming_the_input(mock_paths, tmp_path, capsys, kind, code, start):
    corpus, store, _ = mock_paths
    bad = tmp_path / "bad"
    first, second = corpus.read_bytes().splitlines(keepends=True)[:2]
    bad.write_bytes({"input": first + b"\xff" + second,  # the bad byte opens line 2
                     "store": store.read_bytes()[:-1] + b', "\xff": {"value": 1}}',
                     "config": b'{"min_delta": 0.1, "\xff": 1}'}[kind])
    argv = {"input": ["analyze", "--input", str(bad)],
            "store": ["factcheck", "--input", str(corpus), "--store", str(bad)],
            "config": ["race", "--input", str(corpus), "--config", str(bad)]}[kind]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(start) and "'utf-8' codec" in err and err.count("\n") == 1, err


@pytest.mark.parametrize("case, message", [
    # the codec's position is the column within the line, not the file offset
    ("bad byte opens line 2", "line 2: input is not valid UTF-8: 'utf-8' codec can't decode "
                              "byte 0xff in position 0: invalid start byte"),
    # the first bad line wins, whatever its fault
    ("malformed line 2, bad byte on line 3", "line 2: Expecting property name enclosed in double quotes"),
])
def test_the_first_bad_corpus_line_is_reported(mock_paths, tmp_path, capsys, case, message):
    corpus, _, _ = mock_paths
    first, second, third = corpus.read_bytes().splitlines(keepends=True)[:3]
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes({"bad byte opens line 2": first + b"\xff" + second + third,
                     "malformed line 2, bad byte on line 3": first + b"{not json}\n\xff" + third}[case])
    assert main(["analyze", "--input", str(bad)]) == 2
    assert capsys.readouterr().err == f"invalid data: {message}\n"


CORPUS_COMMANDS = ("analyze", "race", "factcheck", "pipeline")
# the arguments that stand in for --store on the commands that read none
_STORE_ARGS = {"race": [], "calibrate": ["--kind", "temperature"]}


@pytest.mark.parametrize("command, kind, code", [
    (command, kind, code) for command in (*CORPUS_COMMANDS, "calibrate")
    for kind, code in (("valid", 0), ("empty", 2), ("malformed", 2), ("bad store", 2))
    if kind != "bad store" or command not in ("race", "calibrate")  # they read no store
])
def test_corpus_commands_close_their_input(mock_paths, tmp_path, monkeypatch, command, kind, code):
    corpus, store, _ = mock_paths
    first = corpus.read_bytes().splitlines(keepends=True)[0]
    path = tmp_path / "input.jsonl"
    path.write_bytes({"empty": b"", "malformed": first + b"{not json}\n"}.get(kind, corpus.read_bytes()))
    if kind == "bad store":
        store = tmp_path / "bad-store.json"
        store.write_text('{"k": ')
    opened = []
    real_open = builtins.open

    def tracking_open(file, *args, **kwargs):
        fp = real_open(file, *args, **kwargs)
        if str(file) == str(path):
            opened.append(fp)
        return fp

    monkeypatch.setattr(builtins, "open", tracking_open)
    monkeypatch.setattr(io, "open", tracking_open)
    argv = [command, "--input", str(path), "--output", str(tmp_path / "out.json"),
            *_STORE_ARGS.get(command, ["--store", str(store)])]
    assert main(argv) == code
    if kind == "bad store":  # the store is read first, so the corpus is never opened
        assert opened == []
    else:
        assert opened and all(fp.closed for fp in opened)


# The wide-s5 benchmark workload: 5 samples a record, a tenth of the records
# injected into each tier.
WIDE_S5 = {"samples_per_record": 5, "inject_rates": {"model": 0.1, "context": 0.1, "data": 0.1},
           "seed": 7}


@pytest.fixture(scope="module")
def wide_corpora(tmp_path_factory):
    """The first 400 and all 1,600 records of one wide-s5 draw, and its store."""
    spec = MockSpec(n_records=1600, **WIDE_S5)
    d = tmp_path_factory.mktemp("wide")
    lines = write_records(generate_corpus(spec)).splitlines(keepends=True)
    corpora = {}
    for n in (400, 1600):
        corpora[n] = d / f"corpus-{n}.jsonl"
        corpora[n].write_bytes(b"".join(lines[:n]))
    store = d / "store.json"
    store.write_text(json.dumps(fact_store_to_json(generate_fact_store(spec))))
    return corpora, store


@pytest.mark.parametrize("command", ["analyze", "pipeline", "calibrate"])
def test_memory_grows_by_signals_not_records(wide_corpora, tmp_path, command):
    """The traced bytes a command adds per record stay below 4,000 B.

    A command that holds the parsed corpus while it detects adds about
    13,000 B per wide-s5 record (the record objects, plus the file's bytes,
    its text and its lines while they are split); one that reads each
    record as it goes keeps only the record's signals and its report or
    ledger entry, about 900 B (analyze) or 1,400 B (pipeline), or its one
    fit pair, about 400 B (calibrate).  4,000 B lies well clear of both."""
    corpora, store = wide_corpora

    def run(n):
        argv = [command, "--input", str(corpora[n]), "--output", str(tmp_path / "out.json"),
                *_STORE_ARGS.get(command, ["--store", str(store)])]
        assert main(argv) == 0

    def traced_peak(n):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run(n)
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    run(400)  # imports and caches are in place before tracing starts
    per_record = (traced_peak(1600) - traced_peak(400)) / 1200
    assert per_record < 4000, per_record


def test_stored_embeddings_at_any_scale_cluster_alike(tmp_path, capsys):
    """A record's embeddings scaled by 1e200 or 1e-200 give the h_s of the
    unscaled record, with no overflow warning."""
    rng = np.random.default_rng(5)
    directions = rng.normal(size=(3, 8))
    vectors = [directions[0], directions[0] + 0.01 * rng.normal(size=8),
               directions[1], directions[2], directions[1]]
    corpus = tmp_path / "scaled.jsonl"
    corpus.write_text("".join(json.dumps({
        "id": f"x{scale}", "prompt": "p",
        "samples": [{"text": f"t{i}", "embedding": [float(x * scale) for x in v]}
                    for i, v in enumerate(vectors)],
    }) + "\n" for scale in (1.0, 1e200, 1e-200)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", "--input", str(corpus), "--output", str(tmp_path / "a.json")]) == 0
    assert capsys.readouterr().err == ""
    h_s = [row["h_s"] for row in json.loads((tmp_path / "a.json").read_text())["records"]]
    assert h_s == [h_s[0]] * 3 and 0.0 < h_s[0] < math.log(3)


@pytest.mark.parametrize("command, flag", [
    ("analyze", "--store"), ("pipeline", "--store"), ("factcheck", "--store"),
    ("pipeline", "--rules"), ("race", "--config"),
])
def test_an_empty_path_is_read_like_any_other(mock_paths, capsys, command, flag):
    corpus, _, _ = mock_paths
    assert main([command, "--input", str(corpus), flag, ""]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot access file: ") and err.count("\n") == 1


def test_config_file_controls_knobs(mock_paths, tmp_path):
    corpus, _, _ = mock_paths
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cluster_threshold": 0.5, "min_delta": 0.1}))
    assert main(["race", "--input", str(corpus), "--config", str(config)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"cluster_threshold": 5.0}))
    assert main(["race", "--input", str(corpus), "--config", str(bad)]) == 1


@pytest.mark.parametrize(
    "text",
    [
        '{"cluster_threshold": "0.3"}',
        '{"min_delta": -1}',
        '{"fact_rel_tol": NaN}',
        '{"ece_bins": 10}',
        # format and rules are set by flag only; temperatures are not tunable
        '{"format": "md"}',
        '{"rules_path": RULES}',
        '{"temperature_min": 0.5}',
        '{not json',
        '',
    ],
)
def test_bad_config_value_is_one_line_usage_error(mock_paths, tmp_path, capsys, text):
    corpus, _, _ = mock_paths
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps(decoded(default_rules())))
    config = tmp_path / "config.json"
    config.write_text(text.replace("RULES", json.dumps(str(rules))))
    assert main(["race", "--input", str(corpus), "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    [
        '[{"name": "r", "signal": "h_s", "comparator": ">", "threshold": "high", "tier": "model"}]',
        '[{"name": "r",',
        '',
    ],
)
def test_bad_rules_file_is_one_line_usage_error(mock_paths, tmp_path, capsys, text):
    corpus, _, _ = mock_paths
    rules = tmp_path / "rules.json"
    rules.write_text(text)
    assert main(["pipeline", "--input", str(corpus), "--rules", str(rules)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_calibrate_takes_no_config(mock_paths, tmp_path, capsys):
    corpus, _, _ = mock_paths
    config = tmp_path / "config.json"
    config.write_text("{}")
    argv = ["calibrate", "--input", str(corpus), "--kind", "temperature", "--config", str(config)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments: --config" in err and err.count("\n") == 1


def test_no_command_prints_help(capsys):
    assert main([]) == 1


def test_repeated_runs_are_byte_identical(mock_paths, tmp_path):
    corpus, store, _ = mock_paths
    for command in (
        ["analyze", "--input", str(corpus), "--store", str(store)],
        ["pipeline", "--input", str(corpus), "--store", str(store)],
    ):
        outputs = []
        for i in range(2):
            out = tmp_path / f"out{i}.json"
            assert main(command + ["--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def test_module_state_never_changes_an_output(tmp_path):
    """Each command writes the same bytes whether it runs in this interpreter
    before or after the others, which warm the module caches
    (``semantic._cluster_texts``, ``records._field_prefixes``), or in a
    fresh one."""
    spec = MockSpec(n_records=30, samples_per_record=4, true_temperature=1.5,
                    inject_rates={"model": 0.2, "context": 0.2, "data": 0.2}, seed=11)
    records = generate_corpus(spec)
    flagged = next(r for r in records if r.ground_truth.failure_class == "model")
    clean = next(r for r in records if r.ground_truth.failure_class is None)
    corpus = tmp_path / "corpus.jsonl"  # one validated retry among the records
    corpus.write_bytes(write_records([*records, replace(clean, id=flagged.id + RETRY_SUFFIX)]))
    store = tmp_path / "store.json"
    store.write_text(json.dumps(fact_store_to_json(generate_fact_store(spec))))
    commands = {
        "analyze": ["analyze", "--input", str(corpus), "--store", str(store)],
        "race": ["race", "--input", str(corpus)],
        "factcheck": ["factcheck", "--input", str(corpus), "--store", str(store)],
        "pipeline": ["pipeline", "--input", str(corpus), "--store", str(store)],
        "calibrate": ["calibrate", "--input", str(corpus), "--kind", "temperature"],
    }
    src = Path(hallguard.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))

    def run_all(order, tag, fresh=False) -> dict:
        out = tmp_path / tag
        out.mkdir()
        for name in order:
            argv = commands[name] + ["--output", str(out / f"{name}.json")]
            if fresh:
                code = subprocess.run([sys.executable, "-m", "hallguard.cli", *argv],
                                      capture_output=True, env=env).returncode
            else:
                code = main(argv)
            assert code == 0, (tag, name)
        return {path.name: path.read_bytes() for path in out.iterdir()}

    forward = run_all(list(commands), "forward")
    assert sorted(forward) == sorted([f"{name}.json" for name in commands] + ["pipeline.md"])
    assert run_all(reversed(commands), "reversed") == forward
    assert run_all(commands, "fresh", fresh=True) == forward


@pytest.mark.parametrize(
    "samples, path",
    [
        ('{"text": "a", "embedding": [NaN, 1.0]}, {"text": "b", "embedding": [1.0, 0.0]}',
         "samples[0].embedding"),
        ('{"text": "a", "embedding": [1.0, 0.0]}, {"text": "b", "embedding": [1.0]}',
         "samples[1].embedding"),
        ('{"text": "a", "embedding": 3}, {"text": "b"}', "samples[0].embedding"),
        ('{"text": "a", "token_logprobs": [-0.5, NaN]}, {"text": "b"}', "samples[0].token_logprobs"),
        ('{"text": "a", "answer": 4}, {"text": "b", "answer": "b"}', "samples[0].answer"),
        ('{"text": "a", "answer": "a", "reasoning": ["r"]}, {"text": "b", "answer": "b"}',
         "samples[0].reasoning"),
        ('{"text": "a", "token_dists": [{"labels": [["x"], "y"], "probs": [0.5, 0.5]}]}, {"text": "b"}',
         "samples[0].token_dists[0].token_labels"),
        ('{"text": "a", "token_dists": [{"labels": ["x", "y"], "probs": ["s", 1.0]}]}, {"text": "b"}',
         "samples[0].token_dists[0].probs[0]"),
        # closes the samples list to add a claim after it
        ('{"text": "a"}, {"text": "b"}], "reference_claims": [{"key": ["k"], "value": 1.0}',
         "reference_claims[0].key"),
        ('{"text": "a", "embedding": [1.0, 0.0]}, {"text": "b"}', "samples[1].embedding"),
        ('{"text": "x", "embedding": []}, {"text": "x", "embedding": []}',
         "samples[0].embedding: must be nonempty"),
        ('{"text": "a", "token_dists": [{"labels": [], "probs": []}]}, {"text": "b"}',
         "samples[0].token_dists[0].probs: must be nonempty"),
        *(('{"text": "a"}, {"text": "b"}], "reference_claims": [{"key": "k", "value": %s}' % value,
            "reference_claims[0].value: must be a finite number or a string")
          for value in ("Infinity", "null", "true", "[1.0]", '{"a": 1}', "[" * 500 + "]" * 500)),
    ],
    ids=["nan-embedding", "embedding-lengths", "embedding-not-list", "nan-logprob",
         "int-answer", "list-reasoning", "list-token-label", "string-prob", "list-claim-key",
         "partial-embedding", "empty-embedding", "empty-token-dist", "infinite-claim-value", "null-claim-value",
         "bool-claim-value", "list-claim-value", "object-claim-value", "deep-list-claim-value"],
)
def test_bad_sample_field_is_one_line_data_error(tmp_path, capsys, samples, path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "r1", "prompt": "q", "samples": [' + samples + "]}\n")
    assert main(["analyze", "--input", str(corpus)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid data: record 'r1': " + path) and err.count("\n") == 1


@pytest.mark.parametrize("kind, code", [
    ("input", 2), ("config", 1), ("rules", 1), ("spec", 1), ("store", 2),
])
def test_deeply_nested_json_file_is_one_line_error(mock_paths, tmp_path, capsys, kind, code):
    corpus, _, _ = mock_paths
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "\n")
    argv = {
        "input": ["analyze", "--input", str(deep)],
        "config": ["pipeline", "--input", str(corpus), "--config", str(deep)],
        "rules": ["pipeline", "--input", str(corpus), "--rules", str(deep)],
        "spec": ["mockgen", "--spec", str(deep), "--out", str(tmp_path / "mock.jsonl")],
        "store": ["factcheck", "--input", str(corpus), "--store", str(deep)],
    }[kind]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "nested too deeply" in err, err


_SWEEP_RECORD = {
    "id": "r1",
    "prompt": "what will the bank do?",
    "samples": [
        {"text": "it will raise (Confidence: 0.7)",
         "token_dists": [{"labels": ["raise", "cut"], "probs": [0.7, 0.3]}],
         "token_logprobs": [-0.36, -1.2], "embedding": [1.0, 0.0],
         "reasoning": "inflation is up", "answer": "raise", "self_confidence": 0.7},
        {"text": "it will cut",
         "token_dists": [{"labels": ["raise", "cut"], "probs": [0.4, 0.6]}],
         "token_logprobs": [-0.51, -0.9], "embedding": [0.0, 1.0],
         "reasoning": "growth is down", "answer": "cut", "self_confidence": 0.6},
    ],
    "reference_claims": [{"key": "rate", "value": 5.0, "unit": "%"}],
    "ground_truth": {"is_hallucinated": True, "failure_class": "data", "correct_answer": "hold"},
}
_SWEEP_VALUES = ("s", 3, 2.5, True, None, [1], [[1]], ["s"], {"a": 1}, float("nan"),
                 int("9" * 400))  # no float holds it


def _field_paths(obj, path=()):
    """Every key and index path below obj, each parent before its children."""
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        return
    for key, value in children:
        yield path + (key,)
        yield from _field_paths(value, path + (key,))


def _replaced(obj, path, value):
    obj = copy.deepcopy(obj)
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_field_type_sweep_is_value_or_one_line_error(tmp_path, capsys):
    """Every field of a full record, swapped for a value of each JSON type,
    NaN or an integer too large for a float, either analyzes to a strict-JSON
    report or exits 2 with at most one stderr line."""
    store = tmp_path / "store.json"
    store.write_text(json.dumps({"rate": {"value": 5.0, "unit": "%"}}))
    corpus = tmp_path / "corpus.jsonl"
    report = tmp_path / "report.json"
    command = ["analyze", "--input", str(corpus), "--store", str(store), "--output", str(report)]
    corpus.write_text(json.dumps(_SWEEP_RECORD) + "\n")
    assert main(command) == 0
    failures = []
    for path in _field_paths(_SWEEP_RECORD):
        for value in _SWEEP_VALUES:
            corpus.write_text(json.dumps(_replaced(_SWEEP_RECORD, path, value)) + "\n")
            try:
                code = main(command)
                if code == 0:
                    json.loads(report.read_text(), parse_constant=_reject_constant)
            except Exception as exc:  # what the console script would print as a traceback
                code = repr(exc)
            err = capsys.readouterr().err
            if code not in (0, 2) or err.count("\n") > 1:
                failures.append((path, value, code, err))
    assert failures == []


_ISOTONIC = fit_isotonic([(0.2, 0), (0.4, 1), (0.8, 1)])

# each public float parameter, as a call that passes x to it with every other
# argument valid
_NON_FINITE_SWEEP = {
    "PipelineConfig.cluster_threshold": lambda x: PipelineConfig(cluster_threshold=x),
    "PipelineConfig.fact_rel_tol": lambda x: PipelineConfig(fact_rel_tol=x),
    "PipelineConfig.fact_abs_tol": lambda x: PipelineConfig(fact_abs_tol=x),
    "PipelineConfig.min_delta": lambda x: PipelineConfig(min_delta=x),
    "RouterRule.threshold": lambda x: RouterRule("r", "h_s", ">", x, "model"),
    "MockSpec.true_temperature": lambda x: MockSpec(n_records=3, true_temperature=x),
    "MockSpec.inject_rates": lambda x: MockSpec(n_records=3, inject_rates={"model": x}),
    "SamplingPolicy.temperature": lambda x: SamplingPolicy(temperature=x),
    "SamplingPolicy.top_p": lambda x: SamplingPolicy(top_p=x),
    "check_claims.rel_tol": lambda x: check_claims([], FactStore({"k": FactEntry(1.0)}), rel_tol=x),
    "check_claims.abs_tol": lambda x: check_claims([], FactStore({"k": FactEntry(1.0)}), abs_tol=x),
    "fit_temperature.logit": lambda x: fit_temperature([[1.0, 0.0], [0.0, x]], [0, 1]),
    "fit_isotonic.score": lambda x: fit_isotonic([(0.2, 0), (x, 1)]),
    "fit_isotonic.outcome": lambda x: fit_isotonic([(0.2, 0), (0.6, x)]),
    "apply_isotonic.score": lambda x: apply_isotonic(_ISOTONIC, x),
    "compute_ece.confidence": lambda x: compute_ece([(0.8, True), (x, False)]),
    "apply_temperature.T": lambda x: apply_temperature([1.0, 2.0], x),
    "apply_temperature.logit": lambda x: apply_temperature([1.0, x], 1.0).tolist(),
    "chunk_document.overlap_frac": lambda x: chunk_document("one two three four", 4, x),
    "cluster_embeddings.threshold": lambda x: cluster_embeddings([[1.0, 0.0], [0.0, 1.0]], x),
    "cluster_texts.threshold": lambda x: cluster_texts(["a b", "b c"], x),
    "entropy_nats.entry": lambda x: entropy_nats([0.5, x]),
}
# what an infinity returns where a docstring states that limit
_INFINITY_LIMITS = {
    # apply_isotonic: "scores outside the fitted range, -inf and inf too, clamp
    # to the nearest end value"
    ("apply_isotonic.score", -math.inf): _ISOTONIC.values[0],
    ("apply_isotonic.score", math.inf): _ISOTONIC.values[-1],
    # apply_temperature: "a -inf logit beside finite ones gets probability 0";
    # test_calibration.py::test_a_minus_infinity_logit_keeps_the_finite_arithmetic
    # covers more such rows
    ("apply_temperature.logit", -math.inf): [1.0, 0.0],
}


def test_non_finite_float_sweep_raises_or_returns_the_documented_limit():
    """NaN, inf and -inf in each float parameter of _NON_FINITE_SWEEP raise a
    ValueError with a message, or return the limit a docstring states; no
    other number comes out."""
    failures = []
    for name, call in _NON_FINITE_SWEEP.items():
        for x in (math.nan, math.inf, -math.inf):
            try:
                value = call(x)
            except ValueError as exc:
                if not str(exc) or (name, x) in _INFINITY_LIMITS:
                    failures.append((name, x, repr(exc)))
                continue
            if (name, x) not in _INFINITY_LIMITS or value != _INFINITY_LIMITS[name, x]:
                failures.append((name, x, value))
    assert failures == []


_SWEEP_CONFIG = {"cluster_threshold": 0.35, "fact_rel_tol": 0.01, "fact_abs_tol": 0.0, "min_delta": 0.05}


_SWEEP_SPEC = {"n_records": 3, "samples_per_record": 3, "true_temperature": 1.5,
               "inject_rates": {"model": 0.2, "context": 0.2, "data": 0.2},
               "vocab_size": 5, "seed": 3}


def test_config_and_rules_sweep_is_value_or_one_line_error(tmp_path, capsys):
    """Every key of a full config file, a full rules file and a full mock
    spec, swapped for a value of each JSON type, and each whole file replaced
    by such a value, a malformed file or an empty one, either runs its
    command or exits 1 with one stderr line."""
    store = tmp_path / "store.json"
    store.write_text(json.dumps({"rate": {"value": 5.0, "unit": "%"}}))
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(_SWEEP_RECORD) + "\n")
    config, rules, spec = tmp_path / "config.json", tmp_path / "rules.json", tmp_path / "spec.json"
    pipeline = ["pipeline", "--input", str(corpus), "--store", str(store),
                "--output", str(tmp_path / "ledger.json")]
    mockgen = ["mockgen", "--out", str(tmp_path / "mock.jsonl"),
               "--store-out", str(tmp_path / "mock-store.json")]
    failures = []
    for command, path, full in ((pipeline + ["--config", str(config)], config, _SWEEP_CONFIG),
                                (pipeline + ["--rules", str(rules)], rules, decoded(default_rules())),
                                (mockgen + ["--spec", str(spec)], spec, _SWEEP_SPEC)):
        texts = [json.dumps(full), "{not json", ""]
        texts += [json.dumps(value) for value in _SWEEP_VALUES]
        texts += [json.dumps(_replaced(full, p, value))
                  for p in _field_paths(full) for value in _SWEEP_VALUES]
        for text in texts:
            path.write_text(text)
            try:
                code = main(command)
            except Exception as exc:  # what the console script would print as a traceback
                code = repr(exc)
            err = capsys.readouterr().err
            if code not in (0, 1) or (code == 1 and err.count("\n") != 1) or "Traceback" in err:
                failures.append((command[0], text, code, err))
    assert failures == []
