"""Command-line surface: analyze, calibrate, race, factcheck, pipeline, mockgen, chunk.

Each option has one way to be set: a --config file holds only the numbers
detection and validation read (cluster_threshold, fact_rel_tol, fact_abs_tol,
min_delta); the report format and the router rules are set by --format and
pipeline --rules.

Exit codes are a stable contract: 0 success, 1 usage or environment error
(bad flags, unreadable or unwritable files, invalid or malformed config,
rules and mock spec files), 2 data or validation error (malformed corpus,
empty input, insufficient fit data).
"""

from __future__ import annotations

import argparse
import atexit
import itertools
import os
import sys
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from pathlib import Path

# each command imports what it runs, so --help, a usage error and chunk load
# no numpy, and analyze, pipeline, race and factcheck load no calibration,
# mitigation or mockgen
from .errors import CapabilityError, ConfigError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    """argparse that honors the exit-code contract (usage errors -> 1)."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _NoRecords(Exception):
    """An empty corpus; main prints the "no records" line."""


@contextmanager
def _read_inputs(args) -> Iterator[tuple[PipelineConfig, Iterator[GenerationRecord], FactStore | None]]:
    """Open the inputs of a corpus command and yield the config, the corpus
    as records still to be read, and the store.

    The inputs are read in flag order, and the first bad one is the one
    reported: --config, pipeline --rules, --store, then the corpus, which is
    opened only then and read up to its first record (an empty one raises
    _NoRecords).  The corpus file stays open for the ``with`` body, which
    reads the rest of the records as it goes, and is closed on every path.
    A flag that is given is read, an empty path too."""
    from dataclasses import replace

    from .grounding import load_fact_store
    from .pipeline import load_config, load_rules
    from .records import iter_records, read_json_file

    cfg = load_config(args.config)
    rules, store_path = getattr(args, "rules", None), getattr(args, "store", None)
    if rules is not None:
        cfg = replace(cfg, rules=load_rules(read_json_file(rules)))
    store = None if store_path is None else load_fact_store(Path(store_path).read_bytes())
    with open(args.input, "rb") as fp:
        records = iter_records(fp)
        first = next(records, None)
        if first is None:
            raise _NoRecords
        yield cfg, itertools.chain((first,), records), store


def _stdout():
    """sys.stdout, which is None in a process started with it closed."""
    if sys.stdout is None:
        raise OSError("stdout is closed")
    return sys.stdout


def _emit(write, report, output: str | None) -> None:
    """Write a report with write(report, fp) to output, or to stdout when it
    is None; the file is opened only now."""
    if output is None:
        write(report, _stdout())
    else:
        with open(output, "w", encoding="utf-8") as fp:
            write(report, fp)


def _write_text(text: str, fp) -> None:
    fp.write(text)


# ---------------------------------------------------------------------------
# Commands


def cmd_analyze(args) -> int:
    from .pipeline import detect_records, signal_value
    from .records import write_json

    with _read_inputs(args) as (cfg, records, store):
        signals = list(detect_records(records, cfg, store))

    def _present(signal_id):
        return [v for v in (signal_value(s, signal_id) for s in signals) if v is not None]

    h_p = _present("h_p_mean")
    h_s = _present("h_s")
    aggregates = {
        "n_records": len(signals),
        "h_p_mean_avg": sum(h_p) / len(h_p) if h_p else None,
        "h_s_avg": sum(h_s) / len(h_s) if h_s else None,
        "race_flagged": _present("race_flag").count(1.0),
        "fact_mismatch_records": sum(1 for n in _present("fact_mismatches") if n > 0),
    }
    if args.format == "md":
        _emit(_write_text, _analyze_markdown(signals, aggregates), args.output)
    else:
        _emit(write_json, {"records": signals, "aggregates": aggregates}, args.output)
    return EXIT_OK


def _analyze_markdown(signals: list, agg: dict) -> str:
    from .pipeline import signal_value

    lines = [
        "# Detection report",
        "",
        f"Records: {agg['n_records']}",
        f"Mean token entropy (nats): {_fmt(agg['h_p_mean_avg'])}",
        f"Mean semantic entropy (nats): {_fmt(agg['h_s_avg'])}",
        f"Reasoning-divergence flags: {agg['race_flagged']}",
        f"Records with fact mismatches: {agg['fact_mismatch_records']}",
        "",
        "| record | h_p_mean | h_s | consensus | self_conf | race flag | fact mismatches |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    for s in signals:
        cells = [_fmt(signal_value(s, k)) for k in ("h_p_mean", "h_s", "consensus_support", "self_confidence")]
        flag = signal_value(s, "race_flag")
        mismatches = signal_value(s, "fact_mismatches")
        cells.append("-" if flag is None else str(flag == 1.0))
        cells.append("-" if mismatches is None else str(int(mismatches)))
        lines.append(f"| {s.record_id} | {' | '.join(cells)} |")
    lines.append("")
    return "\n".join(lines)


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.4f}"


def cmd_calibrate(args) -> int:
    from .calibration import (
        apply_isotonic,
        calibration_map_to_json,
        fit_isotonic,
        fit_temperature,
        logit_label_pairs,
        score_outcome_pairs,
    )
    from .records import iter_records, write_json

    # streamed: of each labeled record only its one fit pair is kept
    with Path(args.input).open("rb") as fp:
        if args.kind == "temperature":
            logit_sets, labels = logit_label_pairs(iter_records(fp))
            if len(logit_sets) < 2:
                print("insufficient data: need >= 2 labeled records with full distributions", file=sys.stderr)
                return EXIT_DATA
            model = fit_temperature(logit_sets, labels)
            print(f"fitted temperature T={model.T:.4f} nll={model.fit_nll:.5f} n={model.n_fit}",
                  file=_stdout())
        else:  # isotonic
            pairs = score_outcome_pairs(iter_records(fp))
            if not pairs:
                print("insufficient data: need labeled records with full distributions", file=sys.stderr)
                return EXIT_DATA
            model = fit_isotonic(pairs)
            sse = sum((float(y) - apply_isotonic(model, s)) ** 2 for s, y in pairs)
            print(f"fitted isotonic map with {len(model.breakpoints)} breakpoints sse={sse:.5f} n={len(pairs)}",
                  file=_stdout())
    _emit(write_json, calibration_map_to_json(model), args.output)
    return EXIT_OK


def cmd_race(args) -> int:
    from .consistency import race_metrics
    from .records import write_json

    rows = []
    with _read_inputs(args) as (cfg, records, _):
        for rec in records:
            try:
                report = race_metrics(rec, cluster_threshold=cfg.cluster_threshold)
                rows.append({"record_id": rec.id, "race": report})
            except CapabilityError as exc:
                rows.append({"record_id": rec.id, "race": None, "skipped": str(exc)})
    _emit(write_json, {"records": rows}, args.output)
    return EXIT_OK


def cmd_factcheck(args) -> int:
    from .grounding import STATUS_MISMATCH, check_claims
    from .records import write_json

    rows = []
    mismatches = 0
    with _read_inputs(args) as (cfg, records, store):
        for rec in records:
            verdicts = check_claims(rec.reference_claims or [], store, cfg.fact_rel_tol, cfg.fact_abs_tol)
            mismatches += sum(1 for v in verdicts if v.status == STATUS_MISMATCH)
            rows.append({"record_id": rec.id, "verdicts": verdicts})
    _emit(write_json, {"records": rows, "mismatches": mismatches}, args.output)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    # .MD too: on a case-insensitive file system it names the ledger.md written beside it
    if args.output is not None and Path(args.output).suffix.lower() == ".md":
        print("hallguard pipeline: error: --output must not end in .md; the markdown ledger "
              "is written next to it with that suffix", file=sys.stderr)
        return EXIT_USAGE
    from .pipeline import ledger_to_json, ledger_to_markdown, run_cycle

    with _read_inputs(args) as (cfg, records, store):
        ledger = run_cycle(records, cfg, store)
    # only once the whole corpus has been read, so a bad one prints no warning
    if store is None and any(r.signal == "fact_mismatches" for r in cfg.rules):
        print("warning: no fact store supplied; data-tier fact rules will not fire", file=sys.stderr)
    if args.output is not None:
        _emit(ledger_to_json, ledger, args.output)
        _emit(_write_text, ledger_to_markdown(ledger), str(Path(args.output).with_suffix(".md")))
    elif args.format == "md":
        _emit(_write_text, ledger_to_markdown(ledger), None)
    else:
        _emit(ledger_to_json, ledger, None)
    return EXIT_OK


def cmd_mockgen(args) -> int:
    from .grounding import fact_store_to_json
    from .mockgen import generate_corpus, generate_fact_store, mock_spec_from_json
    from .records import read_json_file, write_json, write_records

    spec = mock_spec_from_json(read_json_file(args.spec))
    records = generate_corpus(spec)
    Path(args.out).write_bytes(write_records(records))
    if args.store_out:
        store = generate_fact_store(spec)
        _emit(write_json, fact_store_to_json(store), args.store_out)
    print(f"wrote {len(records)} records to {args.out}", file=_stdout())
    return EXIT_OK


def cmd_chunk(args) -> int:
    from .mitigation import DEFAULT_CHUNK_OVERLAP, chunk_document
    from .records import write_json

    overlap = DEFAULT_CHUNK_OVERLAP if args.overlap is None else args.overlap
    if args.target_size < 1 or not 0.0 <= overlap < 0.5:
        print("hallguard chunk: error: need --target-size >= 1 and --overlap in [0, 0.5)",
              file=sys.stderr)
        return EXIT_USAGE
    text = Path(args.input).read_text(encoding="utf-8")
    chunks = chunk_document(text, args.target_size, overlap)
    payload = {
        "chunks": [
            {"index": c.index, "start": c.start_offset, "end": c.end_offset, "text": c.text}
            for c in chunks
        ]
    }
    _emit(write_json, payload, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="hallguard", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p, config=True):
        if config:
            p.add_argument("--config", help="JSON run-config file")
        p.add_argument("--output", help="write the report here instead of stdout")

    p = sub.add_parser("analyze", help="per-record detection signals and corpus aggregates")
    p.add_argument("--input", required=True, help="corpus JSONL")
    p.add_argument("--store", help="optional fact store JSON for claim checking")
    p.add_argument("--format", choices=("json", "md"), default="json")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("calibrate", help="fit a calibration map on a labeled corpus")
    p.add_argument("--input", required=True, help="corpus JSONL with ground-truth labels")
    p.add_argument("--kind", required=True, choices=("temperature", "isotonic"))
    common(p, config=False)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("race", help="reasoning/answer consistency report per record")
    p.add_argument("--input", required=True, help="corpus JSONL")
    common(p)
    p.set_defaults(func=cmd_race)

    p = sub.add_parser("factcheck", help="check structured claims against a fact store")
    p.add_argument("--input", required=True, help="corpus JSONL")
    p.add_argument("--store", required=True, help="fact store JSON")
    common(p)
    p.set_defaults(func=cmd_factcheck)

    p = sub.add_parser("pipeline", help="run the detect/route/validate cycle over a corpus")
    p.add_argument("--input", required=True, help="corpus JSONL")
    p.add_argument("--rules", help="router rules JSON (defaults ship in-package)")
    p.add_argument("--store", help="fact store JSON")
    p.add_argument("--format", choices=("json", "md"), default="json")
    common(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("mockgen", help="generate a seeded labeled corpus and fact store")
    p.add_argument("--spec", required=True, help="mock spec JSON")
    p.add_argument("--out", required=True, help="corpus JSONL output path")
    p.add_argument("--store-out", help="fact store JSON output path")
    p.set_defaults(func=cmd_mockgen)

    p = sub.add_parser("chunk", help="split a document into overlapping chunks")
    p.add_argument("--input", required=True, help="UTF-8 text file")
    p.add_argument("--target-size", type=int, required=True, help="chunk size in characters")
    p.add_argument("--overlap", type=float, help="overlap fraction in [0, 0.5)")
    p.add_argument("--output", help="write chunk JSON here instead of stdout")
    p.set_defaults(func=cmd_chunk)

    return parser


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits for usage errors and --help
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if not getattr(args, "func", None):
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    return args.func(args)


def main(argv=None) -> int:
    """Run one command and return its exit code.  Stdout is flushed before
    the code is chosen, so a stdout that cannot be written, or is closed
    (sys.stdout None), ends in one ``cannot access file:`` line and 1."""
    try:
        try:
            return _run(argv)
        finally:  # on every path, so that a failed write to stdout is reported here
            if sys.stdout is not None:
                sys.stdout.flush()
    except _NoRecords:
        print("no records", file=sys.stderr)
        return EXIT_DATA
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"cannot access file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"invalid data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # e.g. the k x k distances of a record with very many distinct vectors
        print(f"out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    """The ``hallguard`` console script and ``python -m hallguard.cli``: the
    process exits right after main has flushed its outputs.  The ``atexit``
    callbacks run, but the interpreter's teardown (module clean-up and the
    last garbage collections) is skipped, so the ``__del__`` finalizers of
    objects still alive never run and no command may rely on them."""
    code = main()
    atexit._run_exitfuncs()  # e.g. coverage's data file
    if sys.stderr is not None:  # after the callbacks, which may write there too
        with suppress(OSError):  # a message about it would have nowhere to go
            sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
