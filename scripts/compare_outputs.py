#!/usr/bin/env python3
"""Run the same CLI commands under two source trees and compare every output.

Usage:
    python3 scripts/compare_outputs.py PARENT_SRC CHANGE_SRC [--seed N]

PARENT_SRC and CHANGE_SRC are directories that hold the ``hallguard``
package (a checkout's ``src``).  The three benchmark corpora are built from
the seed with ``perfbench/workloads.py`` under PARENT_SRC.  On each corpus,
both trees run analyze (json and md), pipeline (to a file, md to stdout, json
to stdout), race, factcheck, calibrate (temperature and isotonic), mockgen,
and chunk on a text file of the corpus prompts, then analyze and pipeline
again on a tagged copy of the corpus, which adds one unknown key to every
record, sample, token distribution, claim and ground truth.  Then analyze,
pipeline, race and factcheck run on an escaped copy, whose record ids, claim
keys and store keys start with characters that JSON escapes (a quote, a
backslash, a tab and U+2028) and a non-ASCII letter.  On a corpus whose
samples carry stored embeddings, analyze and pipeline also run on a signs
copy, in which every embedding entry is replaced by its sign (-1.0, 0.0 or
1.0), so that records hold duplicate vectors and tied distances.  Last come
the error paths: analyze, pipeline, race and factcheck on an empty corpus, on the
corpus's first two lines with the second cut in half, and on its first record
with no samples, and analyze, pipeline and factcheck with the store cut in
half.  analyze, race, factcheck and pipeline run again with a --config that
moves every number off its default, and pipeline with a --rules file that
reverses and retunes the default rules.  Six runs check the order in which
inputs are read, --config, pipeline --rules, --store, then the corpus: pipeline
with a bad rules file on an empty corpus, analyze on an empty corpus with a
bad store, race with a bad config on an empty corpus, and analyze, pipeline
and factcheck on the malformed corpus with the store cut in half, where the
store error must be the one reported (and pipeline on the malformed corpus
with no store, above, must print no warning).  Three bad files each hold two
faults, which the types that hold the values find in a set order: pipeline
with a rules file whose second rule has a NaN threshold and tier "vendor",
race with a config whose min_delta is -1 and cluster_threshold a string, and
mockgen on a spec with n_records 0 and true_temperature 0.0.  calibrate (both
kinds) runs on the empty, malformed and invalid corpora too, and mockgen on
three more specs drawn from the workload's: one that injects every record
(model 0.3, context 0.3, data 0.4) at true_temperature 2.5 with vocab_size
4, one with 2 samples per record, and one with vocab_size 11 at
true_temperature 0.7, past the length (8) at which numpy's row sums turn
pairwise.
analyze also runs on five corpora of one record each, the first record with
one fault (FAULTS), so that both trees must print the same message.  Last
come the usage paths, most of which load no numpy: --help, no command,
analyze with no --input, chunk with an overlap out of range, mockgen on a
spec it rejects, and pipeline with an --output that ends in .md.
Beside the benchmark corpora, the script builds one seeded stress corpus of
its own (``stress_records``) and runs analyze (json) and pipeline on it.  Its
records make clustering turn on what the mock corpora never reach: texts over
a small shared vocabulary, some at a distance within 1e-3 of the 0.35
threshold and some at exactly 0.35; exact ties; answers that share a bucket
of a 256-bucket FNV-1a hash; numeric format variants; records of 100 to 200
distinct samples; sign-quantized stored embeddings; the two texts at
exactly 0.35 carried by many samples each; and records whose samples all
share one text, or two texts that differ only in case or spacing.  The
stress corpus spans several of the blocks in which detection screens records.
Each command's output files, stdout, stderr and exit code are compared byte
for byte.  Each file that differs is printed, then the id of each stress
record whose analyze or pipeline entry differs, and the exit code is 1 when
any file does.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> CLI arguments; {in}, {tagged}, {escaped}, {signs}, {store},
# {escaped_store}, {spec}, {injected_spec}, {two_sample_spec}, {wide_vocab_spec},
# {text}, {config}, {rules} and the bad inputs {empty}, {malformed}, {invalid},
# {bad_store}, {bad_config}, {bad_rules}, {bad_rule_fields}, {bad_config_fields},
# {bad_spec_fields} and {fault_<name>} name the input files and {out} the
# directory the outputs go to
COMMANDS = {
    "analyze-json": "analyze --input {in} --store {store} --output {out}/analyze.json",
    "analyze-md": "analyze --input {in} --store {store} --format md --output {out}/analyze.md",
    "pipeline-file": "pipeline --input {in} --store {store} --output {out}/ledger.json",
    "pipeline-md": "pipeline --input {in} --store {store} --format md",
    "pipeline-stdout": "pipeline --input {in} --store {store}",
    "race": "race --input {in} --output {out}/race.json",
    "factcheck": "factcheck --input {in} --store {store} --output {out}/factcheck.json",
    "calibrate-temperature": "calibrate --input {in} --kind temperature --output {out}/temperature.json",
    "calibrate-isotonic": "calibrate --input {in} --kind isotonic --output {out}/isotonic.json",
    "mockgen": "mockgen --spec {spec} --out {out}/mock.jsonl --store-out {out}/mock-store.json",
    "chunk": "chunk --input {text} --target-size 200 --output {out}/chunks.json",
    "analyze-tagged": "analyze --input {tagged} --store {store} --output {out}/analyze-tagged.json",
    "pipeline-tagged": "pipeline --input {tagged} --store {store} --output {out}/ledger-tagged.json",
    "analyze-escaped": "analyze --input {escaped} --store {escaped_store} --output {out}/analyze-escaped.json",
    "pipeline-escaped": "pipeline --input {escaped} --store {escaped_store} --output {out}/ledger-escaped.json",
    "race-escaped": "race --input {escaped} --output {out}/race-escaped.json",
    "factcheck-escaped": "factcheck --input {escaped} --store {escaped_store} --output {out}/factcheck-escaped.json",
    # run only on a corpus with stored embeddings, the one that has a signs copy
    "analyze-signs": "analyze --input {signs} --store {store} --output {out}/analyze-signs.json",
    "pipeline-signs": "pipeline --input {signs} --store {store} --output {out}/ledger-signs.json",
}
for bad in ("empty", "malformed", "invalid"):
    for command in ("analyze", "pipeline", "race"):
        COMMANDS[f"{command}-{bad}"] = f"{command} --input {{{bad}}}"
    COMMANDS[f"factcheck-{bad}"] = f"factcheck --input {{{bad}}} --store {{store}}"
for command in ("analyze", "pipeline", "factcheck"):
    COMMANDS[f"{command}-bad-store"] = f"{command} --input {{in}} --store {{bad_store}}"
COMMANDS.update({
    "analyze-config": "analyze --input {in} --store {store} --config {config} --output {out}/analyze-config.json",
    "race-config": "race --input {in} --config {config} --output {out}/race-config.json",
    "factcheck-config": "factcheck --input {in} --store {store} --config {config} --output {out}/factcheck-config.json",
    "pipeline-config": "pipeline --input {in} --store {store} --config {config} --output {out}/ledger-config.json",
    "pipeline-rules": "pipeline --input {in} --store {store} --rules {rules} --output {out}/ledger-rules.json",
    # the first bad input in read order is the one reported
    "pipeline-bad-rules-empty": "pipeline --input {empty} --rules {bad_rules}",
    "analyze-empty-bad-store": "analyze --input {empty} --store {bad_store}",
    "race-bad-config-empty": "race --input {empty} --config {bad_config}",
    # two faults in one file: the first that its type checks is the one reported
    "pipeline-bad-rule-fields": "pipeline --input {in} --rules {bad_rule_fields}",
    "race-bad-config-fields": "race --input {in} --config {bad_config_fields}",
    "mockgen-bad-spec-fields": "mockgen --spec {bad_spec_fields} --out {out}/mock-bad-fields.jsonl",
})
# the store is read before the corpus, so a bad store beats a bad corpus line
for command in ("analyze", "pipeline", "factcheck"):
    COMMANDS[f"{command}-malformed-bad-store"] = f"{command} --input {{malformed}} --store {{bad_store}}"
for bad in ("empty", "malformed", "invalid"):
    for kind in ("temperature", "isotonic"):
        COMMANDS[f"calibrate-{kind}-{bad}"] = f"calibrate --input {{{bad}}} --kind {kind}"
for spec in ("injected", "two_sample", "wide_vocab"):
    COMMANDS[f"mockgen-{spec}"] = (f"mockgen --spec {{{spec}_spec}} --out {{out}}/mock-{spec}.jsonl "
                                   f"--store-out {{out}}/mock-{spec}-store.json")

# one fault each, made from a corpus's first record
FAULTS = ("sample_string", "probs_halved", "claim_without_value", "label_without_is_hallucinated",
          "dist_without_probs")
for fault in FAULTS:
    COMMANDS[f"analyze-fault-{fault}"] = f"analyze --input {{fault_{fault}}}"
COMMANDS.update({
    "help": "--help",
    "no-command": "",
    "analyze-no-input": "analyze",
    "chunk-bad-overlap": "chunk --input {text} --target-size 200 --overlap 0.7",
    "mockgen-bad-spec": "mockgen --spec {bad_config} --out {out}/mock-bad.jsonl",
    "pipeline-md-output": "pipeline --input {in} --output {out}/x.md",
})

# the only commands run on the stress corpus
STRESS = "stress"
STRESS_COMMANDS = {
    "analyze-json": "analyze --input {in} --output {out}/analyze.json",
    "pipeline-file": "pipeline --input {in} --output {out}/ledger.json",
}

# every number off its default, so each reaches the outputs it can change
CONFIG = {"cluster_threshold": 0.9, "fact_rel_tol": 0.02, "fact_abs_tol": 6.0, "min_delta": 0.2}
# mock specs beside the workload's own: every record injected, at
# true_temperature 2.5 with the smallest vocabulary a spec admits, the
# fewest samples a spec admits, and a vocabulary whose row sums are pairwise
INJECTED_SPEC = {"inject_rates": {"model": 0.3, "context": 0.3, "data": 0.4},
                 "true_temperature": 2.5, "vocab_size": 4}
TWO_SAMPLE_SPEC = {"samples_per_record": 2}
WIDE_VOCAB_SPEC = {"vocab_size": 11, "true_temperature": 0.7}
UNKNOWN_KEY = {"x_unknown": {"note": "carries no meaning", "n": [1, 2.5]}}
ESCAPED_PREFIX = '"\\\u00e9\t\u2028'


def tagged(record: dict) -> dict:
    """The record with UNKNOWN_KEY added to every object the corpus format
    defines."""
    parts = [record, *record["samples"], *(record.get("reference_claims") or [])]
    parts += [d for s in record["samples"] for d in s.get("token_dists") or []]
    if record.get("ground_truth") is not None:
        parts.append(record["ground_truth"])
    for part in parts:
        part.update(UNKNOWN_KEY)
    return record


def escaped(record: dict) -> dict:
    """The record with ESCAPED_PREFIX before its id (a ``.retry`` id keeps its
    suffix and still names its base) and before every claim key."""
    record["id"] = ESCAPED_PREFIX + record["id"]
    for claim in record.get("reference_claims") or []:
        claim["key"] = ESCAPED_PREFIX + claim["key"]
    return record


def signs(record: dict) -> dict:
    """The record with each stored embedding entry replaced by its sign."""
    for sample in record["samples"]:
        if sample.get("embedding") is not None:
            sample["embedding"] = [float((x > 0) - (x < 0)) for x in sample["embedding"]]
    return record


def faulty(record: dict, fault: str) -> dict:
    """The record with one fault of FAULTS: its second sample replaced by a
    string, the first token distribution's probs halved, the first claim
    without its value, the ground truth without is_hallucinated, or the first
    token distribution without probs."""
    dist = record["samples"][0]["token_dists"][0]
    if fault == "sample_string":
        record["samples"][1] = "x"
    elif fault == "probs_halved":
        dist["probs"] = [p / 2 for p in dist["probs"]]
    elif fault == "claim_without_value":
        del record["reference_claims"][0]["value"]
    elif fault == "label_without_is_hallucinated":
        del record["ground_truth"]["is_hallucinated"]
    else:
        del dist["probs"]
    return record


# a small shared vocabulary, so that text distances spread over (0, 1)
VOCABULARY = ("rates", "rose", "fell", "profit", "q3", "guidance")
# answers that share a bucket of a 256-bucket FNV-1a hash of their lowercase bytes
BUCKET_PAIRS = (("10.00", "57.81"), ("BBB", "true"), ("68", "86"), ("19", "174"), ("120", "186"))
NUMERIC_VARIANTS = ("1200", "1200.0", "1200.00", "1.2e3", "1,200", "$1200")
# sample counts of the two threshold texts
COUNT_PAIRS = ((11, 17), (17, 22), (22, 34), (39, 39))
# a number, a sentence and a whitespace-only text, each one text of a whole
# record, and pairs of texts that differ only in case or spacing
ONE_TEXTS = ("1200", "Rates rose in Q3, as guided.", " \t ")
TEXT_PAIRS = (("rates rose", "Rates ROSE"), ("rates rose", "  rates\trose \n"))


def _sample(text: str, answer: str | None = None, reasoning: str | None = None,
            embedding: list[float] | None = None) -> dict:
    sample = {"text": text}
    for key, value in (("answer", answer), ("reasoning", reasoning), ("embedding", embedding)):
        if value is not None:
            sample[key] = value
    return sample


def _text(counts) -> str:
    """Each word of VOCABULARY repeated as often as counts says."""
    return " ".join(word for word, c in zip(VOCABULARY, counts) for _ in range(c))


def _distance(u, v) -> float:
    dot = sum(a * b for a, b in zip(u, v))
    return 1.0 - dot / math.sqrt(sum(a * a for a in u) * sum(b * b for b in v))


def _threshold_texts(a: int) -> tuple[str, str]:
    """Texts of a distinct words each, sharing 13 a / 20 of them: cosine 13/20
    mathematically, a distance of exactly 0.35 as computed for a = 20."""
    shared = a * 13 // 20
    words = [f"w{i:03d}" for i in range(2 * a - shared)]
    return " ".join(words[:a]), " ".join(words[a - shared:])


def stress_records(seed: int) -> list[dict]:
    """One seeded corpus of records whose clusterings turn on a tie, the
    threshold, the embedder or many merges; each id names its kind."""
    rng = random.Random(seed)
    records = []

    def add(kind: str, samples: list[dict]) -> None:
        records.append({"id": f"{kind}-{len(records):03d}", "prompt": kind, "samples": samples})

    # texts over the shared vocabulary, with answers and reasoning
    counts = [c for c in itertools.product(range(4), repeat=len(VOCABULARY)) if any(c)]
    for _ in range(30):
        texts = [_text(rng.choice(counts)) for _ in range(rng.randint(3, 12))]
        add("vocab", [_sample(t, answer=t.split()[0], reasoning=t) for t in texts])
    # pairs of texts at a distance within 1e-3 of 0.35, on either side
    near = [(u, v) for u, v in itertools.combinations(rng.sample(counts, 300), 2)
            if abs(_distance(u, v) - 0.35) < 1e-3]
    for u, v in rng.sample(near, 20):
        texts = [_text(u)] * rng.randint(1, 3) + [_text(v)] * rng.randint(1, 3)
        rng.shuffle(texts)
        add("near", [_sample(t, answer=t, reasoning=_text(v)) for t in texts])
    # texts at cosine 13/20: a distance of 0.35, exactly or within rounding
    for a in (20, 40, 60, 80):
        u, v = _threshold_texts(a)
        add("threshold", [_sample(t) for t in [u, u, v, v, v]])
        add("threshold", [_sample(t, answer=t) for t in [u, v, v]])
    # exact ties: x and y at equal distance from "x y" (1 - 1/sqrt 2), and
    # farther from each other than the threshold
    for _ in range(15):
        x, y, z = rng.sample(VOCABULARY, 3)
        shapes = [x, f"{x} {y}", y] if rng.random() < 0.5 else [f"{x} {z}", f"{x} {y} {z}", f"{y} {z}"]
        texts = [t for t in shapes for _ in range(rng.randint(1, 3))]
        add("tie", [_sample(t, answer=t, reasoning=shapes[1]) for t in texts])
    # answers that an FNV-1a hash into 256 buckets cannot tell apart
    for first, second in BUCKET_PAIRS:
        texts = [first, first, second, second, second]
        add("bucket", [_sample(t, answer=t, reasoning=f"because {t}") for t in texts])
    # one number in several formats
    for _ in range(5):
        texts = [rng.choice(NUMERIC_VARIANTS) for _ in range(rng.randint(3, 8))]
        add("numeric", [_sample(t, answer=t) for t in texts])
    # many distinct samples: many merges over a large distance matrix
    for n in (100, 150, 200):
        add("many", [_sample(_text(c), answer=VOCABULARY[c.index(max(c))], reasoning=_text(c[::-1]))
                     for c in rng.sample(counts, n)])
    # sign-quantized stored embeddings: duplicate vectors and tied distances
    for _ in range(20):
        dim = rng.randint(3, 6)
        rows = [[float(rng.randint(-1, 1)) for _ in range(dim)] for _ in range(rng.randint(3, 4))]
        samples = [_sample(f"sample {i}", embedding=rng.choice(rows)) for i in range(rng.randint(4, 10))]
        add("signs", samples)
    # the a = 20 threshold texts at counts for which 0.35 * c_u * c_v divided
    # back by c_u * c_v lands above 0.35; no random draw, so the records
    # before these keep their ids and bytes
    u, v = _threshold_texts(20)
    for count_u, count_v in COUNT_PAIRS:
        add("counts", [_sample(t, answer=t) for t in [u] * count_u + [v] * count_v])
    # one text on every sample, which clusters with no token matrix (a blank
    # one gives a singleton per sample), and two texts that differ only in
    # case or spacing, one row for two texts; no random draw either
    for text in ONE_TEXTS:
        add("one-text", [_sample(text, answer=text, reasoning=text) for _ in range(4)])
        add("one-text", [_sample(text, answer=text, reasoning=f"because {i}") for i in range(3)])
    for first, second in TEXT_PAIRS:
        add("one-text", [_sample(t, answer=t, reasoning=first) for t in [first, second, first, second]])
    return records


def write_corpora(src: Path, seed: int, into: Path) -> None:
    """Build every benchmark corpus under src; one directory per workload."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    from workloads import WORKLOADS, build_corpus

    for name, workload in WORKLOADS.items():
        corpus = build_corpus(workload, seed)
        d = into / name
        d.mkdir(parents=True)
        (d / "corpus.jsonl").write_bytes(corpus.corpus_bytes)
        (d / "store.json").write_text(json.dumps(corpus.store))
        (d / "spec.json").write_text(json.dumps(corpus.spec))
        (d / "injected-spec.json").write_text(json.dumps(dict(corpus.spec, **INJECTED_SPEC)))
        (d / "two-sample-spec.json").write_text(json.dumps(dict(corpus.spec, **TWO_SAMPLE_SPEC)))
        (d / "wide-vocab-spec.json").write_text(json.dumps(dict(corpus.spec, **WIDE_VOCAB_SPEC)))
        records = [json.loads(line) for line in corpus.corpus_bytes.splitlines()]
        (d / "prompts.txt").write_text("\n".join(r["prompt"] for r in records) + "\n", encoding="utf-8")
        (d / "tagged.jsonl").write_text("".join(json.dumps(tagged(r)) + "\n" for r in records),
                                        encoding="utf-8")
        records = [json.loads(line) for line in corpus.corpus_bytes.splitlines()]  # untagged
        (d / "escaped.jsonl").write_text("".join(json.dumps(escaped(r)) + "\n" for r in records),
                                         encoding="utf-8")
        records = [json.loads(line) for line in corpus.corpus_bytes.splitlines()]
        if any(s.get("embedding") is not None for r in records for s in r["samples"]):
            (d / "signs.jsonl").write_text("".join(json.dumps(signs(r)) + "\n" for r in records),
                                           encoding="utf-8")
        store = {ESCAPED_PREFIX + key: entry for key, entry in corpus.store.items()}
        (d / "escaped-store.json").write_text(json.dumps(store))
        lines = corpus.corpus_bytes.splitlines(keepends=True)
        (d / "empty.jsonl").write_bytes(b"")
        (d / "malformed.jsonl").write_bytes(lines[0] + lines[1][: len(lines[1]) // 2] + b"\n")
        (d / "invalid.jsonl").write_text(json.dumps(dict(json.loads(lines[0]), samples=[])) + "\n")
        for fault in FAULTS:
            (d / f"fault-{fault}.jsonl").write_text(json.dumps(faulty(json.loads(lines[0]), fault)) + "\n")
        store_text = json.dumps(corpus.store)
        (d / "bad-store.json").write_text(store_text[: len(store_text) // 2])
        (d / "config.json").write_text(json.dumps(CONFIG))
        (d / "rules.json").write_text(json.dumps(modified_rules()))
        (d / "bad-config.json").write_text(json.dumps({"cluster_threshold": 5.0}))
        (d / "bad-rules.json").write_text(json.dumps({"not": "a list"}))
        bad_rules = modified_rules()
        bad_rules[1].update(threshold=math.nan, tier="vendor")
        (d / "bad-rule-fields.json").write_text(json.dumps(bad_rules))
        (d / "bad-config-fields.json").write_text(json.dumps({"min_delta": -1, "cluster_threshold": "x"}))
        (d / "bad-spec-fields.json").write_text(json.dumps({"n_records": 0, "true_temperature": 0.0}))
    d = into / STRESS
    d.mkdir()
    (d / "corpus.jsonl").write_text("".join(json.dumps(r) + "\n" for r in stress_records(seed)),
                                    encoding="utf-8")


def modified_rules() -> list[dict]:
    """The default rules in reverse priority, the token-entropy threshold
    lowered and the consensus rule routed to the context tier."""
    from dataclasses import asdict

    from hallguard.pipeline import default_rules

    rules = [asdict(rule) for rule in reversed(default_rules())]
    for rule in rules:
        if rule["signal"] == "h_p_mean":
            rule["threshold"] = 0.6
        if rule["signal"] == "consensus_support":
            rule["tier"] = "context"
    return rules


def run_commands(src: Path, inputs: Path, outputs: Path) -> None:
    """Run every command on every corpus under src, keeping all it writes."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for corpus in sorted(inputs.iterdir()):
        out = outputs / corpus.name
        out.mkdir(parents=True)
        paths = {"in": corpus / "corpus.jsonl", "tagged": corpus / "tagged.jsonl",
                 "escaped": corpus / "escaped.jsonl", "signs": corpus / "signs.jsonl",
                 "store": corpus / "store.json",
                 "escaped_store": corpus / "escaped-store.json", "spec": corpus / "spec.json",
                 "injected_spec": corpus / "injected-spec.json",
                 "two_sample_spec": corpus / "two-sample-spec.json",
                 "wide_vocab_spec": corpus / "wide-vocab-spec.json",
                 "text": corpus / "prompts.txt", "empty": corpus / "empty.jsonl",
                 "malformed": corpus / "malformed.jsonl", "invalid": corpus / "invalid.jsonl",
                 "bad_store": corpus / "bad-store.json", "config": corpus / "config.json",
                 "rules": corpus / "rules.json", "bad_config": corpus / "bad-config.json",
                 "bad_rules": corpus / "bad-rules.json",
                 "bad_rule_fields": corpus / "bad-rule-fields.json",
                 "bad_config_fields": corpus / "bad-config-fields.json",
                 "bad_spec_fields": corpus / "bad-spec-fields.json", "out": out,
                 **{f"fault_{fault}": corpus / f"fault-{fault}.jsonl" for fault in FAULTS}}
        for name, template in (STRESS_COMMANDS if corpus.name == STRESS else COMMANDS).items():
            if "{signs}" in template and not paths["signs"].exists():
                continue
            argv = [arg.format(**paths) for arg in template.split()]
            proc = subprocess.run([sys.executable, "-m", "hallguard.cli", *argv],
                                  capture_output=True, env=env)
            # the two trees write to different directories; messages name them alike
            where = str(out).encode()
            (out / f"{name}.stdout").write_bytes(proc.stdout.replace(where, b"{out}"))
            (out / f"{name}.stderr").write_bytes(proc.stderr.replace(where, b"{out}"))
            (out / f"{name}.exit").write_text(f"{proc.returncode}\n")


def differing_records(a: Path, b: Path) -> list[str]:
    """The ids of the stress records whose analyze or pipeline entries differ."""
    ids = []
    for name, key in (("analyze.json", "records"), ("ledger.json", "entries")):
        paths = [tree / STRESS / name for tree in (a, b)]
        if not all(path.is_file() for path in paths):
            continue
        entries = [json.loads(path.read_bytes())[key] for path in paths]
        ids += [x["record_id"] for x, y in zip(*entries) if x != y]
    return sorted(set(ids))


def differing_files(a: Path, b: Path) -> list[str]:
    names = sorted({p.relative_to(a) for p in a.rglob("*") if p.is_file()}
                   | {p.relative_to(b) for p in b.rglob("*") if p.is_file()})
    return [str(name) for name in names
            if not ((a / name).is_file() and (b / name).is_file())
            or (a / name).read_bytes() != (b / name).read_bytes()]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent_src", type=Path, help="source tree to compare against")
    ap.add_argument("change_src", type=Path, help="source tree under test")
    ap.add_argument("--seed", type=int, default=7, help="corpus seed (default 7)")
    args = ap.parse_args()
    parent_src, change_src = args.parent_src.resolve(), args.change_src.resolve()

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_corpora(parent_src, args.seed, tmp / "inputs")
        # the two trees run side by side, one CLI process each at a time
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(run_commands, (parent_src, change_src), [tmp / "inputs"] * 2,
                          (tmp / "parent", tmp / "change")))
        differing = differing_files(tmp / "parent", tmp / "change")
        n_files = sum(1 for p in (tmp / "parent").rglob("*") if p.is_file())
        records = []
        if any(name.startswith(STRESS + os.sep) for name in differing):
            records = differing_records(tmp / "parent", tmp / "change")

    for name in differing:
        print(f"differs: {name}")
    for record_id in records:
        print(f"differs: {STRESS} record {record_id}")
    print(f"{len(differing)} of {n_files} files differ (seed {args.seed})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
