"""Seeded input corpora for the hallguard benchmark.

Every corpus is drawn with ``hallguard.mockgen`` from the workload's base
spec and the run's seed.  ``retry-embed-s10`` post-processes that draw: it
stores a 64-dim embedding on every sample (one seeded base direction per
distinct answer, plus small noise) and appends a ``<id>.retry`` re-generation
for every injected record.  Even-numbered retries are rebuilt clean, so the
pipeline should validate them as improved; odd-numbered retries copy the
original, so they stay residual errors.

Alongside the bytes the CLI reads, each corpus carries the outputs it must
produce, derived from the injected labels rather than from a run of the
program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from hallguard.grounding import fact_store_to_json
from hallguard.mockgen import generate_corpus, generate_fact_store, mock_spec_from_json
from hallguard.records import Claim, GenerationRecord, GroundTruthLabel, write_records

INJECT_RATES = {"model": 0.1, "context": 0.1, "data": 0.1}
RETRY_SUFFIX = ".retry"
EMBED_DIM = 64
# noise of 0.02 per dimension keeps copies of one direction within about
# 0.03 cosine distance of each other, far below the 0.35 clustering
# threshold, while random directions sit near distance 1
EMBED_NOISE = 0.02
EMBED_DECIMALS = 6


@dataclass(frozen=True)
class Workload:
    name: str
    n_records: int
    samples_per_record: int
    retry_embed: bool


# sized so that one benchmark round (a set-up, two mockgens, one analyze and
# one pipeline, with the reference job between them) takes about 5 s on a
# 2-CPU machine: seven to ten rounds, and so samples per median, in a 40 s run
WORKLOADS = {
    w.name: w
    for w in (
        Workload("wide-s5", 400, 5, False),
        Workload("deep-s40", 2, 40, False),
        Workload("retry-embed-s10", 70, 10, True),
    )
}


@dataclass(frozen=True)
class Expected:
    """What correct CLI outputs must report for one corpus."""

    n_records: int
    tiers: dict[str, str | None]  # primary record id -> injected failure class
    race_flagged: int
    fact_mismatch_records: int
    improved: int
    residuals: int


@dataclass(frozen=True)
class Corpus:
    spec: dict  # mockgen spec JSON of the base draw
    base_bytes: bytes  # the base draw as mockgen writes it
    store: dict  # fact store JSON
    corpus_bytes: bytes  # what analyze and pipeline read
    records: list[GenerationRecord]
    expected: Expected


def build_corpus(workload: Workload, seed: int) -> Corpus:
    spec = {
        "n_records": workload.n_records,
        "samples_per_record": workload.samples_per_record,
        "inject_rates": INJECT_RATES,
        "seed": seed,
    }
    mock_spec = mock_spec_from_json(spec)
    base = generate_corpus(mock_spec)
    store = generate_fact_store(mock_spec)
    records, clean_retries, copied_retries = base, 0, 0
    if workload.retry_embed:
        records, clean_retries, copied_retries = _with_embeddings_and_retries(base, store, seed)
    primaries = [r for r in records if not r.id.endswith(RETRY_SUFFIX)]
    classes = [r.ground_truth.failure_class for r in records]
    expected = Expected(
        n_records=len(records),
        tiers={r.id: r.ground_truth.failure_class for r in primaries},
        race_flagged=classes.count("context"),
        fact_mismatch_records=classes.count("data"),
        improved=clean_retries,
        residuals=copied_retries,
    )
    base_bytes = write_records(base)
    return Corpus(
        spec=spec,
        base_bytes=base_bytes,
        store=fact_store_to_json(store),
        corpus_bytes=write_records(records) if workload.retry_embed else base_bytes,
        records=records,
        expected=expected,
    )


def _with_embeddings_and_retries(base, store, seed):
    rng = np.random.default_rng([seed, EMBED_DIM])
    directions: dict[str, np.ndarray] = {}

    def embed(samples):
        out = []
        for s in samples:
            if s.answer not in directions:
                d = rng.normal(size=EMBED_DIM)
                directions[s.answer] = d / np.linalg.norm(d)
            v = directions[s.answer] + rng.normal(0.0, EMBED_NOISE, EMBED_DIM)
            out.append(replace(s, embedding=[round(float(x), EMBED_DECIMALS) for x in v]))
        return out

    template = next(r for r in base if r.ground_truth.failure_class is None)
    records = [replace(r, samples=embed(r.samples)) for r in base]
    retries = []
    injected = [r for r in base if r.ground_truth.failure_class is not None]
    for k, rec in enumerate(injected):
        rid = rec.id + RETRY_SUFFIX
        if k % 2:
            retries.append(replace(rec, id=rid, samples=embed(rec.samples)))
            continue
        key = rec.reference_claims[0].key
        value = store.entries[key].value
        clean = [replace(s, text=f"{value}", answer=f"{value}") for s in template.samples]
        retries.append(
            replace(
                rec,
                id=rid,
                samples=embed(clean),
                reference_claims=[Claim(key=key, value=value)],
                ground_truth=GroundTruthLabel(
                    is_hallucinated=False, correct_answer=rec.ground_truth.correct_answer
                ),
            )
        )
    n_clean = (len(injected) + 1) // 2
    return records + retries, n_clean, len(injected) - n_clean


def properties(workload: Workload, corpus: Corpus) -> dict:
    """Input properties a later change may rely on, measured on the corpus."""
    records = corpus.records
    samples = [s for r in records for s in r.samples]
    return {
        "records": len(records),
        "samples_per_record": workload.samples_per_record,
        "corpus_mb": len(corpus.corpus_bytes) / 1e6,
        "retry_share": sum(r.id.endswith(RETRY_SUFFIX) for r in records) / len(records),
        "stored_embedding_share": sum(s.embedding is not None for s in samples) / len(samples),
        "distinct_cluster_inputs_per_record": float(
            np.mean([_distinct_cluster_inputs(r) for r in records])
        ),
    }


def _distinct_cluster_inputs(record: GenerationRecord) -> int:
    """How many distinct input lists the four clusterings of detect receive:
    semantic entropy (stored vector or text), consensus (answer or text),
    and RACE over answers and over reasoning."""

    def key(values):
        return json.dumps(values)

    def vector_or_text(s):
        return ["v", s.embedding] if s.embedding is not None else ["t", s.text]

    samples = record.samples
    inputs = {
        key([vector_or_text(s) for s in samples]),
        key([["t", s.answer if s.answer is not None else s.text] for s in samples]),
    }
    if all(s.reasoning is not None and s.answer is not None for s in samples):
        inputs.add(key([["t", s.answer] for s in samples]))
        inputs.add(key([["t", s.reasoning] for s in samples]))
    return len(inputs)
