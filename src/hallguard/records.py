"""Canonical data model for offline generation logs, plus the JSONL exchange format.

A corpus is UTF-8 JSONL, one record object per line:

    {"id": "...", "prompt": "...",
     "samples": [{"text": "...",
                  "token_dists": [{"labels": ["..."], "probs": [0.6, 0.4]}],
                  "token_logprobs": [-0.1, -2.3],
                  "embedding": [0.0, ...],
                  "reasoning": "...", "answer": "...",
                  "self_confidence": 0.8}],
     "reference_claims": [{"key": "...", "value": 5.0, "unit": "%"}],
     "ground_truth": {"is_hallucinated": true, "failure_class": "data",
                      "correct_answer": "..."}}

Optional fields are omitted when absent.  Unknown keys are accepted and
ignored.  Probabilities are stored as plain decimals, log-probabilities in
nats.  All types are immutable after construction.

A corpus is read one line at a time: ``iter_records`` decodes, parses and
validates each line as it is reached and yields its record, so a caller
that keeps only what it computes from each record never holds the corpus.
``parse_records`` is the same reader collected into a list.  Either way the
first bad line raises, with its line number.
"""

from __future__ import annotations

import io
import json
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass

# The root-cause tiers: a label's failure_class, a router rule's tier and a
# mock injection are each one of these.  The order is the ledger's and the
# mock generator's seeded draw.
FAILURE_CLASSES = ("model", "context", "data")

PROB_SUM_TOL = 1e-6


@dataclass(frozen=True)
class Diagnostic:
    """One invariant violation: a field path and a human-readable reason."""

    path: str
    reason: str


class RecordParseError(ValueError):
    """Malformed JSONL input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class RecordValidationError(ValueError):
    """A parseable record violated a schema invariant."""

    def __init__(self, record_id: str, diagnostics: list[Diagnostic]):
        first = diagnostics[0]
        super().__init__(f"record {record_id!r}: {first.path}: {first.reason}")
        self.record_id = record_id
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class TokenDistribution:
    """Model probabilities over the vocabulary slice scored at one position."""

    token_labels: list[str]
    probs: list[float]


@dataclass(frozen=True)
class Sample:
    """One sampled response. All per-token and introspection fields are optional."""

    text: str
    token_dists: list[TokenDistribution] | None = None
    token_logprobs: list[float] | None = None
    embedding: list[float] | None = None
    reasoning: str | None = None
    answer: str | None = None
    self_confidence: float | None = None


@dataclass(frozen=True)
class Claim:
    key: str
    value: str | float
    unit: str | None = None


@dataclass(frozen=True)
class GroundTruthLabel:
    """Evaluation-only label attached by mock corpora; never required at runtime."""

    is_hallucinated: bool
    failure_class: str | None = None
    correct_answer: str | None = None


@dataclass(frozen=True)
class GenerationRecord:
    """One prompt with its N sampled responses and optional reference data."""

    id: str
    prompt: str
    samples: list[Sample]
    reference_claims: list[Claim] | None = None
    ground_truth: GroundTruthLabel | None = None


# ---------------------------------------------------------------------------
# Validation


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def finite_number(value) -> bool:
    """A JSON number, not a bool, that a float holds; NaN, infinities and
    integers too large for a float fail."""
    return _is_number(value) and abs(value) <= sys.float_info.max


def _validate_dist(dist: TokenDistribution, path: str, diags: list[Diagnostic]) -> None:
    if not dist.probs:
        diags.append(Diagnostic(f"{path}.probs", "must be nonempty"))
    if len(dist.token_labels) != len(dist.probs):
        diags.append(Diagnostic(f"{path}.probs", "length differs from token_labels"))
    n_diags = len(diags)
    for j, p in enumerate(dist.probs):
        if not _is_number(p) or not (0.0 <= p <= 1.0):
            diags.append(Diagnostic(f"{path}.probs[{j}]", "probability must lie in [0, 1]"))
    if dist.probs and len(diags) == n_diags:  # a bad entry has no sum
        total = sum(dist.probs)
        if not (1.0 - PROB_SUM_TOL <= total <= 1.0 + PROB_SUM_TOL):
            diags.append(Diagnostic(f"{path}.probs", f"probs sum to {total:.6g}, expected 1"))
    if not all(isinstance(label, str) for label in dist.token_labels):
        diags.append(Diagnostic(f"{path}.token_labels", "token labels must be strings"))
    elif len(set(dist.token_labels)) != len(dist.token_labels):
        diags.append(Diagnostic(f"{path}.token_labels", "token labels must be unique"))


def _validate_sample(sample: Sample, path: str, diags: list[Diagnostic]) -> None:
    if sample.token_dists is not None:
        if len(sample.token_dists) < 1:
            diags.append(Diagnostic(f"{path}.token_dists", "present but empty"))
        for j, dist in enumerate(sample.token_dists):
            _validate_dist(dist, f"{path}.token_dists[{j}]", diags)
    if sample.token_logprobs is not None:
        for j, lp in enumerate(sample.token_logprobs):
            if not _is_number(lp) or not lp <= 0.0:  # NaN fails <= too
                diags.append(Diagnostic(f"{path}.token_logprobs[{j}]", "log-probability must be <= 0"))
    emb = sample.embedding
    if emb is not None and not emb:
        diags.append(Diagnostic(f"{path}.embedding", "must be nonempty"))
    # plain JSON floats pass in two C-level passes; anything else gets the
    # exact check, which names the first bad entry
    if emb is not None and not (set(map(type, emb)) <= {float} and all(map(math.isfinite, emb))):
        for j, x in enumerate(emb):
            if not finite_number(x):
                diags.append(Diagnostic(f"{path}.embedding[{j}]", "must be a finite number"))
                break
    for name in ("reasoning", "answer"):
        if not isinstance(getattr(sample, name), (str, type(None))):
            diags.append(Diagnostic(f"{path}.{name}", "must be a string"))
    if sample.self_confidence is not None:
        sc = sample.self_confidence
        if not _is_number(sc) or not (0.0 <= sc <= 1.0):
            diags.append(Diagnostic(f"{path}.self_confidence", "must lie in [0, 1]"))


def validate_record(record: GenerationRecord) -> list[Diagnostic]:
    """Return the (possibly empty) list of invariant violations for one record.

    Empty result means the record is valid.
    """
    diags: list[Diagnostic] = []
    if not record.id:
        diags.append(Diagnostic("id", "must be nonempty"))
    if not record.samples:
        diags.append(Diagnostic("samples", "must contain at least one sample"))
    for i, sample in enumerate(record.samples):
        _validate_sample(sample, f"samples[{i}]", diags)
        first, emb = record.samples[0].embedding, sample.embedding
        if (first is None) != (emb is None):
            diags.append(Diagnostic(f"samples[{i}].embedding", "must be set on every sample or on none"))
        elif emb is not None and len(emb) != len(first):
            diags.append(Diagnostic(
                f"samples[{i}].embedding",
                f"length {len(emb)} differs from samples[0].embedding ({len(first)})",
            ))
    for i, claim in enumerate(record.reference_claims or []):
        if not isinstance(claim.key, str) or not claim.key:
            diags.append(Diagnostic(f"reference_claims[{i}].key", "must be a nonempty string"))
        if not (isinstance(claim.value, str) or finite_number(claim.value)):
            diags.append(Diagnostic(f"reference_claims[{i}].value", "must be a finite number or a string"))
    gt = record.ground_truth
    if gt is not None:
        if gt.failure_class is not None and not gt.is_hallucinated:
            diags.append(Diagnostic("ground_truth.failure_class", "only allowed when is_hallucinated"))
        if gt.failure_class is not None and gt.failure_class not in FAILURE_CLASSES:
            diags.append(
                Diagnostic("ground_truth.failure_class", f"must be one of {FAILURE_CLASSES}")
            )
    return diags


# ---------------------------------------------------------------------------
# JSON conversion

def _shape_error(record_id: str, path: str, reason: str) -> RecordValidationError:
    return RecordValidationError(record_id, [Diagnostic(path, reason)])


def record_from_json(obj: dict) -> GenerationRecord:
    """Build a record from a decoded JSON object; raises on structural problems."""
    if not isinstance(obj, dict):
        raise _shape_error("<unknown>", "", "record must be a JSON object")
    rid = obj.get("id")
    rid_str = rid if isinstance(rid, str) else "<unknown>"
    if not isinstance(rid, str):
        raise _shape_error(rid_str, "id", "must be a string")
    prompt = obj.get("prompt")
    if not isinstance(prompt, str):
        raise _shape_error(rid_str, "prompt", "must be a string")
    raw_samples = obj.get("samples")
    if not isinstance(raw_samples, list):
        raise _shape_error(rid_str, "samples", "must be a list")

    samples = [_sample_from_json(s, f"samples[{i}]", rid_str) for i, s in enumerate(raw_samples)]

    claims = None
    if obj.get("reference_claims") is not None:
        raw = obj["reference_claims"]
        if not isinstance(raw, list):
            raise _shape_error(rid_str, "reference_claims", "must be a list")
        claims = [_claim_from_json(c, f"reference_claims[{i}]", rid_str) for i, c in enumerate(raw)]

    gt = None
    if obj.get("ground_truth") is not None:
        gt = _gt_from_json(obj["ground_truth"], rid_str)

    return GenerationRecord(
        id=rid,
        prompt=prompt,
        samples=samples,
        reference_claims=claims,
        ground_truth=gt,
    )


def _sample_from_json(obj, path: str, rid: str) -> Sample:
    if not isinstance(obj, dict):
        raise _shape_error(rid, path, "sample must be a JSON object")
    text = obj.get("text")
    if not isinstance(text, str):
        raise _shape_error(rid, f"{path}.text", "must be a string")
    for key in ("token_logprobs", "embedding"):
        if obj.get(key) is not None and not isinstance(obj[key], list):
            raise _shape_error(rid, f"{path}.{key}", "must be a list")
    dists = None
    if obj.get("token_dists") is not None:
        raw = obj["token_dists"]
        if not isinstance(raw, list):
            raise _shape_error(rid, f"{path}.token_dists", "must be a list")
        dists = []
        for j, d in enumerate(raw):
            if not isinstance(d, dict) or not isinstance(d.get("labels"), list) or not isinstance(d.get("probs"), list):
                raise _shape_error(rid, f"{path}.token_dists[{j}]", "must be an object with labels[] and probs[]")
            dists.append(TokenDistribution(token_labels=list(d["labels"]), probs=list(d["probs"])))
    return Sample(
        text=text,
        token_dists=dists,
        token_logprobs=list(obj["token_logprobs"]) if obj.get("token_logprobs") is not None else None,
        embedding=list(obj["embedding"]) if obj.get("embedding") is not None else None,
        reasoning=obj.get("reasoning"),
        answer=obj.get("answer"),
        self_confidence=obj.get("self_confidence"),
    )


def _claim_from_json(obj, path: str, rid: str) -> Claim:
    if not isinstance(obj, dict) or "key" not in obj or "value" not in obj:
        raise _shape_error(rid, path, "claim must be an object with key and value")
    return Claim(key=obj["key"], value=obj["value"], unit=obj.get("unit"))


def _gt_from_json(obj, rid: str) -> GroundTruthLabel:
    if not isinstance(obj, dict) or not isinstance(obj.get("is_hallucinated"), bool):
        raise _shape_error(rid, "ground_truth", "must be an object with boolean is_hallucinated")
    return GroundTruthLabel(
        is_hallucinated=obj["is_hallucinated"],
        failure_class=obj.get("failure_class"),
        correct_answer=obj.get("correct_answer"),
    )


def record_to_json(record: GenerationRecord) -> dict:
    """Encode a record as a JSON-ready dict, omitting absent optional fields."""
    out: dict = {"id": record.id, "prompt": record.prompt}
    out["samples"] = [_sample_to_json(s) for s in record.samples]
    if record.reference_claims is not None:
        out["reference_claims"] = [_claim_to_json(c) for c in record.reference_claims]
    if record.ground_truth is not None:
        out["ground_truth"] = _gt_to_json(record.ground_truth)
    return out


def _sample_to_json(sample: Sample) -> dict:
    out: dict = {"text": sample.text}
    if sample.token_dists is not None:
        out["token_dists"] = [{"labels": d.token_labels, "probs": d.probs} for d in sample.token_dists]
    if sample.token_logprobs is not None:
        out["token_logprobs"] = sample.token_logprobs
    if sample.embedding is not None:
        out["embedding"] = sample.embedding
    if sample.reasoning is not None:
        out["reasoning"] = sample.reasoning
    if sample.answer is not None:
        out["answer"] = sample.answer
    if sample.self_confidence is not None:
        out["self_confidence"] = sample.self_confidence
    return out


def _claim_to_json(claim: Claim) -> dict:
    out: dict = {"key": claim.key, "value": claim.value}
    if claim.unit is not None:
        out["unit"] = claim.unit
    return out


def _gt_to_json(gt: GroundTruthLabel) -> dict:
    out: dict = {"is_hallucinated": gt.is_hallucinated}
    if gt.failure_class is not None:
        out["failure_class"] = gt.failure_class
    if gt.correct_answer is not None:
        out["correct_answer"] = gt.correct_answer
    return out


# ---------------------------------------------------------------------------
# JSONL I/O


def iter_records(fp) -> Iterator[GenerationRecord]:
    """Yield the records of a UTF-8 JSONL corpus one line at a time.

    fp is an open binary file, or any iterable of lines as bytes or str
    split after each ``\n`` only: JSON strings may legally hold a raw
    U+2028 or U+2029, which str.splitlines would take as record boundaries.
    One trailing ``\n`` is cut from each line before it is parsed, so a
    line cut short reads as unterminated JSON.  Blank lines are skipped.

    Every record is validated as it is read, so only the current line and
    the ids seen so far are held.  The first bad line raises, whatever its
    fault: RecordParseError with the line number for bytes that are not
    UTF-8 (the codec message gives the column within the line) or
    malformed JSON, RecordValidationError naming the record id and field
    for a broken invariant or an id seen before.
    """
    seen_ids: set[str] = set()
    for line_no, line in enumerate(fp, start=1):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise RecordParseError(line_no, f"input is not valid UTF-8: {exc}") from None
        line = line.removesuffix("\n")
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecordParseError(line_no, exc.msg) from exc
        except RecursionError:
            raise RecordParseError(line_no, "JSON nested too deeply") from None
        record = record_from_json(obj)
        diags = validate_record(record)
        if record.id in seen_ids:
            diags.insert(0, Diagnostic("id", "duplicate id in corpus"))
        if diags:
            raise RecordValidationError(record.id, diags)
        seen_ids.add(record.id)
        yield record


def parse_records(stream) -> list[GenerationRecord]:
    """All the records of a corpus given as bytes, str or an open file, in
    input order: ``list(iter_records(...))``, with its errors."""
    if isinstance(stream, bytes):
        stream = io.BytesIO(stream)
    elif isinstance(stream, str):
        stream = io.StringIO(stream)  # splits after "\n" only, as iter_records needs
    return list(iter_records(stream))


def write_records(records: list[GenerationRecord]) -> bytes:
    """Serialize records to JSONL bytes; parse_records(write_records(x)) == x."""
    return "".join(json.dumps(record_to_json(r)) + "\n" for r in records).encode("utf-8")
