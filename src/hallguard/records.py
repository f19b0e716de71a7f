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

A corpus is read one line at a time: ``iter_records`` decodes each line as
it is reached and builds and checks its record in one walk, so a caller
that keeps only what it computes from each record never holds the corpus.
``parse_records`` is the same reader collected into a list.  Either way the
first bad line raises, with its line number, and a bad record's
``RecordValidationError.diagnostics`` holds every fault it has.  A caller
that holds a decoded object reads it as ``parse_records(json.dumps(obj))``.
``write_records`` is the one encoder.

``read_json_file`` reads a config, rules or spec file and ``write_json``
writes every JSON report, so a command that needs no more loads no numpy.
"""

from __future__ import annotations

import functools
import io
import json
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import ConfigError

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
# Reading and validation


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def finite_number(value) -> bool:
    """A JSON number, not a bool, that a float holds; NaN, infinities and
    integers too large for a float fail."""
    return _is_number(value) and abs(value) <= sys.float_info.max


def number_value(value) -> float | None:
    """The finite number that a claim value, a store value or a text token
    states, else None.  A string states one when ``float`` reads it, with
    surrounding whitespace stripped: "1200", "1200.0", "1.2e3", "1_200" and
    "١٢٠٠" all state 1200.0, while "1,200", "$1200", "5%", "nan" and "inf"
    state none."""
    if isinstance(value, str):
        try:
            value = float(value.strip())
        except ValueError:
            return None
    return float(value) if finite_number(value) else None


def _is_probability(v) -> bool:
    return _is_number(v) and 0.0 <= v <= 1.0


class _Walk:
    """One walk over a decoded record: builds it and collects every
    diagnostic in field order (a distribution's probs before its labels).
    Each list of numbers names only its first bad entry.  A field that fails
    its check keeps its JSON value in the record built, which is dropped.
    A record that passes shares obj's lists, which are not copied."""

    def __init__(self, seen_ids):
        self.seen_ids = seen_ids
        self.rid = "<unknown>"
        self.diags: list[Diagnostic] = []

    def read(self, obj) -> GenerationRecord:
        """The record obj encodes; raises RecordValidationError with every diagnostic."""
        record = self.record(obj)
        if self.diags:
            raise RecordValidationError(self.rid, self.diags)
        return record

    def fault(self, path: str, reason: str) -> None:
        self.diags.append(Diagnostic(path, reason))

    def field(self, obj: dict, key: str, at: str, ok=None, reason: str = "must be a string",
              required: bool = False):
        """obj[key], a fault unless ok, or with no ok unless a string (a type
        test, not a call); an optional field may be absent or null."""
        value = obj.get(key)
        if (required or value is not None) and not (isinstance(value, str) if ok is None else ok(value)):
            self.fault(at + key, reason)
        return value

    def numbers(self, values, path: str, ok, reason: str) -> list | None:
        """values if a list, else None; a fault for the first entry that fails ok."""
        if not isinstance(values, list):
            return self.fault(path, "must be a list")
        for j, x in enumerate(values):
            if not ok(x):
                self.fault(f"{path}[{j}]", reason)
                break
        return values

    def objects(self, obj: dict, key: str, at: str, read) -> list | None:
        """obj[key]: absent, or a list whose entries read(entry, its path) builds."""
        items = obj.get(key)
        if not isinstance(items, list):
            return None if items is None else self.fault(at + key, "must be a list")
        return [read(item, f"{at}{key}[{j}]") for j, item in enumerate(items)]

    def record(self, obj) -> GenerationRecord | None:
        if not isinstance(obj, dict):
            return self.fault("", "record must be a JSON object")
        rid = self.field(obj, "id", "", required=True)
        if isinstance(rid, str):
            self.rid = rid
            if not rid:
                self.fault("id", "must be nonempty")
            elif rid in self.seen_ids:
                self.fault("id", "duplicate id in corpus")
        prompt = self.field(obj, "prompt", "", required=True)
        samples = obj.get("samples")
        if not isinstance(samples, list):
            self.fault("samples", "must be a list")
        elif not samples:
            self.fault("samples", "must contain at least one sample")
        else:
            samples = [self.sample(s, f"samples[{i}]", samples[0]) for i, s in enumerate(samples)]
        claims = self.objects(obj, "reference_claims", "", self.claim)
        gt = obj.get("ground_truth")
        return GenerationRecord(rid, prompt, samples, claims, None if gt is None else self.ground_truth(gt))

    def sample(self, obj, at: str, first) -> Sample | None:
        """obj, checked against the record's first sample where that is an object."""
        if not isinstance(obj, dict):
            return self.fault(at, "sample must be a JSON object")
        at += "."
        text = self.field(obj, "text", at, required=True)
        dists = self.objects(obj, "token_dists", at, self.dist)
        if dists == []:
            self.fault(at + "token_dists", "present but empty")
        logprobs = obj.get("token_logprobs")
        if logprobs is not None:
            logprobs = self.numbers(logprobs, at + "token_logprobs", lambda x: _is_number(x) and x <= 0.0,
                                    "log-probability must be <= 0")  # NaN fails <= too
        emb = obj.get("embedding")
        if emb == []:
            self.fault(at + "embedding", "must be nonempty")
        # floats pass in two C-level passes (a finite sum has only finite terms),
        # the rest in the exact check
        elif emb is not None and not (isinstance(emb, list) and all(map(float.__instancecheck__, emb))
                                      and math.isfinite(sum(emb))):
            emb = self.numbers(emb, at + "embedding", finite_number, "must be a finite number")
        ref = first.get("embedding") if isinstance(first, dict) else obj.get("embedding")
        if (ref is None) != (obj.get("embedding") is None):
            self.fault(at + "embedding", "must be set on every sample or on none")
        elif isinstance(emb, list) and isinstance(ref, list) and len(emb) != len(ref):
            self.fault(at + "embedding", f"length {len(emb)} differs from samples[0].embedding ({len(ref)})")
        return Sample(
            text=text,
            token_dists=dists,
            token_logprobs=logprobs,
            embedding=emb,
            reasoning=self.field(obj, "reasoning", at),
            answer=self.field(obj, "answer", at),
            self_confidence=self.field(obj, "self_confidence", at, _is_probability, "must lie in [0, 1]"),
        )

    def dist(self, obj, at: str) -> TokenDistribution | None:
        labels, probs = (obj.get("labels"), obj.get("probs")) if isinstance(obj, dict) else (None, None)
        if not (isinstance(labels, list) and isinstance(probs, list)):
            return self.fault(at, "must be an object with labels[] and probs[]")
        if not probs:
            self.fault(f"{at}.probs", "must be nonempty")
        if len(labels) != len(probs):
            self.fault(f"{at}.probs", "length differs from labels")
        n_diags = len(self.diags)
        # floats in [0, 1] pass in C-level passes, the last one the sum (NaN for a NaN entry)
        if not (probs and all(map(float.__instancecheck__, probs)) and 0.0 <= min(probs) and max(probs) <= 1.0
                and math.isfinite(total := sum(probs))):
            self.numbers(probs, f"{at}.probs", _is_probability, "probability must lie in [0, 1]")
            total = sum(probs) if probs and len(self.diags) == n_diags else None  # a bad entry has no sum
        if total is not None and not (1.0 - PROB_SUM_TOL <= total <= 1.0 + PROB_SUM_TOL):
            self.fault(f"{at}.probs", f"probs sum to {total:.6g}, expected 1")
        if not all(map(str.__instancecheck__, labels)):  # isinstance(label, str) in C
            self.fault(f"{at}.labels", "token labels must be strings")
        elif len(set(labels)) != len(labels):
            self.fault(f"{at}.labels", "token labels must be unique")
        return TokenDistribution(labels, probs)

    def claim(self, obj, at: str) -> Claim | None:
        if not isinstance(obj, dict) or "key" not in obj or "value" not in obj:
            return self.fault(at, "claim must be an object with key and value")
        at += "."
        return Claim(
            key=self.field(obj, "key", at, lambda k: k and isinstance(k, str), "must be a nonempty string", True),
            value=self.field(obj, "value", at, lambda v: isinstance(v, str) or finite_number(v),
                             "must be a finite number or a string", True),
            unit=self.field(obj, "unit", at),
        )

    def ground_truth(self, obj) -> GroundTruthLabel | None:
        if not isinstance(obj, dict) or not isinstance(obj.get("is_hallucinated"), bool):
            return self.fault("ground_truth", "must be an object with boolean is_hallucinated")
        if obj.get("failure_class") is not None and not obj["is_hallucinated"]:
            self.fault("ground_truth.failure_class", "only allowed when is_hallucinated")
        return GroundTruthLabel(
            is_hallucinated=obj["is_hallucinated"],
            failure_class=self.field(obj, "failure_class", "ground_truth.", FAILURE_CLASSES.__contains__,
                                     f"must be one of {FAILURE_CLASSES}"),
            correct_answer=self.field(obj, "correct_answer", "ground_truth."),
        )


# ---------------------------------------------------------------------------
# JSON conversion


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

    Every record is built and checked in one walk as it is read, so only the
    current line and the ids seen so far are held.  The first bad line
    raises, whatever its fault: RecordParseError with the line number for
    bytes that are not UTF-8 (the codec message gives the column within the
    line) or malformed JSON, RecordValidationError naming the record id and
    carrying every fault of the record, an id seen before first.
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
        record = _Walk(seen_ids).read(obj)
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


def _record_line(record: GenerationRecord) -> str:
    """The JSONL line of one record, with each distinct Sample object, told
    apart by identity, encoded once and spliced into the line."""
    distinct = {id(sample): sample for sample in record.samples}
    encoded = {key: json.dumps(_sample_to_json(sample)) for key, sample in distinct.items()}
    head = json.dumps({"id": record.id, "prompt": record.prompt})[:-1]
    tail = {}
    if record.reference_claims is not None:
        tail["reference_claims"] = [_claim_to_json(c) for c in record.reference_claims]
    if record.ground_truth is not None:
        tail["ground_truth"] = _gt_to_json(record.ground_truth)
    samples = ", ".join([encoded[id(sample)] for sample in record.samples])
    rest = ", " + json.dumps(tail)[1:] if tail else "}"
    return f'{head}, "samples": [{samples}]{rest}\n'


def write_records(records: list[GenerationRecord]) -> bytes:
    """Serialize records to JSONL bytes; parse_records(write_records(x)) == x.

    Each line is what ``json.dumps`` writes for the record as an object of
    its fields in declaration order, each nested dataclass an object too,
    ``token_labels`` under the key ``labels`` and every field that is None
    left out, then "\\n".  A Sample object that a record holds more than
    once (mock corpora repeat theirs) is encoded once per record."""
    return "".join(map(_record_line, records)).encode("utf-8")


# ---------------------------------------------------------------------------
# Other JSON files: configs, rules and specs in, reports out


def read_json_file(path: str):
    """Decode a config, rules or mock spec file; malformed JSON or UTF-8, or
    JSON nested too deeply to decode, is a ConfigError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from None
    except RecursionError:
        raise ConfigError(f"malformed JSON in {path}: nested too deeply") from None


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_float_repr = float.__repr__  # what json writes for a finite float
_FLUSH_PIECES = 4096  # pieces gathered before they are written out


def write_json(obj, fp) -> None:
    """Write to the text stream fp what ``json.dumps(obj, indent=2)`` gives,
    and a newline.

    Dataclasses become objects keyed in field order, less each field declared
    with ``metadata={"omit_none": True}`` whose value is None (never a
    dataclass's first field); dicts with string keys, lists, tuples,
    strings, numbers, bools and None are encoded as json encodes them, float
    and int subclasses included.  Any other value, or a key that is not a
    string, raises TypeError.  The text goes out in chunks, once
    _FLUSH_PIECES pieces have gathered after an array or object element that
    is itself an array or object, so neither a tree of dicts nor the whole
    text of a report is held.
    """
    parts: list[str] = []
    _put(obj, "\n", parts, fp.write)
    parts.append("\n")
    fp.write("".join(parts))


def _put(obj, nl: str, parts: list[str], write) -> None:
    """Append the JSON text of obj to parts; nl is a newline and the indent
    of obj's own line.  The elements of an array or object that are exact
    str, float, bool or None values, the bulk of a report, are encoded in
    place, each after its prefix: a separator, the indent and the key."""
    kind = type(obj)
    omitted = ()  # the prefixes of members left out when they are None
    inner = nl + "  "
    if hasattr(kind, "__dataclass_fields__"):
        brackets, values = "{}", vars(obj).values()
        prefixes, omitted = _field_prefixes(kind, inner)
    elif isinstance(obj, (list, tuple)):
        brackets, values = "[]", obj
        prefixes = ["[" + inner] + ["," + inner] * (len(obj) - 1)
    elif isinstance(obj, dict):
        brackets, values = "{}", obj.values()
        prefixes = [f",{inner}{encode_basestring_ascii(k)}: " for k in obj]
        if prefixes:
            prefixes[0] = "{" + prefixes[0][1:]
    else:
        parts.append(_scalar_text(obj))
        return
    if not values:
        parts.append(brackets)
        return
    for prefix, value in zip(prefixes, values):
        kind = type(value)
        if kind is float:
            text = _float_repr(value)
            parts.append(prefix + (text if value - value == 0.0 else _NON_FINITE[text]))
        elif kind is str:
            parts.append(prefix + encode_basestring_ascii(value))
        elif kind is bool:
            parts.append(prefix + ("true" if value else "false"))
        elif value is None:
            if prefix not in omitted:
                parts.append(prefix + "null")
        else:
            parts.append(prefix)
            _put(value, inner, parts, write)
            if len(parts) >= _FLUSH_PIECES:
                write("".join(parts))
                parts.clear()
    parts.append(nl + brackets[1])


@functools.cache  # a report has a few dataclasses at a few depths
def _field_prefixes(kind: type, inner: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The member prefixes of a dataclass whose members are indented by
    inner: "{" or ",", inner, then each field name encoded and ": "; and
    the prefixes of its fields declared omit_none."""
    members = fields(kind)
    prefixes = tuple(f"{',' if i else '{'}{inner}{encode_basestring_ascii(f.name)}: "
                     for i, f in enumerate(members))
    return prefixes, tuple(p for p, f in zip(prefixes, members) if f.metadata.get("omit_none"))


def _scalar_text(obj) -> str:
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NON_FINITE.get(text, text)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
