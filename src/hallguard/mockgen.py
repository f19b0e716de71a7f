"""Seeded synthetic corpora with ground-truth labels for desk-scale verification.

Construction contract (what the acceptance suite leans on):

* Clean records emit agreeing samples whose stored token distribution is
  softmax(z), while the correct class is drawn from softmax(z / T_true), so a
  temperature fit over the corpus recovers T_true.  Their stored-distribution
  entropy is forced into [0.25, 0.70] nats, clear of the 0.9-nat router
  threshold, and every other signal stays quiet.
* Model-class injections emit near-uniform token distributions (entropy about
  ln V, well above 1.2 nats for V >= 4) and split their answers round-robin
  over three lexically disjoint variants, so consensus support stays <= 0.5.
* Context-class injections keep a unanimous answer but alternate between two
  vocabulary-disjoint reasoning templates, the flagged
  right-answer-wrong-reasoning shape.
* Data-class injections claim a value offset from the generated fact store by
  at least 5, so exact-tolerance checking always mismatches.

Injection severities sit well clear of the default router thresholds on
purpose: acceptance needs separation margin, not borderline flakiness.
Everything is deterministic in the seed; texts are templated, not realistic.

Draw order (the seed -> bytes contract): one ``numpy.random.default_rng(seed)``
stream gives each record, in turn, the uniform that picks its class, the
fact value (uniform on [10, 99]), V raw logits (normal, sd 0.02 for the
model class, 1.5 otherwise), the uniform that picks the correct token, the
uniform of the self-confidence, and, for the data class only, the claim
offset (uniform on [5, 15]).  ``_draws`` makes every one of these draws;
building a record from them draws nothing more, so ``generate_fact_store``
reads the values alone and builds no record.  The correct token is what
``rng.choice(V, p=softmax(z / T_true))`` returns for the same uniform: the
first index whose normalised cumulative probability exceeds it.

Building: ``generate_corpus`` draws every record, stacks the raw logits into
the corpus's (N, V) matrix, moves every non-model row into the entropy band
in one search, then scores the matrix in one pass, the stored probabilities
and the correct-token CDFs alike; each row comes out bit for bit as it would
on its own.  A record's repeated samples are one object: a clean or data
record holds one Sample n times, a model record three in turn and a context
record two, and all of them share the record's one TokenDistribution.
``write_records`` encodes each such object once.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grounding import FactEntry, FactStore
from .records import (FAILURE_CLASSES, Claim, GenerationRecord, GroundTruthLabel, Sample,
                      TokenDistribution, finite_number)
from .uncertainty import apply_temperature, row_entropies

CLEAN_ENTROPY_LO = 0.25
CLEAN_ENTROPY_HI = 0.70

_REASONING_BASE = "standard ledger lookup confirmed the filed figure"
_REASONING_SPLIT = (
    "income ratio threshold exceeded under clause four",
    "collateral margin policy applies beneath section nine",
)


@dataclass(frozen=True)
class MockSpec:
    """Parameters of one synthetic corpus draw."""

    n_records: int
    samples_per_record: int = 5
    true_temperature: float = 1.0
    inject_rates: Mapping[str, float] = field(default_factory=dict)
    vocab_size: int = 6
    seed: int = 0

    def __post_init__(self):
        # the types first, so that the range checks below compare numbers
        for key in ("n_records", "samples_per_record", "vocab_size", "seed"):
            value = getattr(self, key)
            if type(value) is not int or value < 0:  # 2.0 and True are no counts
                raise ValueError(f"{key} must be a nonnegative integer")
        if not finite_number(self.true_temperature):
            raise ValueError("true_temperature must be a finite number")
        if not isinstance(self.inject_rates, Mapping) or not all(map(finite_number, self.inject_rates.values())):
            raise ValueError("inject_rates must be an object of finite numbers")
        if self.n_records < 1:
            raise ValueError("n_records must be >= 1")
        if self.samples_per_record < 2:
            raise ValueError("samples_per_record must be >= 2 (consensus and semantic "
                             "entropy need multiple generations)")
        if not self.true_temperature > 0.0:
            raise ValueError("true_temperature must be positive")
        if self.vocab_size < 4:
            raise ValueError("vocab_size must be >= 4 so injected uniform entropy clears 1.2 nats")
        if max(self.n_records, self.samples_per_record, self.vocab_size) > sys.maxsize:
            raise ValueError(f"n_records, samples_per_record and vocab_size must be at most {sys.maxsize}")
        total = 0.0
        for cls, rate in self.inject_rates.items():
            if cls not in FAILURE_CLASSES:
                raise ValueError(f"unknown failure class {cls!r}")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"inject rate for {cls!r} must lie in [0, 1]")
            total += rate
        if total > 1.0 + 1e-12:
            raise ValueError("inject rates must sum to at most 1")


def _scale_into_entropy_band(z: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Rescale each row of an (N, V) logit matrix so that its softmax entropy
    lands in [lo, hi].

    Entropy of softmax(c * z) decreases continuously in c from ln V down to
    the support minimum, so a bracket-and-bisect always terminates.  All rows
    search at once, and each step scores only the rows still searching, with
    row_entropies, which equals entropy_nats of each row bit for bit: every
    row takes the steps, the c and the bytes it would take on its own.  A
    constant row, which cannot be sharpened, first gets z[0] += 1; a row
    already in the band comes back as it is; any other row comes back as
    c * z at the c that first lands in the band, or at the last c tried.
    """
    z = z.copy()
    z[np.ptp(z, axis=1) < 1e-9, 0] += 1.0
    out = z.copy()
    h = row_entropies(apply_temperature(z, 1.0))
    rows = np.flatnonzero((h < lo) | (h > hi))
    c_lo, c_hi = np.full(len(rows), 1e-6), np.ones(len(rows))
    growing = h[rows] > hi  # the entropy at c_hi = 1
    while growing.any():
        c_hi[growing] *= 2.0
        growing &= c_hi < 1e6
        growing[growing] = row_entropies(apply_temperature(
            c_hi[growing, None] * z[rows[growing]], 1.0)) > hi
    for _ in range(200):
        if not len(rows):
            break
        c = (c_lo + c_hi) / 2.0
        out[rows] = scaled = c[:, None] * z[rows]
        h = row_entropies(apply_temperature(scaled, 1.0))
        above, searching = h > hi, (h < lo) | (h > hi)
        c_lo, c_hi = np.where(above, c, c_lo), np.where(above, c_hi, c)
        rows, c_lo, c_hi = rows[searching], c_lo[searching], c_hi[searching]
    return out


def _pick_class(u: float, rates: Mapping[str, float]) -> str | None:
    acc = 0.0
    for cls in FAILURE_CLASSES:
        acc += rates.get(cls, 0.0)
        if u < acc:
            return cls
    return None


def _draws(spec: MockSpec) -> Iterator[tuple]:
    """Every random number of each record, drawn in the order of the module
    docstring: (class, value, raw logits, choice uniform, confidence uniform,
    data-class offset or None)."""
    rng = np.random.default_rng(spec.seed)
    for _ in range(spec.n_records):
        cls = _pick_class(float(rng.random()), spec.inject_rates)
        value = round(float(rng.uniform(10.0, 99.0)), 2)
        z = rng.normal(0.0, 0.02 if cls == "model" else 1.5, spec.vocab_size)
        u_correct = float(rng.random())
        u_confidence = float(rng.random())
        offset = float(rng.uniform(5.0, 15.0)) if cls == "data" else None
        yield cls, value, z, u_correct, u_confidence, offset


def _score(z: np.ndarray, u_correct: np.ndarray, true_temperature: float) -> tuple[list, list]:
    """The stored probabilities and the correct-token index of every row of
    the corpus's (N, V) logit matrix, in one pass; each row is what the same
    arithmetic gives on that row alone (see ``apply_temperature``)."""
    probs = apply_temperature(z, 1.0)
    probs = np.maximum(probs, 1e-12)  # keep every entry loggable for refits
    probs = probs / probs.sum(axis=-1, keepdims=True)
    # what rng.choice(V, p=softmax(z / T)) does with the one uniform it draws:
    # the first index whose normalised cumulative probability exceeds it,
    # which is the count of entries of the nondecreasing CDF at or below it
    cdf = apply_temperature(z, true_temperature).cumsum(axis=-1)
    cdf /= cdf[:, -1:]
    correct = (cdf <= u_correct[:, None]).sum(axis=-1)
    return probs.tolist(), correct.tolist()


def _record(i: int, draw: tuple, probs: list[float], correct_answer: str, spec: MockSpec,
            token_labels: list[str]) -> GenerationRecord:
    """The i-th record of the corpus, built from its draws and its scored
    probabilities; it draws no random number itself.  Its samples repeat
    one Sample object per distinct (answer, reasoning) pair."""
    cls, value, _, _, u_confidence, offset = draw
    key = f"fact_{i:05d}"
    dist = TokenDistribution(token_labels=list(token_labels), probs=probs)

    if cls == "model":  # three lexically disjoint answers, round-robin
        pairs = [(f"{round(value + k + 1.0, 2)}", _REASONING_BASE) for k in range(3)]
        confidence_base = 0.30 + 0.15 * u_confidence
    elif cls == "context":  # one answer, two vocabulary-disjoint reasonings in turn
        pairs = [(f"{value}", reasoning) for reasoning in _REASONING_SPLIT]
        confidence_base = 0.55 + 0.20 * u_confidence
    else:
        pairs = [(f"{value}", _REASONING_BASE)]
        confidence_base = (0.75 if cls is None else 0.55) + 0.20 * u_confidence

    claim_value = value
    if cls == "data":
        claim_value = round(value + offset, 2)

    distinct = [Sample(text=answer, token_dists=[dist], reasoning=reasoning, answer=answer,
                       self_confidence=round(confidence_base, 4))
                for answer, reasoning in pairs[:spec.samples_per_record]]
    return GenerationRecord(
        id=f"rec-{i:05d}",
        prompt=f"What is the reported value of {key}?",
        samples=[distinct[j % len(distinct)] for j in range(spec.samples_per_record)],
        reference_claims=[Claim(key=key, value=claim_value)],
        ground_truth=GroundTruthLabel(
            is_hallucinated=cls is not None,
            failure_class=cls,
            correct_answer=correct_answer,
        ),
    )


def generate_corpus(spec: MockSpec) -> list[GenerationRecord]:
    """Deterministic labeled corpus; same seed, same bytes.  Every record's
    logits are drawn first, the non-model rows are band-scaled in one search
    and the corpus is scored in one pass, then each record is built."""
    token_labels = [f"tok{j}" for j in range(spec.vocab_size)]
    draws = list(_draws(spec))
    z = np.array([draw[2] for draw in draws])
    banded = np.array([draw[0] != "model" for draw in draws])  # model rows stay near-uniform
    z[banded] = _scale_into_entropy_band(z[banded], CLEAN_ENTROPY_LO, CLEAN_ENTROPY_HI)
    probs, correct = _score(z, np.array([draw[3] for draw in draws]), spec.true_temperature)
    return [_record(i, draw, probs[i], token_labels[correct[i]], spec, token_labels)
            for i, draw in enumerate(draws)]


def generate_fact_store(spec: MockSpec) -> FactStore:
    """The reference store matching generate_corpus(spec): consistent with clean
    records' claims, contradicted by data-class injections.  It reads only the
    values of the draws and builds no record."""
    return FactStore(entries={f"fact_{i:05d}": FactEntry(value=draw[1])
                              for i, draw in enumerate(_draws(spec))})


def mock_spec_from_json(obj) -> MockSpec:
    """Build a MockSpec from a decoded ``--spec`` file.

    The JSON shape is checked here and every field by MockSpec, so a bad spec
    fails with a ConfigError naming the field, the way a bad config file does.
    """
    if not isinstance(obj, dict):
        raise ConfigError("mock spec must be a JSON object")
    unknown = set(obj) - set(MockSpec.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown mock spec fields: {sorted(unknown)}")
    if "n_records" not in obj:
        raise ConfigError("mock spec requires n_records")
    try:
        return MockSpec(**obj)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
