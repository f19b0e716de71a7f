"""The tiered detect -> route -> mitigate -> validate -> refine cycle.

Detection computes every signal whose inputs a record actually carries;
gaps become absent signals, never errors.  ``detect_records`` is the one
loop over a corpus, which ``analyze`` and ``run_cycle`` read and ``detect``
runs over one record: records are screened in blocks of ``BLOCK``, and at
most ``BLOCK`` records' distributions are held, so that one numpy pass
scores a block's token entropies.  An ordered rule list routes each
signal bundle to a root-cause tier (model / context / data) with recommended
mitigations.  The cycle itself never calls a model: mitigation is advisory,
and validation compares against a re-generated record supplied in the corpus
under the ``<id>.retry`` convention.  Everything lands in a ledger whose
per-tier counts and residual errors are the refinement artifact.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .consistency import RaceReport, consensus_of, race_absence, race_of, sample_answers
from .errors import ConfigError
from .grounding import STATUS_MISMATCH, ClaimVerdict, FactStore, check_claims
from .records import FAILURE_CLASSES, GenerationRecord, finite_number, read_json_file, write_json
from .semantic import DEFAULT_CLUSTER_THRESHOLD, cluster_texts, sample_clustering, semantic_entropy
from .uncertainty import parse_self_declared_confidence, sample_mean_entropies

_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
COMPARATORS = tuple(_COMPARE)

RETRY_SUFFIX = ".retry"


@dataclass(frozen=True)
class DetectionSignals:
    """Per-record bundle of detection metric values; absent means uncomputable."""

    record_id: str
    h_p_mean: float | None = None
    h_s: float | None = None
    consensus_support: float | None = None
    self_confidence: float | None = None
    race: RaceReport | None = None
    fact_verdicts: list[ClaimVerdict] | None = None


# The routable signals: each id reads one float from a bundle, None when absent.
SIGNALS: dict[str, Callable[[DetectionSignals], float | None]] = {
    "h_p_mean": lambda s: s.h_p_mean,
    "h_s": lambda s: s.h_s,
    "consensus_support": lambda s: s.consensus_support,
    "self_confidence": lambda s: s.self_confidence,
    "race_flag": lambda s: None if s.race is None else float(s.race.flag_right_answer_wrong_reasoning),
    "race_h_reasoning": lambda s: None if s.race is None else s.race.h_reasoning,
    "race_mutual_information": lambda s: None if s.race is None else s.race.mutual_information,
    "fact_mismatches": lambda s: None if s.fact_verdicts is None else float(
        sum(v.status == STATUS_MISMATCH for v in s.fact_verdicts)
    ),
}


@dataclass(frozen=True)
class RouterRule:
    """One threshold comparison over one signal, mapped to a tier."""

    name: str
    signal: str
    comparator: str
    threshold: float
    tier: str
    recommended_mitigations: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not isinstance(self.name, str):  # the ledger joins the names it fired
            raise ValueError("name must be a string")
        if not isinstance(self.signal, str) or self.signal not in SIGNALS:
            raise ValueError(f"unknown signal {self.signal!r}")
        if self.comparator not in COMPARATORS:
            raise ValueError(f"comparator must be one of {COMPARATORS}")
        if not finite_number(self.threshold):
            raise ValueError("threshold must be a finite number")
        object.__setattr__(self, "threshold", float(self.threshold))
        if self.tier not in FAILURE_CLASSES:
            raise ValueError(f"tier must be one of {FAILURE_CLASSES}")
        mitigations = self.recommended_mitigations
        if not isinstance(mitigations, list) or not all(isinstance(m, str) for m in mitigations):
            raise ValueError("recommended_mitigations must be a list of strings")


@dataclass(frozen=True)
class Validation:
    """A flagged record's signals after mitigation; improved when every
    signal that fired before now passes or moved by min_delta."""

    after: DetectionSignals
    improved: bool


@dataclass(frozen=True)
class TierVerdict:
    """Routed outcome; tier is None when no rule fired (a pass)."""

    fired_rules: list[str]
    tier: str | None
    recommendations: list[str]
    validation: Validation | None = field(default=None, metadata={"omit_none": True})


@dataclass(frozen=True)
class LedgerEntry:
    record_id: str
    signals: DetectionSignals
    verdict: TierVerdict
    action_taken: str
    outcome: str


@dataclass(frozen=True)
class CycleLedger:
    entries: list[LedgerEntry]
    summary: dict[str, int]


def default_rules() -> list[RouterRule]:
    """Shipped rule set; order is priority.  Thresholds are tuned against the
    mock-corpus separation margins, they are not empirical claims."""
    return [
        RouterRule("high_token_entropy", "h_p_mean", ">", 0.9, "model",
                   ["temperature_calibration", "sampling_filter"]),
        RouterRule("high_semantic_entropy", "h_s", ">", 0.45, "model",
                   ["sampling_filter", "ensemble_agreement"]),
        RouterRule("low_consensus", "consensus_support", "<", 0.6, "model",
                   ["ensemble_agreement", "sampling_filter"]),
        RouterRule("reasoning_divergence", "race_flag", ">=", 0.5, "context",
                   ["prompt_optimization", "instruction_reweighting"]),
        RouterRule("fact_mismatch", "fact_mismatches", ">=", 1.0, "data",
                   ["grounding_refresh", "verified_fine_tuning"]),
    ]


@dataclass(frozen=True)
class PipelineConfig:
    """What detection and validation read: the clustering threshold, the fact
    tolerances, the validation margin and the router rules.  A ``--config``
    file sets the four numbers; only ``pipeline --rules`` sets the rules."""

    cluster_threshold: float = DEFAULT_CLUSTER_THRESHOLD
    fact_rel_tol: float = 0.0
    fact_abs_tol: float = 0.0
    min_delta: float = 0.05
    rules: list[RouterRule] = field(default_factory=default_rules)

    def __post_init__(self):
        for key in _CONFIG_KEYS:
            if not finite_number(getattr(self, key)):
                raise ValueError(f"{key} must be a finite number")
        if not 0.0 <= self.cluster_threshold <= 2.0:
            raise ValueError("cluster_threshold must lie in [0, 2]")
        if self.fact_rel_tol < 0.0 or self.fact_abs_tol < 0.0:
            raise ValueError("fact tolerances must be nonnegative")
        if self.min_delta < 0.0:
            raise ValueError("min_delta must be nonnegative")


# records screened per token-entropy pass: a block's distributions are held
# until it is scored, so this bounds what detect_records holds
BLOCK = 16


def detect(record: GenerationRecord, config: PipelineConfig | None = None,
           store: FactStore | None = None) -> DetectionSignals:
    """Screen one record: detect_records over a corpus of one."""
    return next(detect_records([record], config, store))


def detect_records(records: Iterable[GenerationRecord], config: PipelineConfig | None = None,
                   store: FactStore | None = None) -> Iterator[DetectionSignals]:
    """Screen each record, computing every metric whose inputs are available,
    and yield the signals in input order.

    Missing inputs (no token distributions, a single sample, no reasoning
    traces, no fact store) yield absent signals rather than errors.  records
    may be any iterable, read once, in blocks of BLOCK: a record's other
    signals are computed as it arrives, and only its distributions wait for
    the one sample_mean_entropies call that scores the block.  A corpus
    raises what a record-by-record loop raises: on an error the held records
    are scored one at a time first, and a record's distributions come before
    its other signals.
    """
    config = config or PipelineConfig()
    scored_block: list[list] = []  # the scored distributions of each record held
    signals_block: list[dict] = []  # and its other signals
    try:
        for record in records:
            scored_block.append([sample.token_dists for sample in record.samples if sample.token_dists])
            signals_block.append(_other_signals(record, config, store))
            if len(signals_block) == BLOCK:
                yield from _with_h_p_means(scored_block, signals_block)
                scored_block, signals_block = [], []
        yield from _with_h_p_means(scored_block, signals_block)
    except Exception:  # any error, raised again once the held records have had their turn
        for scored in scored_block:
            sample_mean_entropies(scored)  # raises the first bad record's error
        raise


def _with_h_p_means(scored_block: list[list], signals_block: list[dict]) -> Iterator[DetectionSignals]:
    means = sample_mean_entropies([dists for scored in scored_block for dists in scored])
    start = 0
    for scored, signals in zip(scored_block, signals_block):
        n = len(scored)
        # np.mean's sum and division over the record's own means, without its wrapper
        h_p_mean = float(np.add.reduce(means[start:start + n])) / n if n else None
        start += n
        yield DetectionSignals(h_p_mean=h_p_mean, **signals)


def _other_signals(record: GenerationRecord, config: PipelineConfig, store: FactStore | None) -> dict:
    """The DetectionSignals fields of one record other than h_p_mean.

    The record's clustering plan: semantic entropy, consensus and the
    reasoning/answer decomposition read the clusterings of up to three text
    tuples (the texts, unless stored embeddings stand for them; the answers;
    the reasonings), which often repeat one another, so each distinct tuple
    is clustered once, and nothing outlives the record."""
    threshold = config.cluster_threshold
    cluster = functools.cache(cluster_texts)
    answers = sample_answers(record)
    h_s = None
    consensus_support = None
    if len(record.samples) >= 2:
        h_s = semantic_entropy(sample_clustering(record, threshold, cluster))
        consensus_support = consensus_of(answers, cluster(answers, threshold)).support

    confidences = []
    for sample in record.samples:
        value = sample.self_confidence
        if value is None:
            value = parse_self_declared_confidence(sample.text)
        if value is not None:
            confidences.append(value)
    self_confidence = None
    if confidences:
        self_confidence = float(np.add.reduce(confidences, dtype=float)) / len(confidences)

    race = None
    if race_absence(record) is None:  # then every sample has an answer, and answers holds them
        race = race_of(cluster(tuple(s.reasoning for s in record.samples), threshold),
                       cluster(answers, threshold))

    fact_verdicts = None
    if record.reference_claims and store is not None:
        fact_verdicts = check_claims(
            record.reference_claims, store, config.fact_rel_tol, config.fact_abs_tol
        )

    return {"record_id": record.id, "h_s": h_s, "consensus_support": consensus_support,
            "self_confidence": self_confidence, "race": race, "fact_verdicts": fact_verdicts}


def _fires(rule: RouterRule, signals: DetectionSignals) -> bool:
    value = SIGNALS[rule.signal](signals)
    return value is not None and _COMPARE[rule.comparator](value, rule.threshold)


def route(signals: DetectionSignals, rules: list[RouterRule]) -> TierVerdict:
    """Evaluate rules in order; the first fired rule's tier wins.

    Recommendations are the deduplicated concatenation of fired rules'
    mitigation lists in rule order.  Absent signals never fire.
    """
    fired = [rule for rule in rules if _fires(rule, signals)]
    recommendations: list[str] = []
    for rule in fired:
        for mitigation in rule.recommended_mitigations:
            if mitigation not in recommendations:
                recommendations.append(mitigation)
    return TierVerdict(
        fired_rules=[rule.name for rule in fired],
        tier=fired[0].tier if fired else None,
        recommendations=recommendations,
    )


def validate(before: DetectionSignals, after: DetectionSignals,
             config: PipelineConfig) -> Validation:
    """Re-evaluate the signals that fired before mitigation.

    Improved means every rule that fired before no longer fires on the after
    bundle (the test route uses), or its signal moved in the passing
    direction by at least min_delta.  An absent after-signal is not an
    improvement, and neither is an unchanged bundle.
    """
    if before.record_id != after.record_id:
        raise ValueError(
            f"record id mismatch: {before.record_id!r} vs {after.record_id!r}"
        )
    verdicts: list[bool] = []
    for rule in config.rules:
        if not _fires(rule, before):
            continue
        read = SIGNALS[rule.signal]
        b, a = read(before), read(after)
        if a is None:
            verdicts.append(False)
            continue
        gain = b - a if rule.comparator in (">", ">=") else a - b
        verdicts.append(not _fires(rule, after) or (gain > 0.0 and gain >= config.min_delta))
    return Validation(after=after, improved=all(verdicts))


def run_cycle(records: Iterable[GenerationRecord], config: PipelineConfig | None = None,
              store: FactStore | None = None) -> CycleLedger:
    """Run detect -> route -> validate over a corpus and assemble the ledger.

    records may be any iterable, read once: detect_records screens the
    records as they arrive, and only their signals are kept.  The records are
    then decided in order of id length, so that a base comes before its
    retry, by one rule: a record whose id is ``<base>.retry``, where
    ``<base>`` was routed to a tier, is the post-mitigation re-generation of
    its base, and the base is validated against it instead of being flagged
    for external mitigation; every other record is routed.  So in ``a,
    a.retry, a.retry.retry`` with ``a`` flagged, ``a.retry`` validates ``a``
    and ``a.retry.retry`` is routed; with ``a`` passing, ``a.retry`` is
    routed, and ``a.retry.retry`` validates it if it is flagged.  Each routed
    record has one ledger entry, in input order, and the summary counts the
    entries.
    """
    config = config or PipelineConfig()

    by_id = {signals.record_id: signals for signals in detect_records(_unique_ids(records), config, store)}
    verdicts: dict[str, TierVerdict] = {}  # the routed records, a validated base with its validation
    for rid in sorted(by_id, key=len):  # a base is decided before its retry
        base = rid[: -len(RETRY_SUFFIX)]
        if rid.endswith(RETRY_SUFFIX) and base in verdicts and verdicts[base].tier is not None:
            validation = validate(by_id[base], replace(by_id[rid], record_id=base), config)
            verdicts[base] = replace(verdicts[base], validation=validation)
        else:
            verdicts[rid] = route(by_id[rid], config.rules)

    entries: list[LedgerEntry] = []
    for rid, signals in by_id.items():
        verdict = verdicts.get(rid)
        if verdict is None:  # a retry, folded into its base
            continue
        if verdict.tier is None:
            action, outcome = "none", "pass"
        elif verdict.validation is None:
            action, outcome = "flagged_for_external_mitigation", "pending"
        else:
            action = "validated_retry"
            outcome = "improved" if verdict.validation.improved else "not_improved"
        entries.append(LedgerEntry(rid, signals, verdict, action, outcome))

    tiers = [entry.verdict.tier or "pass" for entry in entries]
    counts = {tier: tiers.count(tier) for tier in ("pass", *FAILURE_CLASSES)}
    summary = {"total": len(entries), **counts, "tiered": len(entries) - counts["pass"],
               "residuals": sum(entry.outcome == "not_improved" for entry in entries)}
    return CycleLedger(entries=entries, summary=summary)


def _unique_ids(records: Iterable[GenerationRecord]) -> Iterator[GenerationRecord]:
    """records, checked for a repeated id as each one is read."""
    seen: set[str] = set()
    for rec in records:
        if rec.id in seen:
            raise ValueError("duplicate record ids in corpus")
        seen.add(rec.id)
        yield rec


# ---------------------------------------------------------------------------
# Config and rules file I/O

_CONFIG_KEYS = tuple(k for k in PipelineConfig.__dataclass_fields__ if k != "rules")


def load_config(path: str | None) -> PipelineConfig:
    """Load a ``--config`` JSON file; defaults when no path is given.

    The file is an object of numbers that PipelineConfig checks, so a bad
    file fails with a ConfigError naming the field before any record is read.
    """
    if path is None:
        return PipelineConfig()
    raw = read_json_file(path)
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    try:
        return PipelineConfig(**raw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_rules(obj) -> list[RouterRule]:
    """Load a rules list from decoded JSON; RouterRule checks each rule, and errors name it."""
    if not isinstance(obj, list):
        raise ConfigError("rules file must be a JSON list")
    rules = []
    for i, raw in enumerate(obj):
        if not isinstance(raw, dict):
            raise ConfigError(f"rule #{i} must be an object")
        name = raw.get("name", "")
        if not isinstance(name, str):
            raise ConfigError(f"rule #{i}: name must be a string")
        name = name or f"rule #{i}"
        try:
            rules.append(RouterRule(name, raw.get("signal"), raw.get("comparator"), raw.get("threshold"),
                                    raw.get("tier"), raw.get("recommended_mitigations", [])))
        except ValueError as exc:
            raise ConfigError(f"rule {name!r}: {exc}") from None
    return rules


# ---------------------------------------------------------------------------
# Report serialization


def ledger_to_json(ledger: CycleLedger, fp) -> None:
    """Write the ledger to fp as JSON (see write_json)."""
    write_json(ledger, fp)


def markdown_cell(text: str) -> str:
    """text as one markdown table cell: each ``|`` escaped and each line break
    (``\\r\\n``, ``\\r`` or ``\\n``) one space, so that no id or rule name can
    end its cell or its row; every other character is kept."""
    return text.replace("|", "\\|").replace("\r\n", " ").replace("\r", " ").replace("\n", " ")


def ledger_to_markdown(ledger: CycleLedger) -> str:
    s = ledger.summary
    lines = [
        "# Cycle ledger",
        "",
        "| tier | records |",
        "| --- | --- |",
        *(f"| {tier} | {s[tier]} |" for tier in ("pass", *FAILURE_CLASSES)),
        "",
        f"Total: {s['total']}  Tiered: {s['tiered']}  Residual errors: {s['residuals']}",
        "",
    ]
    flagged = [e for e in ledger.entries if e.verdict.tier is not None]
    if flagged:
        lines.append("## Routed records")
        lines.append("")
        lines.append("| record | tier | fired rules | outcome |")
        lines.append("| --- | --- | --- | --- |")
        for e in flagged:
            lines.append(
                f"| {markdown_cell(e.record_id)} | {e.verdict.tier} | "
                f"{markdown_cell(', '.join(e.verdict.fired_rules))} | {e.outcome} |"
            )
        lines.append("")
    return "\n".join(lines)


