import io
import json
import math
from dataclasses import is_dataclass, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hallguard.consistency import RaceReport, race_metrics, self_consistency_consensus
from hallguard.errors import CapabilityError, ConfigError
from hallguard.grounding import ClaimVerdict, FactEntry, FactStore, check_claims
from hallguard.pipeline import (
    BLOCK,
    RETRY_SUFFIX,
    SIGNALS,
    CycleLedger,
    DetectionSignals,
    LedgerEntry,
    PipelineConfig,
    RouterRule,
    TierVerdict,
    Validation,
    default_rules,
    detect,
    detect_records,
    ledger_to_json,
    ledger_to_markdown,
    load_rules,
    route,
    run_cycle,
    signal_value,
    validate,
)
from hallguard.records import (
    GenerationRecord,
    RecordParseError,
    Sample,
    TokenDistribution,
    iter_records,
    write_json,
)
from hallguard.semantic import semantic_entropy_of_record
from hallguard.uncertainty import parse_self_declared_confidence, sample_mean_entropies

from conftest import decoded, make_claim, make_dist, make_record


STORE = FactStore(entries={"rate": FactEntry(value=5.0)})


def _signals(**kwargs):
    return DetectionSignals(record_id=kwargs.pop("record_id", "r"), **kwargs)


# --- detect ---


def test_detect_token_dists_only():
    record = GenerationRecord(
        id="r1",
        prompt="q",
        samples=[Sample(text="plain statement", token_dists=[make_dist([0.6, 0.3, 0.1])])],
    )
    signals = detect(record)
    assert signals.h_p_mean == pytest.approx(0.898, abs=0.005)
    assert signals.h_s is None
    assert signals.consensus_support is None
    assert signals.race is None
    assert signals.fact_verdicts is None


def test_detect_split_samples():
    record = make_record(
        answers=["18.5%", "18.5%", "18.5%", "22%", "18.5%"],
    )
    signals = detect(record)
    assert signals.h_s == pytest.approx(0.500, abs=0.005)
    assert signals.consensus_support == pytest.approx(0.8)


def test_detect_fact_mismatch():
    record = make_record(answers=["answer"], claims=[make_claim("rate", 4.25)])
    signals = detect(record, store=STORE)
    assert signals.fact_verdicts is not None
    assert signals.fact_verdicts[0].status == "mismatch"
    # without a store the signal stays absent
    assert detect(record).fact_verdicts is None


def test_detect_self_confidence_from_field_and_text():
    record = make_record(answers=["a", "b"], self_confidences=[0.9, None])
    assert detect(record).self_confidence == pytest.approx(0.9)
    with_text = make_record(texts=['"Yes." (Confidence: 0.65)', "no numbers here"])
    assert detect(with_text).self_confidence == pytest.approx(0.65)


def test_detect_bare_single_sample_yields_all_absent():
    record = make_record(texts=["just words"])
    signals = detect(record)
    assert signals == DetectionSignals(record_id="rec")
    # all-absent bundles still route, to a pass verdict
    assert route(signals, default_rules()).tier is None


# Lexically overlapping texts: pairs of these lie at equal cosine
# distances, so average linkage meets exact ties.
TIE_TEXTS = ["alpha beta", "beta gamma", "alpha gamma", "delta", "alpha beta gamma"]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_shuffling_samples_keeps_the_partition_signals(data):
    """Signals depend on the set of samples, not their order.  h_s and the
    RACE entropies sum the same masses in another cluster order, so they may
    move in the last bits."""
    n = data.draw(st.integers(2, 8))
    texts = st.lists(st.sampled_from(TIE_TEXTS), min_size=n, max_size=n)
    record = make_record(answers=data.draw(texts), reasonings=data.draw(texts))
    if data.draw(st.booleans()):  # stored vectors from {-1, 0, 1}^3, zero rows included
        row = st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=3, max_size=3)
        vectors = data.draw(st.lists(row, min_size=n, max_size=n))
        record = replace(record, samples=[replace(s, embedding=v) for s, v in zip(record.samples, vectors)])
    config = PipelineConfig(cluster_threshold=data.draw(st.sampled_from([0.35, 0.6, 1.0, 1.2])))
    perm = data.draw(st.permutations(range(n)))
    shuffled = replace(record, samples=[record.samples[i] for i in perm])

    first, second = detect(record, config), detect(shuffled, config)
    assert second.consensus_support == first.consensus_support
    masses = [sorted(semantic_entropy_of_record(r, config.cluster_threshold).assignment.cluster_masses)
              for r in (record, shuffled)]
    assert masses[0] == masses[1]
    assert second.h_s == pytest.approx(first.h_s, rel=0.0, abs=1e-12)
    for name in ("h_reasoning", "h_answer", "h_joint", "mutual_information", "mutual_information_raw"):
        assert getattr(second.race, name) == pytest.approx(getattr(first.race, name), rel=0.0, abs=1e-12)
    assert second.race.flag_right_answer_wrong_reasoning == first.race.flag_right_answer_wrong_reasoning


# --- detect_records: blocks of records ---


def _detect_one_at_a_time(record, config, store=None):
    """The signals of one record as a record-by-record loop computed them:
    the oracle for detect_records."""
    scored = [s.token_dists for s in record.samples if s.token_dists]
    h_p_mean = float(np.add.reduce(sample_mean_entropies(scored))) / len(scored) if scored else None
    h_s = consensus_support = None
    if len(record.samples) >= 2:
        h_s = semantic_entropy_of_record(record, threshold=config.cluster_threshold).entropy
        consensus_support = self_consistency_consensus(record, threshold=config.cluster_threshold).support
    stated = (s.self_confidence if s.self_confidence is not None else parse_self_declared_confidence(s.text)
              for s in record.samples)
    confidences = [c for c in stated if c is not None]
    self_confidence = float(np.add.reduce(confidences, dtype=float)) / len(confidences) if confidences else None
    try:
        race = race_metrics(record, cluster_threshold=config.cluster_threshold)
    except CapabilityError:
        race = None
    fact_verdicts = None
    if record.reference_claims and store is not None:
        fact_verdicts = check_claims(record.reference_claims, store, config.fact_rel_tol, config.fact_abs_tol)
    return DetectionSignals(record.id, h_p_mean, h_s, consensus_support, self_confidence, race, fact_verdicts)


def _json_text(obj) -> str:
    """obj as write_json writes it: each float as its repr, so bit for bit."""
    out = io.StringIO()
    write_json(obj, out)
    return out.getvalue()


_WORDS = st.lists(st.sampled_from(("rates", "rose", "fell", "q3")), max_size=3).map(" ".join)
# zero entries, and up to 11 entries: past the length (8) at which numpy's
# sums turn pairwise
_WEIGHTS = st.integers(1, 11).flatmap(
    lambda v: st.lists(st.just(0.0) | st.floats(0.05, 1.0), min_size=v, max_size=v))


def _dist(weights) -> TokenDistribution:
    weights = weights if any(weights) else [1.0, *weights[1:]]
    return make_dist([w / sum(weights) for w in weights])


@st.composite
def _screened_records(draw):
    """The record strategy of tests/test_records.py, widened: up to 10
    positions per sample and 12 samples per record (past 8 again), V from 1
    to 11, samples with no distributions and records of one sample.  A
    sample's positions cycle through a few distributions of its record, so
    that an example stays small."""
    dim = draw(st.none() | st.integers(1, 3))
    dists = draw(st.lists(_WEIGHTS.map(_dist), min_size=1, max_size=4))
    samples = []
    for i in range(draw(st.integers(1, 12))):
        positions = draw(st.integers(0, 10))  # 0: no token_dists
        samples.append(Sample(
            text=draw(_WORDS | st.just("Confidence: 0.4")),
            token_dists=[dists[(i + j) % len(dists)] for j in range(positions)] or None,
            embedding=None if dim is None else draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)),
            reasoning=draw(st.none() | _WORDS),
            answer=draw(st.none() | _WORDS),
            self_confidence=draw(st.none() | st.floats(0.0, 1.0)),
        ))
    return GenerationRecord("r", "q?", samples, draw(st.none() | st.just([make_claim("rate", 4.25)])))


@settings(max_examples=40, deadline=None)
@given(records=st.lists(_screened_records(), min_size=1, max_size=5), n=st.integers(1, 3 * BLOCK))
def test_detect_records_equals_the_record_by_record_loop(records, n):
    """Corpora of one to three BLOCKs, cycling through a few records, give
    each record the signals it has on its own, bit for bit."""
    corpus = [replace(records[i % len(records)], id=f"r{i}") for i in range(n)]
    config = PipelineConfig()
    want = _json_text([_detect_one_at_a_time(r, config, STORE) for r in corpus])
    assert _json_text(list(detect_records(iter(corpus), config, STORE))) == want
    assert _json_text([detect(r, config, STORE) for r in corpus]) == want


def _with_samples(record, record_id, **fields):
    return replace(record, id=record_id, samples=[replace(s, **fields) for s in record.samples])


_CLEAN = make_record(answers=["steady"] * 3, record_id="c")
_NAN_EMBEDDING = _with_samples(make_record(texts=["a", "b"]), "nan", embedding=[math.nan, 1.0])
_EMPTY_DIST = make_record(texts=["a"], record_id="empty", token_dists=[make_dist([])])
_BOTH = _with_samples(_NAN_EMBEDDING, "both", token_dists=[make_dist([])])


@pytest.mark.parametrize("corpus, message", [
    ([_CLEAN, _NAN_EMBEDDING, _EMPTY_DIST], "vectors must be finite"),
    ([_CLEAN, _EMPTY_DIST, _NAN_EMBEDDING], "no entries"),
    ([_CLEAN, _BOTH], "no entries"),  # a record's distributions are scored first
])
def test_a_corpus_raises_what_the_record_by_record_loop_raises(corpus, message):
    config = PipelineConfig()
    with pytest.raises(ValueError, match=message):
        [_detect_one_at_a_time(r, config) for r in corpus]
    with pytest.raises(ValueError, match=message):
        list(detect_records(corpus, config))
    with pytest.raises(ValueError, match=message):
        run_cycle(corpus, config)


def test_a_record_that_fails_detect_raises_before_a_later_malformed_line(monkeypatch):
    def failing(record, threshold):
        if record.id == "bad":
            raise ValueError("bad record")
        return semantic_entropy_of_record(record, threshold)

    monkeypatch.setattr("hallguard.pipeline.semantic_entropy_of_record", failing)
    good, bad = (json.dumps({"id": rid, "prompt": "q", "samples": [{"text": "a"}, {"text": "b"}]}) + "\n"
                 for rid in ("good", "bad"))
    cut = '{"id": "cut\n'
    for screen in (lambda records: list(detect_records(records)), run_cycle):
        with pytest.raises(ValueError, match="bad record"):
            screen(iter_records([good, bad, cut]))
        with pytest.raises(RecordParseError, match="line 2"):
            screen(iter_records([good, cut, bad]))


@pytest.mark.parametrize("corpus, message", [
    ([_NAN_EMBEDDING, make_record(record_id="x"), make_record(record_id="x")], "vectors must be finite"),
    ([make_record(record_id="x"), make_record(record_id="x"), _NAN_EMBEDDING], "duplicate record ids"),
])
def test_cycle_raises_a_duplicate_id_where_the_record_by_record_loop_does(corpus, message):
    with pytest.raises(ValueError, match=message):
        run_cycle(corpus)


def test_permuting_token_labels_with_their_probs_keeps_h_p_mean():
    rng = np.random.default_rng(23)
    for _ in range(50):
        dists = [make_dist(rng.dirichlet(np.ones(int(rng.integers(2, 12)))).tolist())
                 for _ in range(int(rng.integers(1, 6)))]
        permuted = []
        for dist in dists:
            order = rng.permutation(len(dist.probs))
            permuted.append(make_dist([dist.probs[i] for i in order], [dist.token_labels[i] for i in order]))
        h = detect(make_record(texts=["a", "b"], token_dists=dists)).h_p_mean
        assert detect(make_record(texts=["a", "b"], token_dists=permuted)).h_p_mean == pytest.approx(
            h, rel=0.0, abs=1e-12)


# --- signal_value / route ---


def test_signal_value_reads_every_routable_signal():
    from hallguard.consistency import RaceReport
    from hallguard.grounding import ClaimVerdict

    race = RaceReport(h_reasoning=0.9, h_answer=0.1, h_joint=1.0, mutual_information=0.2,
                      mutual_information_raw=0.2, flag_right_answer_wrong_reasoning=True)
    verdicts = [ClaimVerdict("a", 1, 2, "mismatch"), ClaimVerdict("b", 1, 1, "match")] * 2
    signals = _signals(h_p_mean=0.5, h_s=0.4, consensus_support=0.8, self_confidence=0.7,
                       race=race, fact_verdicts=verdicts)
    assert {k: signal_value(signals, k) for k in SIGNALS} == {
        "h_p_mean": 0.5, "h_s": 0.4, "consensus_support": 0.8, "self_confidence": 0.7,
        "race_flag": 1.0, "race_h_reasoning": 0.9, "race_mutual_information": 0.2,
        "fact_mismatches": 2.0,
    }
    assert all(signal_value(_signals(), k) is None for k in SIGNALS)


def test_rules_and_config_reject_bad_values_at_construction():
    # a rule or config built in Python is checked as a file's is, so route
    # never meets an unknown signal and no NaN reaches a comparison
    for bad, message in (
        (lambda: RouterRule(5, "h_s", ">", 0.1, "model"), "name must be a string"),
        (lambda: RouterRule("x", "external.h_s", ">", 0.5, "model"), "unknown signal 'external.h_s'"),
        (lambda: RouterRule("x", "h_s", "!=", 0.5, "model"), "comparator must be one of"),
        (lambda: RouterRule("x", "h_s", ">", math.nan, "model"), "threshold must be a finite number"),
        (lambda: RouterRule("x", "h_s", ">", 0.5, "vendor"), "tier must be one of"),
        (lambda: RouterRule("x", "h_s", ">", 0.5, "model", "m"), "recommended_mitigations must be a list"),
        (lambda: PipelineConfig(min_delta=math.nan), "min_delta must be a finite number"),
        (lambda: PipelineConfig(fact_abs_tol=-1.0), "fact tolerances must be nonnegative"),
        (lambda: PipelineConfig(cluster_threshold=2.5), r"cluster_threshold must lie in \[0, 2\]"),
    ):
        with pytest.raises(ValueError, match=message):
            bad()
    assert type(RouterRule("x", "h_s", ">", 1, "model").threshold) is float
    with pytest.raises(AttributeError):  # frozen, so a config is checked once, when it is built
        PipelineConfig().min_delta = 0.0


def test_route_high_entropy_to_model_tier():
    verdict = route(_signals(h_p_mean=1.2), default_rules())
    assert verdict.tier == "model"
    assert "high_token_entropy" in verdict.fired_rules
    assert "temperature_calibration" in verdict.recommendations


def test_route_fact_mismatch_to_data_tier():
    from hallguard.grounding import ClaimVerdict

    signals = _signals(fact_verdicts=[ClaimVerdict("rate", 4.25, 5.0, "mismatch")])
    verdict = route(signals, default_rules())
    assert verdict.tier == "data"
    assert "grounding_refresh" in verdict.recommendations


def test_route_quiet_signals_pass():
    signals = _signals(h_p_mean=0.2, h_s=0.1, consensus_support=0.95)
    verdict = route(signals, default_rules())
    assert verdict.tier is None
    assert verdict.fired_rules == []
    assert verdict.recommendations == []


def test_route_first_fired_rule_sets_tier_and_dedups():
    rules = [
        RouterRule("a", "h_p_mean", ">", 0.5, "context", ["m1", "m2"]),
        RouterRule("b", "h_p_mean", ">", 0.1, "data", ["m2", "m3"]),
    ]
    verdict = route(_signals(h_p_mean=0.9), rules)
    assert verdict.tier == "context"
    assert verdict.fired_rules == ["a", "b"]
    assert verdict.recommendations == ["m1", "m2", "m3"]


def test_route_threshold_monotonicity():
    signals = [_signals(record_id=f"r{i}", h_p_mean=0.1 * i) for i in range(12)]
    low = RouterRule("r", "h_p_mean", ">", 0.3, "model", [])
    high = RouterRule("r", "h_p_mean", ">", 0.7, "model", [])
    fired_low = {s.record_id for s in signals if route(s, [low]).fired_rules}
    fired_high = {s.record_id for s in signals if route(s, [high]).fired_rules}
    assert fired_high <= fired_low


# --- rules file ---


def test_rules_round_trip():
    rules = default_rules()
    assert load_rules(decoded(rules)) == rules


@pytest.mark.parametrize(
    "bad, message",
    [
        ([{"name": "x", "signal": "nope", "comparator": ">", "threshold": 1, "tier": "model"}], "unknown signal"),
        ([{"name": "x", "signal": "h_s", "comparator": "!=", "threshold": 1, "tier": "model"}], "comparator"),
        ([{"name": "x", "signal": "h_s", "comparator": ">", "threshold": "high", "tier": "model"}], "threshold"),
        ([{"name": "x", "signal": "h_s", "comparator": ">", "threshold": 1, "tier": "vendor"}], "tier"),
        ({"name": "x"}, "list"),
        ([{"name": "x", "signal": ["h_s"], "comparator": ">", "threshold": 1, "tier": "model"}],
         "unknown signal"),
        ([{"name": None, "signal": "h_s", "comparator": ">", "threshold": 1, "tier": "model"}],
         "rule #0: name must be a string"),
        ([{"name": ["a"], "signal": "h_s", "comparator": ">", "threshold": 1, "tier": "model"}],
         "rule #0: name must be a string"),
        ([{"name": 3, "signal": "h_s", "comparator": ">", "threshold": 1, "tier": "model"}],
         "rule #0: name must be a string"),
    ],
)
def test_rules_validation_names_offender(bad, message):
    with pytest.raises(ConfigError, match=message):
        load_rules(bad)


def test_unnamed_rule_is_numbered():
    raw = {"signal": "h_s", "comparator": ">", "threshold": 1, "tier": "model"}
    rules = load_rules([{**raw, "name": "named"}, raw, {**raw, "name": ""}])
    assert [r.name for r in rules] == ["named", "rule #1", "rule #2"]


# --- validate ---


def test_validate_crossing_threshold_improves():
    config = PipelineConfig()
    before = _signals(h_p_mean=1.2)
    after = _signals(h_p_mean=0.4)
    result = validate(before, after, config)
    assert result.improved
    assert result.after == after


def test_validate_identical_signals_never_improve():
    config = PipelineConfig(min_delta=0.0)
    before = _signals(h_p_mean=1.2)
    assert not validate(before, before, config).improved


def test_validate_rejects_signals_of_another_record():
    with pytest.raises(ValueError, match="record id mismatch: 'a' vs 'b'"):
        validate(_signals(record_id="a", h_p_mean=1.2), _signals(record_id="b"), PipelineConfig())


def test_validate_requires_all_fired_signals_to_improve():
    config = PipelineConfig()
    before = _signals(h_p_mean=1.2, consensus_support=0.3)
    after = _signals(h_p_mean=0.4, consensus_support=0.3)
    assert not validate(before, after, config).improved
    both = _signals(h_p_mean=0.4, consensus_support=0.9)
    assert validate(before, both, config).improved


def test_validate_min_delta_counts_without_crossing():
    config = PipelineConfig(min_delta=0.05)
    before = _signals(h_p_mean=2.0)
    barely = _signals(h_p_mean=1.98)
    enough = _signals(h_p_mean=1.5)
    assert not validate(before, barely, config).improved
    assert validate(before, enough, config).improved


def test_validate_passes_at_a_strict_threshold_like_route():
    # 4/7 fires low_consensus (< 0.6); 3/5 sits on the threshold, which route passes
    config = PipelineConfig()
    after = _signals(consensus_support=3 / 5)
    assert route(after, config.rules).tier is None
    assert validate(_signals(consensus_support=4 / 7), after, config).improved


def test_validate_rejects_mismatched_record_ids():
    with pytest.raises(ValueError):
        validate(_signals(record_id="a"), _signals(record_id="b"), PipelineConfig())


# --- run_cycle ---


def _clean_record(record_id="c1"):
    return make_record(answers=["steady"] * 3, record_id=record_id)


def _noisy_record(record_id="n1"):
    return make_record(answers=["alpha", "bravo", "charlie"], record_id=record_id)


def test_cycle_all_clean_corpus():
    ledger = run_cycle([_clean_record(f"c{i}") for i in range(5)])
    assert ledger.summary["tiered"] == 0
    assert ledger.summary["pass"] == 5
    assert ledger.summary["residuals"] == 0
    assert all(e.outcome == "pass" for e in ledger.entries)


def test_cycle_flags_without_retry():
    ledger = run_cycle([_noisy_record()])
    entry = ledger.entries[0]
    assert entry.verdict.tier == "model"
    assert entry.action_taken == "flagged_for_external_mitigation"
    assert entry.outcome == "pending"


def test_cycle_validates_against_retry_record():
    base = _noisy_record("n1")
    fixed = make_record(answers=["alpha"] * 3, record_id="n1.retry")
    ledger = run_cycle([base, fixed])
    assert ledger.summary["total"] == 1  # retry is auxiliary, not a primary entry
    entry = ledger.entries[0]
    assert entry.outcome == "improved"
    assert entry.verdict.validation is not None
    assert entry.verdict.validation.improved
    assert ledger.summary["residuals"] == 0


def test_cycle_records_residual_when_retry_does_not_improve():
    base = _noisy_record("n1")
    still_bad = make_record(answers=["delta", "echo", "foxtrot"], record_id="n1.retry")
    ledger = run_cycle([base, still_bad])
    assert ledger.entries[0].outcome == "not_improved"
    assert ledger.summary["residuals"] == 1


def test_cycle_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        run_cycle([_clean_record("x"), _clean_record("x")])


def test_cycle_conservation_and_determinism():
    records = [_clean_record("a"), _noisy_record("b"), _clean_record("c")]
    first = run_cycle(records)
    second = run_cycle(records)
    assert first == second
    s = first.summary
    assert s["pass"] + s["tiered"] == s["total"]
    assert s["model"] + s["context"] + s["data"] == s["tiered"]


def test_cycle_reads_an_iterator_like_a_list():
    records = [_clean_record("a"), _noisy_record("b"),
               make_record(answers=["alpha"] * 3, record_id="b.retry"), _noisy_record("c")]
    from_list = run_cycle(records)
    assert run_cycle(iter(records)) == from_list
    assert run_cycle((r for r in records)) == from_list
    assert [e.record_id for e in from_list.entries] == ["a", "b", "c"]


def test_cycle_validates_a_retry_listed_before_its_base():
    fixed = make_record(answers=["alpha"] * 3, record_id="n1.retry")
    ledger = run_cycle([fixed, _clean_record("c1"), _noisy_record("n1")])
    assert [e.record_id for e in ledger.entries] == ["c1", "n1"]
    entry = ledger.entries[1]
    assert entry.action_taken == "validated_retry" and entry.outcome == "improved"
    assert entry.verdict.validation.after.record_id == "n1"
    assert ledger == run_cycle([_clean_record("c1"), _noisy_record("n1"), fixed])


def test_cycle_keeps_a_retry_without_its_base_as_a_primary():
    orphan = _noisy_record("gone.retry")
    ledger = run_cycle([_clean_record("c1"), orphan])
    assert [e.record_id for e in ledger.entries] == ["c1", "gone.retry"]
    assert ledger.entries[1].outcome == "pending"
    assert ledger.summary["total"] == 2


def test_cycle_keeps_a_retry_of_a_retry_as_a_primary():
    fixed = make_record(answers=["alpha"] * 3, record_id="a.retry")
    ledger = run_cycle([_noisy_record("a"), fixed, _noisy_record("a.retry.retry")])
    assert [(e.record_id, e.action_taken) for e in ledger.entries] == [
        ("a", "validated_retry"), ("a.retry.retry", "flagged_for_external_mitigation")]
    assert ledger.summary["total"] == 2
    # with no "x", "x.retry" is a primary and "x.retry.retry" its retry, as before
    fixed = make_record(answers=["alpha"] * 3, record_id="x.retry.retry")
    ledger = run_cycle([_noisy_record("x.retry"), fixed])
    assert [(e.record_id, e.action_taken) for e in ledger.entries] == [("x.retry", "validated_retry")]
    assert ledger.entries[0].verdict.validation.after.record_id == "x.retry"
    assert ledger.summary["total"] == 1


def test_cycle_routes_a_retry_of_a_passing_base():
    ledger = run_cycle([_clean_record("a"), _noisy_record("a.retry")])
    assert [(e.record_id, e.action_taken) for e in ledger.entries] == [
        ("a", "none"), ("a.retry", "flagged_for_external_mitigation")]
    assert ledger.summary["total"] == 2


def test_cycle_validates_a_flagged_retry_of_a_passing_base():
    fixed = make_record(answers=["steady"] * 3, record_id="a.retry.retry")
    ledger = run_cycle([_clean_record("a"), _noisy_record("a.retry"), fixed])
    assert [(e.record_id, e.action_taken, e.outcome) for e in ledger.entries] == [
        ("a", "none", "pass"), ("a.retry", "validated_retry", "improved")]
    assert ledger.entries[1].verdict.validation.after.record_id == "a.retry"
    assert ledger.summary["total"] == 2


@st.composite
def _chain_corpora(draw):
    """Records drawn from the chains b, b.retry, b.retry.retry of a few
    bases: any subset, in any order, each record clean or noisy."""
    chains = [[f"b{i}" + RETRY_SUFFIX * depth for depth in range(3)] for i in range(draw(st.integers(1, 3)))]
    ids = draw(st.permutations([rid for chain in chains for rid in chain]))
    ids = ids[: draw(st.integers(0, len(ids)))]
    return [(_noisy_record if draw(st.booleans()) else _clean_record)(rid) for rid in ids]


@settings(max_examples=60, deadline=None)
@given(_chain_corpora())
def test_cycle_accounts_for_every_record_of_a_chain(records):
    ledger = run_cycle(records)
    ids = {r.id for r in records}
    entry_ids = [e.record_id for e in ledger.entries]
    retry_ids = [e.record_id + RETRY_SUFFIX for e in ledger.entries if e.action_taken == "validated_retry"]
    assert sorted(entry_ids + retry_ids) == sorted(ids)
    tiers = [e.verdict.tier or "pass" for e in ledger.entries]
    assert ledger.summary == {
        "total": len(tiers), **{t: tiers.count(t) for t in ("pass", "model", "context", "data")},
        "tiered": len(tiers) - tiers.count("pass"),
        "residuals": sum(e.outcome == "not_improved" for e in ledger.entries),
    }
    for e in ledger.entries:
        if e.verdict.tier is not None and e.record_id + RETRY_SUFFIX in ids:
            assert e.action_taken == "validated_retry"


@pytest.mark.parametrize("ids", [["x", "x"], ["x", "y", "x"], ["x.retry", "x", "x.retry"]])
def test_cycle_rejects_duplicate_ids_from_an_iterator(ids):
    with pytest.raises(ValueError, match="duplicate record ids"):
        run_cycle(_clean_record(i) for i in ids)


def test_cycle_routes_with_config_rules():
    silent = [RouterRule("never", "h_p_mean", ">", 99.0, "model", [])]
    ledger = run_cycle([_noisy_record()], PipelineConfig(rules=silent))
    assert ledger.summary["tiered"] == 0


# --- serialization ---


def test_ledger_json_shape():
    ledger = run_cycle([_clean_record(), _noisy_record()])
    out = io.StringIO()
    ledger_to_json(ledger, out)
    payload = json.loads(out.getvalue())
    assert {e["record_id"] for e in payload["entries"]} == {"c1", "n1"}
    entry = payload["entries"][0]
    assert set(entry) == {"record_id", "signals", "verdict", "action_taken", "outcome"}
    assert payload["summary"]["total"] == 2
    md = ledger_to_markdown(ledger)
    assert "Residual errors" in md
    assert "n1" in md


def test_signals_json_keeps_every_field():
    payload = decoded(_signals(h_p_mean=0.5))
    assert set(payload) == {
        "record_id",
        "h_p_mean",
        "h_s",
        "consensus_support",
        "self_confidence",
        "race",
        "fact_verdicts",
    }



def _written(obj) -> str:
    out = io.StringIO()
    write_json(obj, out)
    return out.getvalue()


# strings with escapes, non-ASCII text, control characters, lone surrogates
# and U+2028, which json writes as escapes
_TEXT = st.text(st.one_of(st.characters(exclude_categories=()),
                          st.sampled_from(['"', "\\", "\t", "\n", "\x00", "\x1f", "\x7f", "é",
                                           "\u2028", "\u2029", "\ud800", "\udfff", "\U0001f600"])))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**64, max_value=2**200),
    st.integers(max_value=-(2**64), min_value=-(2**200)), st.floats(), _TEXT,
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple), st.dictionaries(_TEXT, inner)),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(value=_VALUES)
@example(value=[math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7])
@example(value={"": [], "a": {}, "b": [[], {}, [[]]], "\u2028\ud800": {"x": ["\x00"]}})
@example(value=[2**64, -(2**64) - 1, 10**40, True, False, None])
def test_write_json_matches_json_dumps(value):
    expected = json.dumps(value, indent=2) + "\n"
    assert _written(value) == expected
    with mock.patch("hallguard.records._FLUSH_PIECES", 1):  # a write after every nested element
        assert _written(value) == expected


def _reference_tree(obj):
    """The dict tree that json.dumps encodes into what write_json writes:
    dataclass fields in order, a TierVerdict's None validation left out."""
    if is_dataclass(obj):
        return {k: _reference_tree(v) for k, v in vars(obj).items()
                if not (isinstance(obj, TierVerdict) and k == "validation" and v is None)}
    if isinstance(obj, list):
        return [_reference_tree(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _reference_tree(v) for k, v in obj.items()}
    return obj


def _report_values():
    race = RaceReport(h_reasoning=0.9, h_answer=0.1, h_joint=1.0, mutual_information=0.2,
                      mutual_information_raw=-1e-17, flag_right_answer_wrong_reasoning=True)
    verdicts = [ClaimVerdict("rate", 4.25, 5.0, "mismatch"), ClaimVerdict("ceo", "Ann", None, "unknown"),
                ClaimVerdict("n", 3, 3, "match")]
    before = DetectionSignals("r1", h_p_mean=np.float64(1.25), h_s=0.0, consensus_support=0.4,
                              self_confidence=None, race=race, fact_verdicts=verdicts)
    after = DetectionSignals("r1", h_p_mean=0.5, self_confidence=1.5, fact_verdicts=[])
    validated = TierVerdict(["high_token_entropy", "fact_mismatch"], "model",
                            ["temperature_calibration"], Validation(after, improved=False))
    pending = TierVerdict(["low_consensus"], "model", [])
    passed = TierVerdict([], None, [])
    ledger = CycleLedger(
        entries=[LedgerEntry("r1", before, validated, "validated_retry", "not_improved"),
                 LedgerEntry("r2", DetectionSignals("r2", consensus_support=2.0), pending,
                             "flagged_for_external_mitigation", "pending"),
                 LedgerEntry("r3", DetectionSignals("r3", h_s=1e9), passed, "none", "pass")],
        summary={"total": 3, "pass": 1, "model": 2, "context": 0, "data": 0, "tiered": 2, "residuals": 1},
    )
    return [before, after, race, verdicts, validated, pending, ledger, CycleLedger([], {}),
            {"records": [before, after], "aggregates": {"h_s_avg": None, "n": np.float64(2.0)}}]


@pytest.mark.parametrize("value", _report_values())
def test_write_json_encodes_report_dataclasses(value):
    assert _written(value) == json.dumps(_reference_tree(value), indent=2) + "\n"


def test_write_json_leaves_out_only_a_verdicts_absent_validation():
    payload = json.loads(_written(_report_values()[6]))
    verdicts = [e["verdict"] for e in payload["entries"]]
    assert ["validation" in v for v in verdicts] == [True, False, False]
    assert verdicts[2]["tier"] is None
    assert payload["entries"][0]["signals"]["self_confidence"] is None


def test_ledger_to_json_streams_in_chunks():
    entries = [LedgerEntry(f"r{i}", DetectionSignals(f"r{i}", h_p_mean=i / 7, h_s=float(i)),
                           TierVerdict([], None, []), "none", "pass") for i in range(3000)]
    ledger = CycleLedger(entries, {"total": 3000})
    chunks = []
    writer = mock.Mock(write=chunks.append)
    ledger_to_json(ledger, writer)
    text = "".join(chunks)
    assert text == json.dumps(_reference_tree(ledger), indent=2) + "\n"
    assert len(chunks) > 10 and max(map(len, chunks)) < len(text) / 10


@pytest.mark.parametrize("value", [
    object(), {"a": {1, 2}}, [np.int64(1)], {"flag": np.bool_(True)}, [np.array([1.0])], {1: "a"},
])
def test_write_json_rejects_what_it_cannot_encode(value):
    with pytest.raises(TypeError):
        _written(value)
