"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
every tolerance and runtime bound is pinned here, nothing is deferred.
"""

import json
import math
import time

import numpy as np
import pytest

from hallguard.calibration import (
    apply_temperature,
    aggregate_self_evaluation,
    compute_ece,
    fit_isotonic,
    fit_temperature,
    logit_label_pairs,
    mc_calibrated_mean,
    score_outcome_pairs,
)
from hallguard.cli import main
from hallguard.consistency import race_metrics, self_consistency_consensus
from hallguard.errors import ConstraintError
from hallguard.grounding import fact_store_to_json
from hallguard.mitigation import (
    SamplingPolicy,
    apply_sampling_policy,
    chunk_document,
    constrained_distribution,
    summarize_map_reduce,
)
from hallguard.mockgen import MockSpec, generate_corpus, generate_fact_store
from hallguard.pipeline import PipelineConfig, run_cycle
from hallguard.records import write_records
from hallguard.semantic import ClusterAssignment, semantic_entropy
from hallguard.uncertainty import token_entropy

from conftest import make_dist, make_record
from test_calibration import naive_pav


def _passed(n: int, detail: str) -> None:
    print(f"\nACCEPTANCE {n} PASS - {detail}")


def test_criterion_1_worked_example_goldens():
    t0 = time.perf_counter()

    h_p = token_entropy(make_dist([0.6, 0.3, 0.1]))
    assert h_p == pytest.approx(0.898, abs=0.005)

    h_s = semantic_entropy(ClusterAssignment([0, 0, 0, 0, 1], [0.8, 0.2], [0, 4]))
    assert h_s == pytest.approx(0.500, abs=0.005)

    pairs = [(0.92, True), (0.92, True), (0.92, True), (0.92, False)]
    ece = compute_ece(pairs, M=10).ece
    assert ece == pytest.approx(abs(0.75 - 0.92), abs=1e-12)

    vote = aggregate_self_evaluation(["yes", "yes", "unsure"])
    assert vote == pytest.approx(0.667, abs=0.001)

    record = make_record(answers=["18.5%", "18.5%", "18.5%", "22%", "18.5%"])
    consensus = self_consistency_consensus(record)
    assert consensus.consensus_answer == "18.5%"
    assert consensus.support == pytest.approx(0.8)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(1, f"goldens 0.898/0.500/0.17/0.667/18.5% in {elapsed:.3f}s")


def test_criterion_2_calibration_recovery():
    t0 = time.perf_counter()
    spec = MockSpec(
        n_records=5000, samples_per_record=2, true_temperature=1.5,
        inject_rates={}, vocab_size=6, seed=20240811,
    )
    records = generate_corpus(spec)
    logit_sets, labels = logit_label_pairs(records)
    assert len(logit_sets) == 5000
    model = fit_temperature(logit_sets, labels)
    assert model.T == pytest.approx(1.5, abs=0.1)

    ece_pre = compute_ece(score_outcome_pairs(records), M=10).ece
    post_pairs = []
    for z, y in zip(logit_sets, labels):
        p = apply_temperature(z, model.T)
        top = int(np.argmax(p))
        post_pairs.append((float(p[top]), top == y))
    ece_post = compute_ece(post_pairs, M=10).ece
    assert ece_post <= 0.5 * ece_pre

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed(2, f"T*={model.T:.3f}, ECE {ece_pre:.4f} -> {ece_post:.4f} in {elapsed:.2f}s")


def test_criterion_3_pav_matches_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        scores = np.round(rng.random(n), 2)  # rounding forces tied scores
        outcomes = rng.integers(0, 2, size=n)
        pairs = list(zip(scores.tolist(), outcomes.tolist()))
        model = fit_isotonic(pairs)
        oracle_scores, oracle_values = naive_pav(pairs)
        assert model.breakpoints == oracle_scores
        for got, want in zip(model.values, oracle_values):
            assert abs(got - want) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passed(3, f"200 instances match the naive pooling oracle in {elapsed:.2f}s")


def test_criterion_4_race_hand_oracle():
    record = make_record(
        reasonings=["alpha path", "alpha path", "beta route", "beta route"],
        answers=["approve", "approve", "approve", "reject"],
    )
    report = race_metrics(record)
    assert report.h_reasoning == pytest.approx(0.6931, abs=1e-3)
    assert report.h_answer == pytest.approx(0.5623, abs=1e-3)
    assert report.mutual_information == pytest.approx(0.2158, abs=1e-3)

    # deterministic reasoning -> answer mappings give I = H_A
    rng = np.random.default_rng(99)
    reason_pool = ["first rationale", "second rationale", "third rationale"]
    answer_of = {"first rationale": "yes", "second rationale": "no", "third rationale": "yes"}
    for _ in range(25):
        n = int(rng.integers(2, 12))
        reasonings = [reason_pool[i] for i in rng.integers(0, 3, size=n)]
        answers = [answer_of[r] for r in reasonings]
        rep = race_metrics(make_record(reasonings=reasonings, answers=answers))
        assert rep.mutual_information_raw == pytest.approx(rep.h_answer, abs=1e-9)

    identical = race_metrics(make_record(reasonings=["same"] * 5, answers=["same"] * 5))
    assert identical.h_reasoning == 0.0
    assert identical.h_answer == 0.0
    assert identical.h_joint == 0.0
    assert identical.mutual_information == 0.0
    assert not identical.flag_right_answer_wrong_reasoning
    _passed(4, "contingency 0.6931/0.5623/0.2158, deterministic-map and all-zero cases")


def test_criterion_5_ranking_invariance():
    rng = np.random.default_rng(271828)
    for _ in range(1000):
        z = rng.normal(0.0, 1.0, size=int(rng.integers(2, 9)))
        for t in (0.1, 1.0, 5.0, 20.0):
            p = apply_temperature(z, t)
            assert np.array_equal(
                np.argsort(-z, kind="stable"), np.argsort(-p, kind="stable")
            )
    # argmax preserved under every sampling policy shape
    for _ in range(1000):
        size = int(rng.integers(2, 9))
        probs = rng.dirichlet(np.ones(size))
        policy = SamplingPolicy(
            temperature=float(rng.uniform(0.2, 5.0)),
            top_k=int(rng.integers(1, size + 1)) if rng.random() < 0.5 else None,
            top_p=float(rng.uniform(0.05, 1.0)) if rng.random() < 0.5 else None,
        )
        dist = make_dist(list(probs))
        out = apply_sampling_policy(dist, policy)
        assert out.token_labels[int(np.argmax(out.probs))] == dist.token_labels[int(np.argmax(probs))]
    _passed(5, "1000 logit vectors x 4 temperatures keep full order; policies keep argmax")


def test_criterion_6_distribution_validity_fuzz():
    rng = np.random.default_rng(6174)
    cases = 0
    for _ in range(2600):
        size = int(rng.integers(2, 12))
        probs = rng.dirichlet(np.ones(size))
        labels = [f"t{i}" for i in range(size)]
        dist = make_dist(list(probs), labels)

        out = apply_sampling_policy(
            dist,
            SamplingPolicy(
                temperature=float(rng.uniform(0.2, 5.0)),
                top_k=int(rng.integers(1, size + 1)) if rng.random() < 0.5 else None,
                top_p=float(rng.uniform(0.05, 1.0)) if rng.random() < 0.5 else None,
            ),
        )
        assert abs(sum(out.probs) - 1.0) <= 1e-9
        assert set(out.token_labels) <= set(labels)
        cases += 1

        allowed = set(rng.choice(labels, size=int(rng.integers(1, size + 1)), replace=False))
        try:
            constrained = constrained_distribution(dist, allowed)
            assert abs(sum(constrained.probs) - 1.0) <= 1e-9
            assert set(constrained.token_labels) <= allowed & set(labels)
        except ConstraintError:
            pass  # legal when the allowed set has no surviving mass
        cases += 1

        z = rng.normal(0.0, 2.0, size=size)
        p = apply_temperature(z, float(rng.uniform(0.05, 20.0)))
        assert abs(float(p.sum()) - 1.0) <= 1e-9
        cases += 1

        passes = rng.normal(0.0, 1.0, size=(int(rng.integers(1, 4)), size))
        mean = mc_calibrated_mean(list(passes), float(rng.uniform(0.2, 5.0)))
        assert abs(float(mean.sum()) - 1.0) <= 1e-9
        cases += 1
    assert cases >= 10_000
    _passed(6, f"{cases} fuzz cases: sums within 1e-9, support always within the allowed set")


def test_criterion_7_router_end_to_end():
    t0 = time.perf_counter()
    spec = MockSpec(
        n_records=500, samples_per_record=5, true_temperature=1.5,
        inject_rates={"model": 0.1, "context": 0.1, "data": 0.1}, vocab_size=6, seed=424242,
    )
    records = generate_corpus(spec)
    store = generate_fact_store(spec)
    ledger = run_cycle(records, PipelineConfig(), store)

    families = {
        "model": {"high_token_entropy", "high_semantic_entropy", "low_consensus"},
        "context": {"reasoning_divergence"},
        "data": {"fact_mismatch"},
    }
    by_id = {r.id: r for r in records}
    injected = 0
    for entry in ledger.entries:
        cls = by_id[entry.record_id].ground_truth.failure_class
        if cls is None:
            assert entry.verdict.tier != "data"
        else:
            injected += 1
            assert set(entry.verdict.fired_rules) & families[cls], (
                f"{entry.record_id} ({cls}) fired {entry.verdict.fired_rules}"
            )
    s = ledger.summary
    assert s["pass"] + s["tiered"] == s["total"] == 500
    assert injected == s["tiered"]

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passed(7, f"{injected} injected records fired their families, 0 clean->data, in {elapsed:.2f}s")


def test_criterion_8_chunker_coverage_and_overlap():
    rng = np.random.default_rng(888)
    alphabet = list("abcdefgh    ")
    for _ in range(500):
        length = int(rng.integers(1, 2500))
        text = "".join(alphabet[rng.integers(len(alphabet))] for _ in range(length))
        target = int(rng.integers(10, 400))
        overlap = float(rng.uniform(0.0, 0.45))
        chunks = chunk_document(text, target, overlap)

        covered = np.zeros(len(text), dtype=bool)
        for c in chunks:
            covered[c.start_offset : c.end_offset] = True
        assert covered.all()

        # measured overlap of consecutive chunks stays within snapping tolerance
        stride = max(1, math.floor(target * (1.0 - overlap)))
        nominal = target - stride
        snap = target // 10
        for a, b in zip(chunks, chunks[1:-1]):
            got = a.end_offset - b.start_offset
            assert nominal - snap <= got <= nominal + 1

        result = summarize_map_reduce(chunks, lambda t: t, fan_in=int(rng.integers(2, 5)))
        assert result.summary == "".join(c.text for c in chunks)
    _passed(8, "500 random documents: full coverage, bounded overlap, identity reduce preserved")


def test_criterion_9_cli_determinism(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "n_records": 30, "samples_per_record": 4, "true_temperature": 1.5,
        "inject_rates": {"model": 0.15, "context": 0.15, "data": 0.15},
        "vocab_size": 6, "seed": 5150,
    }))
    doc = tmp_path / "doc.txt"
    doc.write_text("alpha beta gamma delta " * 60)

    def run_all(tag: str) -> dict:
        base = tmp_path / tag
        base.mkdir()
        corpus = base / "corpus.jsonl"
        store = base / "store.json"
        outputs = {}
        assert main(["mockgen", "--spec", str(spec_path), "--out", str(corpus),
                     "--store-out", str(store)]) == 0
        outputs["corpus"] = corpus
        outputs["store"] = store
        for name, argv in {
            "analyze": ["analyze", "--input", str(corpus), "--store", str(store)],
            "calibrate_t": ["calibrate", "--input", str(corpus), "--kind", "temperature"],
            "calibrate_i": ["calibrate", "--input", str(corpus), "--kind", "isotonic"],
            "race": ["race", "--input", str(corpus)],
            "factcheck": ["factcheck", "--input", str(corpus), "--store", str(store)],
            "pipeline": ["pipeline", "--input", str(corpus), "--store", str(store)],
            "chunk": ["chunk", "--input", str(doc), "--target-size", "64", "--overlap", "0.2"],
        }.items():
            out = base / f"{name}.out"
            assert main(argv + ["--output", str(out)]) == 0
            outputs[name] = out
        return outputs

    first = run_all("run1")
    second = run_all("run2")
    for name in first:
        assert first[name].read_bytes() == second[name].read_bytes(), f"{name} differs between runs"
    _passed(9, "all seven commands byte-identical across two seeded runs")
