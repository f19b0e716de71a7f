import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hallguard import mockgen
from hallguard.calibration import fit_temperature, logit_label_pairs
from hallguard.grounding import check_claims, fact_store_to_json
from hallguard.mockgen import (CLEAN_ENTROPY_HI, CLEAN_ENTROPY_LO, MockSpec, generate_corpus,
                               generate_fact_store, mock_spec_from_json)
from hallguard.pipeline import PipelineConfig, run_cycle
from hallguard.records import parse_records, write_json, write_records
from hallguard.uncertainty import apply_temperature, entropy_nats, sequence_entropy_profile

# seed -> bytes: sha256 of the written corpus and of the written fact store,
# as `hallguard mockgen --out --store-out` writes them.  Together the specs
# draw every failure class and clean records, true_temperature 0.7, 1.5 and
# 2.5, vocab_size 4, 6 and 11, and 2 to 4 samples per record.
GOLDEN = [
    (MockSpec(n_records=60, samples_per_record=3, true_temperature=1.5,
              inject_rates={"model": 0.2, "context": 0.2, "data": 0.2}, seed=7),
     "a1ac11954b655f207101f8172672b20a4be52548e7ef2e9bc0d9d1d481996fc3",
     "dabc56b6f33b9e313f8e71826d3efdfc36a1c89b709cd86b4249c0196a01f1d4"),
    (MockSpec(n_records=40, samples_per_record=2, true_temperature=2.5,
              inject_rates={"model": 0.3, "context": 0.3, "data": 0.4}, vocab_size=4, seed=1009),
     "731c6a50a0efac9f74dcf5c0d670081762388486cb63772189c136d33ea96514",
     "d5e09cd7d3afa9da6419a6fecc31d683ad7e79d09c23f0e1e8c61e90ce5ca0f0"),
    (MockSpec(n_records=30, samples_per_record=4, true_temperature=0.7, vocab_size=11, seed=0),
     "fd9efd7430bfb1a6a6fbca9dbc575864b0f3ab62084a78eb203d7eaecd02cc63",
     "dfcfedb6f569045022b735f468f83f53859d7d319abf5d9e39010a3e443dd646"),
]
GOLDEN_IDS = ["mixed", "all-injected-v4", "clean-v11"]


def _store_digest(spec: MockSpec) -> str:
    out = io.StringIO()
    write_json(fact_store_to_json(generate_fact_store(spec)), out)
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("spec, corpus_sha, store_sha", GOLDEN, ids=GOLDEN_IDS)
def test_golden_corpus_and_store_bytes(spec, corpus_sha, store_sha):
    records = generate_corpus(spec)
    assert hashlib.sha256(write_records(records)).hexdigest() == corpus_sha
    assert _store_digest(spec) == store_sha


def test_golden_specs_cover_every_class():
    classes = {r.ground_truth.failure_class for spec, _, _ in GOLDEN for r in generate_corpus(spec)}
    assert classes == {None, "model", "context", "data"}


@pytest.mark.parametrize("spec, corpus_sha, store_sha", GOLDEN, ids=GOLDEN_IDS)
def test_fact_store_builds_no_record(monkeypatch, spec, corpus_sha, store_sha):
    def forbidden(*args, **kwargs):
        raise AssertionError("the fact store needs only the draws")

    monkeypatch.setattr(mockgen, "_scale_into_entropy_band", forbidden)
    monkeypatch.setattr(mockgen, "_record", forbidden)
    assert _store_digest(spec) == store_sha


def _reference_scale(z, lo, hi):
    """The band search with every entropy taken by entropy_nats."""
    if np.ptp(z) < 1e-9:
        z = z.copy()
        z[0] += 1.0
    h = entropy_nats(apply_temperature(z, 1.0))
    if lo <= h <= hi:
        return z
    c_lo, c_hi = 1e-6, 1.0
    while c_hi < 1e6 and entropy_nats(apply_temperature(c_hi * z, 1.0)) > hi:
        c_hi *= 2.0
    for _ in range(200):
        c = (c_lo + c_hi) / 2.0
        h = entropy_nats(apply_temperature(c * z, 1.0))
        if lo <= h <= hi:
            return c * z
        if h > hi:
            c_lo = c
        else:
            c_hi = c
    return c * z


def test_band_search_matches_the_entropy_nats_reference():
    rng = np.random.default_rng(15)
    rows = [rng.normal(0.0, float(rng.choice([0.02, 1.5, 10.0])), int(rng.integers(4, 51)))
            for _ in range(500)]
    by_length = {}
    for z in rows:
        by_length.setdefault(len(z), []).append(z)
    by_length[6].append(np.full(6, 0.5))  # constant rows, which cannot be sharpened
    by_length[4].append(np.zeros(4))
    # (5, 6) lies above ln 50, so no row reaches it and every row takes all 200 steps
    bands = [(CLEAN_ENTROPY_LO, CLEAN_ENTROPY_HI), (0.01, 0.011), (1.0, 1.0 + 1e-9), (5.0, 6.0)]
    for group in by_length.values():
        z = np.array(group)
        for lo, hi in bands:
            want = np.array([_reference_scale(row, lo, hi) for row in group])
            assert mockgen._scale_into_entropy_band(z, lo, hi).tobytes() == want.tobytes()


@pytest.mark.parametrize("edge", ["lo", "hi"])
def test_entropy_nats_decides_at_a_band_edge(edge):
    """A row whose entropy_nats is exactly lo or hi is in the band and comes
    back with its bytes unchanged, beside rows that do move."""
    z = np.random.default_rng(16).normal(0.0, 1.5, (3, 6))
    h = entropy_nats(apply_temperature(z[1], 1.0))
    lo, hi = (h, h + 0.1) if edge == "lo" else (h - 0.1, h)
    got = mockgen._scale_into_entropy_band(z, lo, hi)
    assert got[1].tobytes() == z[1].tobytes()
    assert got.tobytes() == np.array([_reference_scale(row, lo, hi) for row in z]).tobytes()
    assert got[[0, 2]].tobytes() != z[[0, 2]].tobytes()


def test_same_seed_is_byte_identical():
    spec = MockSpec(n_records=40, samples_per_record=3, seed=5,
                    inject_rates={"model": 0.2, "data": 0.2})
    assert write_records(generate_corpus(spec)) == write_records(generate_corpus(spec))


def test_distinct_seeds_differ():
    a = MockSpec(n_records=20, seed=1)
    b = MockSpec(n_records=20, seed=2)
    assert write_records(generate_corpus(a)) != write_records(generate_corpus(b))


def test_zero_rates_label_everything_clean():
    records = generate_corpus(MockSpec(n_records=30, seed=3))
    assert all(not r.ground_truth.is_hallucinated for r in records)
    assert all(r.ground_truth.failure_class is None for r in records)


def test_generated_records_are_schema_valid():
    records = generate_corpus(
        MockSpec(n_records=25, seed=9, inject_rates={"model": 0.2, "context": 0.2, "data": 0.2})
    )
    assert parse_records(write_records(records)) == records


def test_temperature_recovery_from_corpus():
    spec = MockSpec(n_records=2500, samples_per_record=2, true_temperature=1.5, seed=101)
    logit_sets, labels = logit_label_pairs(generate_corpus(spec))
    assert len(logit_sets) == 2500
    model = fit_temperature(logit_sets, labels)
    assert model.T == pytest.approx(1.5, abs=0.15)


def test_store_consistent_with_clean_corpus():
    spec = MockSpec(n_records=60, seed=12)
    records = generate_corpus(spec)
    store = generate_fact_store(spec)
    for rec in records:
        verdicts = check_claims(rec.reference_claims, store)
        assert all(v.status == "match" for v in verdicts)


def test_data_rate_mismatch_count_is_binomial():
    spec = MockSpec(n_records=500, seed=21, inject_rates={"data": 0.2})
    records = generate_corpus(spec)
    store = generate_fact_store(spec)
    mismatches = sum(
        1
        for rec in records
        if any(v.status == "mismatch" for v in check_claims(rec.reference_claims, store))
    )
    mean, sigma = 500 * 0.2, (500 * 0.2 * 0.8) ** 0.5
    assert abs(mismatches - mean) <= 3 * sigma
    # mismatches land exactly on the injected records
    injected = sum(1 for r in records if r.ground_truth.failure_class == "data")
    assert mismatches == injected


def test_same_seed_store_identical():
    spec = MockSpec(n_records=15, seed=33, inject_rates={"data": 0.3})
    assert generate_fact_store(spec) == generate_fact_store(spec)


def test_injected_records_fire_their_rule_family():
    spec = MockSpec(
        n_records=200, samples_per_record=5, true_temperature=1.5,
        inject_rates={"model": 0.15, "context": 0.15, "data": 0.15}, seed=44,
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
    for entry in ledger.entries:
        cls = by_id[entry.record_id].ground_truth.failure_class
        fired = set(entry.verdict.fired_rules)
        if cls is None:
            assert entry.verdict.tier is None
        else:
            assert fired & families[cls], f"{entry.record_id}: {cls} fired {fired}"
            assert entry.verdict.tier == cls


def test_injected_entropy_separation_margins():
    spec = MockSpec(n_records=120, samples_per_record=5,
                    inject_rates={"model": 0.3}, seed=55)
    for rec in generate_corpus(spec):
        h = sequence_entropy_profile(rec.samples[0]).mean
        if rec.ground_truth.failure_class == "model":
            assert h >= 1.2
        else:
            assert h <= 0.70 + 1e-9


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_records": 0},
        {"n_records": 5, "samples_per_record": 1},
        {"n_records": 5, "true_temperature": 0.0},
        {"n_records": 5, "vocab_size": 3},
        {"n_records": 5, "inject_rates": {"model": 0.8, "data": 0.5}},
        {"n_records": 5, "inject_rates": {"weather": 0.1}},
        {"n_records": 5, "inject_rates": {"model": -0.1}},
        {"n_records": 5, "true_temperature": float("nan")},
        # a count that is not an int, or is negative, and a rate that is no number
        {"n_records": 2.5},
        {"n_records": True},
        {"n_records": 5, "samples_per_record": 2.0},
        {"n_records": 5, "vocab_size": 6.0},
        {"n_records": 5, "seed": -1},
        {"n_records": 5, "inject_rates": {"model": "x"}},
        {"n_records": 5, "inject_rates": [("model", 0.1)]},
    ],
)
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(ValueError):
        MockSpec(**kwargs)


def test_spec_from_json():
    spec = mock_spec_from_json({"n_records": 7, "inject_rates": {"model": 0.1}, "seed": 2})
    assert spec.n_records == 7
    assert spec.inject_rates == {"model": 0.1}
    with pytest.raises(ValueError):
        mock_spec_from_json({"n_records": 7, "bogus": 1})
    with pytest.raises(ValueError):
        mock_spec_from_json({})


def _reference_scores(spec: MockSpec):
    """The stored probabilities and correct-token index of each record, with
    the per-record arithmetic of the one-record-at-a-time generator: softmax
    of the one logit vector, floored and renormalised, and a searchsorted on
    its own temperature-scaled CDF."""
    def softmax(z, t):
        x = z / t
        x = x - x.max()
        e = np.exp(x)
        return e / e.sum()

    for cls, _, z, u_correct, _, _ in mockgen._draws(spec):
        if cls != "model":
            z = _reference_scale(z, CLEAN_ENTROPY_LO, CLEAN_ENTROPY_HI)
        probs = np.maximum(softmax(z, 1.0), 1e-12)
        probs = probs / probs.sum()
        cdf = softmax(z, spec.true_temperature).cumsum()
        cdf /= cdf[-1]
        yield [float(p) for p in probs], int(cdf.searchsorted(u_correct, side="right"))


@pytest.mark.parametrize("vocab_size", [4, 6, 8, 9, 11, 17, 50])
@pytest.mark.parametrize("true_temperature", [0.7, 1.0, 1.5, 2.5])
def test_corpus_pass_matches_the_per_record_reference(vocab_size, true_temperature):
    spec = MockSpec(n_records=60, samples_per_record=2, true_temperature=true_temperature,
                    inject_rates={"model": 0.3, "context": 0.1, "data": 0.1},
                    vocab_size=vocab_size, seed=vocab_size)
    records = generate_corpus(spec)
    reference = list(_reference_scores(spec))
    assert len(records) == len(reference)
    for record, (probs, correct) in zip(records, reference):
        got = record.samples[0].token_dists[0].probs
        assert np.array(got).tobytes() == np.array(probs).tobytes()
        assert record.ground_truth.correct_answer == f"tok{correct}"


@pytest.mark.parametrize("inject_rates", [{"model": 1.0}, {}], ids=["all-model", "no-injection"])
def test_corpus_with_no_row_or_every_row_banded_matches_the_reference(inject_rates):
    spec = MockSpec(n_records=40, samples_per_record=2, inject_rates=inject_rates, seed=17)
    records = generate_corpus(spec)
    assert {r.ground_truth.failure_class for r in records} == {"model" if inject_rates else None}
    for record, (probs, correct) in zip(records, _reference_scores(spec), strict=True):
        got = record.samples[0].token_dists[0].probs
        assert np.array(got).tobytes() == np.array(probs).tobytes()
        assert record.ground_truth.correct_answer == f"tok{correct}"


@pytest.mark.parametrize("n_samples", [2, 3, 4, 5, 7])
def test_each_distinct_sample_is_one_object(n_samples):
    spec = MockSpec(n_records=80, samples_per_record=n_samples,
                    inject_rates={"model": 0.25, "context": 0.25, "data": 0.25}, seed=n_samples)
    expected = {None: 1, "data": 1, "model": min(3, n_samples), "context": min(2, n_samples)}
    seen = set()
    for record in generate_corpus(spec):
        cls = record.ground_truth.failure_class
        seen.add(cls)
        objects = {id(s) for s in record.samples}
        pairs = {(s.answer, s.reasoning) for s in record.samples}
        assert len(objects) == len(pairs) == expected[cls]
        assert len({id(s.token_dists[0]) for s in record.samples}) == 1
    assert seen == set(expected)


def test_a_tiny_true_temperature_labels_each_record_with_its_argmax(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_records": 3, "vocab_size": 4, "samples_per_record": 2,
                                "true_temperature": 5e-324, "seed": 2}))
    out = tmp_path / "mock.jsonl"
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "hallguard.cli", "mockgen", "--spec", str(spec),
                           "--out", str(out), "--store-out", str(tmp_path / "store.json")],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 0
    assert proc.stderr == ""
    records = [json.loads(line) for line in out.read_text().splitlines()]
    labels = [r["ground_truth"]["correct_answer"] for r in records]
    argmax = [f"tok{int(np.argmax(r['samples'][0]['token_dists'][0]['probs']))}" for r in records]
    assert labels == argmax
    assert labels != ["tok0"] * 3
