import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallguard.calibration import apply_temperature
from hallguard.errors import CapabilityError
from hallguard.pipeline import detect
from hallguard.records import GenerationRecord, Sample, validate_record
from hallguard.uncertainty import (
    entropy_nats,
    parse_self_declared_confidence,
    sequence_entropy_profile,
    token_entropies,
    token_entropy,
)

from conftest import make_dist


@st.composite
def prob_vectors(draw, min_size=1, max_size=8):
    weights = draw(
        st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=min_size, max_size=max_size)
    )
    total = sum(weights)
    return [w / total for w in weights]


# --- token_entropy ---


def test_token_entropy_reference_value():
    # worked value: -(0.6 ln 0.6 + 0.3 ln 0.3 + 0.1 ln 0.1) ~ 0.90
    assert token_entropy(make_dist([0.6, 0.3, 0.1])) == pytest.approx(0.898, abs=0.005)


def test_token_entropy_one_hot_is_zero():
    assert token_entropy(make_dist([1.0])) == 0.0
    assert token_entropy(make_dist([0.0, 1.0, 0.0])) == 0.0


def test_token_entropy_uniform_is_log_dimension():
    assert token_entropy(make_dist([0.25] * 4)) == pytest.approx(math.log(4), abs=1e-12)


def test_token_entropy_empty_is_domain_error():
    with pytest.raises(ValueError):
        token_entropy(make_dist([]))


@settings(max_examples=200)
@given(probs=prob_vectors())
def test_token_entropy_bounds(probs):
    h = token_entropy(make_dist(probs))
    assert -1e-12 <= h <= math.log(len(probs)) + 1e-9


@settings(max_examples=100)
@given(probs=prob_vectors(min_size=2), seed=st.integers(0, 2**16))
def test_token_entropy_permutation_invariant(probs, seed):
    rng = np.random.default_rng(seed)
    shuffled = list(rng.permutation(probs))
    assert token_entropy(make_dist(shuffled)) == pytest.approx(
        token_entropy(make_dist(probs)), abs=1e-9
    )


# --- sequence_entropy_profile ---


def test_profile_two_one_hot_positions():
    sample = Sample(text="", token_dists=[make_dist([1.0, 0.0]), make_dist([0.0, 1.0])])
    report = sequence_entropy_profile(sample)
    assert report.per_position == [0.0, 0.0]
    assert report.mean == 0.0


def test_profile_mean_over_mixed_positions():
    sample = Sample(text="", token_dists=[make_dist([0.6, 0.3, 0.1]), make_dist([0.5, 0.5])])
    report = sequence_entropy_profile(sample)
    expected = (0.8979457248567797 + math.log(2)) / 2
    assert report.mean == pytest.approx(expected, abs=1e-9)
    assert report.max == pytest.approx(0.8979457248567797, abs=1e-9)


def test_profile_single_position_mean_equals_max():
    sample = Sample(text="", token_dists=[make_dist([0.6, 0.3, 0.1])])
    report = sequence_entropy_profile(sample)
    assert report.mean == report.max == pytest.approx(0.898, abs=0.005)


def test_profile_without_distributions_is_capability_error():
    with pytest.raises(CapabilityError):
        sequence_entropy_profile(Sample(text="api output only"))


# --- token_entropies against the per-position loop it replaces ---


def reference_profile(sample):
    """One entropy_nats call per position, then np.mean and np.max."""
    per = [entropy_nats(d.probs) for d in sample.token_dists]
    return per, float(np.mean(per)), float(np.max(per))


def reference_h_p_mean(record):
    means = [reference_profile(s)[1] for s in record.samples if s.token_dists]
    return float(np.mean(means)) if means else None


def _random_dist(rng):
    v = int(rng.choice([*range(1, 13), 50]))
    draw = rng.random()
    if draw < 0.15:  # one-hot
        probs = [0.0] * v
        probs[int(rng.integers(v))] = 1.0
    else:
        weights = rng.random(v) ** 3
        if draw < 0.55 and v > 1:  # some zero entries, at least one left positive
            weights[rng.permutation(v)[: int(rng.integers(1, v))]] = 0.0
        probs = (weights / weights.sum()).tolist()
    return make_dist(probs)


def _random_record(rng, i):
    samples = []
    for j in range(int(rng.integers(1, 7))):
        dists = None
        if rng.random() < 0.8:  # ragged: each sample has its own number of positions
            dists = [_random_dist(rng) for _ in range(int(rng.integers(1, 10)))]
        samples.append(Sample(text=f"answer {j % 2}", token_dists=dists))
    return GenerationRecord(id=f"r{i}", prompt="q", samples=samples)


def test_batched_entropy_equals_per_position_loop():
    rng = np.random.default_rng(11)
    for i in range(200):
        record = _random_record(rng, i)
        assert validate_record(record) == []
        assert detect(record).h_p_mean == reference_h_p_mean(record)
        dists = [d for s in record.samples for d in s.token_dists or []]
        assert token_entropies(dists).tolist() == [entropy_nats(d.probs) for d in dists]
        for sample in record.samples:
            if sample.token_dists:
                report = sequence_entropy_profile(sample)
                assert (report.per_position, report.mean, report.max) == reference_profile(sample)


def test_batched_entropy_keeps_rows_with_zero_entries_exact():
    # a zero entry adds 0.0 in its own place of the row sum, which from V = 8
    # on is pairwise: a batched row must still sum as the row alone
    rng = np.random.default_rng(5)
    for v in (3, 7, 8, 9, 16, 50):
        dists = []
        for _ in range(40):
            weights = rng.random(v)
            weights[int(rng.integers(v))] = 0.0
            dists.append(make_dist((weights / weights.sum()).tolist()))
        assert token_entropies(dists).tolist() == [entropy_nats(d.probs) for d in dists]


def test_zero_entry_is_scored_in_its_place():
    # the 7 positive terms summed alone, in order, give ...496; the row of 8
    # sums in numpy's unrolled pairwise order, with the zero term in place
    probs = [0.0] + [0.125] * 6 + [0.25]
    assert entropy_nats(probs) == 1.9061547465398494
    assert token_entropies([make_dist(probs)]).tolist() == [1.9061547465398494]


def test_batched_entropy_of_an_empty_distribution_is_domain_error():
    with pytest.raises(ValueError):
        token_entropies([make_dist([0.5, 0.5]), make_dist([])])


def test_one_point_entropy_is_positive_zero():
    # reports print -0.0 for a negative zero, so unanimous records must get +0.0
    for probs in ([1.0], [0.0, 1.0, 0.0]):
        assert math.copysign(1.0, entropy_nats(probs)) == 1.0


# --- parse_self_declared_confidence ---


@pytest.mark.parametrize(
    "text, expected",
    [
        ('"Yes, it does." (Confidence: 0.65)', 0.65),
        ("No numeric statement.", None),
        ("Confidence: 80%", 0.80),
        ("My confidence in this answer is about 0.7", 0.7),
        ("final answer (0.9)", 0.9),
        ("Confidence: 1.7", None),  # out of range, no fallback
        ("Confidence: -0.5", None),  # a negative statement is out of range too
        ("Confidence = -1", None),
        ("confidence: -20%", None),
        # a number that goes on past the pattern states nothing
        ("Confidence: 1e-1", None),
        ("Confidence: 1E-2", None),
        ("Confidence: 0,85", None),
        ("Confidence: .5e1", None),
        ("Confidence: 0.9.5", None),
        ("Confidence: 12,5%", None),  # not read back to "1" or "12"
        ("Confidence: 0.85.", 0.85),  # a full stop is no decimal part
        ("Confidence: 0.85, sure", 0.85),
        ("", None),
    ],
)
def test_confidence_parser(text, expected):
    assert parse_self_declared_confidence(text) == expected


# --- cross-module: cooling never decreases entropy ---


@settings(max_examples=150)
@given(probs=prob_vectors(min_size=2), temperature=st.floats(1.0, 20.0, allow_nan=False))
def test_cooling_never_decreases_entropy(probs, temperature):
    logits = np.log(probs)
    cooled = apply_temperature(logits, temperature)
    before = token_entropy(make_dist(probs))
    after = token_entropy(make_dist(list(cooled)))
    assert after >= before - 1e-9


@pytest.mark.parametrize("probs", [[math.nan], [0.5, math.nan, 0.5], [-0.5, 1.5], [math.inf],
                                   [1.5], [0.3, 0.7, -1e-300]])
def test_entries_outside_the_unit_interval_are_domain_errors(probs):
    """NaN, a negative entry or one above 1 is no probability: neither
    entropy_nats nor token_entropies turns it into a number."""
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        entropy_nats(probs)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        token_entropies([make_dist(probs)])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        token_entropy(make_dist(probs))
