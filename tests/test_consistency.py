import math

import numpy as np
import pytest

from hallguard.consistency import race_metrics, self_consistency_consensus
from hallguard.errors import CapabilityError

from conftest import make_record


# ---------------------------------------------------------------------------
# Oracle: plug-in entropies straight off a contingency table.


def contingency_oracle(pairs):
    """(H_R, H_A, H_joint, I) from hand-counted (reasoning, answer) pairs."""
    n = len(pairs)

    def entropy(counts):
        return -sum((c / n) * math.log(c / n) for c in counts)

    from collections import Counter

    h_r = entropy(Counter(r for r, _ in pairs).values())
    h_a = entropy(Counter(a for _, a in pairs).values())
    h_joint = entropy(Counter(pairs).values())
    return h_r, h_a, h_joint, h_r + h_a - h_joint


# --- self_consistency_consensus ---


def test_consensus_four_to_one():
    record = make_record(answers=["18.5%", "18.5%", "18.5%", "22%", "18.5%"])
    result = self_consistency_consensus(record)
    assert result.consensus_answer == "18.5%"
    assert result.support == pytest.approx(0.8)


def test_consensus_unanimous():
    result = self_consistency_consensus(make_record(answers=["approve"] * 4))
    assert result.support == 1.0


def test_consensus_tie_breaks_lexicographically():
    result = self_consistency_consensus(make_record(answers=["B", "A", "B", "A"]))
    assert result.consensus_answer == "A"
    assert result.support == pytest.approx(0.5)


def test_consensus_requires_multiple_samples():
    with pytest.raises(CapabilityError):
        self_consistency_consensus(make_record(answers=["only"]))


def test_consensus_falls_back_to_text():
    record = make_record(texts=["rate hike", "rate hike", "deep cut"])
    result = self_consistency_consensus(record)
    assert result.consensus_answer == "rate hike"


def test_consensus_support_at_least_one_over_clusters():
    record = make_record(answers=["aa", "bb", "cc", "aa"])
    result = self_consistency_consensus(record)
    assert result.support >= 1.0 / 3.0


# --- race_metrics ---


def test_race_contingency_hand_values():
    # samples: (r1,a1) x2, (r2,a1) x1, (r2,a2) x1
    record = make_record(
        reasonings=["alpha path", "alpha path", "beta route", "beta route"],
        answers=["approve", "approve", "approve", "reject"],
    )
    report = race_metrics(record)
    pairs = [("r1", "a1"), ("r1", "a1"), ("r2", "a1"), ("r2", "a2")]
    h_r, h_a, h_joint, mi = contingency_oracle(pairs)
    assert report.h_reasoning == pytest.approx(h_r, abs=1e-9)
    assert report.h_answer == pytest.approx(h_a, abs=1e-9)
    assert report.h_joint == pytest.approx(h_joint, abs=1e-9)
    assert report.mutual_information == pytest.approx(mi, abs=1e-9)
    # frozen hand values
    assert report.h_reasoning == pytest.approx(0.6931, abs=1e-3)
    assert report.h_answer == pytest.approx(0.5623, abs=1e-3)
    assert report.h_joint == pytest.approx(1.0397, abs=1e-3)
    assert report.mutual_information == pytest.approx(0.2158, abs=1e-3)


def test_race_all_identical_samples():
    record = make_record(reasonings=["same path"] * 4, answers=["same answer"] * 4)
    report = race_metrics(record)
    assert report.h_reasoning == 0.0
    assert report.h_answer == 0.0
    assert report.mutual_information == 0.0
    assert not report.flag_right_answer_wrong_reasoning


def test_race_flags_right_answer_wrong_reasoning():
    # unanimous "No" reached through two disjoint justifications
    record = make_record(
        reasonings=[
            "income ratio exceeds ceiling",
            "collateral shortfall under policy",
            "income ratio exceeds ceiling",
            "collateral shortfall under policy",
        ],
        answers=["No", "No", "No", "No"],
    )
    report = race_metrics(record)
    assert report.h_answer == 0.0
    assert report.h_reasoning >= 0.5
    assert report.mutual_information <= 0.2
    assert report.flag_right_answer_wrong_reasoning


def test_race_requires_reasoning_and_answer():
    with pytest.raises(CapabilityError):
        race_metrics(make_record(answers=["a", "b"]))
    with pytest.raises(CapabilityError):
        race_metrics(make_record(reasonings=["r", "r"], answers=["a", None]))
    with pytest.raises(CapabilityError):
        race_metrics(make_record(reasonings=["r"], answers=["a"]))


def test_race_deterministic_mapping_gives_mi_equal_answer_entropy():
    rng = np.random.default_rng(31)
    reason_pool = ["alpha signal", "bravo signal", "charlie signal"]
    answer_of = {"alpha signal": "yes", "bravo signal": "no", "charlie signal": "yes"}
    for _ in range(20):
        n = int(rng.integers(2, 10))
        reasonings = [reason_pool[i] for i in rng.integers(0, 3, size=n)]
        answers = [answer_of[r] for r in reasonings]
        report = race_metrics(make_record(reasonings=reasonings, answers=answers))
        assert report.mutual_information_raw == pytest.approx(report.h_answer, abs=1e-9)


def test_race_information_inequalities():
    rng = np.random.default_rng(8)
    reasons = ["one way", "other way", "third way"]
    finals = ["yes", "no"]
    for _ in range(30):
        n = int(rng.integers(2, 12))
        record = make_record(
            reasonings=[reasons[i] for i in rng.integers(0, 3, size=n)],
            answers=[finals[i] for i in rng.integers(0, 2, size=n)],
        )
        r = race_metrics(record)
        assert r.mutual_information_raw >= -1e-9
        assert r.h_joint <= r.h_reasoning + r.h_answer + 1e-9
        assert r.h_joint >= max(r.h_reasoning, r.h_answer) - 1e-9


def test_race_permutation_invariant():
    reasonings = ["alpha path", "beta route", "alpha path", "beta route", "alpha path"]
    answers = ["yes", "yes", "no", "yes", "no"]
    base = race_metrics(make_record(reasonings=reasonings, answers=answers))
    rng = np.random.default_rng(4)
    perm = rng.permutation(len(answers))
    shuffled = race_metrics(
        make_record(
            reasonings=[reasonings[i] for i in perm],
            answers=[answers[i] for i in perm],
        )
    )
    assert shuffled.h_reasoning == pytest.approx(base.h_reasoning, abs=1e-9)
    assert shuffled.h_answer == pytest.approx(base.h_answer, abs=1e-9)
    assert shuffled.h_joint == pytest.approx(base.h_joint, abs=1e-9)
