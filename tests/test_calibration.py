import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallguard.calibration import (
    FitError,
    IsotonicModel,
    TemperatureModel,
    aggregate_self_evaluation,
    apply_isotonic,
    apply_temperature,
    calibration_map_to_json,
    compute_ece,
    fit_isotonic,
    fit_temperature,
    logit_label_pairs,
    mc_calibrated_mean,
    score_outcome_pairs,
)
from hallguard.records import GenerationRecord, GroundTruthLabel, Sample, TokenDistribution


# ---------------------------------------------------------------------------
# Oracles: independent reference implementations used to freeze expectations.


def grid_search_temperature(logit_sets, labels, lo=0.1, hi=5.0, step=0.01):
    """Brute-force NLL minimizer over a fixed temperature grid."""
    z = np.asarray(logit_sets, dtype=float)
    y = np.asarray(labels, dtype=int)
    best_t, best_nll = None, math.inf
    t = lo
    while t <= hi + 1e-9:
        s = z / t
        s = s - s.max(axis=1, keepdims=True)
        nll = float((np.log(np.exp(s).sum(axis=1)) - s[np.arange(len(y)), y]).mean())
        if nll < best_nll:
            best_t, best_nll = t, nll
        t += step
    return best_t


def naive_pav(pairs):
    """O(n^2) pooling oracle: scan for adjacent violators, pool, restart."""
    by_score = {}
    for s, y in pairs:
        by_score.setdefault(float(s), []).append(float(y))
    scores = sorted(by_score)
    blocks = [[sum(v) / len(v), float(len(v)), [s]] for s, v in
              ((s, by_score[s]) for s in scores)]
    while True:
        for i in range(len(blocks) - 1):
            if blocks[i][0] > blocks[i + 1][0]:
                v1, w1, s1 = blocks[i]
                v2, w2, s2 = blocks[i + 1]
                blocks[i: i + 2] = [[(v1 * w1 + v2 * w2) / (w1 + w2), w1 + w2, s1 + s2]]
                break
        else:
            break
    fitted = {}
    for v, _w, ss in blocks:
        for s in ss:
            fitted[s] = v
    return scores, [fitted[s] for s in scores]


def loop_ece(pairs, M):
    """Per-bin loop oracle: (counts, accuracies, confidences, ece), with an
    empty bin reported as 0 and adding nothing."""
    n = len(pairs)
    counts, accs, confs, ece = [], [], [], 0.0
    for m in range(M):
        members = [(c, y) for c, y in pairs if min(int(c * M), M - 1) == m]
        counts.append(len(members))
        if not members:
            accs.append(0.0)
            confs.append(0.0)
            continue
        acc = sum(1.0 for _, y in members if y) / len(members)
        conf = sum(c for c, _ in members) / len(members)
        accs.append(acc)
        confs.append(conf)
        ece += len(members) / n * abs(acc - conf)
    return counts, accs, confs, ece


def softmax(z):
    e = np.exp(np.asarray(z, float) - np.max(z))
    return e / e.sum()


# --- compute_ece ---


def test_ece_single_bin_contribution():
    # four predictions at confidence 0.92, three correct: |0.75 - 0.92| = 0.17
    pairs = [(0.92, True), (0.92, True), (0.92, True), (0.92, False)]
    result = compute_ece(pairs, M=10)
    assert result.ece == pytest.approx(0.17, abs=1e-9)
    table = result.bin_table
    assert table.counts[9] == 4
    assert table.accuracies[9] == pytest.approx(0.75)
    assert table.confidences[9] == pytest.approx(0.92)
    assert sum(table.counts) == 4


def test_ece_well_calibrated_generator_tends_to_zero():
    rng = np.random.default_rng(42)
    conf = rng.uniform(0.05, 0.95, size=10000)
    correct = rng.random(10000) < conf
    result = compute_ece(list(zip(conf, correct)), M=10)
    assert result.ece < 0.02


def test_ece_single_confident_correct_pair():
    assert compute_ece([(1.0, True)], M=10).ece == 0.0


def test_ece_empty_is_domain_error():
    with pytest.raises(ValueError):
        compute_ece([], M=10)


@pytest.mark.parametrize("M", [0, 1.5, 2.0, True, None])
def test_ece_bin_count_must_be_a_positive_integer(M):
    with pytest.raises(ValueError, match="bin count must be an integer >= 1"):
        compute_ece([(0.5, True), (0.9, False)], M=M)


def test_ece_rejects_out_of_range_confidence():
    with pytest.raises(ValueError):
        compute_ece([(1.2, True)], M=10)
    with pytest.raises(ValueError, match=r"confidences must lie in \[0, 1\]"):
        compute_ece([(float("nan"), True), (0.9, True)], M=10)


def test_ece_bin_edges_partition_unit_interval():
    table = compute_ece([(0.5, True)], M=4).bin_table
    assert table.edges == [0.0, 0.25, 0.5, 0.75, 1.0]


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(st.floats(0, 1, allow_nan=False), st.booleans()), min_size=1, max_size=40
    ),
    st.integers(1, 15),
)
def test_ece_stays_in_unit_interval(pairs, m):
    assert 0.0 <= compute_ece(pairs, M=m).ece <= 1.0


@settings(max_examples=150)
@given(
    st.lists(
        st.tuples(st.floats(0, 1, allow_nan=False), st.booleans()), min_size=1, max_size=60
    ),
    st.integers(1, 40),
)
def test_ece_agrees_with_a_per_bin_loop(pairs, m):
    counts, accs, confs, ece = loop_ece(pairs, m)
    result = compute_ece(pairs, M=m)
    table = result.bin_table
    assert table.counts == counts
    assert table.accuracies == pytest.approx(accs, rel=0, abs=1e-12)
    assert table.confidences == pytest.approx(confs, rel=0, abs=1e-12)
    assert result.ece == pytest.approx(ece, rel=0, abs=1e-12)


# --- fit_temperature ---


def _sample_fit_set(rng, n, dim, label_temperature):
    logits = rng.normal(0.0, 1.3, size=(n, dim))
    labels = [int(rng.choice(dim, p=softmax(z / label_temperature))) for z in logits]
    return logits, labels


def test_fit_recovers_unit_temperature():
    rng = np.random.default_rng(7)
    logits, labels = _sample_fit_set(rng, 5000, 4, label_temperature=1.0)
    model = fit_temperature(logits, labels)
    assert model.T == pytest.approx(1.0, abs=0.05)
    assert abs(model.T - grid_search_temperature(logits, labels)) <= 0.02


def test_fit_recovers_overconfident_temperature():
    rng = np.random.default_rng(11)
    logits, labels = _sample_fit_set(rng, 5000, 4, label_temperature=1.5)
    model = fit_temperature(logits, labels)
    assert model.T == pytest.approx(1.5, abs=0.1)
    assert abs(model.T - grid_search_temperature(logits, labels)) <= 0.02


def test_fit_two_sharp_examples_hits_lower_region():
    logits = [[8.0, -8.0], [-8.0, 8.0]]
    labels = [0, 1]
    model = fit_temperature(logits, labels)
    nll_at_one = -math.log(softmax(np.array([8.0, -8.0]))[0])
    assert model.fit_nll <= nll_at_one + 1e-12
    assert model.T < 1.0


def test_fit_names_the_widths_of_ragged_logit_sets():
    with pytest.raises(ValueError, match="^logit sets must share one dimension; found widths 2, 3$"):
        fit_temperature([[1.0, 0.0], [0.0, 1.0, 2.0], [1.0, 2.0]], [0, 1, 0])


def test_fit_rejects_constant_logits():
    with pytest.raises(FitError):
        fit_temperature([[1.0, 1.0], [2.0, 2.0]], [0, 1])


def test_fit_rejects_tiny_sets_and_bad_labels():
    with pytest.raises(ValueError):
        fit_temperature([[1.0, 0.0]], [0])
    with pytest.raises(ValueError):
        fit_temperature([[1.0, 0.0], [0.0, 1.0]], [0, 2])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="logits must be finite"):
            fit_temperature([[1.0, 0.0], [0.0, bad]], [0, 1])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(2, 40))
def test_fit_never_worse_than_unit_temperature(seed, n):
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, 2.0, size=(n, 3))
    labels = rng.integers(0, 3, size=n)
    model = fit_temperature(logits, labels)
    z = logits / 1.0
    z = z - z.max(axis=1, keepdims=True)
    nll_one = float((np.log(np.exp(z).sum(axis=1)) - z[np.arange(n), labels]).mean())
    assert model.fit_nll <= nll_one + 1e-12


# --- apply_temperature ---


def test_unit_temperature_is_plain_softmax():
    z = [2.0, 1.0, -0.5]
    assert apply_temperature(z, 1.0) == pytest.approx(softmax(z), abs=1e-12)


def test_high_temperature_approaches_uniform():
    p = apply_temperature([2.0, 1.0, 0.0], 1000.0)
    assert p.max() - p.min() < 0.01


def test_apply_temperature_preserves_argmax():
    rng = np.random.default_rng(5)
    for _ in range(200):
        z = rng.normal(size=6)
        for t in (0.1, 1.0, 5.0, 20.0):
            assert int(np.argmax(apply_temperature(z, t))) == int(np.argmax(z))


def test_apply_temperature_rejects_nonpositive():
    with pytest.raises(ValueError):
        apply_temperature([1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        apply_temperature([1.0, 2.0], -1.5)
    with pytest.raises(ValueError, match="temperature must be positive"):
        apply_temperature([1.0, 2.0], float("nan"))


@settings(max_examples=100)
@given(
    z=st.lists(st.floats(-30, 30, allow_nan=False), min_size=1, max_size=8),
    t=st.floats(0.05, 20.0, allow_nan=False),
)
def test_apply_temperature_sums_to_one(z, t):
    assert float(apply_temperature(z, t).sum()) == pytest.approx(1.0, abs=1e-12)



def _softmax_1d(z, t):
    """apply_temperature's 1-D arithmetic: shift by the maximum, then divide."""
    z = np.asarray(z, dtype=float)
    e = np.exp((z - z.max()) / t)
    return e / e.sum()


@pytest.mark.parametrize("V", [1, 2, 4, 6, 7, 8, 9, 11, 16, 17, 33, 50, 130])
def test_apply_temperature_rows_equal_the_1d_calls_bit_for_bit(V):
    rng = np.random.default_rng(V)
    z = rng.normal(0.0, float(rng.choice([0.02, 1.5, 10.0])), (37, V))
    for t in (0.05, 0.7, 1.0, 1.5, 2.5, 20.0):
        rows = apply_temperature(z, t)
        assert rows.shape == z.shape
        for row, zi in zip(rows, z):
            assert row.tobytes() == apply_temperature(zi, t).tobytes() == _softmax_1d(zi, t).tobytes()


def test_a_tiny_temperature_gives_the_one_hot_limit(recwarn):
    assert apply_temperature([0.3, -1.2, 2.0, 0.5], 5e-324).tolist() == [0.0, 0.0, 1.0, 0.0]
    # tied maxima share the mass
    assert apply_temperature([2.0, -1.2, 2.0, 0.5], 5e-324).tolist() == [0.5, 0.0, 0.5, 0.0]
    assert apply_temperature([[1.0, 1.0, 1.0, 1.0]], 5e-324).tolist() == [[0.25] * 4]
    assert not recwarn.list


def test_overflowing_rows_beside_finite_ones_equal_the_row_by_row_calls(recwarn):
    t = 1e-307  # z / t overflows where |z| > about 18
    z = np.array([
        [0.3, -1.2, 2.0, 0.5],  # finite
        [30.0, 1.0, 200.0, -50.0],  # overflows
        [300.0, 300.0, -1.0, 0.0],  # overflows, tied
        [1.0, 1.5, -0.25, 0.0],  # finite
        [-400.0, -1.0, -2.0, -3.0],  # overflows below; the max is finite
    ])
    rows = apply_temperature(z, t)
    for row, zi in zip(rows, z):
        assert row.tobytes() == apply_temperature(zi, t).tobytes()
    assert rows[0].tobytes() == _softmax_1d(z[0], t).tobytes()
    assert rows[1].tolist() == [0.0, 0.0, 1.0, 0.0]
    assert rows[2].tolist() == [0.5, 0.5, 0.0, 0.0]
    assert rows[4].tolist() == [0.0, 1.0, 0.0, 0.0]
    assert not recwarn.list


def test_a_minus_infinity_logit_keeps_the_finite_arithmetic():
    z = [-math.inf, 1.0, 2.0]
    assert apply_temperature(z, 1.5).tobytes() == _softmax_1d(z, 1.5).tobytes()


# a NaN or +inf logit is in test_cli.py's non-finite sweep
@pytest.mark.parametrize("z", [[-math.inf, -math.inf], [[1.0, 2.0], [-math.inf, -math.inf]]])
def test_a_row_of_only_minus_infinity_is_rejected(z):
    with pytest.raises(ValueError, match="finite maximum"):
        apply_temperature(z, 1.0)


# --- mc_calibrated_mean ---


def test_mc_mean_single_pass_equals_apply_temperature():
    z = [0.4, -1.0, 2.2]
    assert mc_calibrated_mean([z], 1.5) == pytest.approx(apply_temperature(z, 1.5), abs=1e-12)


def test_mc_mean_symmetric_passes_give_uniform():
    z = np.array([3.0, -3.0])
    for t in (0.5, 1.0, 4.0):
        assert mc_calibrated_mean([z, -z], t) == pytest.approx([0.5, 0.5], abs=1e-12)


def test_mc_mean_matches_hand_average():
    rng = np.random.default_rng(9)
    passes = [rng.normal(size=5) for _ in range(3)]
    expected = np.mean([softmax(np.asarray(z) / 1.5) for z in passes], axis=0)
    assert mc_calibrated_mean(passes, 1.5) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("V", [1, 3, 8, 9, 17])
def test_mc_mean_is_the_mean_of_the_per_pass_calls_bit_for_bit(V):
    rng = np.random.default_rng(V)
    for n_passes in (1, 2, 7):
        passes = [rng.normal(0.0, 3.0, V) for _ in range(n_passes)]
        for t in (0.05, 1.0, 1.5, 20.0, 1e-307):
            expected = np.stack([apply_temperature(z, t) for z in passes]).mean(axis=0)
            assert mc_calibrated_mean(passes, t).tobytes() == expected.tobytes()
            assert mc_calibrated_mean([z.tolist() for z in passes], t).tobytes() == expected.tobytes()


def test_mc_mean_rejects_mismatched_passes():
    with pytest.raises(ValueError):
        mc_calibrated_mean([[1.0, 2.0], [1.0, 2.0, 3.0]], 1.0)


# --- fit_isotonic / apply_isotonic ---


def test_isotonic_remaps_miscalibrated_scores():
    pairs = [(0.6, 1), (0.6, 0), (0.6, 1), (0.6, 0)]
    pairs += [(0.9, 1)] * 17 + [(0.9, 0)] * 3
    model = fit_isotonic(pairs)
    assert apply_isotonic(model, 0.6) == pytest.approx(0.5)
    assert apply_isotonic(model, 0.9) == pytest.approx(0.85)


def test_isotonic_monotone_data_keeps_per_score_means():
    pairs = [(0.1, 0), (0.1, 0), (0.5, 0), (0.5, 1), (0.9, 1), (0.9, 1)]
    model = fit_isotonic(pairs)
    assert model.breakpoints == [0.1, 0.5, 0.9]
    assert model.values == pytest.approx([0.0, 0.5, 1.0])
    for bad, message in (((math.nan, 1), "scores"), ((0.5, math.nan), "outcomes"),
                         ((0.5, math.inf), "outcomes")):
        with pytest.raises(ValueError, match=f"{message} must be finite"):
            fit_isotonic(pairs + [bad])


def test_isotonic_matches_naive_oracle_on_random_instances():
    rng = np.random.default_rng(123)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        scores = np.round(rng.random(n), 2)  # force occasional ties
        outcomes = rng.integers(0, 2, size=n)
        pairs = list(zip(scores.tolist(), outcomes.tolist()))
        model = fit_isotonic(pairs)
        oracle_scores, oracle_values = naive_pav(pairs)
        assert model.breakpoints == oracle_scores
        assert model.values == pytest.approx(oracle_values, abs=1e-9)


def test_isotonic_values_non_decreasing_property():
    rng = np.random.default_rng(55)
    for _ in range(100):
        n = int(rng.integers(1, 30))
        pairs = list(zip(rng.random(n).tolist(), rng.integers(0, 2, size=n).tolist()))
        model = fit_isotonic(pairs)
        assert all(a <= b + 1e-12 for a, b in zip(model.values, model.values[1:]))


def test_apply_isotonic_clamps_out_of_range_scores():
    model = fit_isotonic([(0.4, 0), (0.8, 1)])
    assert apply_isotonic(model, -5.0) == apply_isotonic(model, -math.inf) == apply_isotonic(model, 0.4)
    assert apply_isotonic(model, 5.0) == apply_isotonic(model, math.inf) == apply_isotonic(model, 0.8)
    with pytest.raises(ValueError, match="NaN"):
        apply_isotonic(model, math.nan)


@settings(max_examples=80, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.floats(0, 1, allow_nan=False), st.integers(0, 1)), min_size=1, max_size=20
    ),
    probes=st.lists(st.floats(-0.5, 1.5, allow_nan=False), min_size=2, max_size=10),
)
def test_apply_isotonic_is_non_decreasing(pairs, probes):
    model = fit_isotonic(pairs)
    probes = sorted(probes)
    values = [apply_isotonic(model, s) for s in probes]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


# --- aggregate_self_evaluation ---


def test_self_evaluation_two_yes_one_unsure():
    assert aggregate_self_evaluation(["yes", "yes", "unsure"]) == pytest.approx(0.667, abs=0.001)


def test_self_evaluation_unanimous_yes():
    assert aggregate_self_evaluation(["yes"] * 4) == 1.0


def test_self_evaluation_all_unsure():
    assert aggregate_self_evaluation(["unsure"] * 3) == 0.0


def test_self_evaluation_rejects_empty_and_unknown():
    with pytest.raises(ValueError):
        aggregate_self_evaluation([])
    with pytest.raises(ValueError):
        aggregate_self_evaluation(["yes", "maybe"])


@given(
    votes=st.lists(st.sampled_from(["yes", "no", "unsure"]), min_size=1, max_size=20),
    seed=st.integers(0, 999),
)
def test_self_evaluation_permutation_invariant(votes, seed):
    rng = np.random.default_rng(seed)
    shuffled = [votes[i] for i in rng.permutation(len(votes))]
    value = aggregate_self_evaluation(votes)
    assert 0.0 <= value <= 1.0
    assert aggregate_self_evaluation(shuffled) == value


# --- calibration map serialization ---


def test_calibration_map_to_json_keys_in_order():
    t_model = TemperatureModel(T=1.5, fit_nll=0.25, n_fit=3)
    t_map = calibration_map_to_json(t_model)
    assert list(t_map.items()) == [("kind", "temperature"), ("T", 1.5), ("fit_nll", 0.25), ("n_fit", 3)]

    iso = IsotonicModel(breakpoints=[0.2, 0.5], values=[0.0, 1.0])
    iso_map = calibration_map_to_json(iso)
    assert list(iso_map.items()) == [("kind", "isotonic"), ("breakpoints", [0.2, 0.5]),
                                     ("values", [0.0, 1.0])]


@pytest.mark.parametrize("obj", [None, 1.5, {"kind": "temperature", "T": 1.5}, [0.2, 0.5]])
def test_calibration_map_to_json_rejects_other_objects(obj):
    with pytest.raises(TypeError, match="not a calibration model"):
        calibration_map_to_json(obj)


# --- corpus bridges: logit_label_pairs / score_outcome_pairs ---

_GT = GroundTruthLabel(is_hallucinated=False, correct_answer="a")


def _rec(dists=None, ground_truth=_GT, samples=None):
    """A record whose first sample carries dists; a second sample always
    holds the label, so a pair that reads past the first sample shows."""
    if samples is None:
        samples = [Sample("first", token_dists=dists),
                   Sample("second", token_dists=[TokenDistribution(["a"], [1.0])])]
    return GenerationRecord("r", "q", samples, ground_truth=ground_truth)


# id, record, logit pair as (probs, label index) or None, score pair or None
FIT_PAIR_CASES = [
    ("scored",
     _rec([TokenDistribution(["x", "a", "y"], [0.2, 0.5, 0.3])]), ([0.2, 0.5, 0.3], 1), (0.5, True)),
    ("top-not-label", _rec([TokenDistribution(["a", "x"], [0.25, 0.75])]), ([0.25, 0.75], 0), (0.75, False)),
    ("no-ground-truth", _rec([TokenDistribution(["a"], [1.0])], ground_truth=None), None, None),
    ("no-correct-answer",
     _rec([TokenDistribution(["a"], [1.0])], ground_truth=GroundTruthLabel(True, "model")), None, None),
    ("no-samples", _rec(samples=[]), None, None),
    ("no-token-dists", _rec(None), None, None),
    ("empty-token-dists", _rec([]), None, None),
    ("label-not-in-tokens",
     _rec([TokenDistribution(["x", "y"], [0.5, 0.5]), TokenDistribution(["a"], [1.0])]), None, None),
    ("zero-probability", _rec([TokenDistribution(["a", "x"], [1.0, 0.0])]), None, (1.0, True)),
    ("empty-probs", _rec([TokenDistribution(["a"], [])]), None, None),
    ("duplicate-labels",
     _rec([TokenDistribution(["a", "x", "a"], [0.1, 0.3, 0.6])]), ([0.1, 0.3, 0.6], 0), (0.6, True)),
]


@pytest.mark.parametrize("record, logit_pair, score_pair", [case[1:] for case in FIT_PAIR_CASES],
                         ids=[case[0] for case in FIT_PAIR_CASES])
def test_fit_pairs_use_first_scored_position_of_labeled_records(record, logit_pair, score_pair):
    logit_sets, labels = logit_label_pairs([record])
    if logit_pair is None:
        assert (logit_sets, labels) == ([], [])
    else:
        probs, label = logit_pair
        assert labels == [label]
        assert len(logit_sets) == 1
        np.testing.assert_array_equal(logit_sets[0], np.log(probs))
    assert score_outcome_pairs([record]) == ([] if score_pair is None else [score_pair])


def test_fit_pairs_keep_corpus_order_and_skip_unusable_records():
    records = [case[1] for case in FIT_PAIR_CASES]
    logit_sets, labels = logit_label_pairs(records)
    assert labels == [case[2][1] for case in FIT_PAIR_CASES if case[2] is not None]
    assert len(logit_sets) == len(labels)
    assert score_outcome_pairs(records) == [case[3] for case in FIT_PAIR_CASES if case[3] is not None]
