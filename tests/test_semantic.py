import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hallguard import pipeline, semantic
from hallguard.errors import CapabilityError
from hallguard.grounding import STATUS_MATCH, FactEntry, FactStore, check_claims
from hallguard.mockgen import MockSpec, generate_corpus
from hallguard.pipeline import detect
from hallguard.records import Claim
from hallguard.semantic import (
    ClusterAssignment,
    cluster_embeddings,
    cluster_texts,
    default_embed,
    semantic_entropy,
    semantic_entropy_of_record,
)

from conftest import make_record


def reference_cluster(vectors, threshold):
    """The plain pair loop that cluster_embeddings vectorizes: per-pair cosine
    distances, then at each merge the mean distance block of every cluster
    pair, strict < so that ties keep the lowest (a, b) pair."""
    vs = [np.asarray(v, dtype=float) for v in vectors]
    n = len(vs)

    def cosine_distance(u, v):
        if not u.any() or not v.any():
            return math.inf
        if np.array_equal(u, v):
            return 0.0
        u, v = u / np.abs(u).max(), v / np.abs(v).max()  # as cluster_embeddings scales
        nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
        return max(0.0, 1.0 - float(np.dot(u, v) / (nu * nv)))

    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = cosine_distance(vs[i], vs[j])
    clusters = [[i] for i in range(n)]
    while len(clusters) > 1:
        best, pair = math.inf, None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                d = float(dist[np.ix_(clusters[a], clusters[b])].mean())
                if d < best:
                    best, pair = d, (a, b)
        if pair is None or best > threshold:
            break
        a, b = pair
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]
    clusters.sort(key=min)
    assignment = [0] * n
    for k, members in enumerate(clusters):
        for i in members:
            assignment[i] = k
    return ClusterAssignment(
        cluster_of_sample=assignment,
        cluster_masses=[len(members) / n for members in clusters],
        representatives=[min(members) for members in clusters],
    )


def exact_average_linkage(vectors, threshold):
    """Average linkage in exact arithmetic over nonzero vectors: the distinct
    rows in byte order, their _distances as exact fractions, each pair's
    linkage the count-weighted mean distance between its two clusters, ties
    broken by the lowest (a, b) pair.  None when a merge meets two equal
    positive linkages, which rounding may split either way."""
    keys = [(np.asarray(v, dtype=float) + 0.0).tobytes() for v in vectors]
    distinct = sorted(set(keys))
    row = {key: r for r, key in enumerate(distinct)}
    size = [keys.count(key) for key in distinct]
    dist = semantic._distances(np.stack([np.frombuffer(key) for key in distinct]))
    # summed distance between the samples of two clusters
    total = [[Fraction(float(d)) * size[i] * size[j] for j, d in enumerate(ds)] for i, ds in enumerate(dist)]
    members = {r: [r] for r in range(len(distinct))}  # each cluster named by its lowest row
    while len(members) > 1:
        linkages = sorted((total[a][b] / (size[a] * size[b]), a, b)
                          for a, b in itertools.combinations(sorted(members), 2))
        best, a, b = linkages[0]
        if best > threshold:
            break
        if best > 0 and len(linkages) > 1 and linkages[1][0] == best:
            return None
        for c in members:
            total[a][c] += total[b][c]
            total[c][a] += total[c][b]
        size[a] += size[b]
        members[a] += members.pop(b)
    owner = {r: a for a, rows in members.items() for r in rows}
    parts: dict[int, list[int]] = {}
    for i, key in enumerate(keys):
        parts.setdefault(owner[row[key]], []).append(i)
    clusters = sorted(parts.values(), key=min)
    assignment = [0] * len(keys)
    for k, part in enumerate(clusters):
        for i in part:
            assignment[i] = k
    return ClusterAssignment(
        cluster_of_sample=assignment,
        cluster_masses=[len(part) / len(keys) for part in clusters],
        representatives=[min(part) for part in clusters],
    )


def embedded(texts, embed=default_embed):
    """embed of each text as a row over the sorted tokens of all of them: the
    vectors cluster_texts clusters."""
    weights = [embed(text) for text in texts]
    vocabulary = sorted(set().union(*weights))
    return [np.array([w.get(token, 0.0) for token in vocabulary]) for w in weights]


_FNV_OFFSET, _FNV_PRIME, _FNV_MASK = 0xCBF29CE484222325, 0x100000001B3, 0xFFFFFFFFFFFFFFFF


def fnv_bucket(token: str) -> int:
    h = _FNV_OFFSET
    for b in token.encode("utf-8"):
        h = ((h ^ b) * _FNV_PRIME) & _FNV_MASK
    return h % 256


def fnv_embed(text: str) -> np.ndarray:
    """The hashing embedder that default_embed replaced, kept as a reference:
    lowercase whitespace tokens counted in 256 FNV-1a buckets, L2-normalized."""
    vec = np.zeros(256)
    for token in text.lower().split():
        vec[fnv_bucket(token)] += 1.0
    norm = float(np.linalg.norm(vec))
    return vec / norm if norm > 0.0 else vec


def meets_a_tie_or_the_threshold(vectors, threshold, tol=1e-9):
    """Whether reference_cluster's merge loop meets two positive linkages
    within tol of each other at a step (rounding may split such a tie either
    way), or a linkage within tol of the threshold."""
    vs = [v for v in (np.asarray(v, dtype=float) for v in vectors) if v.any()]  # zero rows stay singletons
    if len(vs) < 2:
        return False
    dist = semantic._distances(np.stack(vs))
    clusters = [[i] for i in range(len(vs))]
    while len(clusters) > 1:
        linkages = sorted(
            (float(dist[np.ix_(clusters[a], clusters[b])].mean()), a, b)
            for a in range(len(clusters)) for b in range(a + 1, len(clusters)))
        best, a, b = linkages[0]
        if abs(best - threshold) <= tol:
            return True
        if best > threshold:
            return False
        if len(linkages) > 1 and best > tol and linkages[1][0] - best <= tol:
            return True
        clusters[a] += clusters.pop(b)
    return False


# --- default_embed ---


def test_embed_deterministic():
    assert np.array_equal(default_embed("the rate went up"), default_embed("the rate went up"))


def test_embed_empty_is_zero_vector():
    assert default_embed("") == {}
    assert default_embed("   ") == {}
    assert not embedded(["", "   "])[0].any()


def test_embed_is_order_invariant():
    assert np.array_equal(default_embed("a b"), default_embed("b a"))


def test_embed_unit_norm():
    weights = default_embed("profit increased this quarter profit").values()
    assert math.fsum(w * w for w in weights) == pytest.approx(1.0)


def test_embed_case_folds():
    assert np.array_equal(default_embed("Rate HIKE"), default_embed("rate hike"))


# --- the number rule: a token that states a finite number is keyed by its value ---


@pytest.mark.parametrize("texts", [["1200", "1200.0", "1.2e3", "1200.00"], ["-0", "0"],
                                   ["rose 1200", "Rose 1.2E3"]])
def test_spellings_of_one_number_form_one_cluster(texts):
    assert cluster_texts(texts).cluster_masses == [1.0]


def test_strings_that_state_no_number_stay_words():
    assert [default_embed(t) for t in ("1,200", "$1200", "5%", "nan")] == [
        {"1,200": 1.0}, {"$1200": 1.0}, {"5%": 1.0}, {"nan": 1.0}]
    assert cluster_texts(["1,200", "$1200", "5%", "1200"]).cluster_masses == [0.25] * 4


def test_numbers_are_counted_by_value():
    assert default_embed("1200 1.2e3 ١٢٠٠ 1_200 -0 0.0 1e999") == {
        "1200.0": 4 / math.sqrt(21), "0.0": 2 / math.sqrt(21), "1e999": 1 / math.sqrt(21)}


@settings(max_examples=200, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
def test_spellings_of_a_float_embed_alike(x):
    texts = [f"revenue rose to {s} in q3" for s in (repr(x), f"{x:.17g}", f"{x:.17e}")]
    assert default_embed(texts[0]) == default_embed(texts[1]) == default_embed(texts[2])


# one token: no whitespace, which the letter, mark, number, punctuation and
# symbol categories hold none of
_WORDS = st.one_of(
    st.sampled_from(["0", "-0", "+0.0", "1,200", "$1200", "5%", "1_200", "١٢٠٠", "nan", "-inf", "1e999", "Rates"]),
    st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=6),
)


def _spellings(x: float):
    spelled = st.sampled_from([repr(x), f"{x:.17g}", f"{x:.17E}", f"{x:.3g}", f"{x:_}", f"{x:,}"])
    return st.tuples(st.one_of(spelled, _WORDS), st.one_of(spelled, _WORDS))


@settings(max_examples=300, deadline=None)
@given(pair=st.floats().flatmap(_spellings))
def test_two_spellings_share_a_key_exactly_when_check_claims_matches_them(pair):
    """Consensus, RACE and factcheck read a number by one rule."""
    a, b = pair
    store = FactStore({"k": FactEntry(b)})
    matched = check_claims([Claim("k", a)], store)[0].status == STATUS_MATCH
    assert (list(default_embed(a)) == list(default_embed(b))) == matched


# --- cluster_embeddings ---


def test_identical_vectors_form_one_cluster():
    vecs = [np.array([0.3, 0.7])] * 5
    assignment = cluster_embeddings(vecs, threshold=0.3)
    assert assignment.cluster_masses == [1.0]
    assert assignment.cluster_of_sample == [0] * 5


def test_distant_minority_stays_separate():
    u = np.array([1.0, 0.0])
    v = np.array([-0.5, math.sqrt(3) / 2])  # cosine distance 1.5 from u
    assignment = cluster_embeddings([u, u, u, u, v], threshold=0.3)
    assert assignment.cluster_masses == [0.8, 0.2]
    assert assignment.representatives == [0, 4]
    # brute force: every u/v pair distance exceeds the threshold, so no merge
    sim = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
    assert 1.0 - sim == pytest.approx(1.5, abs=1e-12)


def test_coincident_vectors_merge_at_any_positive_threshold():
    vecs = [np.array([2.0, 1.0])] * 3
    for threshold in (1e-9, 0.1, 1.9):
        assert cluster_embeddings(vecs, threshold).cluster_masses == [1.0]


def test_zero_vectors_are_singletons():
    vecs = [np.zeros(3), np.zeros(3), np.array([1.0, 0.0, 0.0])]
    assignment = cluster_embeddings(vecs, threshold=2.0)
    assert len(assignment.cluster_masses) == 3


def test_threshold_zero_groups_exact_duplicates():
    a, b = embedded(["alpha beta", "gamma delta"])
    assignment = cluster_embeddings([a, b, a, b, a], threshold=0.0)
    assert sorted(assignment.cluster_masses) == [0.4, 0.6]
    assert assignment.cluster_of_sample == [0, 1, 0, 1, 0]


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        cluster_embeddings([], threshold=0.5)


def test_mixed_dimensions_rejected():
    with pytest.raises(ValueError):
        cluster_embeddings([np.zeros(2), np.zeros(3)], threshold=0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_vectors_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        cluster_embeddings([np.array([1.0, 0.0]), np.array([bad, 1.0])], threshold=0.5)


def test_negative_zero_duplicates_merge_at_threshold_zero():
    assignment = cluster_embeddings([np.array([1.0, 0.0]), np.array([1.0, -0.0])], threshold=0.0)
    assert assignment.cluster_masses == [1.0]


def test_matches_reference_loop_on_random_inputs():
    rng = np.random.default_rng(2024)
    inputs = []
    for _ in range(300):
        n, dim = int(rng.integers(1, 13)), int(rng.integers(1, 6))
        pool = [rng.normal(size=dim) for _ in range(int(rng.integers(1, 4)))]
        vectors = []
        for _ in range(n):
            draw = rng.random()
            if draw < 0.15:
                vectors.append(np.zeros(dim))
            elif draw < 0.6:  # an exact duplicate of a pool vector
                vectors.append(pool[int(rng.integers(len(pool)))].copy())
            else:
                vectors.append(rng.normal(size=dim))
        inputs.append(vectors)
    # one distinct row, which cluster_embeddings answers without a distance matrix
    for n in (1, 2, 5, 80):
        inputs.append([np.array([0.3, -1.2, 0.0])] * n)
    inputs.append([np.zeros(3)] * 4)
    inputs.append([np.array([0.0, -0.0]), np.array([-0.0, 0.0]), np.array([0.0, 0.0])])
    inputs.append([np.array([1.0, 0.0]), np.array([1.0, -0.0])])
    inputs.append([np.array([1e-200, 0.0])] * 3)  # a norm that underflows to 0
    inputs.append([np.full(3, 1e200)] * 3)  # finite, but its squared norm overflows
    with np.errstate(over="ignore"):
        for vectors in inputs:
            for threshold in (0.0, 0.35, 2.0):
                assert cluster_embeddings(vectors, threshold) == reference_cluster(vectors, threshold)


def test_matches_reference_loop_near_the_threshold():
    """The threshold 1e-12 above or below the largest distance.  Above it,
    every merge is taken and the answer comes without the merge loop; below
    it, the loop decides."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        n, dim = int(rng.integers(2, 13)), int(rng.integers(2, 6))
        center = rng.normal(size=dim)
        vectors = [center + rng.normal(scale=float(rng.uniform(0.05, 1.0)), size=dim) for _ in range(n)]
        largest = float(semantic._distances(np.stack(vectors)).max())
        for threshold in (largest - 1e-12, largest + 1e-12):
            assert cluster_embeddings(vectors, threshold) == reference_cluster(vectors, threshold)
        assert cluster_embeddings(vectors, largest + 1e-12).cluster_masses == [1.0]


def test_matches_exact_average_linkage_on_sign_rows():
    """Rows from {-1, 0, 1}^d, each carried by 1 to 29 samples, tie often and
    meet the thresholds exactly; wherever the exact loop meets no tie, the
    merges are the exact ones."""
    rng = np.random.default_rng(1109)
    checked = 0
    for _ in range(500):
        dim = int(rng.integers(2, 6))
        rows = sorted({tuple(r) for r in rng.integers(-1, 2, size=(int(rng.integers(1, 11)), dim)) if any(r)})
        if not rows:
            continue
        vectors = [np.array(r, dtype=float) for r in rows for _ in range(int(rng.integers(1, 30)))]
        vectors = [vectors[i] for i in rng.permutation(len(vectors))]
        for threshold in (0.0, 0.2, 0.35, 0.5, 1.0):
            exact = exact_average_linkage(vectors, threshold)
            if exact is not None:
                assert cluster_embeddings(vectors, threshold) == exact
                checked += 1
    assert checked > 1500


@pytest.mark.parametrize("count_u, count_v", [(2, 3), (11, 17), (17, 22), (22, 34), (39, 39)])
def test_a_merge_at_the_threshold_does_not_depend_on_sample_counts(count_u, count_v):
    """Two texts of 20 distinct words, 13 of them shared: cosine 13/20, a
    computed distance of exactly 0.35."""
    words = [f"w{i:03d}" for i in range(27)]
    u, v = " ".join(words[:20]), " ".join(words[7:])
    assert semantic._distances(np.stack(embedded([u, v])))[0, 1] == 0.35
    assert cluster_texts([u] * count_u + [v] * count_v, 0.35).cluster_masses == [1.0]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 8),
    threshold=st.floats(0.0, 1.5, allow_nan=False),
)
def test_clustering_deterministic_and_permutation_stable(seed, n, threshold):
    rng = np.random.default_rng(seed)
    vecs = [rng.normal(size=4) for _ in range(n)]
    first = cluster_embeddings(vecs, threshold)
    second = cluster_embeddings(vecs, threshold)
    assert first == second

    perm = rng.permutation(n)
    shuffled = cluster_embeddings([vecs[i] for i in perm], threshold)
    assert sorted(shuffled.cluster_masses) == pytest.approx(sorted(first.cluster_masses))


def test_masses_sum_to_one_and_representatives_align():
    rng = np.random.default_rng(3)
    vecs = [rng.normal(size=3) for _ in range(7)]
    assignment = cluster_embeddings(vecs, threshold=0.8)
    assert sum(assignment.cluster_masses) == pytest.approx(1.0)
    for k, rep in enumerate(assignment.representatives):
        assert assignment.cluster_of_sample[rep] == k


# --- cluster_texts ---


def test_cluster_texts_embeds_each_distinct_string_once(monkeypatch):
    seen = []

    def embed(text):
        seen.append(text)
        return default_embed(text)

    monkeypatch.setattr(semantic, "default_embed", embed)
    texts = ["rates up", "rates up", "rates down", "rates up"]
    assert cluster_texts(texts) == cluster_embeddings(embedded(texts), semantic.DEFAULT_CLUSTER_THRESHOLD)
    assert seen == ["rates up", "rates down"]


@pytest.mark.parametrize("threshold", [0.35, 0.0, -0.1, math.nan])
@pytest.mark.parametrize("text, embed", [  # the vectors cluster_texts makes
    ("", default_embed),  # zero vectors: n singletons
    ("   ", default_embed),
    ("rates up", default_embed),  # one cluster
])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_one_distinct_text_matches_the_general_path(text, embed, threshold, n):
    vectors = embedded([text] * n, embed)
    if not threshold >= 0.0:  # both reject it
        with pytest.raises(ValueError, match="threshold"):
            cluster_embeddings(vectors, threshold)
        with pytest.raises(ValueError, match="threshold"):
            cluster_texts([text] * n, threshold)
        return
    expected = cluster_embeddings(vectors, threshold)
    assert cluster_texts([text] * n, threshold) == expected
    assert expected == reference_cluster(vectors, threshold)


def test_one_text_is_clustered_without_a_token_matrix(monkeypatch):
    """A text on every sample is embedded once and forms one cluster with no
    _cluster_rows call; two texts that differ only in case or spacing are one
    row, clustered by _cluster_rows into one cluster too."""
    embeds, clusterings = [], []
    embed, cluster_rows = semantic.default_embed, semantic._cluster_rows
    monkeypatch.setattr(semantic, "default_embed", lambda text: embeds.append(text) or embed(text))
    monkeypatch.setattr(semantic, "_cluster_rows",
                        lambda *args: clusterings.append(args[1]) or cluster_rows(*args))
    one_cluster = ClusterAssignment([0, 0, 0], [1.0], [0])
    assert cluster_texts(["Rates rose"] * 3) == one_cluster
    assert (embeds, clusterings) == (["Rates rose"], [])
    assert cluster_texts(["rates rose", "Rates  ROSE", "rates rose"]) == one_cluster
    assert clusterings == [[0, 1, 0]]


def test_cluster_texts_of_no_texts_rejected():
    with pytest.raises(ValueError, match="at least one"):
        cluster_texts([])


@pytest.mark.parametrize("kept, other", [("10.00", "57.81"), ("BBB", "true")])
def test_answers_in_one_hash_bucket_stay_apart(kept, other):
    """Each pair shares a bucket of the old 256-bucket FNV-1a embedder, which
    clustered them as one answer."""
    assert fnv_bucket(kept.lower()) == fnv_bucket(other.lower())
    assignment = cluster_texts([kept, kept, other])
    assert assignment.cluster_masses == [2 / 3, 1 / 3]
    assert assignment.cluster_of_sample == [0, 0, 1]


def test_detect_reads_disagreement_between_answers_in_one_hash_bucket():
    record = make_record(answers=["10.00", "57.81", "10.00", "57.81", "57.81"])
    signals = detect(record)
    assert signals.h_s == pytest.approx(-0.4 * math.log(0.4) - 0.6 * math.log(0.6))
    assert signals.consensus_support == 0.6


# tokens whose FNV-1a buckets mod 256 are pairwise distinct, so the old
# embedder's rows are the exact-token rows with their columns permuted
_DISTINCT_BUCKET_TOKENS = ["rates", "up", "down", "profit", "fell", "rose", "q3", "10.00"]


@settings(max_examples=200, deadline=None)
@given(
    texts=st.lists(st.lists(st.sampled_from(_DISTINCT_BUCKET_TOKENS), max_size=4).map(" ".join),
                   min_size=1, max_size=8),
    threshold=st.floats(0.0, 1.5, allow_nan=False),
)
def test_exact_tokens_cluster_as_the_hashing_embedder_without_collisions(texts, threshold):
    """Where no two tokens share a bucket, the exact-token clustering is the
    clustering of the old embedder's vectors, except where the reference
    meets a tie or the threshold, which rounding may decide either way."""
    assert len({fnv_bucket(t) for t in _DISTINCT_BUCKET_TOKENS}) == len(_DISTINCT_BUCKET_TOKENS)
    reference = [fnv_embed(text) for text in texts]
    assume(not meets_a_tie_or_the_threshold(reference, threshold))
    assert cluster_texts(texts, threshold) == cluster_embeddings(reference, threshold)


@pytest.mark.parametrize("threshold", [-0.1, -5e-324, -math.inf, math.nan])
def test_negative_or_nan_threshold_rejected(threshold):
    """On every path: distinct rows, duplicates, zero rows, one text, many."""
    vectors = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0]), np.zeros(2)]
    for inputs in (vectors, vectors[:1], vectors[3:]):
        with pytest.raises(ValueError, match="threshold"):
            cluster_embeddings(inputs, threshold)
    for texts in (["rates up", "rates down", "rates up", ""], ["rates up"] * 3):
        with pytest.raises(ValueError, match="threshold"):
            cluster_texts(texts, threshold)


def test_detect_clusters_each_distinct_input_once(monkeypatch):
    """Semantic entropy, consensus and the RACE answers share one input tuple
    and the reasoning traces are the other, so a record takes two
    clusterings; a second detect of it takes two more, since no clustering
    outlives its record."""
    spec = MockSpec(n_records=1, samples_per_record=5, seed=3)
    record = generate_corpus(spec)[0]
    assert all(s.text == s.answer and s.reasoning != s.answer for s in record.samples)
    clustered = []
    monkeypatch.setattr(pipeline, "cluster_texts",
                        lambda texts, threshold: clustered.append(texts) or cluster_texts(texts, threshold))
    signals = detect(record)
    assert len(clustered) == 2 and signals.h_s is not None and signals.race is not None
    assert detect(record) == signals
    assert len(clustered) == 4


# --- order of the samples ---


def test_roadmap_tie_example_is_order_independent():
    """Two merges tie at linkage 1.0; the lowest sample pair used to pick one,
    so swapping the first two rows moved the masses from [0.75, 0.25] to
    [0.5, 0.5]."""
    rows = [np.array(r, dtype=float) for r in ([-1, 1, -1], [1, 0, -1], [1, 1, 1], [-1, 1, 1])]
    first = cluster_embeddings(rows, 1.0)
    swapped = cluster_embeddings([rows[1], rows[0], *rows[2:]], 1.0)
    assert sorted(first.cluster_masses) == sorted(swapped.cluster_masses)


def test_tie_sweep_masses_depend_only_on_the_multiset():
    """Rows from {-1, 0, 1}^3 (zero rows included) tie often; every
    permutation gives exactly the same sorted masses."""
    rng = np.random.default_rng(5)
    for _ in range(400):
        n = int(rng.integers(3, 7))
        rows = rng.integers(-1, 2, size=(n, 3)).astype(float)
        threshold = float(rng.choice([0.3, 0.5, 0.7, 1.0, 1.2, 1.5]))
        expected = sorted(cluster_embeddings(rows, threshold).cluster_masses)
        for _ in range(3):
            shuffled = rows[rng.permutation(n)]
            assert sorted(cluster_embeddings(shuffled, threshold).cluster_masses) == expected


# --- semantic_entropy ---


def test_semantic_entropy_four_one_split():
    assignment = ClusterAssignment([0, 0, 0, 0, 1], [0.8, 0.2], [0, 4])
    assert semantic_entropy(assignment) == pytest.approx(0.500, abs=0.005)


def test_semantic_entropy_single_cluster_is_zero():
    assert semantic_entropy(ClusterAssignment([0, 0], [1.0], [0])) == 0.0


def test_semantic_entropy_uniform_three_clusters():
    assignment = ClusterAssignment([0, 1, 2], [1 / 3] * 3, [0, 1, 2])
    assert semantic_entropy(assignment) == pytest.approx(math.log(3), abs=1e-9)


# --- semantic_entropy_of_record ---


def test_record_entropy_four_agree_one_contradicts():
    record = make_record(
        texts=[
            "profit increased strongly",
            "profit increased strongly",
            "profit increased strongly",
            "revenue declined sharply versus expectations",
            "profit increased strongly",
        ]
    )
    result = semantic_entropy_of_record(record)
    assert result.entropy == pytest.approx(0.500, abs=0.005)
    assert result.assignment.cluster_masses == [0.8, 0.2]


def test_record_entropy_two_identical_samples():
    record = make_record(texts=["same words", "same words"])
    assert semantic_entropy_of_record(record).entropy == 0.0


def test_record_entropy_three_balanced_disjoint_groups():
    record = make_record(
        texts=[
            "alpha one", "alpha one",
            "bravo two", "bravo two",
            "charlie three", "charlie three",
        ]
    )
    assert semantic_entropy_of_record(record).entropy == pytest.approx(math.log(3), abs=1e-9)


def test_record_entropy_requires_two_samples():
    with pytest.raises(CapabilityError):
        semantic_entropy_of_record(make_record(texts=["only one"]))


def test_stored_embeddings_take_precedence():
    record = make_record(texts=["same", "same", "same"])
    # stored vectors contradict the identical texts: two groups, not one
    samples = [
        s.__class__(**{**vars(s), "embedding": emb})
        for s, emb in zip(record.samples, ([1.0, 0.0], [1.0, 0.0], [0.0, 1.0]))
    ]
    record = record.__class__(**{**vars(record), "samples": samples})
    result = semantic_entropy_of_record(record)
    assert len(result.assignment.cluster_masses) == 2


def _with_embeddings(vectors):
    record = make_record(texts=[f"sample {i}" for i in range(len(vectors))])
    samples = [s.__class__(**{**vars(s), "embedding": [float(x) for x in v]})
               for s, v in zip(record.samples, vectors)]
    return record.__class__(**{**vars(record), "samples": samples})


@pytest.mark.parametrize("k", [-600, -300, 300, 600])
def test_scaling_stored_embeddings_by_a_power_of_two_keeps_h_s(k):
    """Distances are scale-invariant: 2^k times every stored embedding of a
    record, a scaling that rounds nothing, leaves h_s bit for bit as it was,
    far past where an unscaled squared norm overflows or underflows."""
    rng = np.random.default_rng(17)
    split = 0
    for _ in range(60):
        n, dim = int(rng.integers(2, 13)), int(rng.integers(2, 9))
        directions = rng.normal(size=(int(rng.integers(1, 5)), dim))
        vectors = [directions[int(rng.integers(len(directions)))]
                   + rng.normal(scale=float(rng.uniform(0.0, 0.6)), size=dim) for _ in range(n)]
        if rng.random() < 0.2:  # one distinct row
            vectors = [vectors[0]] * n
        h_s = semantic_entropy_of_record(_with_embeddings(vectors)).entropy
        scaled = semantic_entropy_of_record(_with_embeddings([np.ldexp(v, k) for v in vectors])).entropy
        assert scaled == h_s
        split += h_s > 0.0
    assert split > 10  # most records hold more than one cluster


_BLAS_CHILD = """
import hashlib, numpy as np
from hallguard import semantic
for k in (400, 1600):
    rng = np.random.default_rng(k)
    direction = rng.normal(size=64)
    rows = direction + rng.normal(scale=0.5, size=(k, 64))
    rows[k // 2:] *= -1.0  # half around the direction, half around its opposite
    distances = semantic._distances(rows).tobytes()
    owners = str(semantic.cluster_embeddings(rows, 0.35).cluster_of_sample).encode()
    print(k, hashlib.sha256(distances).hexdigest(), hashlib.sha256(owners).hexdigest())
"""


def test_the_blas_thread_count_cannot_change_a_clustering():
    """The Gram matrix is the one BLAS product; its bytes, and so every merge,
    are the same on one BLAS thread as on two."""
    src = str(Path(semantic.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", _BLAS_CHILD], capture_output=True, env=env, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 2
