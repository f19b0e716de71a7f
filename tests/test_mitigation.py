import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallguard.errors import ConstraintError
from hallguard.mitigation import (
    Chunk,
    SamplingPolicy,
    apply_sampling_policy,
    chunk_document,
    constrained_distribution,
    summarize_map_reduce,
)

from conftest import make_dist


# --- SamplingPolicy validation ---


@pytest.mark.parametrize(
    "kwargs",
    [
        {"temperature": 0.0},
        {"temperature": -1.0},
        {"top_k": 0},
        {"top_k": 1.5},
        {"top_k": 2.0},
        {"top_k": float("nan")},
        {"top_k": True},
        {"top_p": 0.0},
        {"top_p": 1.5},
        {"temperature": float("nan")},
    ],
)
def test_policy_rejects_invalid_settings(kwargs):
    with pytest.raises(ValueError):
        SamplingPolicy(**kwargs)


# --- apply_sampling_policy ---


def test_neutral_policy_is_identity():
    dist = make_dist([0.6, 0.3, 0.1])
    out = apply_sampling_policy(dist, SamplingPolicy())
    assert out.token_labels == dist.token_labels
    assert out.probs == pytest.approx(dist.probs, abs=1e-12)


def test_nucleus_keeps_smallest_prefix_reaching_mass():
    dist = make_dist([0.5, 0.3, 0.15, 0.05])
    out = apply_sampling_policy(dist, SamplingPolicy(top_p=0.9))
    assert out.token_labels == ["t0", "t1", "t2"]
    assert out.probs == pytest.approx([0.5263, 0.3158, 0.1579], abs=1e-4)


def test_top_one_collapses_to_argmax():
    dist = make_dist([0.2, 0.5, 0.3])
    out = apply_sampling_policy(dist, SamplingPolicy(top_k=1))
    assert out.token_labels == ["t1"]
    assert out.probs == [1.0]


def test_temperature_in_probability_domain_equals_logit_scaling():
    z = np.array([1.2, -0.4, 0.3, 2.0])
    probs = np.exp(z - z.max())
    probs = probs / probs.sum()
    for t in (0.5, 1.3, 4.0):
        out = apply_sampling_policy(make_dist(list(probs)), SamplingPolicy(temperature=t))
        zt = z / t
        expected = np.exp(zt - zt.max())
        expected = expected / expected.sum()
        assert out.probs == pytest.approx(list(expected), abs=1e-12)


def test_top_k_tie_keeps_original_order():
    dist = make_dist([0.25, 0.25, 0.25, 0.25])
    out = apply_sampling_policy(dist, SamplingPolicy(top_k=2))
    assert out.token_labels == ["t0", "t1"]


def test_nucleus_after_top_k_uses_remaining_mass():
    dist = make_dist([0.4, 0.3, 0.2, 0.1])
    # top_k=2 leaves mass 0.7; nucleus 0.9 can never be reached, keep both survivors
    out = apply_sampling_policy(dist, SamplingPolicy(top_k=2, top_p=0.9))
    assert out.token_labels == ["t0", "t1"]
    assert out.probs == pytest.approx([4 / 7, 3 / 7], abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    size=st.integers(2, 10),
    temperature=st.floats(0.2, 5.0, allow_nan=False),
    use_k=st.booleans(),
    use_p=st.booleans(),
)
def test_policy_output_valid_and_argmax_preserved(seed, size, temperature, use_k, use_p):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(size))
    dist = make_dist(list(probs))
    policy = SamplingPolicy(
        temperature=temperature,
        top_k=int(rng.integers(1, size + 1)) if use_k else None,
        top_p=float(rng.uniform(0.05, 1.0)) if use_p else None,
    )
    out = apply_sampling_policy(dist, policy)
    assert sum(out.probs) == pytest.approx(1.0, abs=1e-9)
    assert set(out.token_labels) <= set(dist.token_labels)
    top_in = dist.token_labels[int(np.argmax(dist.probs))]
    top_out = out.token_labels[int(np.argmax(out.probs))]
    assert top_in == top_out


# --- constrained_distribution ---


def test_constrained_to_verified_ratings():
    dist = make_dist([0.35, 0.25, 0.2, 0.15, 0.05], labels=["AAA", "AA+", "AA", "BBB", "junk"])
    out = constrained_distribution(dist, {"AAA", "AA+", "AA"})
    assert out.token_labels == ["AAA", "AA+", "AA"]
    assert sum(out.probs) == pytest.approx(1.0, abs=1e-12)


def test_constrained_full_support_is_identity():
    dist = make_dist([0.7, 0.3])
    out = constrained_distribution(dist, {"t0", "t1"})
    assert out.probs == pytest.approx([0.7, 0.3], abs=1e-12)


def test_constrained_uniform_pair():
    dist = make_dist([0.25] * 4)
    out = constrained_distribution(dist, {"t1", "t3"})
    assert out.token_labels == ["t1", "t3"]
    assert out.probs == pytest.approx([0.5, 0.5], abs=1e-12)


def test_constrained_empty_intersection_is_error():
    with pytest.raises(ConstraintError):
        constrained_distribution(make_dist([0.5, 0.5]), {"missing"})
    with pytest.raises(ConstraintError):
        constrained_distribution(make_dist([1.0, 0.0]), {"t1"})  # allowed but zero mass


def test_constrained_preserves_relative_proportions():
    dist = make_dist([0.5, 0.3, 0.2])
    out = constrained_distribution(dist, {"t0", "t2"})
    assert out.probs[0] / out.probs[1] == pytest.approx(0.5 / 0.2, abs=1e-9)


# --- chunk_document ---


def test_short_text_is_single_chunk():
    chunks = chunk_document("short text", target_size=100, overlap_frac=0.15)
    assert len(chunks) == 1
    assert chunks[0].start_offset == 0
    assert chunks[0].end_offset == len("short text")


def test_a_target_too_large_for_a_float_is_one_chunk():
    chunks = chunk_document("short text", target_size=10**400, overlap_frac=0.15)
    assert chunks == [Chunk(text="short text", start_offset=0, end_offset=10, index=0)]


def test_stride_arithmetic_without_whitespace():
    text = "x" * 1000
    chunks = chunk_document(text, target_size=400, overlap_frac=0.15)
    assert [c.start_offset for c in chunks] == [0, 340, 680]
    assert [c.end_offset for c in chunks] == [400, 740, 1000]
    covered = set()
    for c in chunks:
        covered.update(range(c.start_offset, c.end_offset))
    assert covered == set(range(1000))


def test_zero_overlap_partitions_exactly():
    text = "word " * 100
    chunks = chunk_document(text, target_size=40, overlap_frac=0.0)
    assert chunks[0].start_offset == 0
    assert chunks[-1].end_offset == len(text)
    for a, b in zip(chunks, chunks[1:]):
        assert a.end_offset == b.start_offset
    assert "".join(c.text for c in chunks) == text


def test_empty_text_gives_no_chunks():
    assert chunk_document("", target_size=10) == []


def test_boundaries_snap_to_whitespace():
    text = ("alpha beta gamma delta " * 20).strip()
    chunks = chunk_document(text, target_size=50, overlap_frac=0.2)
    for c in chunks[:-1]:
        # each snapped boundary sits just after a whitespace character
        assert text[c.end_offset - 1].isspace() or c.end_offset - c.start_offset == 50


def test_chunk_parameter_validation():
    with pytest.raises(ValueError):
        chunk_document("abc", target_size=0)
    with pytest.raises(ValueError):
        chunk_document("abc", target_size=10, overlap_frac=0.5)
    for size in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="target_size must be an integer >= 1"):
            chunk_document("abc def", target_size=size)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    length=st.integers(0, 1500),
    target=st.integers(1, 300),
    overlap=st.floats(0.0, 0.49, allow_nan=False),
)
def test_chunks_cover_every_character(seed, length, target, overlap):
    rng = np.random.default_rng(seed)
    alphabet = list("abcdef  ")
    text = "".join(rng.choice(alphabet) for _ in range(length))
    chunks = chunk_document(text, target, overlap)
    if not text:
        assert chunks == []
        return
    covered = np.zeros(len(text), dtype=bool)
    for c in chunks:
        assert 0 <= c.start_offset < c.end_offset <= len(text)
        covered[c.start_offset : c.end_offset] = True
    assert covered.all()
    assert chunks[-1].end_offset == len(text)
    starts = [c.start_offset for c in chunks]
    assert starts == sorted(starts)


# --- summarize_map_reduce ---


def _chunks_of(texts):
    from hallguard.mitigation import Chunk

    out = []
    pos = 0
    for i, t in enumerate(texts):
        out.append(Chunk(text=t, start_offset=pos, end_offset=pos + len(t), index=i))
        pos += len(t)
    return out


def test_single_chunk_depth_one():
    chunks = _chunks_of(["only section"])
    result = summarize_map_reduce(chunks, lambda t: t.upper(), fan_in=2)
    assert result.summary == "ONLY SECTION"
    assert len(result.tree) == 1


def test_identity_reduce_concatenates_in_order():
    chunks = _chunks_of(["aa", "bb", "cc", "dd"])
    result = summarize_map_reduce(chunks, lambda t: t, fan_in=2)
    assert result.summary == "aabbccdd"
    assert [len(level) for level in result.tree] == [4, 2, 1]


def test_level_sizes_follow_ceiling_division():
    chunks = _chunks_of([f"c{i} " for i in range(10)])
    result = summarize_map_reduce(chunks, lambda t: t, fan_in=3)
    assert [len(level) for level in result.tree] == [10, 4, 2, 1]


def test_tree_provenance_covers_all_chunks():
    chunks = _chunks_of([f"part{i}" for i in range(7)])
    result = summarize_map_reduce(chunks, lambda t: t[:3], fan_in=2)
    root = result.tree[-1][0]
    assert root.chunk_indices == list(range(7))
    for level in result.tree:
        seen = [i for node in level for i in node.chunk_indices]
        assert seen == list(range(7))


def test_map_reduce_validation():
    with pytest.raises(ValueError):
        summarize_map_reduce([], lambda t: t)
    with pytest.raises(ValueError):
        summarize_map_reduce(_chunks_of(["a"]), lambda t: t, fan_in=1)
    for fan_in in (2.0, 2.5, True):
        with pytest.raises(ValueError, match="fan_in must be an integer >= 2"):
            summarize_map_reduce(_chunks_of(["a", "b", "c"]), lambda t: t, fan_in=fan_in)


def test_small_temperature_does_not_underflow():
    """0.2 ** 1000 underflows to 0; dividing by the largest probability first
    keeps the top entry at 1."""
    cold = SamplingPolicy(temperature=0.001)
    assert apply_sampling_policy(make_dist([0.2] * 5), cold).probs == [0.2] * 5
    assert apply_sampling_policy(make_dist([0.9, 0.1]), cold).probs == [1.0, 0.0]


@pytest.mark.parametrize("temperature", [1.0, 0.5])
def test_zero_mass_distribution_is_a_value_error(temperature):
    with pytest.raises(ValueError, match="no probability mass"):
        apply_sampling_policy(make_dist([0.0, 0.0]), SamplingPolicy(temperature=temperature))
