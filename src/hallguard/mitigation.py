"""Inference-time distribution transforms and context-length management.

Sampling filters and constrained decoding operate on recorded token
distributions, so they compose with offline logs as well as live decoders.
Chunking and map-reduce summarization manage long source documents; no
generative summarizer ships here, callers inject one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConstraintError
from .records import TokenDistribution

DEFAULT_CHUNK_OVERLAP = 0.15


@dataclass(frozen=True)
class SamplingPolicy:
    """Temperature / top-k / top-p settings; filters are optional."""

    temperature: float = 1.0
    top_k: int | None = None
    top_p: float | None = None

    def __post_init__(self):
        if not 0.0 < self.temperature < math.inf:  # NaN fails it too
            raise ValueError("temperature must be positive and finite")
        if self.top_k is not None:
            if type(self.top_k) is bool or not isinstance(self.top_k, int):  # 2.0 cannot slice, True is no count
                raise ValueError("top_k must be an integer")
            if self.top_k < 1:
                raise ValueError("top_k must be >= 1")
        if self.top_p is not None and not (0.0 < self.top_p <= 1.0):
            raise ValueError("top_p must lie in (0, 1]")


@dataclass(frozen=True)
class Chunk:
    text: str
    start_offset: int
    end_offset: int
    index: int


@dataclass(frozen=True)
class SummaryNode:
    """One map or reduce output, with the chunk indices it derives from."""

    text: str
    chunk_indices: list[int]


@dataclass(frozen=True)
class MapReduceResult:
    summary: str
    tree: list[list[SummaryNode]]


def apply_sampling_policy(dist: TokenDistribution, policy: SamplingPolicy) -> TokenDistribution:
    """Filter a token distribution: temperature, then top-k, then top-p.

    Temperature rescales in the probability domain (p ** (1/T), renormalized),
    which equals logit scaling exactly whenever the stored probabilities came
    out of a softmax; each p is divided by the largest first, so the top
    entry stays 1 before renormalizing and no small T underflows them all.
    One ranking by probability, ties to the earlier original position, serves
    both filters: top-k keeps its first k entries, and top-p keeps the
    shortest prefix of those whose cumulative mass reaches p (all of them
    when it never does).  Surviving tokens keep their original order and are
    renormalized to sum to 1.  A distribution with no entries, or whose
    probabilities are all 0, raises ValueError.
    """
    probs = list(dist.probs)
    labels = list(dist.token_labels)
    n = len(probs)
    if n == 0:
        raise ValueError("token distribution has no entries")

    if policy.temperature != 1.0:
        top = max(probs)
        probs = [(p / top) ** (1.0 / policy.temperature) if p > 0.0 else 0.0 for p in probs]
    total = sum(probs)
    if not total > 0.0:
        raise ValueError("token distribution has no probability mass: every probability is 0")
    probs = [p / total for p in probs]

    ranked = sorted(range(n), key=lambda i: (-probs[i], i))[: policy.top_k]
    if policy.top_p is not None:
        cumulative = 0.0
        for cut, i in enumerate(ranked, start=1):
            cumulative += probs[i]
            if cumulative >= policy.top_p - 1e-12:
                del ranked[cut:]
                break

    kept = sorted(ranked)
    mass = sum(probs[i] for i in kept)
    return TokenDistribution(
        token_labels=[labels[i] for i in kept],
        probs=[probs[i] / mass for i in kept],
    )


def constrained_distribution(dist: TokenDistribution, allowed) -> TokenDistribution:
    """Restrict support to a verified allowed set and renormalize.

    Relative proportions among the surviving tokens are preserved.  Raises
    ConstraintError when the allowed set and the distribution's support do not
    intersect.
    """
    allowed = set(allowed)
    kept = [i for i, label in enumerate(dist.token_labels) if label in allowed]
    mass = sum(dist.probs[i] for i in kept)
    if not kept or mass <= 0.0:
        raise ConstraintError("no permissible token")
    return TokenDistribution(
        token_labels=[dist.token_labels[i] for i in kept],
        probs=[dist.probs[i] / mass for i in kept],
    )


def chunk_document(text: str, target_size: int, overlap_frac: float = DEFAULT_CHUNK_OVERLAP) -> list[Chunk]:
    """Split a document into fixed-stride overlapping character chunks.

    stride = max(1, floor(target_size * (1 - overlap_frac))); chunk i nominally
    covers [i*stride, i*stride + target_size).  A chunk end snaps backward to
    just after the nearest whitespace within target_size/10 characters, but
    never past the next chunk's start (so coverage is preserved and zero
    overlap still yields an exact partition).  The final chunk always ends at
    the document end.
    """
    if type(target_size) is bool or not isinstance(target_size, int) or target_size < 1:  # 2.5 cannot slice
        raise ValueError("target_size must be an integer >= 1")
    if not 0.0 <= overlap_frac < 0.5:
        raise ValueError("overlap_frac must lie in [0, 0.5)")
    if not text:
        return []
    # a target at least as long as the text gives one chunk of all of it, and
    # a longer one would only risk a float overflow in the stride
    target_size = min(target_size, len(text))
    stride = max(1, math.floor(target_size * (1.0 - overlap_frac)))
    max_snap = target_size // 10
    chunks: list[Chunk] = []
    i = 0
    while True:
        start = i * stride
        end = min(start + target_size, len(text))
        if end < len(text) and max_snap > 0:
            next_start = (i + 1) * stride
            w_lo = max(end - max_snap, start, next_start - 1)
            for w in range(end - 1, w_lo - 1, -1):
                if text[w].isspace():
                    end = w + 1
                    break
        chunks.append(Chunk(text=text[start:end], start_offset=start, end_offset=end, index=i))
        if end == len(text):
            break
        i += 1
    return chunks


def summarize_map_reduce(chunks: list[Chunk], summarizer, fan_in: int = 2) -> MapReduceResult:
    """Hierarchical map-reduce summarization over document chunks.

    Map: summarize each chunk.  Reduce: concatenate groups of fan_in
    summaries, summarize the concatenation, and repeat until one summary
    remains.  The returned tree holds every level (leaves first), each node
    carrying the chunk indices it covers; with an identity summarizer the
    final text is exactly the in-order concatenation of the chunk texts.
    """
    if type(fan_in) is bool or not isinstance(fan_in, int) or fan_in < 2:  # 2.0 cannot range
        raise ValueError("fan_in must be an integer >= 2")
    if not chunks:
        raise ValueError("at least one chunk required")

    level = [SummaryNode(text=summarizer(c.text), chunk_indices=[c.index]) for c in chunks]
    tree = [level]
    while len(level) > 1:
        merged = []
        for g in range(0, len(level), fan_in):
            group = level[g : g + fan_in]
            combined = "".join(node.text for node in group)
            indices = [idx for node in group for idx in node.chunk_indices]
            merged.append(SummaryNode(text=summarizer(combined), chunk_indices=indices))
        level = merged
        tree.append(level)
    return MapReduceResult(summary=level[0].text, tree=tree)
