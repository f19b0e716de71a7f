"""Meaning-level uncertainty over sampled responses.

The pipeline: embed each sampled response, group the vectors with
average-linkage agglomerative clustering under cosine distance, estimate a
cluster's mass as its share of the samples, then score the mass distribution
with Shannon entropy.  Zero entropy means all samples landed in one semantic
cluster; ln K is the maximum over K clusters.

Clustering.  Every clustering runs ``_cluster_rows`` over the row of each
sample.  All-zero rows have no direction, so each is a singleton cluster.
The nonzero rows are grouped by their bytes (after + 0.0, so -0.0 matches
0.0) into k distinct rows with their counts, taken in the sorted order of
their bytes, so the merges depend only on the multiset of rows, not on the
order of the samples.  All pairwise cosine distances 1 - cos(u, v) of the
distinct rows, clamped at 0, come from one Gram matrix of the
unit-normalised rows.  Each row is divided by its largest |entry| before it
is normalised, so distances are scale-invariant: no norm overflows or
underflows, and scaling a vector by a power of two leaves every distance bit
for bit as it was while its entries stay normal floats.  The merge loop
keeps one k x k matrix of linkages (the mean distance between the samples of
two clusters), starting as the distance matrix with inf on the diagonal, so
two rows are linked by their distance alone, and each cluster's size,
starting at its count.  Merging b into a writes (|a| L[a] + |b| L[b]) /
(|a| + |b|) to row and column a (the Lance-Williams update for average
linkage; Muellner, arXiv:1109.2378) and inf to row and column b.  Each of at
most k - 1 merges is one argmin and one row update.  Merging stops once the
smallest linkage exceeds the threshold, which must be finite and nonnegative
(any other is a ValueError; ``PipelineConfig`` admits [0, 2]).  Each sample
then joins the cluster of its row.

Tie rule.  Among equal computed linkages the lowest (a, b) pair of distinct
rows in byte order merges: a merge writes one vector to a row and its column,
so the matrix stays exactly symmetric and its first minimum is that pair.
Equal rows are one row, so their samples share a cluster at any threshold;
threshold 0 is sure to merge only those (u and 2u split when their distance
rounds above 0).  A tie that holds only mathematically, such as two merges at
1 - 1/sqrt(2), can be split by rounding, and then may break otherwise than in
a plain pair loop that sums in another order (tests/test_semantic.py keeps
one as the reference).

Shortcuts.  One distinct nonzero row, the common case since confident
answers agree, needs no distance matrix: its samples form one cluster.  With
more, when the largest distance lies below the threshold by more than the
rounding of a computed linkage (m^2 * 2^-52 relative for m nonzero samples),
every merge is taken, so they form one cluster without the merge loop.

Embedding sources.  A sample's stored ``embedding`` embeds its ``text`` and
feeds semantic entropy only.  A valid record carries an embedding on every
sample or on none (``records.iter_records`` checks it), so semantic entropy
clusters either the stored vectors or ``default_embed`` of every text, never
a mix of the two spaces.  Consensus and the reasoning/answer decomposition always embed
the answer and reasoning strings with ``default_embed``: the L2-normalised
counts of a text's exact lowercase whitespace tokens, with no hashing, so two
texts are at distance 0 only when their token multisets are equal (up to
scale) and at distance 1 when they share no token.  A token that states a
finite number is keyed by its value, by the rule that
``grounding.check_claims`` reads claims with (``records.number_value``: what
``float`` reads, so "1200", "1200.0", "1.2e3", "1_200" and "-0" are numbers
and "1,200", "$1200" and "5%" are words), so "1200" and "1.2e3" are one
token.  Kuhn et al. (ICLR 2023, arXiv:2302.09664) cluster by bidirectional
entailment, which needs model weights; exact tokens are this offline
toolkit's stand-in for it.

String inputs go through ``cluster_texts``, which embeds each distinct string
once and lays the strings out as rows over the sorted union of their tokens
(one column per distinct token of the call).  When all the strings are one
string with a nonzero embedding, the common case for answers, it builds no
token matrix and calls no ``_cluster_rows``: the samples form one cluster
(a blank string still gives one singleton cluster per sample, and a bad
threshold still raises).  It keeps no state between calls: each call
returns a fresh assignment.  Sharing clusterings is the caller's plan:
``pipeline._other_signals`` clusters each distinct text tuple of one record
once (the texts, the answers and the reasonings, which often repeat one
another) and scores semantic entropy, consensus and the reasoning/answer
decomposition from those assignments; nothing outlives the record.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError
from .records import GenerationRecord, number_value
from .uncertainty import entropy_nats

DEFAULT_CLUSTER_THRESHOLD = 0.35
_DIGIT = re.compile(r"\d")


@dataclass(frozen=True)
class ClusterAssignment:
    """A partition of samples into semantic clusters with mass estimates.

    Cluster indices are contiguous from 0, ordered by lowest member index;
    the representative of cluster k is its lowest-indexed member.
    """

    cluster_of_sample: list[int]
    cluster_masses: list[float]
    representatives: list[int]


@dataclass(frozen=True)
class SemanticEntropyResult:
    entropy: float
    assignment: ClusterAssignment


def default_embed(text: str) -> dict[str, float]:
    """Bag-of-words embedding: the counts of the lowercase whitespace tokens,
    L2-normalized, as a map from token to weight.  A token that states a
    finite number (``records.number_value``) is counted under the repr of its
    value, so "1200", "1200.0" and "1.2e3" are one token and "-0" is "0".
    Empty or whitespace-only text maps to the empty map, the zero vector."""
    tokens = text.lower().split()
    if _DIGIT.search(text):  # a token with no digit states no finite number
        tokens = [token if (x := number_value(token)) is None else repr(x + 0.0) for token in tokens]
    counts = Counter(tokens)
    norm = math.sqrt(sum(c * c for c in counts.values()))
    return {token: c / norm for token, c in counts.items()}


def _distances(distinct: np.ndarray) -> np.ndarray:
    """Pairwise cosine distances of nonzero rows.  Each row is divided by its
    largest |entry| before it is normalised, so no norm overflows or
    underflows."""
    scaled = distinct / np.abs(distinct).max(axis=1)[:, None]
    unit = scaled / np.linalg.norm(scaled, axis=1)[:, None]
    d = np.triu(np.maximum(0.0, 1.0 - unit @ unit.T), 1)
    d += d.T  # exactly symmetric, with 0 on the diagonal
    return d


def cluster_embeddings(vectors, threshold: float) -> ClusterAssignment:
    """Average-linkage agglomerative clustering under cosine distance.

    Merging stops once the minimum inter-cluster distance exceeds the
    threshold (finite, nonnegative).  Masses are sample counts divided by N.
    See the module docstring for the algorithm and its tie rule.
    """
    vs = [np.asarray(v, dtype=float) for v in vectors]
    if not vs:
        raise ValueError("at least one vector required")
    if len({v.shape for v in vs}) != 1 or vs[0].ndim != 1:
        raise ValueError("vectors must share one dimension")
    x = np.stack(vs)
    if not np.isfinite(x).all():
        raise ValueError("vectors must be finite")
    return _cluster_rows(x + 0.0, range(len(x)), threshold)  # + 0.0 maps -0.0 to 0.0


def _check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold < math.inf:  # NaN fails it too
        raise ValueError("threshold must be a finite nonnegative number")


def _cluster_rows(rows, of_sample, threshold: float) -> ClusterAssignment:
    """cluster_embeddings of the samples whose vectors are finite float rows
    of one length with no -0.0 entry, so that equal rows have equal bytes:
    sample i has rows[of_sample[i]]."""
    _check_threshold(threshold)
    keys = [row.tobytes() for row in rows]
    samples_of: dict[bytes, list[int]] = {}
    for i, r in enumerate(of_sample):
        samples_of.setdefault(keys[r], []).append(i)
    zero = samples_of.pop(bytes(len(keys[0])), [])  # each zero row is a singleton
    distinct = sorted(samples_of)  # a canonical order: by bytes
    groups = [samples_of[key] for key in distinct]
    parts: list[list[int]] = [[] for _ in groups]
    for owner, samples in zip(_merge(distinct, [len(g) for g in groups], threshold), groups):
        parts[owner] += samples
    parts = sorted([part for part in parts if part] + [[i] for i in zero], key=min)
    n = len(of_sample)
    cluster_of_sample = [0] * n
    for k, part in enumerate(parts):
        for i in part:
            cluster_of_sample[i] = k
    return ClusterAssignment(cluster_of_sample, [len(part) / n for part in parts],
                             [min(part) for part in parts])


def _merge(distinct: list[bytes], counts: list[int], threshold: float) -> list[int]:
    """Average linkage over pairwise unequal nonzero rows, given as their
    bytes, row r standing for counts[r] samples: the lowest row of the
    cluster each row ends in."""
    k = len(distinct)
    if k <= 1:  # one distinct row needs no distance matrix
        return [0] * k
    linkage = _distances(np.frombuffer(b"".join(distinct)).reshape(k, -1))
    # a computed linkage, a weighted mean of two with an exact size sum, gains
    # at most three roundings (product, sum, division) at each of < m merge
    # levels: under 3m * 2^-53 <= m^2 * 2^-52 relative above the largest
    # distance, so the largest that far under the threshold takes every merge
    m = sum(counts)
    if linkage.max() <= threshold * (1.0 - m * m * 2.0**-52):
        return [0] * k
    np.fill_diagonal(linkage, math.inf)  # inf: no pair, as in a merged-away row
    size = np.array(counts)
    owner = np.arange(k)  # cluster of each row, named by its lowest row
    for _ in range(k - 1):
        a, b = divmod(int(np.argmin(linkage)), k)  # first minimum: lowest (a, b)
        if linkage[a, b] > threshold:
            break
        linkage[a] = linkage[:, a] = (size[a] * linkage[a] + size[b] * linkage[b]) / (size[a] + size[b])
        linkage[b] = linkage[:, b] = math.inf
        size[a] += size[b]
        owner[owner == b] = a
    return owner.tolist()


def cluster_texts(texts, threshold: float = DEFAULT_CLUSTER_THRESHOLD) -> ClusterAssignment:
    """cluster_embeddings over default_embed of each string, as rows over the
    sorted tokens of all the strings.  Each distinct string is embedded once."""
    row: dict[str, int] = {}  # each distinct string's row, in order of first use
    of_sample = [row.setdefault(text, len(row)) for text in texts]
    if not of_sample:
        raise ValueError("at least one text required")
    weights = [default_embed(text) for text in row]
    if len(weights) == 1 and weights[0]:  # one nonzero row: one cluster, with no token matrix
        _check_threshold(threshold)
        return ClusterAssignment([0] * len(of_sample), [1.0], [0])
    column = {token: c for c, token in enumerate(sorted(set().union(*weights)))}
    rows = np.zeros((len(weights), len(column)))
    for r, w in enumerate(weights):
        rows[r, [column[token] for token in w]] = list(w.values())
    return _cluster_rows(rows, of_sample, threshold)


def semantic_entropy(assignment: ClusterAssignment) -> float:
    """Entropy of the cluster mass distribution, in nats."""
    return entropy_nats(assignment.cluster_masses)


def sample_clustering(record: GenerationRecord, threshold: float, cluster) -> ClusterAssignment:
    """The clustering of record's samples that semantic entropy scores: of the
    stored embeddings when every sample carries one, otherwise
    cluster(texts, threshold) of the tuple of texts, where cluster is
    cluster_texts or a memo of it."""
    if all(s.embedding is not None for s in record.samples):
        return cluster_embeddings([s.embedding for s in record.samples], threshold)
    return cluster(tuple(s.text for s in record.samples), threshold)


def semantic_entropy_of_record(record: GenerationRecord,
                               threshold: float = DEFAULT_CLUSTER_THRESHOLD) -> SemanticEntropyResult:
    """Sample -> embed -> cluster -> estimate, over one record's responses
    (sample_clustering)."""
    if len(record.samples) < 2:
        raise CapabilityError("semantic entropy requires multiple generations")
    assignment = sample_clustering(record, threshold, cluster_texts)
    return SemanticEntropyResult(entropy=semantic_entropy(assignment), assignment=assignment)
