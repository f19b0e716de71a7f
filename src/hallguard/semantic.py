"""Meaning-level uncertainty over sampled responses.

The pipeline: embed each sampled response, group the vectors with
average-linkage agglomerative clustering under cosine distance, estimate a
cluster's mass as its share of the samples, then score the mass distribution
with Shannon entropy.  Zero entropy means all samples landed in one semantic
cluster; ln K is the maximum over K clusters.

Clustering.  All pairwise cosine distances 1 - cos(u, v), clamped at 0, come
from one Gram matrix of the unit-normalised vectors.  Each vector is divided
by its largest |entry| before it is normalised, so distances are
scale-invariant: no norm overflows or underflows, and scaling a vector by a
power of two leaves every distance bit for bit as it was while its entries
stay normal floats.  The merge loop keeps the summed pairwise distance
between every two clusters and each cluster's size, so the average linkage
of clusters a and b is sum(a, b) / (|a| |b|), and a merge adds b's row and
column into a's (the Lance-Williams update for average linkage; Muellner,
arXiv:1109.2378).  Each merge is one numpy pass over the n x n matrix, so a
clustering of n vectors costs O(n^2) numpy work per merge and at most n - 1
merges.  Merging stops once the smallest linkage exceeds the threshold.

Tie rule.  Among equal computed linkages the lowest (a, b) pair merges, where
a cluster is indexed by its lowest member.  Exact duplicates (equal rows,
found by their bytes) are at distance 0, so threshold 0 groups them despite
float rounding.  All-zero vectors have no direction: their distance to
anything, themselves included, is infinite, so they stay singletons.  A tie
that holds only mathematically, such as two merges at 1 - 1/sqrt(2), can be
split by rounding, and then may break otherwise than in a plain pair loop
that sums in another order (tests/test_semantic.py keeps one as the
reference).

One distinct row.  Every clustering runs ``_cluster_rows`` over the
distinct rows and the row of each sample; ``cluster_embeddings`` finds the
distinct rows by their bytes (after + 0.0, so -0.0 matches 0.0), and
``cluster_texts`` hands it the one vector of a list whose texts are all one
string without stacking or checking it (a ``default_embed`` vector is
bucket counts divided by their finite norm, so it is finite).  When there is
one distinct row and the threshold is nonnegative, ``_cluster_rows`` knows
the outcome without a distance matrix: one cluster when the row is nonzero
(every distance is 0, so every merge is taken), n singletons when it is
zero.  It is the common case, since confident answers agree.  With more
distinct rows, when the largest distance lies below the threshold by more
than the rounding of a computed linkage (n^2 * 2^-52 relative), every merge
is taken too, so the answer is one cluster without the merge loop.  A zero
row makes the largest distance infinite and takes the loop.  A negative
threshold, under which nothing merges, takes the general path, as does a
NaN one.

Embedding sources.  A sample's stored ``embedding`` embeds its ``text`` and
feeds semantic entropy only.  A valid record carries an embedding on every
sample or on none (``records.validate_record``), so semantic entropy clusters
either the stored vectors or ``default_embed`` of every text, never a mix of
the two spaces.  Consensus and the reasoning/answer decomposition always embed
the answer and reasoning strings with ``default_embed``: a deterministic
hashing bag-of-words embedder, dependency-free, order invariant, and good
enough at desk scale where test texts are constructed to be lexically
disjoint.

String inputs go through ``cluster_texts``, which embeds each distinct string
once and remembers its last few results, so the clusterings that one record
asks for with the same strings (on mock corpora the texts are the answers)
run once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError
from .records import GenerationRecord
from .uncertainty import entropy_nats

EMBED_DIM = 256
DEFAULT_CLUSTER_THRESHOLD = 0.35

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_MASK = 0xFFFFFFFFFFFFFFFF


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


def _fnv1a(token: str) -> int:
    h = _FNV_OFFSET
    for b in token.encode("utf-8"):
        h ^= b
        h = (h * _FNV_PRIME) & _FNV_MASK
    return h


def default_embed(text: str) -> np.ndarray:
    """Hashing bag-of-words embedding: lowercase whitespace tokens, FNV-1a
    bucketed counts over EMBED_DIM buckets, L2-normalized.  Empty or
    whitespace-only text maps to the zero vector."""
    vec = np.zeros(EMBED_DIM, dtype=float)
    for token in text.lower().split():
        vec[_fnv1a(token) % EMBED_DIM] += 1.0
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


def _distances(distinct: np.ndarray) -> np.ndarray:
    """Pairwise cosine distances of pairwise unequal rows: inf on every row
    and column of a zero row.  Each row is divided by its largest |entry|
    before it is normalised, so no norm overflows or underflows."""
    largest = np.abs(distinct).max(axis=1)
    zero = largest == 0.0
    scaled = distinct / np.where(zero, 1.0, largest)[:, None]
    unit = scaled / np.where(zero, 1.0, np.linalg.norm(scaled, axis=1))[:, None]
    d = np.triu(np.maximum(0.0, 1.0 - unit @ unit.T), 1)
    d += d.T  # exactly symmetric, with 0 on the diagonal
    d[zero] = math.inf
    d[:, zero] = math.inf
    return d


def cluster_embeddings(vectors, threshold: float) -> ClusterAssignment:
    """Average-linkage agglomerative clustering under cosine distance.

    Merging stops once the minimum inter-cluster distance exceeds the
    threshold.  Cluster masses are sample counts divided by N.  See the
    module docstring for the algorithm and its tie rule.
    """
    vs = [np.asarray(v, dtype=float) for v in vectors]
    if not vs:
        raise ValueError("at least one vector required")
    if len({v.shape for v in vs}) != 1 or vs[0].ndim != 1:
        raise ValueError("vectors must share one dimension")
    x = np.stack(vs)
    if not np.isfinite(x).all():
        raise ValueError("vectors must be finite")
    slot: dict[bytes, int] = {}
    # equal rows share one key; + 0.0 maps -0.0 to 0.0
    of_sample = [slot.setdefault(row.tobytes(), len(slot)) for row in x + 0.0]
    distinct = np.empty((len(slot), x.shape[1]))
    distinct[of_sample] = x
    return _cluster_rows(distinct, of_sample, threshold)


def _cluster_rows(distinct: np.ndarray, of_sample: list[int], threshold: float) -> ClusterAssignment:
    """cluster_embeddings of the samples whose vectors are the finite, pairwise
    unequal rows of ``distinct``: sample i has row of_sample[i]."""
    n = len(of_sample)
    if threshold >= 0.0 and len(distinct) == 1:  # one distinct row
        if distinct[0].any():  # every distance is 0, so every merge is taken
            return ClusterAssignment([0] * n, [1.0], [0])
        return ClusterAssignment(list(range(n)), [1 / n] * n, list(range(n)))

    d = _distances(distinct)
    # a computed linkage is a sum of at most n^2 of these distances over a
    # size product, so it exceeds the largest by less than n^2 * 2^-52
    # relative; the largest that far under the threshold takes every merge
    if threshold >= 0.0 and d.max() <= threshold * (1.0 - n * n * 2.0**-52):
        return ClusterAssignment([0] * n, [1.0], [0])
    sums = d[np.ix_(of_sample, of_sample)]  # summed pairwise distance between clusters
    size = np.ones(n, dtype=int)
    # a pair (a, b) is a candidate while a < b and both clusters are alive
    barred = np.tri(n, dtype=bool)
    owner = np.arange(n)  # cluster of each sample, named by its lowest member
    while True:
        linkage = sums / np.outer(size, size)
        linkage[barred] = math.inf
        a, b = divmod(int(np.argmin(linkage)), n)  # first minimum: lowest (a, b)
        best = linkage[a, b]
        if best == math.inf or best > threshold:
            break
        sums[a] += sums[b]
        sums[:, a] += sums[:, b]
        size[a] += size[b]
        barred[b] = True
        barred[:, b] = True
        owner[owner == b] = a

    owners = owner.tolist()
    representatives = sorted(set(owners))
    index = {rep: k for k, rep in enumerate(representatives)}
    return ClusterAssignment(
        cluster_of_sample=[index[c] for c in owners],
        cluster_masses=[int(size[rep]) / n for rep in representatives],
        representatives=representatives,
    )


@functools.lru_cache(maxsize=8)
def _cluster_texts(texts: tuple[str, ...], threshold: float) -> ClusterAssignment:
    distinct = dict.fromkeys(texts)
    if len(distinct) == 1:
        return _cluster_rows(default_embed(texts[0])[None], [0] * len(texts), threshold)
    vectors = {text: default_embed(text) for text in distinct}
    return cluster_embeddings([vectors[text] for text in texts], threshold)


def cluster_texts(texts, threshold: float = DEFAULT_CLUSTER_THRESHOLD) -> ClusterAssignment:
    """cluster_embeddings over default_embed of each string.  Each distinct
    string is embedded once, and a repeat of one of the last few calls is not
    clustered again."""
    a = _cluster_texts(tuple(texts), threshold)
    # a copy, so that no caller can change what the next one receives
    return ClusterAssignment(list(a.cluster_of_sample), list(a.cluster_masses),
                             list(a.representatives))


def semantic_entropy(assignment: ClusterAssignment) -> float:
    """Entropy of the cluster mass distribution, in nats."""
    return entropy_nats(assignment.cluster_masses)


def semantic_entropy_of_record(record: GenerationRecord,
                               threshold: float = DEFAULT_CLUSTER_THRESHOLD) -> SemanticEntropyResult:
    """Sample -> embed -> cluster -> estimate, over one record's responses.

    Uses the stored embeddings when every sample carries one, otherwise
    default_embed over the texts.
    """
    if len(record.samples) < 2:
        raise CapabilityError("semantic entropy requires multiple generations")
    if all(s.embedding is not None for s in record.samples):
        vectors = [np.asarray(s.embedding, dtype=float) for s in record.samples]
        assignment = cluster_embeddings(vectors, threshold)
    else:
        assignment = cluster_texts([s.text for s in record.samples], threshold)
    return SemanticEntropyResult(entropy=semantic_entropy(assignment), assignment=assignment)
