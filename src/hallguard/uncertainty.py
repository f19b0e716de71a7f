"""Token-level and sample-level uncertainty estimators.

Every entropy in this package is reported in nats (natural log) and
0 * log 0 is taken as 0, so one-hot inputs score exactly zero.  Only
probabilities are scored: an entry that is NaN or outside [0, 1] raises
ValueError, so no such input comes out as a number.

Token entropy is scored many positions at a time.  ``token_entropies``
stacks the distributions of one length V into an (m, V) array and sums
-p ln p along each row in one numpy pass; ``token_entropy`` (one position),
``sequence_entropy_profile`` and ``sample_mean_entropies`` (what
``pipeline.detect`` reads) all go through it, so a position is scored one
way only, and an empty distribution raises the same error from each.  Its
row kernel ``row_entropies`` also scores ``mockgen``'s entropy-band search.
Each result equals ``entropy_nats`` of that distribution bit for bit: numpy
sums a row of a C-ordered array in the same pairwise order as the same row
on its own, for every V.  A row with a zero entry is the exception:
``entropy_nats`` drops such entries, and the shorter sum takes another
pairwise order once V >= 8 (a row sum with the zero term left in differs
from it in about 40% of random rows with one zero entry, by up to 7e-16).
Those rows are scored by ``entropy_nats`` itself.  Means over positions are
taken the same way, as row sums of equal-length groups divided by the
length, which is what ``np.mean`` computes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import CapabilityError
from .records import Sample, TokenDistribution


@dataclass(frozen=True)
class EntropyReport:
    """Per-position entropies for one scored sample, with mean/max aggregates."""

    per_position: list[float]
    mean: float
    max: float


_NOT_PROBABILITIES = "probabilities must lie in [0, 1]"


def entropy_nats(probs) -> float:
    """Shannon entropy -sum(p * ln p) of a probability vector, whose entries
    must lie in [0, 1] (a NaN is a ValueError)."""
    if type(probs) is list and probs == [1.0]:  # the common one-cluster mass, without numpy
        return 0.0
    p = np.asarray(probs, dtype=float)
    if p.size == 0:
        raise ValueError("entropy of an empty distribution is undefined")
    # in Python: the vectors here are short, such as cluster masses
    if not all(0.0 <= x <= 1.0 for x in p.ravel().tolist()):  # NaN fails both
        raise ValueError(_NOT_PROBABILITIES)
    nz = p[p > 0]
    return float(0.0 - (nz * np.log(nz)).sum())  # 0.0 - 0.0 is +0.0, not -0.0


def apply_temperature(logits, T: float) -> np.ndarray:
    """softmax(z / T) along the last axis, computed with max-subtraction for
    stability.

    An (N, V) array is N softmaxes in one pass, each row equal bit for bit
    to the call on that row alone: a row's max, exp and sum are those of the
    1-D call (see the module docstring on row sums).  A row in which a finite
    z / T overflows, as with a tiny T, is taken as softmax((z - max z) / T),
    the same softmax shifted before the division so that nothing overflows
    to NaN: for a tiny T that is the exact T -> 0 limit, one-hot on the
    argmax with tied maxima sharing the mass equally.
    """
    if not 0.0 < T < np.inf:  # NaN fails it too
        raise ValueError("temperature must be positive and finite")
    z = np.asarray(logits, dtype=float)
    with np.errstate(over="ignore"):
        x = z / T
        overflowed = (np.isinf(x) & np.isfinite(z)).any(axis=-1)
        if overflowed.any():
            x[overflowed] = (z[overflowed] - z[overflowed].max(axis=-1, keepdims=True)) / T
    x = x - x.max(axis=-1, keepdims=True)
    e = np.exp(x)
    return e / e.sum(axis=-1, keepdims=True)


def token_entropy(dist: TokenDistribution) -> float:
    """Entropy of one next-token distribution, in nats, as token_entropies
    scores it.

    Zero-probability entries are permitted and contribute nothing; the result
    lies in [0, ln V] for a V-entry distribution.
    """
    return float(token_entropies([dist])[0])


def _by_length(items) -> dict[int, list[int]]:
    """The indices of items, grouped by len(item)."""
    groups: dict[int, list[int]] = {}
    for i, item in enumerate(items):
        groups.setdefault(len(item), []).append(i)
    return groups


def row_entropies(p: np.ndarray) -> np.ndarray:
    """entropy_nats of each row of an (m, V) array, with its errors."""
    positive = (p > 0).all(axis=1)
    if positive.all():
        if p.max(initial=0.0) > 1.0:
            raise ValueError(_NOT_PROBABILITIES)
        return 0.0 - (p * np.log(p)).sum(axis=1)  # 0.0 - 0.0 is +0.0, not -0.0
    h = np.empty(len(p))
    h[positive] = row_entropies(p[positive])
    # entropy_nats leaves zero entries out of its sum, which reorders it; it
    # also rejects the rows with a NaN or negative entry, which land here
    h[~positive] = [entropy_nats(row) for row in p[~positive]]
    return h


def token_entropies(dists: list[TokenDistribution]) -> np.ndarray:
    """token_entropy of each distribution, with one numpy pass per distinct
    length; see the module docstring for why the values are exact.  An entry
    that is NaN or outside [0, 1] is a ValueError, as in entropy_nats."""
    groups = _by_length([dist.probs for dist in dists])
    if 0 in groups:
        raise ValueError("token distribution has no entries")
    h = np.empty(len(dists))
    for rows in groups.values():
        h[rows] = row_entropies(np.array([dists[i].probs for i in rows], dtype=float))
    return h


def sample_mean_entropies(dist_lists: list[list[TokenDistribution]]) -> np.ndarray:
    """The mean token entropy of each nonempty list of distributions, equal to
    np.mean of its token_entropy values, from one token_entropies call."""
    h = token_entropies([d for dists in dist_lists for d in dists])
    starts = list(accumulate(map(len, dist_lists), initial=0))
    means = np.empty(len(dist_lists))
    for k, lists in _by_length(dist_lists).items():
        positions = [starts[i] + j for i in lists for j in range(k)]
        means[lists] = h[positions].reshape(-1, k).sum(axis=1) / k
    return means


def sequence_entropy_profile(sample: Sample) -> EntropyReport:
    """Apply token_entropy at every scored position of a sample.

    Raises CapabilityError when the sample carries no full distributions
    (closed-weight logs often only ship sampled-token logprobs).
    """
    if not sample.token_dists:
        raise CapabilityError("distribution-level data unavailable for this sample")
    per = token_entropies(sample.token_dists)
    return EntropyReport(per_position=per.tolist(), mean=float(np.mean(per)),
                         max=float(np.max(per)))


# Verbalized-confidence extraction. Logs produced by a confidence-eliciting
# prompt are near-structured, so three fixed patterns cover them; anything
# else is reported as "not stated" rather than guessed.
_CONF_PATTERNS = (
    re.compile(r"confidence\s*[:=]\s*([0-9]*\.?[0-9]+)\s*(%?)", re.IGNORECASE),
    re.compile(r"confidence\b[^0-9]{0,40}?([0-9]*\.?[0-9]+)\s*(%?)", re.IGNORECASE),
    re.compile(r"\(\s*([0-9]*\.?[0-9]+)\s*(%?)\s*\)\s*$"),
)


def parse_self_declared_confidence(text: str) -> float | None:
    """Extract a verbalized confidence in [0, 1] from free text, or None.

    Recognizes "Confidence: x", "confidence ... x", and a trailing "(x)",
    where x is a decimal in [0, 1] or a percentage.
    """
    for pattern in _CONF_PATTERNS:
        m = pattern.search(text)
        if not m:
            continue
        value = float(m.group(1))
        if m.group(2) == "%":
            value /= 100.0
        if 0.0 <= value <= 1.0:
            return value
    return None
