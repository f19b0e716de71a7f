"""Token-level and sample-level uncertainty estimators.

Every entropy in this package is reported in nats (natural log) and comes
from one kernel, ``row_entropies``: -sum(p * ln p) along each row of an
(m, V) array in one numpy pass, with 0 * ln 0 taken as 0 in the zero
entry's own place of the sum, so one-hot inputs score exactly zero.
``entropy_nats`` is that kernel over one row.  Only probabilities are
scored: an entry that is NaN or outside [0, 1] raises ValueError, so no
such input comes out as a number.

Token entropy is scored many positions at a time.  ``_token_entropies``
stacks the distributions of one length V into an (m, V) array and scores
it in one kernel call; ``token_entropy`` (one position),
``sequence_entropy_profile`` and ``sample_mean_entropies`` all go through
it, so a position is scored one way only, and an empty distribution raises
the same error from each.  ``pipeline.detect_records`` screens records in
blocks and holds only a block's distributions: one
``sample_mean_entropies`` call scores every sample of a block, and a
sample's mean does not depend on the other samples of its call.  The
kernel also scores ``mockgen``'s entropy-band search.  Each result equals
``entropy_nats`` of that distribution bit for bit: numpy sums a row of a
C-ordered array in the same pairwise order as the same row on its own, for
every V.  Means over positions are taken the same way, as row sums of
equal-length groups divided by the length, which is what ``np.mean``
computes.
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
    """Shannon entropy -sum(p * ln p) of a probability vector, row_entropies
    of it as one row, with its errors."""
    if type(probs) is list and probs == [1.0]:  # the common one-cluster mass, without numpy
        return 0.0
    p = np.asarray(probs, dtype=float)
    if p.size == 0:
        raise ValueError("entropy of an empty distribution is undefined")
    return float(row_entropies(p.reshape(1, -1))[0])


def apply_temperature(logits, T: float) -> np.ndarray:
    """softmax(z / T) along the last axis, computed as
    exp((z - max z) / T) / sum(exp((z - max z) / T)).

    Shifting by the row's maximum before dividing keeps every exponent at
    or below 0, so nothing overflows to NaN for any T; as T -> 0 the result
    reaches its limit, one-hot on the argmax with tied maxima sharing the
    mass equally.  An (N, V) array is N softmaxes in one pass, each row
    equal bit for bit to the call on that row alone: a row's max, exp and
    sum are those of the 1-D call (see the module docstring on row sums).
    Each row needs a finite maximum: a NaN or +inf logit, or a row of only
    -inf, is a ValueError, while a -inf logit beside finite ones gets
    probability 0.
    """
    if not 0.0 < T < np.inf:  # NaN fails it too
        raise ValueError("temperature must be positive and finite")
    z = np.asarray(logits, dtype=float)
    top = z.max(axis=-1, keepdims=True)
    if not np.isfinite(top).all():
        raise ValueError("each row of logits needs a finite maximum")
    with np.errstate(over="ignore"):  # (z - top) / T is -inf where a tiny T overflows it
        e = np.exp((z - top) / T)
    return e / e.sum(axis=-1, keepdims=True)


def token_entropy(dist: TokenDistribution) -> float:
    """Entropy of one next-token distribution, in nats, as _token_entropies
    scores it.

    Zero-probability entries are permitted and contribute nothing; the result
    lies in [0, ln V] for a V-entry distribution.
    """
    return float(_token_entropies([dist])[0])


def _by_length(items) -> dict[int, list[int]]:
    """The indices of items, grouped by len(item)."""
    groups: dict[int, list[int]] = {}
    for i, item in enumerate(items):
        groups.setdefault(len(item), []).append(i)
    return groups


def row_entropies(p: np.ndarray) -> np.ndarray:
    """Entropy in nats of each row of an (m, V) float array, each zero entry
    adding an exact 0.0 in its place; an entry that is NaN or outside
    [0, 1] is a ValueError."""
    if not (0.0 <= p.min(initial=0.0) and p.max(initial=0.0) <= 1.0):  # a NaN fails both
        raise ValueError(_NOT_PROBABILITIES)
    return 0.0 - (p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=1)  # 0.0 - 0.0 is +0.0, not -0.0


def _token_entropies(dists: list[TokenDistribution]) -> np.ndarray:
    """token_entropy of each distribution, with one numpy pass per distinct
    length; see the module docstring for why the values are exact.  An entry
    that is NaN or outside [0, 1] is a ValueError, as in row_entropies."""
    groups = _by_length([dist.probs for dist in dists])
    if 0 in groups:
        raise ValueError("token distribution has no entries")
    h = np.empty(len(dists))
    for rows in groups.values():
        h[rows] = row_entropies(np.array([dists[i].probs for i in rows], dtype=float))
    return h


def sample_mean_entropies(dist_lists: list[list[TokenDistribution]]) -> np.ndarray:
    """The mean token entropy of each nonempty list of distributions, equal to
    np.mean of its token_entropy values, from one _token_entropies call."""
    h = _token_entropies([d for dists in dist_lists for d in dists])
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
    per = _token_entropies(sample.token_dists)
    return EntropyReport(per_position=per.tolist(), mean=float(np.mean(per)),
                         max=float(np.max(per)))


# Verbalized-confidence extraction. Logs produced by a confidence-eliciting
# prompt are near-structured, so three fixed patterns cover them; anything
# else is reported as "not stated" rather than guessed.  A number must not
# go on past what the pattern reads: one followed by a digit, an exponent
# ("1e-1") or a further decimal part ("0,85", "0.9.5") states nothing.  A
# shorter match of the same digits ends before a digit or a decimal part
# too, so backtracking finds no number there either ("12,5%" is not "1").
_NUMBER = r"(-?[0-9]*\.?[0-9]+)(?![0-9]|[eE][+-]?[0-9]|[.,][0-9])"
_CONF_PATTERNS = (
    re.compile(r"confidence\s*[:=]\s*" + _NUMBER + r"\s*(%?)", re.IGNORECASE),
    re.compile(r"confidence\b[^0-9]{0,40}?" + _NUMBER + r"\s*(%?)", re.IGNORECASE),
    re.compile(r"\(\s*" + _NUMBER + r"\s*(%?)\s*\)\s*$"),
)


def parse_self_declared_confidence(text: str) -> float | None:
    """Extract a verbalized confidence in [0, 1] from free text, or None.

    Recognizes "Confidence: x", "confidence ... x", and a trailing "(x)",
    where x is a decimal in [0, 1] or a percentage.  A stated minus sign
    is read with its number, so a negative statement, "-0" too, is none.
    """
    for pattern in _CONF_PATTERNS:
        m = pattern.search(text)
        if not m:
            continue
        value = float(m.group(1))
        if m.group(2) == "%":
            value /= 100.0
        if 0.0 <= value <= 1.0 and not m.group(1).startswith("-"):
            return value
    return None
