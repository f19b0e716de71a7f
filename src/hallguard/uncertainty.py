"""Token-level and sample-level uncertainty estimators.

Every entropy in this package is reported in nats (natural log) and
0 * log 0 is taken as 0, so one-hot inputs score exactly zero.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError
from .records import Sample, TokenDistribution


@dataclass(frozen=True)
class EntropyReport:
    """Per-position entropies for one scored sample, with mean/max aggregates."""

    per_position: list[float]
    mean: float
    max: float


@dataclass(frozen=True)
class DisagreementReport:
    """Elementwise mean and population variance across a set of prediction vectors."""

    mean_vector: list[float]
    per_class_variance: list[float]
    variance: float


def entropy_nats(probs) -> float:
    """Shannon entropy -sum(p * ln p) of a probability vector."""
    p = np.asarray(probs, dtype=float)
    if p.size == 0:
        raise ValueError("entropy of an empty distribution is undefined")
    nz = p[p > 0]
    return float(0.0 - (nz * np.log(nz)).sum())  # 0.0 - 0.0 is +0.0, not -0.0


def token_entropy(dist: TokenDistribution) -> float:
    """Entropy of one next-token distribution, in nats.

    Zero-probability entries are permitted and contribute nothing; the result
    lies in [0, ln V] for a V-entry distribution.
    """
    if not dist.probs:
        raise ValueError("token distribution has no entries")
    return entropy_nats(dist.probs)


def sequence_entropy_profile(sample: Sample) -> EntropyReport:
    """Apply token_entropy at every scored position of a sample.

    Raises CapabilityError when the sample carries no full distributions
    (closed-weight logs often only ship sampled-token logprobs).
    """
    if not sample.token_dists:
        raise CapabilityError("distribution-level data unavailable for this sample")
    per = [token_entropy(d) for d in sample.token_dists]
    return EntropyReport(per_position=per, mean=float(np.mean(per)), max=float(np.max(per)))


def empirical_label_entropy(labels: list[str]) -> float:
    """Plug-in entropy of the empirical frequency distribution of labels.

    No smoothing is applied, so the estimate carries the usual small-sample
    bias; repeated identical labels score exactly zero.
    """
    if not labels:
        raise ValueError("at least one label required")
    counts = Counter(labels)
    n = len(labels)
    return entropy_nats([c / n for c in counts.values()])


def ensemble_disagreement(prob_vectors) -> DisagreementReport:
    """Mean prediction and per-class population variance across stochastic passes.

    Works over any externally supplied prediction set: MC-dropout passes,
    ensemble members, or repeated API calls.  The scalar variance is the mean
    of the per-class variances.
    """
    if len(prob_vectors) < 2:
        raise ValueError("at least two prediction vectors required")
    dims = {len(v) for v in prob_vectors}
    if len(dims) != 1:
        raise ValueError("prediction vectors have mismatched dimensions")
    arr = np.asarray(prob_vectors, dtype=float)
    sums = arr.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-6):
        raise ValueError("every prediction vector must sum to 1")
    mean = arr.mean(axis=0)
    var = arr.var(axis=0)  # population variance, ddof=0
    return DisagreementReport(
        mean_vector=[float(x) for x in mean],
        per_class_variance=[float(x) for x in var],
        variance=float(var.mean()),
    )


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
