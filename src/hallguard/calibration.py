"""Calibration measurement and post-hoc calibrators.

Measurement: expected calibration error over equal-width confidence bins.
Correction: scalar temperature scaling fitted by NLL minimization, isotonic
regression via pool-adjacent-violators, and self-evaluation vote pooling.

Fitted calibrators serialize to a small JSON map (see calibration_map_to_json),
which `hallguard calibrate` writes; no command reads a map back yet.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .records import GenerationRecord
from .uncertainty import apply_temperature

TEMPERATURE_MIN = 0.05
TEMPERATURE_MAX = 20.0
TEMPERATURE_TOL = 1e-4
DEFAULT_ECE_BINS = 10

VOTE_VALUES = ("yes", "no", "unsure")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class FitError(ValueError):
    """The calibration fit problem is degenerate."""


@dataclass(frozen=True)
class BinTable:
    """Per-bin counts, empirical accuracy, and mean confidence.

    Edges partition [0, 1]; bins are right-open except the last.  Accuracy
    and confidence of an empty bin are reported as 0 with count 0.
    """

    edges: list[float]
    counts: list[int]
    accuracies: list[float]
    confidences: list[float]


@dataclass(frozen=True)
class EceResult:
    ece: float
    bin_table: BinTable


@dataclass(frozen=True)
class TemperatureModel:
    """A single fitted scalar; divide logits by T before softmax."""

    T: float
    fit_nll: float
    n_fit: int


@dataclass(frozen=True)
class IsotonicModel:
    """Monotone step function mapping raw scores to calibrated probabilities.

    breakpoints are the distinct training scores in increasing order; values
    are the fitted (non-decreasing) block values aligned with them.
    """

    breakpoints: list[float]
    values: list[float]


def compute_ece(pairs, M: int = DEFAULT_ECE_BINS) -> EceResult:
    """Expected calibration error of (confidence, correct) pairs over M bins.

    Args:
        pairs: iterable of (confidence in [0, 1], correct as bool).
        M: number of equal-width bins.

    Returns:
        EceResult with the weighted mean absolute accuracy/confidence gap and
        the underlying bin table.  Empty bins contribute zero.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("at least one (confidence, correct) pair required")
    if type(M) is bool or not isinstance(M, int) or M < 1:  # 2.0 cannot range, True is no count
        raise ValueError("bin count must be an integer >= 1")
    conf = np.asarray([p[0] for p in pairs], dtype=float)
    correct = np.asarray([1.0 if p[1] else 0.0 for p in pairs], dtype=float)
    if not np.all((conf >= 0.0) & (conf <= 1.0)):  # NaN fails it too
        raise ValueError("confidences must lie in [0, 1]")

    idx = np.minimum((conf * M).astype(int), M - 1)  # last bin closed on the right
    counts = np.bincount(idx, minlength=M)
    filled = counts > 0  # an empty bin reports 0 and adds 0
    accs = np.divide(np.bincount(idx, correct, M), counts, out=np.zeros(M), where=filled)
    confs = np.divide(np.bincount(idx, conf, M), counts, out=np.zeros(M), where=filled)
    ece = float(np.dot(counts / len(pairs), np.abs(accs - confs)))
    edges = [m / M for m in range(M + 1)]
    return EceResult(ece=ece, bin_table=BinTable(edges, counts.tolist(), accs.tolist(), confs.tolist()))


def _mean_nll(logits: np.ndarray, labels: np.ndarray, T: float) -> float:
    z = logits / T
    z = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    return float((log_norm - z[np.arange(len(labels)), labels]).mean())


def fit_temperature(logit_sets, true_labels) -> TemperatureModel:
    """Fit the scaling temperature by minimizing mean NLL on a validation set.

    Golden-section search runs on ln T within [TEMPERATURE_MIN,
    TEMPERATURE_MAX] down to an absolute bracket width of TEMPERATURE_TOL in
    T.  The fit never returns a temperature worse than T=1 on the fit set.
    """
    shapes = sorted({np.shape(z) for z in logit_sets})
    if len(shapes) > 1:  # before np.asarray, which would raise numpy's text
        found = ", ".join("x".join(map(str, shape)) or "scalar" for shape in shapes)
        raise ValueError(f"logit sets must share one dimension; found widths {found}")
    logits = np.asarray(logit_sets, dtype=float)
    labels = np.asarray(true_labels, dtype=int)
    if logits.ndim != 2:
        raise ValueError("logit sets must share one dimension")
    if not np.isfinite(logits).all():
        raise ValueError("logits must be finite")
    if len(logits) != len(labels):
        raise ValueError("logit sets and labels must align")
    if len(logits) < 2:
        raise ValueError("at least two examples required")
    if np.any(labels < 0) or np.any(labels >= logits.shape[1]):
        raise ValueError("labels must index into the logit vectors")
    if np.all(np.ptp(logits, axis=1) < 1e-12):
        raise FitError("all logit vectors are constant; temperature is unidentifiable")

    a, b = math.log(TEMPERATURE_MIN), math.log(TEMPERATURE_MAX)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = _mean_nll(logits, labels, math.exp(c))
    fd = _mean_nll(logits, labels, math.exp(d))
    for _ in range(500):
        if math.exp(b) - math.exp(a) <= TEMPERATURE_TOL:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = _mean_nll(logits, labels, math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = _mean_nll(logits, labels, math.exp(d))
    t_star = math.exp((a + b) / 2.0)

    best_t, best_nll = t_star, _mean_nll(logits, labels, t_star)
    nll_one = _mean_nll(logits, labels, 1.0)  # guarantee NLL(T*) <= NLL(1)
    if nll_one < best_nll:
        best_t, best_nll = 1.0, nll_one
    return TemperatureModel(T=best_t, fit_nll=best_nll, n_fit=len(labels))


def mc_calibrated_mean(pass_logits, T: float) -> np.ndarray:
    """Mean of per-pass temperature-scaled softmaxes over M stochastic passes,
    from one apply_temperature call over the stacked passes, whose rows are
    the per-pass softmaxes bit for bit."""
    if len(pass_logits) < 1:
        raise ValueError("at least one pass required")
    dims = {len(z) for z in pass_logits}
    if len(dims) != 1:
        raise ValueError("passes have mismatched dimensions")
    return apply_temperature(np.stack(pass_logits), T).mean(axis=0)


def fit_isotonic(pairs) -> IsotonicModel:
    """Least-squares monotone fit of outcomes against scores via PAV.

    Pairs are sorted by score; tied scores are grouped into one block whose
    starting value is their mean outcome; adjacent blocks that violate
    monotonicity are pooled (weighted mean) until the sequence is
    non-decreasing.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("at least one (score, outcome) pair required")
    by_score: dict[float, list[float]] = {}
    for score, outcome in pairs:
        s, y = float(score), float(outcome)
        if not math.isfinite(s):
            raise ValueError("scores must be finite")
        if not math.isfinite(y):
            raise ValueError("outcomes must be finite")
        by_score.setdefault(s, []).append(y)
    scores = sorted(by_score)

    # blocks of (value, weight, group span) over the distinct-score sequence
    blocks: list[list[float]] = []
    for s in scores:
        outcomes = by_score[s]
        blocks.append([sum(outcomes) / len(outcomes), float(len(outcomes)), 1.0])
        while len(blocks) >= 2 and blocks[-2][0] > blocks[-1][0]:
            v2, w2, g2 = blocks.pop()
            v1, w1, g1 = blocks.pop()
            w = w1 + w2
            blocks.append([(v1 * w1 + v2 * w2) / w, w, g1 + g2])

    values: list[float] = []
    for v, _w, span in blocks:
        values.extend([v] * int(span))
    return IsotonicModel(breakpoints=scores, values=values)


def apply_isotonic(model: IsotonicModel, score: float) -> float:
    """Piecewise-constant lookup; scores outside the fitted range, -inf and
    inf too, clamp to the nearest end value.  A NaN score is a ValueError."""
    if math.isnan(score):
        raise ValueError("score must not be NaN")
    idx = bisect_right(model.breakpoints, score) - 1
    if idx < 0:
        return model.values[0]
    return model.values[idx]


def aggregate_self_evaluation(votes) -> float:
    """Fraction of critique passes that deemed the answer correct.

    "no" and "unsure" count only in the denominator, so three passes voting
    yes/yes/unsure aggregate to ~0.667.
    """
    votes = [str(v).strip().lower() for v in votes]
    if not votes:
        raise ValueError("at least one vote required")
    for v in votes:
        if v not in VOTE_VALUES:
            raise ValueError(f"unknown vote {v!r}; expected one of {VOTE_VALUES}")
    return votes.count("yes") / len(votes)


# ---------------------------------------------------------------------------
# Calibration map serialization


def calibration_map_to_json(model) -> dict:
    if isinstance(model, TemperatureModel):
        return {"kind": "temperature", "T": model.T, "fit_nll": model.fit_nll, "n_fit": model.n_fit}
    if isinstance(model, IsotonicModel):
        return {"kind": "isotonic", "breakpoints": model.breakpoints, "values": model.values}
    raise TypeError(f"not a calibration model: {type(model).__name__}")


# ---------------------------------------------------------------------------
# Corpus bridges: pull fit data out of generation records


def _first_labeled_dist(rec: GenerationRecord):
    """The first scored position of the first sample and the correct answer,
    or None when the record has no label, no such position, no probabilities
    there, or the label is not among its tokens."""
    gt = rec.ground_truth
    if gt is None or gt.correct_answer is None or not rec.samples or not rec.samples[0].token_dists:
        return None
    dist = rec.samples[0].token_dists[0]
    if len(dist.probs) == 0 or gt.correct_answer not in dist.token_labels:
        return None
    return dist, gt.correct_answer


def logit_label_pairs(records: Iterable[GenerationRecord]):
    """Extract (logits, correct-class index) fit pairs from labeled records.

    Uses the first scored position of the first sample; the stored
    probabilities are mapped back to logits via log, so records with
    zero-probability entries are skipped.  records is read once, so it may
    be a stream such as records.iter_records.
    """
    logit_sets, labels = [], []
    for rec in records:
        found = _first_labeled_dist(rec)
        if found is None:
            continue
        dist, answer = found
        probs = np.asarray(dist.probs, dtype=float)
        if np.any(probs <= 0.0):
            continue
        logit_sets.append(np.log(probs))
        labels.append(dist.token_labels.index(answer))
    return logit_sets, labels


def score_outcome_pairs(records: Iterable[GenerationRecord]):
    """Extract (confidence, correct) pairs: confidence is the top probability
    of the first scored position, correctness is argmax against the label.
    records is read once, as by logit_label_pairs."""
    pairs = []
    for rec in records:
        found = _first_labeled_dist(rec)
        if found is None:
            continue
        dist, answer = found
        top = int(np.argmax(dist.probs))
        pairs.append((float(dist.probs[top]), dist.token_labels[top] == answer))
    return pairs
