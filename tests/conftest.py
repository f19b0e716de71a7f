"""Shared corpus builders for the test suite."""

from __future__ import annotations

import io
import json

from hallguard.records import Claim, GenerationRecord, GroundTruthLabel, Sample, TokenDistribution, write_json


def make_dist(probs, labels=None) -> TokenDistribution:
    if labels is None:
        labels = [f"t{i}" for i in range(len(probs))]
    return TokenDistribution(token_labels=list(labels), probs=list(probs))


def make_record(
    answers=None,
    reasonings=None,
    texts=None,
    record_id="rec",
    prompt="q?",
    token_dists=None,
    claims=None,
    ground_truth=None,
    self_confidences=None,
) -> GenerationRecord:
    """Build a record from parallel per-sample lists; None fields stay absent."""
    n = len(answers or reasonings or texts or [None])
    answers = answers or [None] * n
    reasonings = reasonings or [None] * n
    texts = texts or [a if a is not None else f"sample {i}" for i, a in enumerate(answers)]
    self_confidences = self_confidences or [None] * n
    samples = [
        Sample(
            text=texts[i],
            token_dists=token_dists,
            reasoning=reasonings[i],
            answer=answers[i],
            self_confidence=self_confidences[i],
        )
        for i in range(n)
    ]
    return GenerationRecord(
        id=record_id,
        prompt=prompt,
        samples=samples,
        reference_claims=claims,
        ground_truth=ground_truth,
    )


def make_claim(key, value, unit=None) -> Claim:
    return Claim(key=key, value=value, unit=unit)


def make_ground_truth(is_hallucinated, failure_class=None, correct_answer=None) -> GroundTruthLabel:
    return GroundTruthLabel(
        is_hallucinated=is_hallucinated,
        failure_class=failure_class,
        correct_answer=correct_answer,
    )


def decoded(obj):
    """obj as write_json writes it, read back with json.loads."""
    out = io.StringIO()
    write_json(obj, out)
    return json.loads(out.getvalue())
