"""Self-agreement estimators: consensus voting and the joint reasoning/answer
decomposition.

The reasoning/answer report decomposes the joint uncertainty of reasoning
traces R and final answers A for one question into

    H(R, A) = H(R) + H(A) - I(R, A)

where each entropy is the plug-in estimate over semantic-cluster masses and
the joint term comes from the (reasoning-cluster, answer-cluster) contingency
table.  The decomposition surfaces the right-answer-wrong-reasoning failure:
unanimous answers (high consensus support) reached through scattered
reasoning (high H(R)) that carries no information about the answer (low I).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import CapabilityError
from .records import GenerationRecord
from .semantic import DEFAULT_CLUSTER_THRESHOLD, ClusterAssignment, cluster_texts
from .uncertainty import entropy_nats

FLAG_ANSWER_SUPPORT = 0.8
FLAG_REASONING_ENTROPY = 0.5
FLAG_MI_MAX = 0.2


@dataclass(frozen=True)
class ConsensusResult:
    """Majority outcome over sampled answers; support is the winning mass."""

    consensus_answer: str
    support: float


@dataclass(frozen=True)
class RaceReport:
    """Joint reasoning/answer uncertainty decomposition for one record.

    mutual_information is clamped at zero for reporting; the raw plug-in
    value (which can go very slightly negative from rounding) is retained in
    mutual_information_raw.
    """

    h_reasoning: float
    h_answer: float
    h_joint: float
    mutual_information: float
    mutual_information_raw: float
    flag_right_answer_wrong_reasoning: bool


def sample_answers(record: GenerationRecord) -> tuple[str, ...]:
    """What consensus clusters: each sample's answer, or its text when it has none."""
    return tuple(s.answer if s.answer is not None else s.text for s in record.samples)


def consensus_of(answers, assignment: ClusterAssignment) -> ConsensusResult:
    """The most frequent cluster of the answers under assignment.  Mass ties
    break toward the lexicographically smallest representative answer text."""
    best_mass = max(assignment.cluster_masses)
    tied = [k for k, m in enumerate(assignment.cluster_masses) if m == best_mass]
    winner = min(tied, key=lambda k: answers[assignment.representatives[k]])
    return ConsensusResult(answers[assignment.representatives[winner]], assignment.cluster_masses[winner])


def self_consistency_consensus(record: GenerationRecord,
                               threshold: float = DEFAULT_CLUSTER_THRESHOLD) -> ConsensusResult:
    """Cluster the sampled answers (sample_answers) and select the most
    frequent result (consensus_of)."""
    if len(record.samples) < 2:
        raise CapabilityError("consensus requires multiple generations")
    answers = sample_answers(record)
    return consensus_of(answers, cluster_texts(answers, threshold))


def race_absence(record: GenerationRecord) -> str | None:
    """Why record cannot be decomposed into reasoning and answer, or None
    when it can: it needs two samples or more, each with a reasoning trace
    and an answer."""
    if len(record.samples) < 2:
        return "reasoning/answer decomposition requires multiple generations"
    if any(s.reasoning is None or s.answer is None for s in record.samples):
        return "every sample needs both a reasoning trace and an answer"
    return None


def race_of(reasonings: ClusterAssignment, answers: ClusterAssignment) -> RaceReport:
    """The joint decomposition of one record's samples, given the clustering
    of their reasoning traces and that of their answers.  The
    right-answer-wrong-reasoning flag fires when answer consensus support
    reaches FLAG_ANSWER_SUPPORT, reasoning entropy reaches
    FLAG_REASONING_ENTROPY, and (clamped) mutual information is at most
    FLAG_MI_MAX."""
    h_r = entropy_nats(reasonings.cluster_masses)
    h_a = entropy_nats(answers.cluster_masses)
    n = len(reasonings.cluster_of_sample)
    joint = Counter(zip(reasonings.cluster_of_sample, answers.cluster_of_sample))
    h_joint = entropy_nats([c / n for c in joint.values()])

    mi_raw = h_r + h_a - h_joint
    mi = max(0.0, mi_raw)
    support = max(answers.cluster_masses)
    flag = (
        support >= FLAG_ANSWER_SUPPORT
        and h_r >= FLAG_REASONING_ENTROPY
        and mi <= FLAG_MI_MAX
    )
    return RaceReport(
        h_reasoning=h_r,
        h_answer=h_a,
        h_joint=h_joint,
        mutual_information=mi,
        mutual_information_raw=mi_raw,
        flag_right_answer_wrong_reasoning=flag,
    )


def race_metrics(record: GenerationRecord,
                 cluster_threshold: float = DEFAULT_CLUSTER_THRESHOLD) -> RaceReport:
    """Joint reasoning/answer decomposition over one record's samples: cluster
    the reasoning traces and the answers, then race_of.  Raises
    CapabilityError with race_absence's reason when the record lacks the
    inputs."""
    reason = race_absence(record)
    if reason is not None:
        raise CapabilityError(reason)
    return race_of(cluster_texts([s.reasoning for s in record.samples], cluster_threshold),
                   cluster_texts([s.answer for s in record.samples], cluster_threshold))
