"""Detection metrics, calibration, and tiered mitigation tooling for LLM
generation logs.

The package operates entirely on offline records: it computes uncertainty
and consistency signals, fits and applies post-hoc calibrators, provides
inference-time distribution filters and chunking, and routes detection
signals through a tier-based detect/mitigate/validate/refine cycle.
"""

from .calibration import (
    BinTable,
    EceResult,
    IsotonicModel,
    TemperatureModel,
    aggregate_self_evaluation,
    apply_isotonic,
    apply_temperature,
    calibrated_token_entropy,
    compute_ece,
    fit_isotonic,
    fit_temperature,
    mc_calibrated_mean,
)
from .consistency import (
    ConsensusResult,
    RaceReport,
    race_metrics,
    self_consistency_consensus,
)
from .errors import CapabilityError, ConfigError, ConstraintError
from .grounding import ClaimVerdict, FactEntry, FactStore, check_claims, load_fact_store
from .mitigation import (
    Chunk,
    MapReduceResult,
    SamplingPolicy,
    apply_sampling_policy,
    chunk_document,
    constrained_distribution,
    summarize_map_reduce,
)
from .mockgen import MockSpec, generate_corpus, generate_fact_store
from .pipeline import (
    CycleLedger,
    DetectionSignals,
    PipelineConfig,
    RouterRule,
    TierVerdict,
    default_rules,
    detect,
    route,
    run_cycle,
    validate,
)
from .records import (
    Claim,
    GenerationRecord,
    GroundTruthLabel,
    Sample,
    TokenDistribution,
    parse_records,
    validate_record,
    write_records,
)
from .semantic import (
    ClusterAssignment,
    cluster_embeddings,
    default_embed,
    semantic_entropy,
    semantic_entropy_of_record,
)
from .uncertainty import (
    EntropyReport,
    parse_self_declared_confidence,
    sequence_entropy_profile,
    token_entropy,
)

__version__ = "0.1.0"
