"""Representation-aware ranking: bias metrics, constrained re-rankers, simulation.

The toolkit ranks score-sorted candidate pools under a desired distribution
over a categorical attribute (gender, age band, etc.). metrics quantifies
how far a ranked list drifts from the desired distribution (skew, ndkl) and
what the constraints cost in utility (ndcg); rerank implements a vanilla
merge plus four deterministic constrained algorithms; simulate measures all
of them on seeded random task grids.
"""

from .errors import (
    AllZeroCounts,
    DistributionNotNormalized,
    EmptyResult,
    FairRankError,
    InsufficientCandidates,
    InvalidConfig,
    KOutOfRange,
    LengthMismatch,
    PoolNotSorted,
    RankingError,
    SupportMismatch,
    UnknownAlgorithm,
    UnknownAttribute,
    ValidationError,
    ZeroDenominator,
    ZeroDesiredProportion,
)
from .metrics import (
    MetricsReport,
    dcg,
    infeasible_count,
    infeasible_index,
    infeasible_prefixes,
    kl_divergence,
    max_skew_at_k,
    measure,
    min_skew_at_k,
    ndcg,
    ndkl,
    prefix_counts,
    proportions_at_k,
    skew_at_k,
    skews_at_k,
)
from .model import (
    DesiredDistribution,
    RankedList,
    RankingTask,
    ScoredPool,
    empirical_distribution,
    task_from_dict,
    validate_task,
)
from .rerank import Algorithm, rank
from .simulate import (
    AggregateRow,
    SimulationConfig,
    TaskOutcome,
    gen_desired,
    gen_pool,
    run_grid,
    run_task,
    write_csv,
    write_diagnostics,
)

__version__ = "0.1.0"

__all__ = [
    "Algorithm",
    "AggregateRow",
    "AllZeroCounts",
    "DesiredDistribution",
    "DistributionNotNormalized",
    "EmptyResult",
    "FairRankError",
    "InsufficientCandidates",
    "InvalidConfig",
    "KOutOfRange",
    "LengthMismatch",
    "MetricsReport",
    "PoolNotSorted",
    "RankedList",
    "RankingError",
    "RankingTask",
    "ScoredPool",
    "SimulationConfig",
    "SupportMismatch",
    "TaskOutcome",
    "UnknownAlgorithm",
    "UnknownAttribute",
    "ValidationError",
    "ZeroDenominator",
    "ZeroDesiredProportion",
    "dcg",
    "empirical_distribution",
    "gen_desired",
    "gen_pool",
    "infeasible_count",
    "infeasible_index",
    "infeasible_prefixes",
    "kl_divergence",
    "max_skew_at_k",
    "measure",
    "min_skew_at_k",
    "ndcg",
    "ndkl",
    "prefix_counts",
    "proportions_at_k",
    "rank",
    "run_grid",
    "run_task",
    "skew_at_k",
    "skews_at_k",
    "task_from_dict",
    "validate_task",
    "write_csv",
    "write_diagnostics",
]
