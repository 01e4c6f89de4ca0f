"""Exception hierarchy shared across the toolkit.

Everything derives from FairRankError. ValidationError covers malformed
inputs (bad distributions, pools, tasks, metric arguments, config); callers
that map errors to process exit codes treat it as "bad input". RankingError
covers failures while building a ranking, chiefly running out of candidates.
"""


class FairRankError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(FairRankError):
    """Malformed input of any kind."""


class DistributionNotNormalized(ValidationError):
    """Proportions are negative, non-finite, or do not sum to 1."""


class AllZeroCounts(ValidationError):
    """Empirical counts sum to zero; no distribution can be formed."""


class PoolNotSorted(ValidationError):
    """A candidate pool's scores are not in non-increasing order."""


class KOutOfRange(ValidationError):
    """Evaluation depth k is outside 1..len(list)."""


class ZeroDesiredProportion(ValidationError):
    """A measured attribute has desired proportion zero (metric undefined)."""


class SupportMismatch(ValidationError):
    """Two distributions (or a list and a distribution) disagree on support."""


class ZeroDenominator(ValidationError):
    """KL divergence undefined: q is zero where p is positive."""


class LengthMismatch(ValidationError):
    """Parallel vectors disagree in length, e.g. a ranked list's attributes
    and scores, or an ideal score vector shorter than the list evaluated."""


class UnknownAlgorithm(ValidationError):
    """Algorithm name not recognized."""


class UnknownAttribute(ValidationError):
    """Attribute label not present in the desired distribution."""


class InvalidConfig(ValidationError):
    """Simulation configuration fails its bounds checks."""


class EmptyResult(ValidationError):
    """No rows to serialize."""


class RankingError(FairRankError):
    """Failure while constructing a ranking."""


class InsufficientCandidates(RankingError):
    """An attribute's pool ran out where the algorithm required it."""

