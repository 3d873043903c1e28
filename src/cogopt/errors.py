"""Exception hierarchy shared across the package."""

import numpy as np


class CogoptError(Exception):
    """Base class for all package-specific errors."""


class ParseError(CogoptError):
    """A document could not be parsed at all (malformed YAML/CSV/JSON)."""


class SchemaError(CogoptError):
    """A parsed document violates the expected schema or an invariant."""


class UnknownGoal(CogoptError):
    """The requested goal path does not exist in the knowledge base."""


class UnknownAlgorithm(CogoptError):
    """The named algorithm is not registered in the knowledge base."""


class SingularCovariance(CogoptError):
    """A covariance matrix plus its nugget is not numerically positive definite."""


class ConfigError(CogoptError):
    """An optimizer or run configuration value is out of its legal range."""


class BudgetExhausted(CogoptError):
    """An optimizer requested an objective evaluation beyond its budget."""


class OutOfBounds(CogoptError):
    """A point lies outside the declared box bounds."""


class InstanceSetTooSmall(CogoptError):
    """Tuning and benchmarking need at least two distinct instances."""


class DuplicatePipelineInGroup(CogoptError):
    """A (instance, budget) rank group contains a pipeline twice."""


class DegenerateInput(CogoptError):
    """A statistic is undefined for the given input (e.g. zero variance)."""


class MissingBaseline(CogoptError):
    """A rating group lacks the baseline record it must be compared against."""


class ConstraintViolation(CogoptError):
    """Weights violate the positivity/sum-to-one constraints."""


class MalformedInput(CogoptError):
    """A report input file exists but does not have the expected columns."""


# failures the loop and the tuner log and survive; any other error propagates
RECOVERABLE = (CogoptError, np.linalg.LinAlgError)
