"""Exception hierarchy shared across the package."""


class CogoptError(Exception):
    """Base class for all package-specific errors.

    The loop and the tuner log a CogoptError and go on; any other error propagates.
    """


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


class DuplicatePipelineInGroup(CogoptError):
    """A (instance, budget) rank group contains a pipeline twice."""


class DegenerateInput(CogoptError):
    """A statistic is undefined for the given input (e.g. zero variance)."""


class MissingBaseline(CogoptError):
    """A rating group lacks the baseline record it must be compared against."""


class MalformedInput(CogoptError):
    """A report input file exists but lacks the expected columns or numbers."""

