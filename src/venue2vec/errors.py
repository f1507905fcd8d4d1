"""Exception types shared across the package.

The CLI maps ConfigError to exit code 1 and everything else to exit code 2,
so configuration problems must be raised (or re-raised) as ConfigError.
"""


class ConfigError(ValueError):
    """Invalid configuration value or combination; detected before any work."""


class FormatError(ValueError):
    """Input file does not match the declared field layout."""


class EmptyVocabularyError(ValueError):
    """No token survived vocabulary construction."""


class TrainingError(RuntimeError):
    """Training cannot proceed (e.g. empty sentence corpus)."""


class EvaluationError(ValueError):
    """Metric aggregation over an empty or inconsistent user population."""


class EmitError(ValueError):
    """Plot-data emission over inconsistent or empty report sets."""
