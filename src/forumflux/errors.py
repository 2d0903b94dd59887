"""Exception types shared across the pipeline stages."""


class ForumFluxError(Exception):
    """Base class for all pipeline errors."""


class ParseError(ForumFluxError):
    """Malformed input row, bad timestamp, or duplicate post id."""


class EmptyCorpusError(ForumFluxError):
    """Raised when an operation requires at least one post."""


class ConfigError(ForumFluxError):
    """Invalid configuration value or unusable config file."""


class MissingArtifactError(ForumFluxError):
    """A pipeline stage was invoked before its upstream artifact exists."""


class DegenerateDatasetError(ForumFluxError):
    """A classification task ended up with zero positive or zero negative rows."""


class TrainingError(ForumFluxError):
    """Single-class training input, or a fit that does not converge."""
