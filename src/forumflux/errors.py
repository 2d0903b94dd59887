"""Exception types shared across the pipeline stages."""


class ForumFluxError(Exception):
    """Base class for all pipeline errors."""


class ParseError(ForumFluxError):
    """A missing, empty or malformed input or artifact: a bad row or timestamp, a
    duplicate post id, no posts, or an upstream artifact not yet written."""


class ConfigError(ForumFluxError):
    """Invalid configuration value or unusable config file."""


class DegenerateDatasetError(ForumFluxError):
    """A classification task ended up with zero positive or zero negative rows."""


class TrainingError(ForumFluxError):
    """Single-class training input, or a fit that does not converge."""
