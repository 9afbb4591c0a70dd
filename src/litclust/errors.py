"""Exception hierarchy shared across the package.

Three broad classes exist so the CLI can map failures to distinct exit
codes: ConfigError -> 2, DataError -> 3, ComputeError -> 4.
"""


class LitclustError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(LitclustError):
    """Invalid configuration, parameters out of bounds, missing inputs."""


class DataError(LitclustError):
    """Input data is malformed, empty, or otherwise unusable."""


class ComputeError(LitclustError):
    """A numerical stage could not produce a valid result."""


# -- data errors --------------------------------------------------------


class ParseError(DataError):
    """A record could not be parsed; carries file/line context in the message."""


class DuplicateId(DataError):
    """Two documents share the same identifier."""


class InvalidId(DataError):
    """A document identifier holds a tab or a line break."""


class EmptyCorpus(DataError):
    """No usable documents remain."""


class EmptyDictionary(DataError):
    """The entity dictionary has no usable entries."""


class NoLabeledDocuments(DataError):
    """Evaluation was requested but no document carries a class label."""


class NetworkError(DataError):
    """An HTTP request failed after bounded retries."""


class RateLimited(NetworkError):
    """The remote endpoint kept answering 429 past the retry budget."""


class EmptyResult(DataError):
    """A remote query matched no records."""


# -- compute errors ------------------------------------------------------


class AllTermsRemoved(ComputeError):
    """A vocabulary filter removed every term, the corpus is degenerate."""


class DimsTooLarge(ComputeError):
    """Requested embedding dimensionality exceeds the matrix rank bound."""


class ConvergenceFailure(ComputeError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class EmptyCluster(ComputeError):
    """A per-cluster quantity was requested for a cluster with no members."""


class KTooLarge(ComputeError):
    """More clusters requested than there are points."""


class EmptySpec(ConfigError):
    """A sweep specification enumerates no parameter combinations."""
