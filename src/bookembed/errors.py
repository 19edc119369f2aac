"""Exception types shared across the package."""


class BookEmbedError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidSize(BookEmbedError):
    """A size parameter is outside the range a construction supports."""


class SizeTooSmall(BookEmbedError):
    """A requested vertex count is below the minimum the construction needs."""


class InvalidCertificate(BookEmbedError):
    """A construction certificate does not replay to the given graph."""


class InvalidOrder(BookEmbedError):
    """A vertex order is not a permutation of the graph's vertices."""


class InvalidInput(BookEmbedError):
    """A command-line input file or parameter does not describe a valid object."""
