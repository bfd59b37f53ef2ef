"""Exception hierarchy.

Two branches matter operationally: ``DataError`` means the input cannot
support the requested computation (CLI exit code 2), ``NumericalError``
means the computation itself broke down (CLI exit code 3).
"""

import csv
from contextlib import contextmanager


class VolgramError(Exception):
    """Base class for all library errors."""


class DataError(VolgramError):
    """Input data is missing, malformed, or insufficient."""


class NumericalError(VolgramError):
    """A numerical procedure failed or left its domain."""


# -- data errors ---------------------------------------------------------

class MissingColumn(DataError):
    """Required CSV column absent from the header."""


class TooManyMalformed(DataError):
    """More than half of the data rows were rejected."""


class EmptyInput(DataError):
    """No records to process."""


class UnreadableInput(DataError):
    """Input text is not UTF-8, or a CSV cell cannot be read (over the
    csv field size limit, a NUL byte)."""


class MalformedLine(DataError):
    """A JSON-lines line or a series file is not a record of its format."""


class AllWindowsFiltered(DataError):
    """Every window was removed by the session or size filters."""


class TooFewSamples(DataError):
    """Not enough samples to build an empirical CDF."""


class DegenerateSample(DataError):
    """Sample has zero variance; moment inversion impossible."""


class SeriesTooShort(DataError):
    """Parameter series too short for the requested estimate."""


class AllBinsUnderpopulated(DataError):
    """No bin reaches the minimum event count."""


class InsufficientTauPoints(DataError):
    """Fewer than three lag points in the requested fit range."""


@contextmanager
def reading(source):
    """Raise a decode or CSV error from inside the block as
    ``UnreadableInput`` naming ``source``."""
    try:
        yield
    except (UnicodeDecodeError, csv.Error) as err:
        raise UnreadableInput(f"{source}: {type(err).__name__}: {err}") from None


# -- numerical errors ----------------------------------------------------

class DomainError(NumericalError):
    """Argument outside the mathematical domain of a function."""


class NonConvergence(NumericalError):
    """Series or continued-fraction iteration hit its cap."""


class NoConvergedFits(NumericalError):
    """A model has no converged fits to summarize."""
