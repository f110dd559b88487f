"""Exception types shared across the package, and the equality rule of
its result records."""


class TorusCurvesError(Exception):
    """Base class for all package-specific errors."""


class InvalidShape(TorusCurvesError):
    """Entry count does not match n*(n-1)/2, or sizes disagree."""


class InvalidPermutation(TorusCurvesError):
    """The given index map is not a bijection of 1..n."""


class DomainError(TorusCurvesError):
    """Argument outside the mathematical domain of the operation."""


class PreconditionViolated(TorusCurvesError):
    """Caller skipped a required earlier pipeline stage."""


class InvalidModuli(TorusCurvesError):
    """CRT moduli are not pairwise coprime."""


class ConstraintViolation(TorusCurvesError):
    """A solution parameter lies outside its allowed residue classes.

    missed lists every pair (i, j), 0-based, in column order, whose
    determinant misses its entry in a system of primitive vectors, when
    one was built; else it is None.
    """

    def __init__(self, message: str, missed=None):
        super().__init__(message)
        self.missed = missed


def _same_record(self, other) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


def _other_record(self, other) -> bool:
    return not _same_record(self, other)


def type_strict(cls):
    """Class decorator for a NamedTuple result record: equal only to a
    record of its own class with equal fields, never to a plain tuple or
    to a record of another class, in either operand order.  The hash is
    the tuple's, so equal records hash equal."""
    cls.__eq__, cls.__ne__, cls.__hash__ = (
        _same_record, _other_record, tuple.__hash__)
    return cls
