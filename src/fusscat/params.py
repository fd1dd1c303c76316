"""The (m, k) parameter pair governing every operation in the package.

m is the arity of the operation being modelled (each internal tree node
has exactly m children) and k is the associativity degree: the rewrite
moves shift a window of operands by k(m-1) positions, so all modular
arithmetic happens mod k(m-1).
"""

import sys

from .errors import ArityError, DomainError


def _check_option(name: str, value, choices: tuple[str, ...]) -> None:
    """Refuse an option value outside its choices, before any work."""
    if value not in choices:
        raise ValueError("%s must be %s, got %r"
                         % (name, " or ".join(map(repr, choices)), value))


class _Record:
    """Immutable value with the fields named in `__slots__`, in order.
    It compares and hashes as the tuple of its fields, never equals an
    instance of another class, and prints as Name(field=value, ...).
    A subclass sets its fields in `__init__` with object.__setattr__."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))

    def __reduce__(self):
        return self.__class__, self._fields()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))


class Params(_Record):
    __slots__ = ("m", "k")

    def __init__(self, m: int, k: int):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)
        if not (type(m) is int and m >= 2):
            raise DomainError("arity m must be an integer >= 2, got %r" % (m,))
        if not (type(k) is int and k >= 1):
            raise DomainError("degree k must be an integer >= 1, got %r" % (k,))

    @property
    def step(self) -> int:
        """Up-run granularity of the associated Dyck paths: m - 1."""
        return self.m - 1

    @property
    def modulus(self) -> int:
        """Window shift K = k(m-1); entries of minimal tuples and all
        exponent arithmetic are reduced mod this value."""
        return self.k * (self.m - 1)

    def fits(self, length: int) -> bool:
        """The size rule: some m-ary tree has length + 1 leaves iff
        length >= 0 and m-1 divides it (length 0 is the bare operand)."""
        return length >= 0 and length % (self.m - 1) == 0

    def check_length(self, length: int) -> None:
        """Raise ArityError unless some m-ary tree has length + 1 leaves,
        and DomainError for a length above sys.maxsize, the largest size
        the binomials of the counts accept."""
        if not self.fits(length):
            raise ArityError("no %d-ary tree has %d leaves (length %d)"
                             % (self.m, length + 1, length))
        if length > sys.maxsize:
            raise DomainError("length %d is above the largest supported "
                              "size %d" % (length, sys.maxsize))
