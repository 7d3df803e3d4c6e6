"""Exception types, and the base of the value types, shared across the package."""

from __future__ import annotations


class HypidentError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HypidentError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DegenerateConfigurationError(HypidentError, RuntimeError):
    """The check is not usable at this point: the kernel quadratic has a double root or
    a root at 0 or 1, a pass would be vacuous (scale <= tolerance), |Re t| exceeds the main
    identity's cancellation cap, or rounded phases could move closed forms past the tolerance."""


class NodeBudgetError(HypidentError, RuntimeError):
    """A rule whose node count is fixed before any evaluation needs more than max_nodes;
    nothing was evaluated, and the point comes out unconverged."""


class UsageError(HypidentError, ValueError):
    """Invalid run configuration (CLI exit code 64)."""


class Value:
    """Base of the package's value types, whose fields are their __slots__ in
    constructor order.  Equality, repr, copying and pickling (through the
    constructor) follow from them, and so do as_dict(), the fields by name
    (shallow: no value is copied), and replace(**changes), a copy built, and
    so validated, by the constructor.  Mutable and unhashable."""

    __slots__ = ()   # defining __eq__ sets __hash__ = None

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def replace(self, **changes):
        return type(self)(**{**self.as_dict(), **changes})

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return (self.__reduce__() == other.__reduce__() if other.__class__ is self.__class__
                else NotImplemented)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class FrozenValue(Value):
    """A hashable Value whose fields only its constructor sets (by object.__setattr__)."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __setattr__(self, name, *value):   # also __delattr__, which passes no value
        raise AttributeError(f"field {name!r} of a {type(self).__name__} is read-only")

    __delattr__ = __setattr__
