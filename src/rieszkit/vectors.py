"""Finite-dimensional coordinatewise vector lattices over the rationals.

A :class:`FinVector` is an immutable element of Q^n ordered coordinate by
coordinate. Suprema, infima, absolute values and the positive/negative
part decomposition are all computed coordinatewise and exactly.

Because the order dual of Q^n under this order is again Q^n (a functional
is its coefficient vector, evaluation is the dot product), the same type
serves as vector, functional and bidual element. The embedding of a space
into its bidual is the identity on coordinates, so it needs no code.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .rational import as_fraction, format_rational

_ZERO = Fraction(0)


class FinVector:
    """Immutable vector in Q^n with coordinatewise lattice structure.

    >>> x = FinVector([1, -2, 0])
    >>> x.pos().coords(), x.neg().coords()
    ((Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(2, 1), Fraction(0, 1)))
    >>> x == x.pos() - x.neg()
    True
    """

    __slots__ = ("_coords",)

    def __init__(self, coords: Iterable) -> None:
        self._coords = tuple(as_fraction(c) for c in coords)
        if not self._coords:
            raise ValueError("a vector needs at least one coordinate")

    @classmethod
    def zero(cls, dim: int) -> "FinVector":
        return cls([_ZERO] * dim)

    @classmethod
    def atom(cls, dim: int, index: int) -> "FinVector":
        """Standard unit vector e_index (0-based)."""
        if not 0 <= index < dim:
            raise IndexError(f"atom index {index} out of range for dim {dim}")
        return cls([Fraction(1) if i == index else _ZERO for i in range(dim)])

    @classmethod
    def ones(cls, dim: int) -> "FinVector":
        return cls([Fraction(1)] * dim)

    @property
    def dim(self) -> int:
        return len(self._coords)

    def coords(self) -> tuple[Fraction, ...]:
        return self._coords

    def __len__(self) -> int:
        return len(self._coords)

    def __getitem__(self, i: int) -> Fraction:
        return self._coords[i]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._coords)

    def __eq__(self, other) -> bool:
        return isinstance(other, FinVector) and self._coords == other._coords

    def __hash__(self) -> int:
        return hash(self._coords)

    def __repr__(self) -> str:
        return "FinVector([%s])" % ", ".join(format_rational(c) for c in self)

    def _check_dim(self, other: "FinVector") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    # -- linear structure ------------------------------------------------

    def __add__(self, other: "FinVector") -> "FinVector":
        self._check_dim(other)
        return FinVector(a + b for a, b in zip(self, other))

    def __sub__(self, other: "FinVector") -> "FinVector":
        self._check_dim(other)
        return FinVector(a - b for a, b in zip(self, other))

    def __neg__(self) -> "FinVector":
        return FinVector(-a for a in self)

    def scale(self, scalar) -> "FinVector":
        s = as_fraction(scalar)
        return FinVector(s * a for a in self)

    def __mul__(self, scalar) -> "FinVector":
        return self.scale(scalar)

    __rmul__ = __mul__

    # -- lattice structure -----------------------------------------------

    def sup(self, other: "FinVector") -> "FinVector":
        self._check_dim(other)
        return FinVector(max(a, b) for a, b in zip(self, other))

    def inf(self, other: "FinVector") -> "FinVector":
        self._check_dim(other)
        return FinVector(min(a, b) for a, b in zip(self, other))

    def __abs__(self) -> "FinVector":
        return FinVector(abs(a) for a in self)

    def pos(self) -> "FinVector":
        """Positive part x+ = sup(x, 0)."""
        return FinVector(a if a > 0 else _ZERO for a in self)

    def neg(self) -> "FinVector":
        """Negative part x- = sup(-x, 0), so x = pos() - neg()."""
        return FinVector(-a if a < 0 else _ZERO for a in self)

    def leq(self, other: "FinVector") -> bool:
        """Coordinatewise partial order."""
        self._check_dim(other)
        return all(a <= b for a, b in zip(self, other))

    def __le__(self, other: "FinVector") -> bool:
        return self.leq(other)

    def __ge__(self, other: "FinVector") -> bool:
        return other.leq(self)

    def is_positive(self) -> bool:
        return all(a >= 0 for a in self)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self)

    def is_disjoint(self, other: "FinVector") -> bool:
        """x and y are disjoint when inf(|x|, |y|) = 0.

        Coordinatewise that means no index carries a nonzero value in both
        vectors, i.e. the supports do not meet.
        """
        self._check_dim(other)
        return all(a == 0 or b == 0 for a, b in zip(self, other))

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self) if a != 0)
