"""Coordinatewise vector lattices over the rationals.

:class:`CoordinatewiseLattice` computes the linear and lattice operations
of a space ordered coordinate by coordinate, exactly, from three
primitives a subclass supplies. :class:`FinVector` (Q^n, below) and
:class:`rieszkit.seqmodel.EvConstSeq` (eventually constant sequences)
inherit it.

Because the order dual of Q^n under this order is again Q^n (a functional
is its coefficient vector, evaluation is the dot product), FinVector
serves as vector, functional and bidual element. The embedding of a space
into its bidual is the identity on coordinates, so it needs no code.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .rational import as_fraction, format_rational

_ZERO = Fraction(0)


class CoordinatewiseLattice:
    """Sums, scaling, sup, inf, modulus, parts, order and disjointness.

    A subclass supplies ``_map(fn)``, the element with ``fn`` applied to
    every coordinate; ``_combine(other, fn)``, with ``fn`` applied to each
    pair of matching coordinates, raising :class:`ValueError` when the
    spaces differ; and ``_values()``, every value the element takes, which
    may be an existing accessor: :class:`FinVector` binds it to
    ``coords``, and ``EvConstSeq`` lists its exceptions and tail.
    """

    __slots__ = ()

    # -- linear structure ------------------------------------------------

    def __add__(self, other: "CoordinatewiseLattice") -> "CoordinatewiseLattice":
        return self._combine(other, operator.add)

    def __sub__(self, other: "CoordinatewiseLattice") -> "CoordinatewiseLattice":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "CoordinatewiseLattice":
        return self._map(operator.neg)

    def __mul__(self, scalar) -> "CoordinatewiseLattice":
        return self._map(as_fraction(scalar).__mul__)

    __rmul__ = __mul__

    # -- lattice structure -----------------------------------------------

    def sup(self, other: "CoordinatewiseLattice") -> "CoordinatewiseLattice":
        return self._combine(other, max)

    def inf(self, other: "CoordinatewiseLattice") -> "CoordinatewiseLattice":
        return self._combine(other, min)

    def __abs__(self) -> "CoordinatewiseLattice":
        return self._map(abs)

    def pos(self) -> "CoordinatewiseLattice":
        """Positive part x+ = sup(x, 0), with 0 = 0 * x in x's own space."""
        return self.sup(0 * self)

    def neg(self) -> "CoordinatewiseLattice":
        """Negative part x- = (-x)+, so x = pos() - neg()."""
        return (-self).pos()

    def __le__(self, other: "CoordinatewiseLattice") -> bool:
        """Coordinatewise partial order: x <= y exactly when sup(x, y) = y.

        ``y >= x`` is answered by this method too, reflected.
        """
        return self.sup(other) == other

    def is_positive(self) -> bool:
        return min(self._values()) >= 0

    def is_zero(self) -> bool:
        return not any(self._values())

    def is_disjoint(self, other: "CoordinatewiseLattice") -> bool:
        """x and y are disjoint when inf(|x|, |y|) = 0.

        Coordinatewise that means no coordinate carries a nonzero value in
        both, i.e. the supports do not meet.
        """
        return abs(self).inf(abs(other)).is_zero()


class FinVector(CoordinatewiseLattice):
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
    def atom(cls, dim: int, index: int) -> "FinVector":
        """Standard unit vector e_index (0-based)."""
        index = operator.index(index)
        if not 0 <= index < dim:
            raise IndexError(f"atom index {index} out of range for dim {dim}")
        return cls([Fraction(1) if i == index else _ZERO for i in range(dim)])

    def coords(self) -> tuple[Fraction, ...]:
        return self._coords

    _values = coords

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

    def _map(self, fn: Callable[[Fraction], Fraction]) -> "FinVector":
        return FinVector(map(fn, self._coords))

    def _combine(self, other: "FinVector", fn: Callable[[Fraction, Fraction], Fraction]) -> "FinVector":
        if len(self) != len(other):
            raise ValueError(f"dimension mismatch: {len(self)} vs {len(other)}")
        return FinVector(map(fn, self._coords, other._coords))

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self) if a != 0)
