"""Regular linear and multilinear operators between coordinatewise spaces.

An m-linear operator A: Q^{d_1} x ... x Q^{d_m} -> Q^c is stored as its
slices: per output coordinate, a map from index tuple to nonzero Fraction.
Because the atoms generate the positive cone, the operator order is the
entrywise order, and modulus / positive part / negative part are too.

The central decision procedure is :meth:`MultiTensor.is_dp`: does the
operator map tuples that are disjoint in one slot (the other slots held
fixed) to disjoint outputs? The answer is structural, and every negative
answer comes with a concrete witness whose two images are checked against
the tensor's entries before it is returned.

A linear map is the case m = 1, a one-slot tensor; its second adjoint
T'' is :func:`rieszkit.arens.arens_extension` at m = 1. The sparse
contraction :func:`_contract_entries` lives here because both the Arens
chain and the sequence model run it.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .rational import as_fraction
from .vectors import FinVector

MAX_ARITY = 4
MAX_DIM = 16

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ShapeError(ValueError):
    """Arity or dimension mismatch between operators or arguments."""


class NotDisjointnessPreserving(ValueError):
    """Raised when an operation requires a DP operator but got a witness
    against it. The offending :class:`DPVerdict` rides along."""

    def __init__(self, verdict: "DPVerdict") -> None:
        super().__init__("operator does not preserve disjointness")
        self.verdict = verdict


def check_shape(domain_dims: tuple[int, ...], codomain_dim: int) -> None:
    """Raise :class:`ShapeError` unless the shape is within the kernel's bounds."""
    if not 1 <= len(domain_dims) <= MAX_ARITY:
        raise ShapeError(f"arity must be between 1 and {MAX_ARITY}, got {len(domain_dims)}")
    if any(d < 1 or d > MAX_DIM for d in domain_dims):
        raise ShapeError(f"domain dims must lie in 1..{MAX_DIM}: {domain_dims}")
    if not 1 <= codomain_dim <= MAX_DIM:
        raise ShapeError(f"codomain dim must lie in 1..{MAX_DIM}: {codomain_dim}")


class DPWitness(NamedTuple):
    """Constructive evidence that an operator is not disjointness preserving.

    ``x`` and ``y`` are disjoint vectors for slot ``slot``; with the other
    slots pinned to ``fixed``, the two images fail to be disjoint (they
    share support at output coordinate ``out_coord``).
    """

    out_coord: int
    slot: int
    x: FinVector
    y: FinVector
    fixed: tuple[tuple[int, FinVector], ...]
    image_x: FinVector
    image_y: FinVector

    def args_for(self, vec: FinVector) -> list[FinVector]:
        slots = dict(self.fixed)
        slots[self.slot] = vec
        return [slots[i] for i in sorted(slots)]

    def verify(self, tensor: "MultiTensor") -> bool:
        """Re-check the witness against the tensor by evaluation."""
        if not self.x.is_disjoint(self.y):
            return False
        ix = tensor.apply(self.args_for(self.x))
        iy = tensor.apply(self.args_for(self.y))
        if ix != self.image_x or iy != self.image_y:
            return False
        k = self.out_coord
        return ix[k] != 0 and iy[k] != 0


class DPVerdict(NamedTuple):
    """Outcome of the disjointness-preservation decision.

    Exactly one of ``certificate`` (positive answer: per output coordinate
    the at-most-one support tuple) and ``witness`` (negative answer) is set.
    """

    is_dp: bool
    certificate: tuple[tuple[int, ...] | None, ...] | None
    witness: DPWitness | None


class MultimorphismFactorization(NamedTuple):
    """Scalar DP form written as scale * x_1[c_1] * ... * x_m[c_m].

    By convention the whole scale is carried by the first coordinate
    functional; the remaining factors are plain coordinate evaluations.
    A zero operator is flagged by ``coords is None`` and scale 0.
    """

    scale: Fraction
    coords: tuple[int, ...] | None

    @property
    def is_zero(self) -> bool:
        return self.coords is None


class MultiTensor:
    """Sparse exact tensor of an m-linear operator Q^{d_1} x ... -> Q^c, kept as its slices."""

    __slots__ = ("_dims", "_slices")

    def __init__(
        self,
        domain_dims: Sequence[int],
        codomain_dim: int,
        entries: Mapping[tuple[int, tuple[int, ...]], object],
    ) -> None:
        dims = tuple(map(operator.index, domain_dims))
        cod = operator.index(codomain_dim)
        check_shape(dims, cod)
        self._dims = dims
        self._slices = tuple({} for _ in range(cod))
        for (k, idx), raw in entries.items():
            k, idx = operator.index(k), tuple(map(operator.index, idx))
            if not 0 <= k < cod:
                raise ShapeError(f"output coordinate {k} out of range 0..{cod - 1}")
            if len(idx) != len(dims) or any(
                not 0 <= i < d for i, d in zip(idx, dims)
            ):
                raise ShapeError(f"index tuple {idx} out of range for dims {dims}")
            value = as_fraction(raw)
            if value != 0:
                self._slices[k][idx] = value

    @classmethod
    def _derived(
        cls,
        domain_dims: tuple[int, ...],
        slices: tuple[dict[tuple[int, ...], Fraction], ...],
    ) -> "MultiTensor":
        """Wrap slices derived from an already valid tensor, unchecked.

        The caller guarantees the shape of a valid tensor, one slice per
        output coordinate, in-range int tuple keys and nonzero Fraction
        values; ``slices`` is stored as given.
        """
        tensor = cls.__new__(cls)
        tensor._dims = domain_dims
        tensor._slices = slices
        return tensor

    @classmethod
    def zero(cls, domain_dims: Sequence[int], codomain_dim: int) -> "MultiTensor":
        return cls(domain_dims, codomain_dim, {})

    # -- basic shape -------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self._dims)

    @property
    def domain_dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def codomain_dim(self) -> int:
        return len(self._slices)

    def entry(self, out_coord: int, idx: tuple[int, ...]) -> Fraction:
        return self._slices[out_coord].get(idx, _ZERO)

    def rows(self) -> list[tuple[int, tuple[int, ...], Fraction]]:
        """Entries as a deterministically sorted list."""
        return [(k, idx, v) for k, row in enumerate(self._slices) for idx, v in sorted(row.items())]

    def nnz(self) -> int:
        return sum(map(len, self._slices))

    def items(self) -> Iterator[tuple[tuple[int, tuple[int, ...]], Fraction]]:
        return (((k, idx), v) for k, row in enumerate(self._slices) for idx, v in row.items())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiTensor)
            and self._dims == other._dims
            and self._slices == other._slices
        )

    def __repr__(self) -> str:
        shape = "x".join(str(d) for d in self._dims)
        return f"MultiTensor({shape}->{self.codomain_dim}, {self.nnz()} entries)"

    # -- evaluation ----------------------------------------------------------

    def apply(self, args: Sequence[FinVector]) -> FinVector:
        """Evaluate the operator at one vector per slot."""
        if len(args) != self.m:
            raise ShapeError(f"expected {self.m} arguments, got {len(args)}")
        for i, (x, d) in enumerate(zip(args, self._dims)):
            if x.dim != d:
                raise ShapeError(f"slot {i}: argument dim {x.dim}, expected {d}")
        # Per slot, the argument's nonzero coordinates by position. An entry
        # whose index leaves some slot's support contributes nothing, and
        # is skipped by lookups alone, before any Fraction arithmetic.
        support = [{pos: c for pos, c in enumerate(x) if c} for x in args]
        acc = [_ZERO] * len(self._slices)
        for k, row in enumerate(self._slices):
            for idx, value in row.items():
                if all(map(dict.__contains__, support, idx)):
                    for c in map(dict.__getitem__, support, idx):
                        value *= c
                    acc[k] += value
        return FinVector(acc)

    # -- entrywise lattice structure ------------------------------------------

    # The modulus and the negative of a nonzero Fraction are nonzero Fractions,
    # so both keep this tensor's valid keys and skip the validating __init__.

    def modulus(self) -> "MultiTensor":
        """|A|: entrywise absolute value; the least positive majorant of A and -A."""
        return MultiTensor._derived(
            self._dims, tuple({idx: abs(v) for idx, v in row.items()} for row in self._slices)
        )

    def __neg__(self) -> "MultiTensor":
        return MultiTensor._derived(
            self._dims, tuple({idx: -v for idx, v in row.items()} for row in self._slices)
        )

    def is_positive(self) -> bool:
        """A >= 0 in the operator order, i.e. every entry is nonnegative."""
        return not any(v < 0 for row in self._slices for v in row.values())

    # -- slices -----------------------------------------------------------------

    def slices(self) -> tuple[dict[tuple[int, ...], Fraction], ...]:
        """Per output coordinate, in order, the nonzero index tuples and their values.

        This is the tensor's own storage: callers must not mutate it.
        """
        return self._slices

    # -- disjointness preservation ------------------------------------------------

    def is_dp(self) -> DPVerdict:
        """Decide disjointness preservation.

        The operator preserves disjointness exactly when every output
        coordinate reads at most one index tuple, and then the certificate
        lists each coordinate's tuple, or None. Otherwise one scan of the
        slices finds the first that reads two. Take its smallest tuple s,
        the slice tuple s2 nearest to s in Hamming distance (ties to the
        smallest), and the first slot where they differ: x and y are the
        atoms of s and s2 there, and every other slot i is fixed to the 0/1
        vector e_{s_i} + e_{s2_i}, an atom where s and s2 agree. A slice
        tuple u other than s and s2 that these arguments reach differs from
        s only in slots where s2 does, and in fewer of them, so it would be
        nearer to s than s2 is. Hence the images at k are A[k, s] and
        A[k, s2], both nonzero. Every image coordinate sums at most
        2^(m-1) entries, so the witness's size is bounded by m and the
        entries, never by the dimensions. Each image is evaluated once and
        checked against those two slice entries before the witness is returned.
        """
        k = next((k for k, row in enumerate(self._slices) if len(row) > 1), None)
        if k is None:
            certificate = tuple(min(row, default=None) for row in self._slices)
            return DPVerdict(True, certificate, None)

        row = self._slices[k]
        s = min(row)
        s2 = min(row.keys() - {s}, key=lambda u: (sum(map(operator.ne, u, s)), u))
        slot = next(i for i in range(self.m) if s[i] != s2[i])
        fixed = []
        for i, d in enumerate(self._dims):
            if i != slot:
                coords = [_ZERO] * d
                coords[s[i]] = coords[s2[i]] = _ONE
                fixed.append((i, FinVector(coords)))
        x = FinVector.atom(self._dims[slot], s[slot])
        y = FinVector.atom(self._dims[slot], s2[slot])
        witness = DPWitness(k, slot, x, y, tuple(fixed), image_x=None, image_y=None)
        image_x, image_y = (self.apply(witness.args_for(v)) for v in (x, y))
        if (image_x[k], image_y[k]) != (row[s], row[s2]):
            raise AssertionError("internal error: constructed witness failed to verify")
        return DPVerdict(False, None, witness._replace(image_x=image_x, image_y=image_y))

    # -- lattice rank of the range ------------------------------------------------

    def range_sublattice_basis(self) -> list[FinVector]:
        """Basis of the smallest linear sublattice containing the range.

        Every vector of that sublattice applies one positively homogeneous
        piecewise-linear function coordinatewise to the atom images, so two
        output coordinates whose rows of the atom-image matrix lie on a
        common positive ray are never separated, while distinct rays are.
        One pass groups the nonzero rows by ray (each row divided by the
        modulus of its entry at its smallest atom tuple) and emits one
        positive vector per ray: the row's lead moduli, scaled so the ray's
        first coordinate is 1. The vectors are pairwise disjoint and come
        in order of their first coordinates, the reduced echelon form.
        """
        rays: dict[frozenset, list[tuple[int, Fraction]]] = {}
        for k, row in enumerate(self._slices):
            if row:
                lead = abs(row[min(row)])
                ray = frozenset((idx, v / lead) for idx, v in row.items())
                rays.setdefault(ray, []).append((k, lead))
        basis = []
        for members in rays.values():
            first = members[0][1]
            coords = [_ZERO] * len(self._slices)
            for k, lead in members:
                coords[k] = lead / first
            basis.append(FinVector(coords))
        return basis

    def lattice_rank(self) -> int:
        """Dimension of the sublattice generated by the range."""
        return len(self.range_sublattice_basis())


# -- sparse contraction ------------------------------------------------------------


def _contract_entries(
    entries: Mapping[tuple, Fraction],
    coefficient: Callable[[object], Fraction],
    position: int = 0,
) -> dict[tuple, Fraction]:
    """Collapse one index of a sparse form against a coefficient lookup.

    This is the pairing of a bidual element with the form read as a
    dual-vector-valued map in the index at ``position`` (the first by
    default), written sparsely: out[rest] = sum_j coefficient(j) *
    entries[idx], where idx has j at ``position`` and rest elsewhere. It is
    the only contraction in the package: the Arens chain and its trace
    marginals run it over any slot (:func:`rieszkit.arens._contract_slot`),
    and the sequence model (:func:`rieszkit.seqmodel.diag_arens_pair`)
    over sequence positions.
    """
    out: dict[tuple, Fraction] = {}
    after = position + 1
    for idx, value in entries.items():
        c = coefficient(idx[position])
        if c == 0:
            continue
        if c != 1:
            value = c * value
        rest = idx[:position] + idx[after:]
        prev = out.get(rest)
        if prev is None:
            out[rest] = value
            continue
        acc = prev + value
        if acc == 0:
            del out[rest]
        else:
            out[rest] = acc
    return out


# -- scalar factorization ----------------------------------------------------------


def factorize_multimorphism(tensor: MultiTensor) -> MultimorphismFactorization:
    """Factor a scalar-valued DP operator through coordinate functionals.

    A DP form A reads at most one index tuple, the one its DP certificate
    holds, so |A| acts as scale * x_1[c_1] * ... * x_m[c_m] with (c_1, ...,
    c_m) that tuple and scale the modulus of A's entry there. Raises
    :class:`NotDisjointnessPreserving` (with the witness attached) when the
    input is not DP, and :class:`ShapeError` when the codomain is not Q.
    """
    if tensor.codomain_dim != 1:
        raise ShapeError("factorization needs a scalar-valued operator")
    verdict = tensor.is_dp()
    if not verdict.is_dp:
        raise NotDisjointnessPreserving(verdict)
    (coords,) = verdict.certificate  # None for the zero form, whose entry there is 0
    return MultimorphismFactorization(scale=abs(tensor.entry(0, coords)), coords=coords)
