"""Bidual extensions of multilinear operators, one per permutation.

For an m-linear operator A and a permutation rho of the slots, the
extension is computed against each dual atom y' of the codomain by a
chain of explicit steps:

1. form the scalar m-form y' o A,
2. permute its slots into the order rho(1), ..., rho(m),
3. repeatedly read the first remaining slot as a dual-vector-valued map
   and collapse it with the bidual argument for that slot, rho(1) first.

After m contractions a scalar remains; running the chain over atom
biduals assembles the extension's tensor, which on these coordinatewise
spaces always equals the original tensor (every space is reflexive, so
restricting the extension along the canonical embeddings recovers A).
Each permutation still goes through its own contraction order.

The trace runs the chain on all-ones biduals instead. Once the slots of a
set S are contracted that way, the form no longer depends on the order
they were taken in, so the traces of all m! permutations share the 2^m
subset marginals of each slice (:func:`_marginal`, Yates' recursion for
2^m factorial tables). A chain is the m + 1 marginals along the prefixes
of rho (:func:`chain_masks`). Every form, from a permuted slice to a
marginal, is a plain dict from index tuples to nonzero Fractions; a
marginal keeps its remaining slots in ascending order, so level l of rho's
chain reads them in the order rho(l + 1), ..., rho(m).

The contraction core, :func:`rieszkit.operators._contract_entries`, is
shared with the sequence model (:mod:`rieszkit.seqmodel`), which runs the
same chain over finitely supported forms indexed by sequence positions
instead of finite slots. For m = 1 the single extension is the second
adjoint T'' of a linear map.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Sequence

from .operators import (
    DPVerdict,
    MultiTensor,
    NotDisjointnessPreserving,
    ShapeError,
    _contract_entries,
)
from .vectors import FinVector

_ZERO = Fraction(0)

_Form = dict[tuple[int, ...], Fraction]  # a sparse form: index tuple -> nonzero value


class Permutation:
    """Permutation of m slots, stored 0-based with an eagerly built inverse."""

    __slots__ = ("_images", "_inv")

    def __init__(self, images: Sequence[int]) -> None:
        imgs = tuple(int(i) for i in images)
        m = len(imgs)
        if sorted(imgs) != list(range(m)) or m == 0:
            raise ValueError(f"not a permutation of 0..{m - 1}: {imgs}")
        inv = [0] * m
        for i, img in enumerate(imgs):
            inv[img] = i
        self._images = imgs
        self._inv = tuple(inv)

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        return cls(range(m))

    @classmethod
    def theta(cls, m: int) -> "Permutation":
        """The reversing permutation: slot m first, slot 1 last (1-based).

        The extension it induces is the classical iterated-adjoint one.
        """
        return cls(range(m - 1, -1, -1))

    @classmethod
    def from_cycles(cls, text: str, m: int) -> "Permutation":
        """Parse 1-based cycle notation such as "(1 2)(3)".

        Cycle points are ASCII digits only, so "(1 ٢)", "(+1 2)" and
        "(1 2_0)" are errors rather than other spellings of a point.
        """
        if not re.fullmatch(r"\s*(\([^()]*\)\s*)+", text):
            raise ValueError(f"not cycle notation: {text!r}")
        images = list(range(m))
        seen: set[int] = set()
        for body in re.findall(r"\(([^()]*)\)", text):
            words = body.split()
            for word in words:
                if not re.fullmatch("[0-9]+", word):
                    raise ValueError(f"cycle point {word!r} is not a number in ASCII digits")
            points = [int(word) for word in words]
            if any(not 1 <= p <= m for p in points):
                raise ValueError(f"cycle point out of range 1..{m}: {body!r}")
            if len(set(points)) != len(points) or seen & set(points):
                raise ValueError(f"repeated point in cycles: {text!r}")
            seen.update(points)
            for a, b in zip(points, points[1:] + points[:1]):
                images[a - 1] = b - 1
        return cls(images)

    @property
    def m(self) -> int:
        return len(self._images)

    def __call__(self, i: int) -> int:
        return self._images[i]

    def apply_inverse(self, i: int) -> int:
        return self._inv[i]

    def inverse(self) -> "Permutation":
        return Permutation(self._inv)

    def one_line(self) -> tuple[int, ...]:
        """Images as 1-based one-line notation, for display."""
        return tuple(i + 1 for i in self._images)

    def is_identity(self) -> bool:
        return self._images == tuple(range(len(self._images)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __lt__(self, other: "Permutation") -> bool:
        return self._images < other._images

    def __repr__(self) -> str:
        return f"Permutation{self.one_line()}"


def all_permutations(m: int) -> Iterator[Permutation]:
    """All m! slot permutations in lexicographic order."""
    for images in itertools.permutations(range(m)):
        yield Permutation(images)


class ArensResult(NamedTuple):
    """Extension tensor for one permutation, with optional chain trace.

    ``trace`` is only recorded on request. It maps each output coordinate
    k to the m + 1 marginals of its slice on rho's chain, the forms left
    after each all-ones contraction: a dict from contracted-slot bitmask
    (see :func:`chain_masks`, which also gives their contraction order) to
    the marginal's entries, indexed over its remaining slots in ascending
    order. ``arens --trace`` prints ``trace[k][mask]`` as
    ``detail.marginals[str(k + 1)][str(mask)]``, 1-based.
    """

    permutation: Permutation
    tensor: MultiTensor
    trace: dict[int, dict[int, _Form]] | None = None


def arens_extension(
    tensor: MultiTensor, rho: Permutation, with_trace: bool = False
) -> ArensResult:
    """Assemble the rho-extension tensor by running the chain on atom biduals.

    Multilinearity means values on atom tuples describe the extension
    completely. Each output slice is permuted into rho-order once, then
    contracted against every atom of one slot per level (see
    :func:`_assemble`), so each output coordinate costs one pass per level.
    The trace is the slice's subset marginals on rho's chain (see
    :func:`trace_marginals`).
    """
    if rho.m != tensor.m:
        raise ShapeError(f"permutation arity {rho.m} against tensor arity {tensor.m}")
    slices = tensor.slices()
    trace = trace_marginals(slices, [rho]) if with_trace else None
    return ArensResult(rho, _extension(tensor, slices, rho), trace)


def _extension(tensor: MultiTensor, slices: dict[int, _Form], rho: Permutation) -> MultiTensor:
    """The rho-extension tensor from the tensor's ``slices()``, computed once per caller."""
    order = tuple(rho(l) for l in range(rho.m))
    inverse = tuple(rho.apply_inverse(i) for i in range(rho.m))
    entries: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    for k, slice_entries in slices.items():
        permuted = {tuple([idx[i] for i in order]): v for idx, v in slice_entries.items()}
        for chosen, value in _assemble(permuted, rho.m).items():
            entries[(k, tuple([chosen[l] for l in inverse]))] = value
    return MultiTensor._derived(tensor.domain_dims, tensor.codomain_dim, entries)


def chain_masks(rho: Permutation) -> list[int]:
    """Contracted-slot bitmasks along rho's chain, one per trace form.

    Bit i stands for the 0-based slot i. The list starts at 0 (nothing
    contracted) and adds rho(1), then rho(2), ..., up to all m slots.
    """
    masks = [0]
    for l in range(rho.m):
        masks.append(masks[-1] | 1 << rho(l))
    return masks


def _one(_: int) -> int:
    return 1


def _marginal(memo: dict[int, _Form], contracted: int, slot: int) -> None:
    """Add the slice marginal over the slots of ``contracted`` plus ``slot`` to ``memo``.

    ``memo`` maps a contracted-slot bitmask S to the slice form contracted
    against all-ones in the slots of S, with its remaining slots in
    ascending order. It starts as {0: slice entries}, and ``contracted``
    must already be in it: the new marginal is one contraction of that
    parent in ``slot``.
    """
    position = slot - bin(contracted & ((1 << slot) - 1)).count("1")
    memo[contracted | 1 << slot] = _contract_entries(memo[contracted], _one, position)


def trace_marginals(
    slices: dict[int, _Form], rhos: Sequence[Permutation]
) -> dict[int, dict[int, _Form]]:
    """Per output coordinate, the marginals on the chains of ``rhos``.

    Each coordinate's marginals are keyed by contracted-slot bitmask (see
    :func:`chain_masks`), with their remaining slots in ascending order.
    After the slots of S are contracted the form no longer depends on their
    order, so one memo per coordinate serves every chain and each marginal
    is built once: a coordinate costs at most 2^m - 1 contractions however
    many permutations are asked for.
    """
    steps: dict[int, tuple[int, int]] = {}  # marginal -> (parent, slot contracted)
    for rho in rhos:
        masks = chain_masks(rho)
        for l in range(rho.m):
            steps[masks[l + 1]] = (masks[l], rho(l))
    out = {}
    for k, slice_entries in slices.items():
        memo = {0: slice_entries}
        for mask in sorted(steps):  # a parent's mask is below its child's
            _marginal(memo, *steps[mask])
        out[k] = memo
    return out


def _assemble(permuted: _Form, m: int) -> _Form:
    """Contract a permuted slice form against every atom tuple, level by level.

    Contracting the first remaining slot against the atom e_j keeps exactly
    the entries whose leading index is j, so one group-by on the leading
    index contracts every form of a level against every atom of its slot.
    ``level`` maps the atoms chosen so far (in contraction order) to the
    entries of the form that remains; after m levels each form is a nonzero
    scalar. Returns those scalars keyed by their atom tuple.
    """
    level = {(): permuted}
    for _ in range(m):
        grouped: dict[tuple[int, ...], _Form] = {}
        for chosen, form in level.items():
            for idx, v in form.items():
                grouped.setdefault(chosen + idx[:1], {})[idx[1:]] = v
        level = grouped
    return {chosen: form[()] for chosen, form in level.items()}


def arens_evaluate(
    tensor: MultiTensor, rho: Permutation, biduals: Sequence[FinVector]
) -> FinVector:
    """Evaluate the rho-extension at one bidual element per original slot.

    ``biduals[i]`` is the argument for slot i of A; the chain consumes them
    in the order rho(1), ..., rho(m). The result lives in the codomain's
    bidual, identified with the codomain itself.
    """
    if len(biduals) != tensor.m:
        raise ShapeError(f"expected {tensor.m} bidual arguments, got {len(biduals)}")
    for i, (x, d) in enumerate(zip(biduals, tensor.domain_dims)):
        if x.dim != d:
            raise ShapeError(f"slot {i}: bidual dim {x.dim}, expected {d}")
    if rho.m != tensor.m:
        raise ShapeError(f"permutation arity {rho.m} against tensor arity {tensor.m}")
    order = [rho(l) for l in range(rho.m)]
    out = []
    for slice_entries in tensor.slices().values():
        form = {tuple([idx[i] for i in order]): v for idx, v in slice_entries.items()}
        for slot in order:
            form = _contract_entries(form, biduals[slot].__getitem__)
        out.append(form.get((), _ZERO))
    return FinVector(out)


class DpPreservationReport(NamedTuple):
    """Per-permutation DP verdicts for every extension of a DP operator."""

    input_certificate: DPVerdict
    per_permutation: tuple[tuple[Permutation, DPVerdict], ...]

    @property
    def all_dp(self) -> bool:
        return all(v.is_dp for _, v in self.per_permutation)


def check_dp_preservation(tensor: MultiTensor) -> DpPreservationReport:
    """Extend a DP operator along every permutation and re-decide DP.

    Raises :class:`NotDisjointnessPreserving` when the input itself is not
    DP; the witness travels with the exception.
    """
    verdict = tensor.is_dp()
    if not verdict.is_dp:
        raise NotDisjointnessPreserving(verdict)
    results = []
    for rho in all_permutations(tensor.m):
        extension = arens_extension(tensor, rho)
        results.append((rho, extension.tensor.is_dp()))
    return DpPreservationReport(verdict, tuple(results))


def is_dp_functional(y_dual: FinVector) -> bool:
    """A functional preserves disjointness iff at most one coordinate is nonzero."""
    return len(y_dual.support()) <= 1


def pairing_identities(
    tensor: MultiTensor,
    y_dual: FinVector,
    *,
    samples: int = 20,
    seed: int = 0,
) -> bool:
    """Check the modulus pairing laws of the extensions of a DP operator.

    For every permutation and sampled bidual tuple u = (u_1, ..., u_m),
    with E = extension value, the three quantities |E(u)| applied to |y'|,
    |E(|u_1|, ..., |u_m|) applied to y'| and |E(u) applied to y'| must
    agree, and y' o E must itself be a DP scalar form. ``y_dual`` must be a
    DP functional (at most one nonzero coordinate).
    """
    if y_dual.dim != tensor.codomain_dim:
        raise ShapeError(f"functional dim {y_dual.dim} against codomain {tensor.codomain_dim}")
    if not is_dp_functional(y_dual):
        raise ValueError("y_dual is not disjointness preserving (support > 1)")
    verdict = tensor.is_dp()
    if not verdict.is_dp:
        raise NotDisjointnessPreserving(verdict)
    from .sampling import random_vector  # only this sampled check needs it

    rng = random.Random(seed)
    abs_y = abs(y_dual)
    for rho in all_permutations(tensor.m):
        extension = arens_extension(tensor, rho).tensor
        contracted = _contract_entries(dict(extension.items()), y_dual.__getitem__)
        composed = MultiTensor(
            tensor.domain_dims, 1, {(0, idx): v for (idx,), v in contracted.items()}
        )
        if not composed.is_dp().is_dp:
            return False
        for _ in range(samples):
            biduals = [random_vector(rng, d) for d in tensor.domain_dims]
            value = arens_evaluate(tensor, rho, biduals)
            value_abs_args = arens_evaluate(tensor, rho, [abs(b) for b in biduals])
            lhs = abs(value).dot(abs_y)
            mid = abs(value_abs_args.dot(y_dual))
            rhs = abs(value.dot(y_dual))
            if not (lhs == mid == rhs):
                return False
    return True


def span_disjointness(
    tensor: MultiTensor,
    slot: int,
    w: FinVector,
    z: FinVector,
    fixed: Mapping[int, FinVector],
    y_star: FinVector,
) -> bool:
    """Disjointness of extension images, observed through one functional.

    For disjoint w, z placed in ``slot`` (other slots pinned by ``fixed``)
    and any functional y*, the extension images u, v of a DP operator must
    satisfy (|u| inf |v|) applied to |y*| = 0. Note the modulus is taken
    before pairing: the scalars u(y*) and v(y*) themselves need not be
    disjoint in Q (already u = e_1, v = e_2 against y* = (1, 1) gives two
    nonzero scalars), which is why the check is stated this way.
    """
    if not w.is_disjoint(z):
        raise ValueError("w and z are not disjoint")
    if y_star.dim != tensor.codomain_dim:
        raise ShapeError("functional dimension does not match the codomain")
    args_w = []
    args_z = []
    for i in range(tensor.m):
        if i == slot:
            args_w.append(w)
            args_z.append(z)
        else:
            args_w.append(fixed[i])
            args_z.append(fixed[i])
    abs_y = abs(y_star)
    for rho in all_permutations(tensor.m):
        u = arens_evaluate(tensor, rho, args_w)
        v = arens_evaluate(tensor, rho, args_z)
        if abs(u).inf(abs(v)).dot(abs_y) != 0:
            return False
    return True
