"""Bidual extensions of multilinear operators, one per permutation.

For an m-linear operator A and a permutation rho of the slots, the
extension is computed against each dual atom y' of the codomain by a
chain of explicit steps:

1. form the scalar m-form y' o A,
2. for l = 1, ..., m, read slot rho(l) of what remains as a
   dual-vector-valued map and collapse it with the bidual argument for
   that slot, in place: the form keeps its other slots in ascending order
   and no permuted copy is built (:func:`_contract_slot`).

After m contractions a scalar remains (:func:`arens_evaluate`). Every
space here is Q^d, which is reflexive, so each extension of a tensor is
the tensor itself whatever rho is: restricting it along the canonical
embeddings recovers A (Arens, Proc. AMS 2 (1951) 839-848, defines the
extensions by iterated adjoints). :func:`arens_extension` therefore
returns the input, and the permutation shows only in the trace.

The trace runs the chain on all-ones biduals instead. Once the slots of a
set S are contracted that way, the form no longer depends on the order
they were taken in, so the traces of all m! permutations share the 2^m
subset marginals of each slice (:func:`trace_marginals`, Yates' recursion
for 2^m factorial tables). A chain is the m + 1 marginals along the
prefixes of rho (:func:`chain_masks`). Every form, from a slice to a
marginal, is a plain dict from index tuples to nonzero Fractions; a
marginal keeps its remaining slots in ascending order, so level l of rho's
chain reads them in the order rho(l + 1), ..., rho(m).

The contraction core, :func:`rieszkit.operators._contract_entries`, is
shared with the sequence model (:mod:`rieszkit.seqmodel`), which runs the
same chain over finitely supported forms indexed by sequence positions
instead of finite slots. For m = 1 the single extension is the second
adjoint T'' of a linear map.

The ``arens`` subcommand's report is built here too (:func:`_report_arens`,
with the ``--perm`` choices and the wire form of the trace marginals), so
the command line front end loads this module only for ``arens`` and for a
replay of a stored ``arens`` report. Its trace holds nonzero masks only, as
bare rows: mask 0 is the slice, already in the printed tensor.
"""

from __future__ import annotations

import itertools
import operator
import re
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence

from .fileformat import SpecFileError, index_key, tensor_to_obj
from .operators import MultiTensor, ShapeError, _contract_entries
from .rational import format_rational
from .report import build_report, check
from .vectors import FinVector

_ZERO = Fraction(0)

_Form = dict[tuple[int, ...], Fraction]  # a sparse form: index tuple -> nonzero value


class Permutation(tuple):
    """Permutation of m slots: the tuple of its 0-based images.

    ``rho(i)`` and ``rho[i]`` are both the image of slot i and ``rho.m`` is
    the number of slots. Being a tuple, a Permutation equals, and hashes
    like, the plain tuple of its images.
    """

    __slots__ = ()

    def __new__(cls, images: Sequence[int]) -> "Permutation":
        imgs = tuple(map(operator.index, images))
        m = len(imgs)
        if sorted(imgs) != list(range(m)) or m == 0:
            raise ValueError(f"not a permutation of 0..{m - 1}: {imgs}")
        return super().__new__(cls, imgs)

    m = property(tuple.__len__)
    __call__ = tuple.__getitem__

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

        Each cycle point is read by :func:`rieszkit.fileformat.index_key`,
        the reader of every other 1-based index on the wire, so a point is
        written in ASCII digits without a leading zero. "(1 ٢)", "(+1 2)",
        "(1 2_0)" and "(01 2)" are errors rather than other spellings of a
        point: the report echoes ``--perm`` as given, so each would be
        another digest for the same run. A permutation still has several
        spellings: "(1 2)" and "(2 1)" parse to one transposition, and "()"
        and "(1)" to the identity.
        """
        if not re.fullmatch(r"\s*(\([^()]*\)\s*)+", text):
            raise ValueError(f"not cycle notation: {text!r}")
        images = list(range(m))
        seen: set[int] = set()
        for body in re.findall(r"\(([^()]*)\)", text):
            points = [index_key(word, "cycle point") for word in body.split()]
            if any(p > m for p in points):
                raise ValueError(f"cycle point out of range 1..{m}: {body!r}")
            if len(set(points)) != len(points) or seen & set(points):
                raise ValueError(f"repeated point in cycles: {text!r}")
            seen.update(points)
            for a, b in zip(points, points[1:] + points[:1]):
                images[a - 1] = b - 1
        return cls(images)

    def one_line(self) -> tuple[int, ...]:
        """Images as 1-based one-line notation, for display."""
        return tuple(i + 1 for i in self)

    def __repr__(self) -> str:
        return f"Permutation{self.one_line()}"


def all_permutations(m: int) -> Iterator[Permutation]:
    """All m! slot permutations in lexicographic order."""
    return map(Permutation, itertools.permutations(range(m)))


class ArensResult(NamedTuple):
    """The rho-extension of a tensor, with optional chain trace.

    ``tensor`` is the input tensor itself: on these reflexive spaces every
    extension equals it. ``trace`` is the chain's real content, and is only
    recorded on request. It maps each output coordinate k to the m + 1
    marginals of its slice on rho's chain, the forms left after each
    all-ones contraction: a dict from contracted-slot bitmask (see
    :func:`chain_masks`, which also gives their contraction order) to the
    marginal's entries, indexed over its remaining slots in ascending
    order. For mask != 0, ``arens --trace`` prints ``trace[k][mask]`` as
    the rows ``detail.marginals[str(k + 1)][str(mask)]``, 1-based; mask 0
    is slice k, printed only in the report's tensor.
    """

    permutation: Permutation
    tensor: MultiTensor
    trace: dict[int, dict[int, _Form]] | None = None


def arens_extension(
    tensor: MultiTensor, rho: Permutation, with_trace: bool = False
) -> ArensResult:
    """The rho-extension of ``tensor``, which is ``tensor`` itself.

    Every Q^d is reflexive, so no chain needs to run to build it; the
    tests decide that law against an independent per-node chain and
    :func:`arens_evaluate` on atom biduals. The trace is the slice's
    subset marginals on rho's chain (see :func:`trace_marginals`).
    """
    if rho.m != tensor.m:
        raise ShapeError(f"permutation arity {rho.m} against tensor arity {tensor.m}")
    trace = trace_marginals(tensor.slices(), [rho]) if with_trace else None
    return ArensResult(rho, tensor, trace)


def chain_masks(rho: Permutation) -> list[int]:
    """Contracted-slot bitmasks along rho's chain, one per trace form.

    Bit i stands for the 0-based slot i. The list starts at 0 (nothing
    contracted) and adds rho(1), then rho(2), ..., up to all m slots.
    """
    masks = [0]
    for slot in rho:
        masks.append(masks[-1] | 1 << slot)
    return masks


def _one(_: int) -> int:
    return 1


def _contract_slot(
    form: _Form, contracted: int, slot: int, coefficient: Callable[[int], object]
) -> _Form:
    """Contract the original ``slot`` of a form against ``coefficient``.

    The slots of the bitmask ``contracted`` are already gone from ``form``,
    which keeps its remaining slots in ascending order, so ``slot`` sits at
    its rank among them; the result keeps that order too.
    """
    position = slot - bin(contracted & ((1 << slot) - 1)).count("1")
    return _contract_entries(form, coefficient, position)


def trace_marginals(
    slices: Sequence[_Form], rhos: Sequence[Permutation]
) -> dict[int, dict[int, _Form]]:
    """Per output coordinate (a position in ``slices``), the marginals on the chains of ``rhos``.

    Each coordinate's marginals are keyed by contracted-slot bitmask (see
    :func:`chain_masks`), with their remaining slots in ascending order.
    After the slots of S are contracted the form no longer depends on their
    order, so one memo per coordinate serves every chain and each marginal
    is built once: a coordinate costs at most 2^m - 1 contractions however
    many permutations are asked for.
    """
    steps: dict[int, tuple[int, int]] = {}  # marginal -> (parent, slot contracted)
    for rho in rhos:
        for parent, slot in zip(chain_masks(rho), rho):
            steps[parent | 1 << slot] = (parent, slot)
    out = {}
    for k, slice_entries in enumerate(slices):
        memo = {0: slice_entries}
        # a parent's mask is below its child's
        for mask, (parent, slot) in sorted(steps.items()):
            memo[mask] = _contract_slot(memo[parent], parent, slot, _one)
        out[k] = memo
    return out


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
    masks = chain_masks(rho)
    out = []
    for form in tensor.slices():
        for contracted, slot in zip(masks, rho):
            form = _contract_slot(form, contracted, slot, biduals[slot].__getitem__)
        out.append(form.get((), _ZERO))
    return FinVector(out)


# -- the arens report -----------------------------------------------------------


def _perm_choices(text: str, m: int) -> list[Permutation]:
    if text == "all":
        return list(all_permutations(m))
    if text == "id":
        return [Permutation.identity(m)]
    if text == "theta":
        return [Permutation.theta(m)]
    try:
        return [Permutation.from_cycles(text, m)]
    except ValueError as exc:
        raise SpecFileError(str(exc)) from exc


def _marginal_rows(entries: _Form) -> list[list]:
    """A marginal's rows [i_1, ..., i_k, "p/q"], 1-based, over its remaining slots ascending."""
    return [[i + 1 for i in idx] + [format_rational(v)] for idx, v in sorted(entries.items())]


def _report_arens(tensor: MultiTensor, perm: str, trace: bool) -> dict:
    """The ``arens`` report: the extension and its DP verdict per permutation.

    ``perm`` is the ``--perm`` choice and ``trace`` the ``--trace`` flag.
    """
    perms = _perm_choices(perm, tensor.m)
    verdict = tensor.is_dp()
    # Every Q^d is reflexive: each extension is the input, so all of them
    # share its verdict and its one wire-form dict.
    tensor_obj = tensor_to_obj(tensor)
    extensions = []
    for rho in perms:
        entry = {"perm": list(rho.one_line()), "dp": verdict.is_dp, "tensor": tensor_obj}
        if trace:
            entry["trace"] = chain_masks(rho)
        extensions.append(entry)
    detail = {"extensions": extensions}
    if trace:
        # mask 0 is the coordinate's slice, printed in the tensor already
        detail["marginals"] = {
            str(k + 1): {str(mask): _marginal_rows(memo[mask]) for mask in memo if mask}
            for k, memo in trace_marginals(tensor.slices(), perms).items()
        }
    return build_report(
        [check("input-dp", verdict.is_dp)],
        witness=verdict.witness,
        cost={
            "permutations": len(perms),
            "entries": tensor.nnz(),
            "codomain": tensor.codomain_dim,
        },
        detail=detail,
    )
