"""Eventually constant sequences: a desk-scale model of c0, l1 and linf.

An :class:`EvConstSeq` is a rational sequence with finitely many
exceptional values and a constant tail, a coordinatewise lattice like
:class:`rieszkit.vectors.FinVector`. One type carries three roles:

* tail 0            -> an element of c0,
* tail 0, read as a functional -> a finitely supported element of l1 = c0*,
* any tail          -> an element of linf = c0**.

This is the smallest exactly representable sublattice of linf containing
the embedded copy of the c0 model and the constants; it already separates
embedded biduals from non-embedded ones (the all-ones sequence has no
preimage in c0). General bounded sequences are not representable, so every
bidual statement below is instantiated on this sublattice rather than
proved for all of linf.

The diagonal bilinear map (x, y) |-> (w_n x_n y_n) and weighted
composition operators x |-> (w_k x_{sigma(k)}) live here. Their bidual
extensions have closed forms; the functions below compute the closed form
and then re-derive it through the definitional pipeline (adjoint pairings,
or the sparse contraction :func:`rieszkit.operators._contract_entries`,
which the Arens chain of :mod:`rieszkit.arens` also runs) at
finitely many probe indices, so the identifications stay checked rather
than assumed. The comparison is a self-check (:func:`_check_probes`): a
disagreement is a fault of the library, not a property of any input, so
it raises instead of becoming a verdict.

The two hypotheses of the paper's theorem are decided exactly, not
sampled: disjointness preservation by the m = 1 law of
:meth:`rieszkit.operators.MultiTensor.is_dp` over an operator's finite
pattern (:func:`comp_rows`, :func:`reads_one_coordinate`), and the lattice
rank of the diagonal map in closed form (:func:`diag_lattice_rank`).

The command line front end's sequence-model code lives here too: the
parsers of the two sequence spec kinds (:func:`parse_diag`,
:func:`parse_comp`) and the seq-demo report (:func:`_report_seq_demo`, on
the weight file :func:`rieszkit.cli.build` read). So only seq-demo, a
replay of its report and reading a sequence spec load this module.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .fileformat import (
    SpecFileError,
    _check_keys,
    _is_int,
    _require_dict,
    index_key,
    parse_seq,
)
from .operators import ShapeError, _contract_entries
from .rational import as_fraction
from .report import build_report, check
from .vectors import CoordinatewiseLattice

_ZERO = Fraction(0)

# Disjoint range elements certifying an infinite lattice rank.
RANK_CERTIFICATE = 32
# The two slot orders of a bilinear map's bidual extensions.
_ORDERS = ((0, 1), (1, 0))


def _index(k) -> int:
    """A 1-based sequence index: a non-integral one is a TypeError, one below 1 a ValueError."""
    k = operator.index(k)
    if k < 1:
        raise ValueError(f"sequence indices are 1-based, got {k}")
    return k


class EvConstSeq(CoordinatewiseLattice):
    """Rational sequence, 1-indexed, constant after finitely many exceptions.

    Canonical form: no stored exception equals the tail, so structural
    equality is pointwise equality. All operations return canonical
    sequences. The tail is the coordinate of every index past the
    exceptions, so ``_values`` lists it with them.
    """

    __slots__ = ("_exc", "_tail")

    def __init__(self, exceptions: Mapping[int, object] | None = None, tail: object = 0) -> None:
        t = as_fraction(tail)
        clean: dict[int, Fraction] = {}
        for key, raw in (exceptions or {}).items():
            k, value = _index(key), as_fraction(raw)
            if value != t:
                clean[k] = value
        self._exc = clean
        self._tail = t

    @classmethod
    def constant(cls, value: object) -> "EvConstSeq":
        return cls({}, value)

    @classmethod
    def atom(cls, n: int) -> "EvConstSeq":
        """e_n; read against the pairing it is the coordinate functional e_n*."""
        return cls({n: 1}, 0)

    @property
    def tail(self) -> Fraction:
        return self._tail

    @property
    def exceptions(self) -> dict[int, Fraction]:
        return dict(self._exc)

    def max_exception_index(self) -> int:
        return max(self._exc, default=0)

    def value_at(self, k: int) -> Fraction:
        return self._exc.get(_index(k), self._tail)

    def support(self) -> list[int]:
        if self._tail != 0:
            raise ValueError("cofinite support; only tail-0 sequences have one")
        return sorted(self._exc)

    def _map(self, fn: Callable[[Fraction], Fraction]) -> "EvConstSeq":
        return EvConstSeq({k: fn(v) for k, v in self._exc.items()}, fn(self._tail))

    def _combine(self, other: "EvConstSeq", fn: Callable[[Fraction, Fraction], Fraction]) -> "EvConstSeq":
        keys = set(self._exc) | set(other._exc)
        exc = {k: fn(self.value_at(k), other.value_at(k)) for k in keys}
        return EvConstSeq(exc, fn(self._tail, other._tail))

    def _values(self) -> list[Fraction]:
        return [*self._exc.values(), self._tail]

    def pointwise_mul(self, other: "EvConstSeq") -> "EvConstSeq":
        """Coordinatewise product; tails multiply. The model is closed under it."""
        return self._combine(other, operator.mul)

    def __eq__(self, other) -> bool:
        # dict equality ignores insertion order
        return isinstance(other, EvConstSeq) and (self._exc, self._tail) == (other._exc, other._tail)

    def __hash__(self) -> int:
        return hash((frozenset(self._exc.items()), self._tail))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}: {v}" for k, v in sorted(self._exc.items()))
        return f"EvConstSeq({{{pairs}}}, tail={self._tail})"


def pair(u: EvConstSeq, f: EvConstSeq) -> Fraction:
    """The duality sum_n u_n f_n for a finitely supported functional f.

    Doubles as the canonical embedding: pair(x, f) = f(x) exhibits x as a
    bidual element acting on the dual.
    """
    if f.tail != 0:
        raise ValueError("functional has a nonzero tail; not summable here")
    return sum((u.value_at(k) * c for k, c in f.exceptions.items()), _ZERO)


class DiagBilinear(NamedTuple):
    """The diagonal bilinear map A(x, y) = (w_n x_n y_n) for a weight w.

    A one-field named tuple of the weight, so two maps are equal exactly
    when their weights are. Disjointness preserving for every w, positive
    iff w is, and its range contains w_n e_n for every n, so no
    finite-rank sublattice can hold the range once infinitely many weights
    are nonzero.
    """

    weight: EvConstSeq


def diag_apply(op: DiagBilinear, x: EvConstSeq, y: EvConstSeq) -> EvConstSeq:
    return op.weight.pointwise_mul(x).pointwise_mul(y)


def diag_arens_pair(
    op: DiagBilinear,
    order: tuple[int, int],
    u: EvConstSeq,
    v: EvConstSeq,
    y_prime: EvConstSeq,
) -> Fraction:
    """Definitional bidual extension value <extension(u, v), y_prime>.

    Builds the scalar form y_prime o A (finitely supported since y_prime
    is), then contracts it against the biduals in the slot ``order``,
    (0, 1) or (1, 0). The form is diagonal, so permuting its slots into
    that order leaves its entries as they are. Every intermediate form
    stays finite.
    """
    if order not in _ORDERS:
        raise ShapeError(f"need a slot order (0, 1) or (1, 0) of the bilinear map, got {order!r}")
    if y_prime.tail != 0:
        raise ValueError("y_prime must be finitely supported")
    entries: dict[tuple[int, ...], Fraction] = {}
    for n, c in y_prime.exceptions.items():
        value = c * op.weight.value_at(n)
        if value != 0:
            entries[(n, n)] = value
    args = (u, v)
    for slot in order:
        entries = _contract_entries(entries, args[slot].value_at)
    return entries.get((), _ZERO)


def diag_arens(op: DiagBilinear, u: EvConstSeq, v: EvConstSeq) -> EvConstSeq:
    """Bidual extension of the diagonal map at (u, v), as an EvConstSeq.

    The closed form is (w_n u_n v_n). Before returning it, the definitional
    pipeline is evaluated at the coordinate functionals of every exceptional
    index plus one tail index, for both slot orders; the two extensions
    agree here (the diagonal map is symmetric in its slots), and the probe
    comparison keeps the closed form tied to the definition.
    """
    _check_probes(diag_probe_pairs(op, u, v), "diag-extension-agrees")
    return diag_apply(op, u, v)


def _check_probes(pairs: Iterator[tuple[int, Fraction, Fraction]], name: str) -> int:
    """How many (k, got, expected) probes ran; a disagreement is a library fault and raises."""
    count = 0
    for count, (k, got, expected) in enumerate(pairs, 1):
        if got != expected:
            raise RuntimeError(f"probe suite {name} fails at index {k}: got {got}, expected {expected}")
    return count


def diag_probe_pairs(
    op: DiagBilinear, u: EvConstSeq, v: EvConstSeq
) -> Iterator[tuple[int, Fraction, Fraction]]:
    """(k, pipeline value, closed-form value) at each probe of diag_arens.

    The probes are every exceptional index of w, u and v plus one tail
    index, each read through e_k* in both slot orders; past the last
    exception every coordinate of both sides equals the tail one.
    """
    closed = diag_apply(op, u, v)
    probes = sorted(
        set(op.weight.exceptions) | set(u.exceptions) | set(v.exceptions)
    )
    probes.append(max(probes, default=0) + 1)
    for k in probes:
        functional = EvConstSeq.atom(k)
        expected = closed.value_at(k)
        for order in _ORDERS:
            yield k, diag_arens_pair(op, order, u, v, functional), expected


class WeightedCompOp(
    NamedTuple("WeightedCompOp", [("weight", EvConstSeq), ("table", dict), ("shift", int)])
):
    """x |-> (w_k x_{sigma(k)}) where sigma is a finite table plus a shift.

    sigma(k) = table[k] when k is listed, k + shift otherwise. Beyond the
    table sigma is an injective shift, so adjoint and biadjoint stay inside
    the eventually constant class. Always disjointness preserving: the
    supports {k : sigma(k) = i} of the atom images are pairwise disjoint.

    A named tuple of (weight, table, shift), validated on construction:
    ``table`` is the op's own dict of 1-based indices, built from the
    caller's mapping, and ``_replace`` validates through the constructor.
    """

    __slots__ = ()

    def __new__(cls, weight: EvConstSeq, table: Mapping[int, int] | None = None, shift: int = 0):
        shift = operator.index(shift)
        if shift < 0:
            raise ValueError(f"shift must be >= 0, got {shift}")
        table = {_index(k): _index(j) for k, j in (table or {}).items()}
        return super().__new__(cls, weight, table, shift)

    @classmethod
    def _make(cls, fields: Iterable) -> "WeightedCompOp":
        return cls(*fields)

    def sigma(self, k: int) -> int:
        k = _index(k)
        return self.table.get(k, k + self.shift)


def comp_apply(op: WeightedCompOp, x: EvConstSeq) -> EvConstSeq:
    """(Tx)_k = w_k x_{sigma(k)}; the tail is w_tail * x_tail."""
    candidates = set(op.weight.exceptions) | set(op.table)
    for e in x.exceptions:
        k = e - op.shift
        if k >= 1 and k not in op.table:
            candidates.add(k)
    exc = {k: op.weight.value_at(k) * x.value_at(op.sigma(k)) for k in candidates}
    return EvConstSeq(exc, op.weight.tail * x.tail)


def comp_adjoint(op: WeightedCompOp, f: EvConstSeq) -> EvConstSeq:
    """T'f = sum_k w_k f_k e*_{sigma(k)}: push each support point through sigma.

    Coordinatewise this is (T'f)_j = sum over the sigma-preimage of j of
    w_k f_k; the sum collapses to the support of f, which is finite.
    """
    if f.tail != 0:
        raise ValueError("adjoint input must be finitely supported")
    out: dict[int, Fraction] = {}
    for k, c in f.exceptions.items():
        j = op.sigma(k)
        out[j] = out.get(j, _ZERO) + op.weight.value_at(k) * c
    return EvConstSeq(out, 0)


def comp_biadjoint(op: WeightedCompOp, u: EvConstSeq) -> EvConstSeq:
    """(T''u)_k = w_k u_{sigma(k)}: the same formula as comp_apply, on any tail.

    The formula is re-derived through the adjoint pairing <T''u, f> =
    <u, T'f> at the coordinate functionals of every exceptional index of
    the result plus one tail index before the result is returned.
    """
    _check_probes(comp_probe_pairs(op, u), "biadjoint-extends-apply")
    return comp_apply(op, u)


def comp_probe_pairs(
    op: WeightedCompOp, u: EvConstSeq
) -> Iterator[tuple[int, Fraction, Fraction]]:
    """(j, <u, T'e_j*>, (T''u)_j by the formula) at each probe of comp_biadjoint."""
    result = comp_apply(op, u)
    probes = sorted(result.exceptions)
    high = max(
        [result.max_exception_index(), u.max_exception_index(),
         op.weight.max_exception_index()]
        + list(op.table)
        + [op.shift]
    )
    probes.append(high + 1)
    for j in probes:
        functional = EvConstSeq.atom(j)
        yield j, pair(u, comp_adjoint(op, functional)), pair(result, functional)


def comp_rows(op: WeightedCompOp) -> list[EvConstSeq]:
    """The rows of T'' over op's finite pattern, computed through the adjoint.

    Row k is the functional T'e_k*, since (T''u)_k = <u, T'e_k*>. Rows
    are taken at every weight exception and table key plus one index past
    them: from there on every row is w_tail e_{k+shift}*, alike up to the
    shift.
    """
    pattern = set(op.weight.exceptions) | set(op.table)
    pattern.add(max(pattern, default=0) + 1)
    return [comp_adjoint(op, EvConstSeq.atom(k)) for k in sorted(pattern)]


def reads_one_coordinate(rows: Iterable[EvConstSeq]) -> bool:
    """The m = 1 law of MultiTensor.is_dp, on finitely supported rows.

    A linear map preserves disjointness exactly when each output
    coordinate reads at most one input coordinate, that is when each row
    has at most one nonzero entry.
    """
    return all(len(row.support()) <= 1 for row in rows)


def diag_lattice_rank(op: DiagBilinear) -> tuple[int | None, list[int]]:
    """Lattice rank of the range of A, None when infinite, and its certificate.

    The range lies in the span of the atoms e_n with w_n != 0 and contains
    each A(e_n, e_n) = w_n e_n, so it generates the sublattice those atoms
    span. With tail 0 the rank is |supp w| and the certificate lists
    supp w, a basis of atoms. Otherwise the rank is infinite and the
    certificate lists the RANK_CERTIFICATE indices past the last
    exception, whose range elements w_tail e_n are pairwise disjoint and
    nonzero.
    """
    weight = op.weight
    if weight.tail == 0:
        support = weight.support()
        return len(support), support
    start = weight.max_exception_index() + 1
    return None, list(range(start, start + RANK_CERTIFICATE))


def random_seq(
    rng: random.Random,
    *,
    max_index: int = 8,
    tail_zero: bool = False,
) -> EvConstSeq:
    tail = _ZERO if tail_zero else rng.choice([_ZERO, Fraction(1), Fraction(-1, 2), Fraction(2)])
    exc = {
        k: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for k in range(1, max_index + 1)
        if rng.random() < 0.4
    }
    return EvConstSeq(exc, tail)


def random_weighted_comp(rng: random.Random) -> WeightedCompOp:
    weight = random_seq(rng, max_index=6)
    table = {
        k: rng.randint(1, 8)
        for k in range(1, 6)
        if rng.random() < 0.3
    }
    return WeightedCompOp(weight, table, shift=rng.randint(0, 3))


# The exact decisions behind seq-demo's three DP checks. Each accepts and
# ignores the sampling arguments (samples, seed) that perfbench/traced.py
# passes. rank_lower_bound, which seq-demo does not call, is there for the
# same caller. The sampled oracles the tests hold them to are in
# tests/helpers.py.


def biadjoint_dp_check(op: WeightedCompOp, *, samples: int = 0, seed: int = 0) -> bool:
    return reads_one_coordinate(comp_rows(op))


def dual_basis_dp(*, limit: int = 32, samples: int = 0, seed: int = 0) -> bool:
    return reads_one_coordinate(EvConstSeq.atom(n) for n in range(1, limit + 1))


def rank_lower_bound(op: DiagBilinear, n_atoms: int) -> int:
    rank, _ = diag_lattice_rank(op)
    if rank is not None and rank < n_atoms:
        raise ValueError(f"lattice rank is {rank}, below {n_atoms}")
    return n_atoms


def slotwise_dp_check(
    op: DiagBilinear, u_fixed: EvConstSeq, *, samples: int = 0, seed: int = 0
) -> bool:
    return reads_one_coordinate(comp_rows(WeightedCompOp(op.weight.pointwise_mul(u_fixed))))


# -- spec files and the seq-demo report ------------------------------------------

_DIAG_KEYS = {"format", "kind", "weight"}
_COMP_KEYS = {"format", "kind", "weight", "table", "shift"}


# Both parsers take a dict whose envelope (kind and format version)
# fileformat.parse_spec has read.


def parse_diag(obj: dict) -> DiagBilinear:
    _check_keys(obj, _DIAG_KEYS, {"kind", "weight"}, "diag-bilinear spec")
    return DiagBilinear(parse_seq(obj["weight"], "weight"))


def parse_comp(obj: dict) -> WeightedCompOp:
    _check_keys(obj, _COMP_KEYS, {"kind", "weight"}, "weighted-comp spec")
    table_obj = _require_dict(obj.get("table", {}), "weighted-comp table")
    table: dict[int, int] = {}
    for key, target in table_obj.items():
        index = index_key(key, "table index")
        if not _is_int(target) or target < 1:
            raise SpecFileError(f"table target {target!r} must be a 1-based integer")
        table[index] = target
    shift = obj.get("shift", 0)
    if not _is_int(shift) or shift < 0:
        raise SpecFileError(f"shift must be a nonnegative integer, got {shift!r}")
    return WeightedCompOp(parse_seq(obj["weight"], "weight"), table, shift)


def _report_seq_demo(operand: EvConstSeq | DiagBilinear | None, seed: int) -> dict:
    """The paper's theorem on the c0 model, for the diagonal map of a weight.

    The DP checks and the lattice rank are decided exactly over finite
    patterns. The two seeded probe suites compare the library's closed
    forms with its own definitional pipeline, so they are self-checks: a
    disagreement is a library fault, raised by :func:`_check_probes` (exit
    3, no report), and a report only ever holds passing suites.
    """
    if operand is None:
        operand = EvConstSeq.constant(1)
    weight = operand.weight if isinstance(operand, DiagBilinear) else operand
    rng = random.Random(seed)
    diag_probes = sum(
        _check_probes(
            diag_probe_pairs(DiagBilinear(random_seq(rng)), random_seq(rng), random_seq(rng)),
            "diag-extension-agrees",
        )
        for _ in range(50)
    )
    rng = random.Random(seed + 1)
    biadjoint_dp = all(biadjoint_dp_check(random_weighted_comp(rng)) for _ in range(5))
    rank, indices = diag_lattice_rank(DiagBilinear(weight))
    if rank is None:  # infinitely many disjoint range elements: the dual basis carries it
        rank_check = check("rank", True, disjoint=[indices[0], indices[-1]], hypothesis="dual-basis")
    else:
        rank_check = check("rank", True, basis=indices, hypothesis="finite-rank", rank=rank)
    rng = random.Random(seed + 2)
    comp_probes = sum(
        _check_probes(
            comp_probe_pairs(random_weighted_comp(rng), random_seq(rng, tail_zero=True)),
            "biadjoint-extends-apply",
        )
        for _ in range(20)
    )
    checks = [
        check("diag-extension-agrees", True, probes=diag_probes, samples=50),
        check("biadjoint-dp", biadjoint_dp, operators=5),
        check("dual-basis-dp", dual_basis_dp(limit=32), atoms=32),
        rank_check,
        # Slot 1 frozen at the constant 1 leaves v |-> (w_n v_n).
        check("slotwise-dp", slotwise_dp_check(DiagBilinear(weight), EvConstSeq.constant(1))),
        check("biadjoint-extends-apply", True, probes=comp_probes, samples=20),
    ]
    return build_report(checks)
