"""Independent oracles, enumerators and seeded generators used across the test suite.

The oracles here decide the same questions as the library through a
different route, so a bug would have to hit both sides identically to
slip past. dp_oracle searches actual disjoint argument pairs and checks
image disjointness by evaluation; rank_oracle counts rays of the
atom-image matrix; closure_basis_oracle closes the span of the atom
images under suprema until it stops growing; modulus_oracle recomputes
the least majorant pointwise; arens_reference runs the extension chain
one validated form per node, pairing each slot against its bidual tail
index by tail index, with no library contraction; read_chain reads a
chain of trace marginals the way the README decodes a traced report;
parse_tensor_reference parses a tensor spec with a check per entry, in
the file's 1-based terms, then builds it by from_rows and the validating
constructor. The sequence-model oracles (biadjoint_dp_check,
dual_basis_dp, rank_lower_bound, slotwise_dp_check) decide by sampling
disjoint pairs and testing their images, where the library decides the
same questions exactly from the operator's finite pattern.

The Arens law checks pairing_identities and span_disjointness evaluate
the bidual extensions of a DP operator at sampled or given arguments
through arens_evaluate, the definitional chain; pairing_identities also
composes the functional with arens_reference's extension by
compose_functional, a plain sum per index tuple. They take their inputs
as given (a DP tensor, a DP functional, disjoint w and z) and do not
check them. The generators random_rational, nonzero_rational,
random_vector, disjoint_vector_pair, random_tensor and random_dp_tensor
draw every property-test input from an explicit random.Random, so any
run replays from its seed.

The package ships what a CLI path or a benchmark op runs, plus
arens_evaluate, which neither runs but the README's library example
shows. The operations that only the tests use (the MultiTensor
vector-space and lattice operations, negation among them as scale by
-1, is_positive, atom_images, evaluate, dot, is_finitely_supported and
the spec writers canonical_json, seq_to_obj, dumps_spec, spec_to_obj,
diag_to_obj and comp_to_obj) are plain functions here, built through
the validating constructors.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

from rieszkit import (
    FinVector,
    MultiTensor,
    Permutation,
    ShapeError,
    all_permutations,
    arens_evaluate,
    as_fraction,
)
from rieszkit.fileformat import (
    FORMAT_VERSION,
    SpecFileError,
    _check_keys,
    _int_field,
    _rational_field,
    _require_dict,
    decode_utf8,
    loads_spec,
    read_bytes,
    tensor_to_obj,
)
from rieszkit.operators import MultimorphismFactorization
from rieszkit.rational import format_rational
from rieszkit.seqmodel import (
    DiagBilinear,
    EvConstSeq,
    WeightedCompOp,
    comp_biadjoint,
    diag_apply,
    diag_arens,
    random_seq,
)


# -- operations the package does not ship -------------------------------------------
#
# No CLI path and no benchmark op reaches these, so they live beside the tests
# that state the laws they express (A+ - A- = A, A <= |A|, ...).


def from_rows(domain_dims: tuple[int, ...], codomain_dim: int, rows) -> MultiTensor:
    """A tensor from (out, idx, value) rows; a row given twice is a ShapeError."""
    entries: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    for k, idx, value in rows:
        key = (k, tuple(idx))
        if key in entries:
            raise ShapeError(f"duplicate entry for out={k}, idx={tuple(idx)}")
        entries[key] = as_fraction(value)
    return MultiTensor(domain_dims, codomain_dim, entries)


def _require_shape(a: MultiTensor, b: MultiTensor) -> None:
    if a.domain_dims != b.domain_dims or a.codomain_dim != b.codomain_dim:
        raise ShapeError(
            f"shape mismatch: {a.domain_dims}->{a.codomain_dim} vs {b.domain_dims}->{b.codomain_dim}"
        )


def _map_entries(tensor: MultiTensor, fn) -> MultiTensor:
    return MultiTensor(
        tensor.domain_dims, tensor.codomain_dim, {key: fn(v) for key, v in tensor.items()}
    )


def positive_part(tensor: MultiTensor) -> MultiTensor:
    return _map_entries(tensor, lambda v: v if v > 0 else Fraction(0))


def negative_part(tensor: MultiTensor) -> MultiTensor:
    return _map_entries(tensor, lambda v: -v if v < 0 else Fraction(0))


def add(a: MultiTensor, b: MultiTensor) -> MultiTensor:
    _require_shape(a, b)
    merged = dict(a.items())
    for key, v in b.items():
        merged[key] = merged.get(key, Fraction(0)) + v
    return MultiTensor(a.domain_dims, a.codomain_dim, merged)


def sub(a: MultiTensor, b: MultiTensor) -> MultiTensor:
    return add(a, _map_entries(b, lambda v: -v))


def scale(tensor: MultiTensor, scalar) -> MultiTensor:
    s = as_fraction(scalar)
    if s == 0:
        return MultiTensor(tensor.domain_dims, tensor.codomain_dim, {})
    return _map_entries(tensor, lambda v: s * v)


def is_positive(tensor: MultiTensor) -> bool:
    """A >= 0 in the operator order, i.e. every entry is nonnegative."""
    return all(v >= 0 for _, v in tensor.items())


def leq(a: MultiTensor, b: MultiTensor) -> bool:
    """Entrywise operator order A <= B.

    Equivalent to (B - A)(x_1, ..., x_m) >= 0 for all positive inputs,
    since atom tuples recover the entries and generate the cone.
    """
    _require_shape(a, b)
    keys = {key for key, _ in a.items()} | {key for key, _ in b.items()}
    return all(a.entry(*key) <= b.entry(*key) for key in keys)


def is_riesz_multimorphism(tensor: MultiTensor) -> bool:
    """Positive and disjointness preserving.

    For positive operators this is equivalent to the modulus identity
    |A(x_1, ..., x_m)| = A(|x_1|, ..., |x_m|) holding everywhere.
    """
    return is_positive(tensor) and tensor.is_dp().is_dp


def atom_images(tensor: MultiTensor) -> list[FinVector]:
    """Images of all atom tuples with nonzero image (the tensor columns)."""
    columns: dict[tuple[int, ...], list[Fraction]] = {}
    for (k, idx), v in tensor.items():
        columns.setdefault(idx, [Fraction(0)] * tensor.codomain_dim)[k] = v
    return [FinVector(col) for idx, col in sorted(columns.items())]


def evaluate(factorization: MultimorphismFactorization, args) -> Fraction:
    """scale * x_1[c_1] * ... * x_m[c_m], or 0 for the zero operator."""
    if factorization.coords is None:
        return Fraction(0)
    value = factorization.scale
    for i, c in enumerate(factorization.coords):
        value *= args[i][c]
    return value


def dot(x: FinVector, f: FinVector) -> Fraction:
    """Evaluation pairing sum_i x_i * f_i."""
    if len(x) != len(f):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(f)}")
    return sum((a * b for a, b in zip(x, f)), Fraction(0))


def is_finitely_supported(seq: EvConstSeq) -> bool:
    return seq.tail == 0


def canonical_json(obj) -> str:
    """The canonical spec text: sorted keys, fixed indentation, a trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def seq_to_obj(seq: EvConstSeq) -> dict:
    return {
        "exceptions": {
            str(k): format_rational(v) for k, v in sorted(seq.exceptions.items())
        },
        "tail": format_rational(seq.tail),
    }


def diag_to_obj(op: DiagBilinear) -> dict:
    return {
        "format": FORMAT_VERSION,
        "kind": "diag-bilinear",
        "weight": seq_to_obj(op.weight),
    }


def comp_to_obj(op: WeightedCompOp) -> dict:
    return {
        "format": FORMAT_VERSION,
        "kind": "weighted-comp",
        "weight": seq_to_obj(op.weight),
        "table": {str(k): v for k, v in sorted(op.table.items())},
        "shift": op.shift,
    }


def spec_to_obj(spec) -> dict:
    if isinstance(spec, MultiTensor):
        return tensor_to_obj(spec)
    if isinstance(spec, DiagBilinear):
        return diag_to_obj(spec)
    if isinstance(spec, WeightedCompOp):
        return comp_to_obj(spec)
    raise TypeError(f"not a spec object: {type(spec).__name__}")


def load_spec_file(path: str):
    return loads_spec(decode_utf8(read_bytes(path)))


def dumps_spec(spec) -> str:
    """The canonical spec text of a tensor, diag-bilinear or weighted-comp object."""
    return canonical_json(spec_to_obj(spec))


def random_rational(rng: random.Random, *, span: int = 6, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def nonzero_rational(rng: random.Random, *, span: int = 6, max_den: int = 4) -> Fraction:
    while True:
        value = random_rational(rng, span=span, max_den=max_den)
        if value != 0:
            return value


def random_vector(rng: random.Random, dim: int) -> FinVector:
    return FinVector([random_rational(rng) for _ in range(dim)])


def disjoint_vector_pair(rng: random.Random, dim: int) -> tuple[FinVector, FinVector]:
    """Two vectors with disjoint supports; either side may end up zero."""
    owners = [rng.choice([0, 1, None]) for _ in range(dim)]
    x = [nonzero_rational(rng) if o == 0 else Fraction(0) for o in owners]
    y = [nonzero_rational(rng) if o == 1 else Fraction(0) for o in owners]
    return FinVector(x), FinVector(y)


def random_tensor(
    rng: random.Random,
    domain_dims: tuple[int, ...],
    codomain_dim: int,
    *,
    density: float = 0.5,
) -> MultiTensor:
    entries = {}
    for k in range(codomain_dim):
        for idx in itertools.product(*(range(d) for d in domain_dims)):
            if rng.random() < density:
                entries[(k, idx)] = random_rational(rng)
    return MultiTensor(domain_dims, codomain_dim, entries)


def random_dp_tensor(
    rng: random.Random,
    domain_dims: tuple[int, ...],
    codomain_dim: int,
) -> MultiTensor:
    """At most one nonzero tuple per output coordinate, hence always DP."""
    entries = {}
    cells = list(itertools.product(*(range(d) for d in domain_dims)))
    for k in range(codomain_dim):
        if rng.random() < 0.15:
            continue
        entries[(k, rng.choice(cells))] = nonzero_rational(rng)
    return MultiTensor(domain_dims, codomain_dim, entries)


def non_dp_16x4_spec(seed: int) -> dict:
    """3,000 entries on 16^4 -> 1 whose two smallest tuples differ in every slot."""
    rng = random.Random(seed)
    entries = {(1, 16, 16, 16): Fraction(rng.randint(1, 9), rng.randint(1, 4))}
    while len(entries) < 3000:
        idx = (rng.randint(2, 16), *(rng.randint(1, 16) for _ in range(3)))
        entries[idx] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
    return {
        "m": 4,
        "domain_dims": [16] * 4,
        "codomain_dim": 1,
        "entries": [
            {"out": 1, "idx": list(idx), "value": str(v)} for idx, v in entries.items()
        ],
    }


def disjoint_subset_pairs(dim: int):
    """Unordered pairs of disjoint nonempty subsets of range(dim)."""
    for tags in itertools.product((0, 1, 2), repeat=dim):
        left = [a for a, t in enumerate(tags) if t == 1]
        right = [a for a, t in enumerate(tags) if t == 2]
        if left and right and left[0] < right[0]:
            yield left, right


def dp_oracle(tensor: MultiTensor) -> bool:
    """Brute-force disjointness-preservation check by evaluation.

    For every slot j and every unordered pair of disjoint nonempty subsets
    (S, T) of that slot's coordinates, instantiate x supported on S and y
    on T with coefficients t^(a * stride_j), fill the other slots with the
    full-support vector (t^(r * stride_i))_r, and test whether the two
    images are disjoint. Each image coordinate is then a sum of entry
    values times pairwise-distinct powers of t (the exponent of a
    contributing entry is its mixed-radix linear index, which is
    injective), and t is chosen beyond the Cauchy root bound of any signed
    subset sum of the entries, so a coordinate vanishes exactly when no
    entry contributes. A non-disjoint image pair found this way is a
    genuine counterexample; if no pair fires, every output slice meets at
    most one coordinate of each slot, and arbitrary disjoint arguments
    only shrink image supports below these generic ones.
    """
    rows = [(k, idx, v) for (k, idx), v in tensor.items()]
    if not rows:
        return True
    m, dims = tensor.m, tensor.domain_dims
    scale = math.lcm(*(v.denominator for _, _, v in rows))
    values = [v.numerator * (scale // v.denominator) for _, _, v in rows]
    total = sum(abs(v) for v in values)
    smallest = min(abs(v) for v in values)
    t = 2 + (total + smallest - 1) // smallest
    strides = []
    acc = 1
    for d in dims:
        strides.append(acc)
        acc *= d
    powers = [[t ** (r * strides[i]) for r in range(dims[i])] for i in range(m)]
    for j in range(m):
        # weight of each entry with every slot already contracted generically
        bucket: dict[tuple[int, int], int] = {}
        for (k, idx, _), value in zip(rows, values):
            term = value
            for i in range(m):
                term *= powers[i][idx[i]]
            key = (k, idx[j])
            bucket[key] = bucket.get(key, 0) + term
        for left, right in disjoint_subset_pairs(dims[j]):
            for k in range(tensor.codomain_dim):
                image_x = sum(bucket.get((k, a), 0) for a in left)
                image_y = sum(bucket.get((k, a), 0) for a in right)
                if image_x != 0 and image_y != 0:
                    return False
    return True


def rank_oracle(tensor: MultiTensor) -> int:
    """Dimension of the sublattice generated by the range, counted by rays.

    Every vector of that sublattice arises by applying a positively
    homogeneous piecewise-linear function coordinatewise to the atom
    images, so output coordinates whose rows of the atom-image matrix lie
    on a common ray (positive multiples of each other) can never be
    separated, while rows on distinct rays are independent. The dimension
    is therefore the number of distinct rays among the nonzero rows.
    """
    columns = atom_images(tensor)
    rays = set()
    for i in range(tensor.codomain_dim):
        row = tuple(col[i] for col in columns)
        pivot = next((c for c in row if c != 0), None)
        if pivot is None:
            continue
        rays.add(tuple(c / abs(pivot) for c in row))
    return len(rays)


def _rref_basis(vectors):
    """Reduced echelon basis of the span of the given vectors."""
    basis: list[tuple[int, list[Fraction]]] = []
    for vec in vectors:
        row = list(vec)
        for pivot, b in basis:
            if row[pivot] != 0:
                f = row[pivot]
                row = [a - f * c for a, c in zip(row, b)]
        pivot = next((i for i, a in enumerate(row) if a != 0), None)
        if pivot is None:
            continue
        inv = row[pivot]
        row = [a / inv for a in row]
        for n, (p, b) in enumerate(basis):
            if b[pivot] != 0:
                f = b[pivot]
                basis[n] = (p, [a - f * c for a, c in zip(b, row)])
        basis.append((pivot, row))
    basis.sort(key=lambda item: item[0])
    return [FinVector(row) for _, row in basis]


def closure_basis_oracle(tensor: MultiTensor) -> list[FinVector]:
    """Echelon basis of the sublattice generated by the range, by closure.

    Starting from the span of the atom images, repeatedly adjoin w v 0,
    (-w) v 0 and pairwise suprema of the reduced basis and re-extract an
    echelon basis until the dimension stabilizes. With an echelon basis,
    stability under exactly these suprema forces the basis vectors to be
    nonnegative with pairwise disjoint supports, so the span is closed
    under all lattice operations. The dimension is bounded by the
    codomain, so this terminates.
    """
    basis = _rref_basis(atom_images(tensor))
    if not basis:
        return []
    zero = FinVector([0] * tensor.codomain_dim)
    while True:
        candidates = []
        for i, w in enumerate(basis):
            candidates.append(w.sup(zero))
            candidates.append((-w).sup(zero))
            for w2 in basis[i + 1 :]:
                candidates.append(w.sup(w2))
        enlarged = _rref_basis(basis + candidates)
        if len(enlarged) == len(basis):
            return basis
        basis = enlarged


def modulus_oracle(tensor: MultiTensor) -> MultiTensor:
    """Pointwise least positive majorant of A and -A, built independently."""
    rows = [(k, idx, max(v, -v)) for (k, idx), v in tensor.items()]
    return from_rows(tensor.domain_dims, tensor.codomain_dim, rows)


def sign_tensors(
    domain_dims: tuple[int, ...],
    codomain_dim: int,
    *,
    max_support: int | None = None,
    dedup_swap: tuple[int, int] | None = None,
):
    """All tensors with entries in {-1, 0, 1} on the given shape.

    With max_support set, only tensors with at most that many nonzero
    cells are produced (each nonzero cell independently +-1). dedup_swap
    names two slots of equal dimension; the enumeration then keeps only
    the lexicographically smaller of each tensor/swapped-tensor pair,
    a sound reduction because disjointness preservation is invariant
    under permuting slots.
    """
    cells = [
        (k, idx)
        for k in range(codomain_dim)
        for idx in itertools.product(*(range(d) for d in domain_dims))
    ]
    one = Fraction(1)
    if dedup_swap is not None:
        a, b = dedup_swap
        if domain_dims[a] != domain_dims[b]:
            raise ValueError("can only dedup across slots of equal dimension")

    def swap_key(rows):
        def swap(idx):
            out = list(idx)
            out[a], out[b] = out[b], out[a]
            return tuple(out)

        return sorted((k, swap(idx), v) for k, idx, v in rows)

    if max_support is None:
        for signs in itertools.product((-one, 0, one), repeat=len(cells)):
            rows = [
                (k, idx, s) for (k, idx), s in zip(cells, signs) if s != 0
            ]
            if dedup_swap is not None and swap_key(rows) < rows:
                continue
            yield from_rows(domain_dims, codomain_dim, rows)
    else:
        for size in range(max_support + 1):
            for chosen in itertools.combinations(cells, size):
                for signs in itertools.product((-one, one), repeat=size):
                    rows = [(k, idx, s) for (k, idx), s in zip(chosen, signs)]
                    if dedup_swap is not None and swap_key(rows) < rows:
                        continue
                    yield from_rows(domain_dims, codomain_dim, rows)


def count_sign_tensors(domain_dims, codomain_dim, max_support=None) -> int:
    cells = codomain_dim * math.prod(domain_dims)
    if max_support is None:
        return 3 ** cells
    return sum(math.comb(cells, s) * 2 ** s for s in range(max_support + 1))


Form = dict[tuple[int, ...], Fraction]


def _checked(dims: tuple[int, ...], entries: Form) -> Form:
    """A copy of a form's entries after checking them against its slot dims.

    Every index tuple must have one in-range index per slot, and every
    value must be a nonzero Fraction.
    """
    for idx, value in entries.items():
        assert isinstance(idx, tuple) and len(idx) == len(dims), (idx, dims)
        assert all(0 <= i < d for i, d in zip(idx, dims)), (idx, dims)
        assert isinstance(value, Fraction) and value != 0, (idx, value)
    return dict(entries)


def _slice(tensor: MultiTensor, k: int) -> Form:
    """Output coordinate k of a tensor as a form over its domain slots, checked."""
    return _checked(tensor.domain_dims, {idx: v for (out, idx), v in tensor.items() if out == k})


def _reordered(entries: Form, order) -> Form:
    """A form read with its slots in ``order``: slot l is the old slot order[l]."""
    return {tuple(idx[i] for i in order): v for idx, v in entries.items()}


def _pair_first_slot(dims: tuple[int, ...], entries: Form, bidual) -> Form:
    """Pair the first slot of a form with a bidual, one tail index at a time.

    The result at a tail index rest is sum_j bidual[j] * entries[(j,) + rest]:
    the bidual applied to the dual vector that the form reads there.
    """
    out = {}
    for rest in itertools.product(*(range(d) for d in dims[1:])):
        value = sum(
            (bidual[j] * entries.get((j,) + rest, 0) for j in range(dims[0])), Fraction(0)
        )
        if value != 0:
            out[rest] = value
    return _checked(dims[1:], out)


def arens_reference(tensor: MultiTensor, rho: Permutation):
    """The rho-extension and its all-ones chain, by the per-node chain.

    For each output coordinate, the slice form is permuted into rho order;
    then every node of the contraction tree pairs its first remaining slot
    with each atom, one validated form per child, until scalars remain.
    Zero children are pruned: every further contraction of a zero form is
    zero. Returns (tensor, trace): trace[k] is the chain on all-ones
    biduals, one (dims, labels, entries) per level with the remaining
    slots in rho order, as :func:`read_chain` reads it.
    """
    m = tensor.m
    order = tuple(rho(l) for l in range(m))
    dims = tuple(tensor.domain_dims[i] for i in order)
    entries = {}
    trace = {}
    for k in range(tensor.codomain_dim):
        permuted = _checked(dims, _reordered(_slice(tensor, k), order))
        chain = [permuted]
        for level in range(m):
            chain.append(_pair_first_slot(dims[level:], chain[-1], [1] * dims[level]))
        trace[k] = [(dims[l:], order[l:], chain[l]) for l in range(m + 1)]
        stack = [(permuted, ())]
        while stack:
            form, chosen = stack.pop()
            level = len(chosen)
            if level == m:
                idx = [0] * m
                for l, atom in enumerate(chosen):
                    idx[order[l]] = atom
                entries[(k, tuple(idx))] = form[()]
                continue
            d = dims[level]
            for j in range(d):
                atom = [int(i == j) for i in range(d)]
                child = _pair_first_slot(dims[level:], form, atom)
                if child:
                    stack.append((child, chosen + (j,)))
    return MultiTensor(tensor.domain_dims, tensor.codomain_dim, entries), trace


def read_chain(domain_dims: tuple[int, ...], rho: Permutation, marginals: dict[int, Form]):
    """Rho's chain read from one coordinate's trace marginals, in rho order.

    ``marginals`` maps a contracted-slot bitmask to a form over the
    remaining slots in ascending order, as ``ArensResult.trace[k]`` and a
    decoded ``detail.marginals`` coordinate hold them. Level l takes the
    marginal with slots rho(0), ..., rho(l - 1) contracted and reorders its
    indices to the slot order rho(l), ..., rho(m - 1). Returns one
    (dims, labels, entries) per level.
    """
    m = rho.m
    chain = []
    mask = 0
    for level in range(m + 1):
        labels = tuple(rho(l) for l in range(level, m))
        ascending = sorted(labels)
        where = [ascending.index(slot) for slot in labels]
        entries = _reordered(marginals[mask], where)
        chain.append((tuple(domain_dims[s] for s in labels), labels, entries))
        if level < m:
            mask |= 1 << rho(level)
    return chain


def slot_asymmetric_tensor(
    rng: random.Random,
    m: int,
    codomain_dim: int = 1,
) -> MultiTensor:
    """A random tensor whose m! permuted slice forms are pairwise distinct.

    Permutations that preserve both the dim profile and the entry pattern
    would make extension traces coincide, so resample until every pair of
    permutations is separated by some output coordinate. For m = 1 there is
    only one permutation and any nonzero tensor will do.
    """
    while True:
        dims = tuple(rng.choice([2, 3]) for _ in range(m))
        tensor = random_tensor(rng, dims, codomain_dim, density=0.6)
        if tensor.nnz() == 0:
            continue
        slices = [_slice(tensor, k) for k in range(codomain_dim)]
        signatures = set()
        for rho in all_permutations(m):
            order = tuple(rho(l) for l in range(m))
            signatures.add(tuple(
                (tuple(dims[i] for i in order), tuple(sorted(_reordered(entries, order).items())))
                for entries in slices
            ))
        if len(signatures) == math.factorial(m):
            return tensor


def parse_tensor_reference(obj) -> MultiTensor:
    """Tensor spec parsing by the validating route.

    Like parse_tensor, it reads a dict whose kind and format version
    parse_spec has checked. The validating constructor checks the shape
    first; then each entry is checked on its own, duplicates and ranges
    in the file's 1-based terms, and from_rows builds the tensor, whose
    constructor drops zero values. The messages are the ones the one-pass
    parser must keep.
    """
    _check_keys(obj, {"format", "kind", "m", "domain_dims", "codomain_dim", "entries"},
                {"m", "domain_dims", "codomain_dim", "entries"}, "tensor spec")
    m = _int_field(obj, "m", "tensor spec")
    dims = obj["domain_dims"]
    if not isinstance(dims, list) or len(dims) != m or not all(
        isinstance(d, int) and not isinstance(d, bool) for d in dims
    ):
        raise SpecFileError(f"domain_dims must be a list of {m} integers")
    codomain = _int_field(obj, "codomain_dim", "tensor spec")
    if not isinstance(obj["entries"], list):
        raise SpecFileError("entries must be a list")
    try:
        MultiTensor(tuple(dims), codomain, {})  # the shape, before any entry
    except ShapeError as exc:
        raise SpecFileError(str(exc)) from exc
    rows, seen = [], set()
    for pos, entry in enumerate(obj["entries"]):
        entry = _require_dict(entry, f"entries[{pos}]")
        _check_keys(entry, {"out", "idx", "value"}, {"out", "idx", "value"}, f"entries[{pos}]")
        out = _int_field(entry, "out", f"entries[{pos}]")
        idx = entry["idx"]
        if not isinstance(idx, list) or len(idx) != m or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in idx
        ):
            raise SpecFileError(f"entries[{pos}].idx must be a list of {m} integers")
        if out < 1 or any(i < 1 for i in idx):
            raise SpecFileError(f"entries[{pos}]: indices are 1-based")
        value = _rational_field(entry["value"], f"entries[{pos}].value")
        key = (out, tuple(idx))
        if key in seen:
            raise SpecFileError(f"entries[{pos}]: duplicate entry for out={out}, idx={key[1]}")
        seen.add(key)
        if out > codomain:
            raise SpecFileError(f"entries[{pos}]: output coordinate {out} out of range 1..{codomain}")
        if any(i > d for i, d in zip(idx, dims)):
            raise SpecFileError(
                f"entries[{pos}]: index tuple {tuple(idx)} out of range for dims {tuple(dims)}"
            )
        rows.append((out - 1, tuple(i - 1 for i in idx), value))
    return from_rows(tuple(dims), codomain, rows)


def compose_functional(y_dual: FinVector, tensor: MultiTensor) -> MultiTensor:
    """The scalar form y' o A as a one-coordinate tensor, summed plainly.

    Its entry at idx is sum_k y'[k] * A[k, idx], one index tuple at a
    time, with no library contraction.
    """
    entries = {}
    for idx in itertools.product(*(range(d) for d in tensor.domain_dims)):
        value = sum(
            (y_dual[k] * tensor.entry(k, idx) for k in range(tensor.codomain_dim)), Fraction(0)
        )
        if value != 0:
            entries[(0, idx)] = value
    return MultiTensor(tensor.domain_dims, 1, entries)


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
    agree, and y' o E must itself be a DP scalar form, with E taken from
    :func:`arens_reference` and composed by :func:`compose_functional`.
    ``tensor`` must be DP and ``y_dual`` a DP functional (at most one
    nonzero coordinate).
    """
    rng = random.Random(seed)
    abs_y = abs(y_dual)
    for rho in all_permutations(tensor.m):
        if not compose_functional(y_dual, arens_reference(tensor, rho)[0]).is_dp().is_dp:
            return False
        for _ in range(samples):
            biduals = [random_vector(rng, d) for d in tensor.domain_dims]
            value = arens_evaluate(tensor, rho, biduals)
            value_abs_args = arens_evaluate(tensor, rho, [abs(b) for b in biduals])
            lhs = dot(abs(value), abs_y)
            mid = abs(dot(value_abs_args, y_dual))
            rhs = abs(dot(value, y_dual))
            if not (lhs == mid == rhs):
                return False
    return True


def span_disjointness(
    tensor: MultiTensor,
    slot: int,
    w: FinVector,
    z: FinVector,
    fixed: dict[int, FinVector],
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
    args_w = [w if i == slot else fixed[i] for i in range(tensor.m)]
    args_z = [z if i == slot else fixed[i] for i in range(tensor.m)]
    abs_y = abs(y_star)
    for rho in all_permutations(tensor.m):
        u = arens_evaluate(tensor, rho, args_w)
        v = arens_evaluate(tensor, rho, args_z)
        if dot(abs(u).inf(abs(v)), abs_y) != 0:
            return False
    return True


def sample_disjoint_pair(rng: random.Random) -> tuple[EvConstSeq, EvConstSeq]:
    """A structured disjoint pair: tail-split, finite-finite, or a zero edge."""
    kind = rng.choice(["tail_split", "finite", "zero"])
    if kind == "zero":
        return EvConstSeq(), random_seq(rng)
    indices = list(range(1, 11))
    rng.shuffle(indices)
    cut = rng.randint(1, 6)
    left, right = indices[:cut], indices[cut : cut + rng.randint(1, 4)]
    u = EvConstSeq({k: _nonzero(rng) for k in left}, 0)
    if kind == "finite":
        v = EvConstSeq({k: _nonzero(rng) for k in right}, 0)
    else:
        # cofinite tail, forced to vanish on the support of u
        exc = {k: 0 for k in left}
        for k in right:
            exc[k] = _nonzero(rng)
        v = EvConstSeq(exc, _nonzero(rng))
    return u, v


def _nonzero(rng: random.Random) -> Fraction:
    value = random_rational(rng, span=4, max_den=3)
    return value if value != 0 else Fraction(1)


def biadjoint_dp_check(op: WeightedCompOp, *, samples: int = 50, seed: int = 0) -> bool:
    """Biadjoint images of sampled disjoint pairs stay disjoint."""
    rng = random.Random(seed)
    for _ in range(samples):
        u, v = sample_disjoint_pair(rng)
        if not comp_biadjoint(op, u).is_disjoint(comp_biadjoint(op, v)):
            return False
    return True


def dual_basis_dp(*, limit: int = 32, samples: int = 50, seed: int = 0) -> bool:
    """Each coordinate functional e_n* (n <= limit) preserves disjointness.

    For disjoint u, v the pair of values (u_n, v_n) must be disjoint in Q,
    that is, min(|u_n|, |v_n|) = 0.
    """
    rng = random.Random(seed)
    pairs = [sample_disjoint_pair(rng) for _ in range(samples)]
    pairs.append((EvConstSeq.atom(1), EvConstSeq.atom(2)))
    for u, v in pairs:
        for n in range(1, limit + 1):
            if min(abs(u.value_at(n)), abs(v.value_at(n))) != 0:
                return False
    return True


def rank_lower_bound(op: DiagBilinear, n_atoms: int) -> int:
    """Certify lattice rank >= n_atoms by exhibiting disjoint range elements.

    The elements A(e_n, e_n) = w_n e_n for n = 1..n_atoms are pairwise
    disjoint and nonzero provided the weight does not vanish there; any
    sublattice containing the range then contains n_atoms independent
    vectors. Raises when the weight vanishes on the requested range.
    """
    if n_atoms < 1:
        raise ValueError(f"need at least one atom, got {n_atoms}")
    images = []
    for n in range(1, n_atoms + 1):
        if op.weight.value_at(n) == 0:
            raise ValueError(f"weight vanishes at index {n}; no certificate there")
        images.append(diag_apply(op, EvConstSeq.atom(n), EvConstSeq.atom(n)))
    for i, a in enumerate(images):
        if a.is_zero():
            raise ValueError(f"range element at index {i + 1} vanished")
        for b in images[i + 1 :]:
            if not a.is_disjoint(b):
                return 0
    return n_atoms


def slotwise_dp_check(
    op: DiagBilinear, u_fixed: EvConstSeq, *, samples: int = 50, seed: int = 0
) -> bool:
    """With one slot frozen, the extension maps disjoint pairs to disjoint images."""
    rng = random.Random(seed)
    for _ in range(samples):
        v, v_hat = sample_disjoint_pair(rng)
        left = diag_arens(op, u_fixed, v)
        right = diag_arens(op, u_fixed, v_hat)
        if not left.is_disjoint(right):
            return False
    return True
