"""Independent oracles and enumerators used across the test suite.

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
parse_tensor_reference parses a tensor spec with a check per entry, then
MultiTensor.from_rows and the validating constructor. The sequence-model oracles (biadjoint_dp_check,
dual_basis_dp, rank_lower_bound, slotwise_dp_check) decide by sampling
disjoint pairs and testing their images, where the library decides the
same questions exactly from the operator's finite pattern.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from rieszkit import FinVector, MultiTensor, Permutation, all_permutations
from rieszkit.fileformat import (
    SpecFileError,
    _check_keys,
    _check_version,
    _int_field,
    _rational_field,
    _require_dict,
)
from rieszkit.sampling import random_rational, random_tensor
from rieszkit.seqmodel import (
    DiagBilinear,
    EvConstSeq,
    WeightedCompOp,
    comp_biadjoint,
    diag_apply,
    diag_arens,
    random_seq,
)


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
    rows = tensor.rows()
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
    columns = tensor.atom_images()
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
        row = list(vec.coords())
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
    basis = _rref_basis(tensor.atom_images())
    if not basis:
        return []
    zero = FinVector.zero(tensor.codomain_dim)
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
    rows = [(k, idx, max(v, -v)) for k, idx, v in tensor.rows()]
    return MultiTensor.from_rows(tensor.domain_dims, tensor.codomain_dim, rows)


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
            yield MultiTensor.from_rows(domain_dims, codomain_dim, rows)
    else:
        for size in range(max_support + 1):
            for chosen in itertools.combinations(cells, size):
                for signs in itertools.product((-one, one), repeat=size):
                    rows = [(k, idx, s) for (k, idx), s in zip(chosen, signs)]
                    if dedup_swap is not None and swap_key(rows) < rows:
                        continue
                    yield MultiTensor.from_rows(domain_dims, codomain_dim, rows)


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

    Each entry is checked on its own, then MultiTensor.from_rows rejects
    duplicates and MultiTensor() checks the shape, the ranges and drops
    zero values; its messages are the ones the one-pass parser must keep.
    """
    obj = _require_dict(obj, "tensor spec")
    _check_keys(obj, {"format", "kind", "m", "domain_dims", "codomain_dim", "entries"},
                {"m", "domain_dims", "codomain_dim", "entries"}, "tensor spec")
    _check_version(obj)
    if obj.get("kind", "tensor") != "tensor":
        raise SpecFileError(f"kind {obj['kind']!r} does not describe a tensor")
    m = _int_field(obj, "m", "tensor spec")
    dims = obj["domain_dims"]
    if not isinstance(dims, list) or len(dims) != m or not all(
        isinstance(d, int) and not isinstance(d, bool) for d in dims
    ):
        raise SpecFileError(f"domain_dims must be a list of {m} integers")
    codomain = _int_field(obj, "codomain_dim", "tensor spec")
    if not isinstance(obj["entries"], list):
        raise SpecFileError("entries must be a list")
    rows = []
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
        rows.append((out - 1, tuple(i - 1 for i in idx), value))
    try:
        return MultiTensor.from_rows(tuple(dims), codomain, rows)
    except ValueError as exc:
        raise SpecFileError(str(exc)) from exc


def sample_disjoint_pair(rng: random.Random) -> tuple[EvConstSeq, EvConstSeq]:
    """A structured disjoint pair: tail-split, finite-finite, or a zero edge."""
    kind = rng.choice(["tail_split", "finite", "zero"])
    if kind == "zero":
        return EvConstSeq.zero(), random_seq(rng)
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
