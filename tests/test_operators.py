"""Sparse multilinear operators: order, DP decision, rank, factorization."""

import itertools
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import rieszkit
from rieszkit import (
    FinVector,
    MultiTensor,
    NotDisjointnessPreserving,
    ShapeError,
    factorize_multimorphism,
)
from rieszkit.fileformat import parse_tensor

from helpers import (
    add,
    closure_basis_oracle,
    dp_oracle,
    evaluate,
    from_rows,
    is_positive,
    is_riesz_multimorphism,
    leq,
    modulus_oracle,
    negative_part,
    non_dp_16x4_spec,
    positive_part,
    random_dp_tensor,
    random_tensor,
    random_vector,
    rank_oracle,
    scale,
    sub,
)

F = Fraction


def tensor_2x2(a, b, c, d):
    """Scalar bilinear form on Q^2 x Q^2 with matrix [[a, b], [c, d]]."""
    rows = []
    for (i, j), v in zip(itertools.product(range(2), range(2)), (a, b, c, d)):
        if v != 0:
            rows.append((0, (i, j), F(v)))
    return from_rows((2, 2), 1, rows)


# -- construction and arithmetic -------------------------------------------------


def test_public_names_resolve():
    for name in rieszkit.__all__:
        assert hasattr(rieszkit, name), name
    # dir() lists exactly the exported names (submodules aside), loaded or not
    public = {
        name
        for name in dir(rieszkit)
        if not name.startswith("_") and not isinstance(getattr(rieszkit, name), types.ModuleType)
    }
    assert sorted(public | {"__version__"}) == sorted(rieszkit.__all__)
    from rieszkit import cli

    assert callable(cli.main)


def test_construction_validates():
    with pytest.raises(ShapeError):
        MultiTensor((2,) * 5, 1, {})  # arity cap
    with pytest.raises(ShapeError):
        MultiTensor((17,), 1, {})  # dim cap
    with pytest.raises(ShapeError):
        MultiTensor((2, 2), 1, {(0, (0, 2)): F(1)})
    with pytest.raises(ShapeError):
        MultiTensor((2, 2), 1, {(1, (0, 0)): F(1)})
    with pytest.raises(ValueError):
        from_rows((2,), 1, [(0, (0,), F(1)), (0, (0,), F(2))])


def test_zero_entries_dropped():
    t = MultiTensor((2, 2), 1, {(0, (0, 0)): F(0), (0, (1, 1)): F(3)})
    assert t.nnz() == 1
    assert t.entry(0, (0, 0)) == 0
    assert t.entry(0, (1, 1)) == 3


def test_apply_is_multilinear():
    t = tensor_2x2(1, 2, 3, 4)
    rng = random.Random(1)
    for _ in range(50):
        x, x2, y = (random_vector(rng, 2) for _ in range(3))
        c = F(rng.randint(-3, 3), rng.randint(1, 3))
        lhs = t.apply([x + x2 * c, y])
        rhs = t.apply([x, y]) + t.apply([x2, y]) * c
        assert lhs == rhs


def test_vector_space_ops():
    a = tensor_2x2(1, 0, 0, -2)
    b = tensor_2x2(0, 1, 0, 5)
    assert sub(add(a, b), b) == a
    assert add(scale(a, -1), a) == MultiTensor((2, 2), 1, {})
    assert scale(a, F(1, 2)).entry(0, (1, 1)) == -1


# -- order structure --------------------------------------------------------------


def test_modulus_against_oracle_random():
    rng = random.Random(2)
    for _ in range(200):
        dims = tuple(rng.choice([1, 2, 3]) for _ in range(rng.choice([1, 2, 3])))
        t = random_tensor(rng, dims, rng.choice([1, 2]), density=0.5)
        mod = t.modulus()
        assert mod == modulus_oracle(t)
        assert leq(t, mod) and leq(scale(t, -1), mod)
        assert is_positive(mod)
        assert sub(positive_part(t), negative_part(t)) == t
        assert add(positive_part(t), negative_part(t)) == mod


def test_leq_entrywise():
    a = tensor_2x2(1, 0, 0, 0)
    b = tensor_2x2(1, 1, 0, 0)
    assert leq(a, b)
    assert not leq(b, a)
    assert not is_positive(tensor_2x2(-1, 0, 0, 0))


def test_riesz_multimorphism_identities():
    # |A(|x|,|y|)| = |A|(|x|,|y|) and friends, for DP tensors
    rng = random.Random(3)
    for _ in range(100):
        dims = (rng.choice([2, 3]), rng.choice([2, 3]))
        t = random_dp_tensor(rng, dims, rng.choice([1, 2]))
        mod = t.modulus()
        for _ in range(20):
            args = [random_vector(rng, d) for d in dims]
            abs_args = [abs(a) for a in args]
            value = t.apply(args)
            assert abs(t.apply(abs_args)) == abs(value)
            assert abs(mod.apply(args)) == abs(value)
            assert mod.apply(abs_args) == abs(value)
        pos_args = [abs(random_vector(rng, d)) for d in dims]
        image = t.apply(pos_args)
        assert positive_part(t).apply(pos_args) == image.pos()
        assert negative_part(t).apply(pos_args) == image.neg()


def test_is_riesz_multimorphism():
    assert is_riesz_multimorphism(tensor_2x2(2, 0, 0, 0))
    assert not is_riesz_multimorphism(tensor_2x2(-2, 0, 0, 0))  # not positive
    assert not is_riesz_multimorphism(tensor_2x2(1, 0, 0, 1))  # not DP


# -- the DP decision --------------------------------------------------------------


def test_is_dp_agrees_with_oracle():
    rng = random.Random(4)
    for _ in range(300):
        m = rng.choice([1, 2, 3])
        dims = tuple(rng.choice([1, 2, 3]) for _ in range(m))
        t = random_tensor(rng, dims, rng.choice([1, 2, 3]), density=0.4)
        verdict = t.is_dp()
        assert verdict.is_dp == dp_oracle(t), dict(t.items())
        if verdict.is_dp:
            assert verdict.certificate is not None
            assert verdict.witness is None
        else:
            assert verdict.witness is not None
            assert verdict.witness.verify(t)


def test_dp_certificate_shape():
    t = MultiTensor((2, 3), 2, {(1, (0, 2)): F(5)})
    verdict = t.is_dp()
    assert verdict.is_dp
    assert verdict.certificate == (None, (0, 2))


def test_witness_on_diagonal_form():
    verdict = tensor_2x2(1, 0, 0, 1).is_dp()
    assert not verdict.is_dp
    w = verdict.witness
    assert w.x.is_disjoint(w.y)
    assert w.image_x[w.out_coord] != 0 and w.image_y[w.out_coord] != 0


def test_witness_survives_cancellation_trap():
    # three-entry support where single-ratio generic vectors cancel in slot 1
    t = MultiTensor(
        (2, 2, 3),
        1,
        {(0, (0, 0, 2)): F(1), (0, (0, 1, 1)): F(-1), (0, (1, 0, 0)): F(1)},
    )
    verdict = t.is_dp()
    assert not verdict.is_dp
    assert verdict.witness.verify(t)
    assert not dp_oracle(t)


def test_atom_fixing_does_not_imply_dp():
    # A(x, y) = (x_1 y_1 + x_2 y_2, 0): every atom fixing is DP, A itself is not
    t = MultiTensor((2, 2), 2, {(0, (0, 0)): F(1), (0, (1, 1)): F(1)})
    for slot in range(2):
        for a in range(2):
            entries = {
                (k, (idx[1 - slot],)): v for (k, idx), v in t.items() if idx[slot] == a
            }
            fixed = MultiTensor((2,), 2, entries)
            assert fixed.is_dp().is_dp
    assert not t.is_dp().is_dp
    assert not dp_oracle(t)


def test_dp_stable_under_atom_fixings():
    # fixing any slot of a DP operator at an atom leaves a DP operator
    rng = random.Random(5)
    for _ in range(40):
        dims = (rng.choice([2, 3]), rng.choice([2, 3]), rng.choice([2, 3]))
        t = random_dp_tensor(rng, dims, 2)
        for slot in range(3):
            for a in range(dims[slot]):
                rest_dims = tuple(d for i, d in enumerate(dims) if i != slot)
                entries = {}
                for (k, idx), v in t.items():
                    if idx[slot] == a:
                        entries[(k, tuple(x for i, x in enumerate(idx) if i != slot))] = v
                fixed = MultiTensor(rest_dims, 2, entries)
                assert fixed.is_dp().is_dp


def test_witness_reads_the_nearest_tuple():
    # s2 is the slice tuple nearest to the smallest, so every other slot is
    # fixed at a 0/1 vector and the images are the two entries themselves;
    # the other 196 entries of the slice, however large, do not reach them.
    entries = {(0, (0, 0)): F(1), (0, (1, 1)): F(1)}
    entries.update({(0, (i, j)): F(1000) for i in range(2, 16) for j in range(2, 16)})
    w = MultiTensor((16, 16), 1, entries).is_dp().witness
    assert w.fixed == ((1, FinVector([1, 1] + [0] * 14)),)
    assert (w.image_x, w.image_y) == (FinVector([1]), FinVector([1]))
    # the second-smallest tuple differs from the smallest in every slot, but
    # a nearer one differs in the first slot only, so the fixed vectors are atoms
    t = parse_tensor(non_dp_16x4_spec(16))
    w = t.is_dp().witness
    assert all(v == FinVector.atom(16, *v.support()) for _, v in w.fixed)
    assert w.image_y == FinVector([F(5, 4)]) and w.verify(t)


@st.composite
def non_dp_tensors(draw):
    """Sparse tensors up to the kernel's bounds with two tuples in one slice."""
    m = draw(st.integers(1, 4))
    dims = tuple(draw(st.integers(1, 16)) for _ in range(m))
    if all(d == 1 for d in dims):
        dims = (2,) + dims[1:]
    cod = draw(st.integers(1, 3))
    tuples = st.tuples(*(st.integers(0, d - 1) for d in dims))
    values = st.builds(
        F, st.integers(-1000, 1000).filter(bool), st.integers(1, 50)
    )
    entries = draw(
        st.dictionaries(st.tuples(st.integers(0, cod - 1), tuples), values, max_size=40)
    )
    k = draw(st.integers(0, cod - 1))
    for idx in draw(st.lists(tuples, min_size=2, max_size=2, unique=True)):
        entries[(k, idx)] = draw(values)
    return MultiTensor(dims, cod, entries)


def _bits(vectors) -> int:
    return max(
        max(abs(c.numerator).bit_length(), c.denominator.bit_length())
        for v in vectors
        for c in v
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(non_dp_tensors())
def test_witness_size_bounded_by_input(t):
    w = t.is_dp().witness
    assert w is not None and w.verify(t)
    for atom in (w.x, w.y):
        (pos,) = atom.support()
        assert atom[pos] == 1
    vectors = [w.x, w.y, *(v for _, v in w.fixed)]
    assert all(c in (0, 1) for v in vectors for c in v)
    assert all(len(v.support()) <= 2 for _, v in w.fixed)
    # x and y are atoms and the m-1 fixed vectors are 0/1 with at most two
    # nonzero coordinates, so each image coordinate sums at most
    # L = 2^(m-1) entries: its denominator divides the product of L
    # entry denominators, and its numerator is below L * 2^N * 2^(L*D),
    # with N and D the largest numerator and denominator bit lengths of the
    # entries. At out_coord the images are the slice's entries themselves.
    # Nothing here depends on the dimensions.
    row = t.slices()[w.out_coord]
    assert w.image_x[w.out_coord] in row.values()
    assert w.image_y[w.out_coord] in row.values()
    num = max(abs(v.numerator).bit_length() for _, v in t.items())
    den = max(v.denominator.bit_length() for _, v in t.items())
    bound = (t.m - 1) + num + 2 ** (t.m - 1) * den
    assert _bits([w.image_x, w.image_y]) <= bound


# -- rank ------------------------------------------------------------------------


def test_lattice_rank_against_oracle():
    rng = random.Random(6)
    for _ in range(150):
        m = rng.choice([1, 2])
        dims = tuple(rng.choice([1, 2, 3]) for _ in range(m))
        t = random_tensor(rng, dims, rng.choice([1, 2, 3]), density=0.5)
        assert t.lattice_rank() == rank_oracle(t), dict(t.items())


def test_rank_not_fooled_by_stable_span():
    # span{(1,2,1),(0,-1,-1)} absorbs sups with 0 and basis vectors but is no
    # sublattice; the true closure is all of Q^3
    t = MultiTensor(
        (2,),
        3,
        {
            (0, (0,)): F(1),
            (1, (0,)): F(2),
            (2, (0,)): F(1),
            (1, (1,)): F(-1),
            (2, (1,)): F(-1),
        },
    )
    assert t.lattice_rank() == 3
    assert rank_oracle(t) == 3


def test_rank_basics():
    assert MultiTensor((2, 2), 3, {}).lattice_rank() == 0
    assert tensor_2x2(1, 0, 0, 0).lattice_rank() == 1
    # two proportional-with-positive-factor output rows collapse
    t = MultiTensor((2,), 2, {(0, (0,)): F(1), (1, (0,)): F(2)})
    assert t.lattice_rank() == 1
    # opposite signs do not collapse
    t2 = MultiTensor((2,), 2, {(0, (0,)): F(1), (1, (0,)): F(-2)})
    assert t2.lattice_rank() == 2


def test_range_basis_is_disjoint_positive():
    rng = random.Random(7)
    for _ in range(60):
        t = random_tensor(rng, (rng.choice([2, 3]),), 3, density=0.6)
        basis = t.range_sublattice_basis()
        assert len(basis) == rank_oracle(t)
        for i, b in enumerate(basis):
            assert 0 * b <= b and not b.is_zero()
            for b2 in basis[i + 1 :]:
                assert b.is_disjoint(b2)
        # reduced echelon shape: each vector leads with a 1, in lead order
        leads = [b.support()[0] for b in basis]
        assert all(b[j] == 1 for b, j in zip(basis, leads))
        assert leads == sorted(leads)


@st.composite
def tensors_with_multiple_rows(draw):
    """Random tensors, some of whose output rows are +- multiples of others."""
    m = draw(st.integers(1, 3))
    dims = tuple(draw(st.integers(1, 3)) for _ in range(m))
    cod = draw(st.integers(1, 4))
    keys = st.tuples(
        st.integers(0, cod - 1), st.tuples(*(st.integers(0, d - 1) for d in dims))
    )
    values = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    entries = draw(st.dictionaries(keys, values, max_size=10))
    for k in range(cod):
        copy = draw(st.none() | st.tuples(st.integers(0, cod - 1), values))
        if copy is None or copy[0] == k:
            continue
        source, c = copy
        entries = {key: v for key, v in entries.items() if key[0] != k}
        entries.update(
            {(k, idx): c * v for (j, idx), v in entries.items() if j == source}
        )
    return MultiTensor(dims, cod, entries)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(tensors_with_multiple_rows())
def test_range_basis_matches_closure(t):
    basis = t.range_sublattice_basis()
    assert basis == closure_basis_oracle(t)
    assert len(basis) == rank_oracle(t)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(tensors_with_multiple_rows())
def test_modulus_equals_validated_rebuild(t):
    # the modulus skips the validating constructor (abs keeps a nonzero
    # Fraction nonzero); rebuilding its entries through it changes nothing
    dims, cod = t.domain_dims, t.codomain_dim
    assert t.modulus() == MultiTensor(dims, cod, {key: abs(v) for key, v in t.items()})
    assert t.modulus() == modulus_oracle(t)
    # the slices are the storage: every reader sees the same entries
    assert sorted(t.items()) == [
        ((k, idx), v) for k, row in enumerate(t.slices()) for idx, v in sorted(row.items())
    ]
    assert len(t.slices()) == t.codomain_dim
    assert t.nnz() == len(dict(t.items()))
    assert MultiTensor(dims, cod, dict(t.items())) == t


# -- sign expansion --------------------------------------------------------------


def test_sign_expansion_matches_apply():
    # x = x+ - x- in every slot: the 2^m signed terms see only positive vectors
    rng = random.Random(11)
    for _ in range(40):
        dims = tuple(rng.choice([2, 3]) for _ in range(rng.randint(1, 3)))
        t = random_tensor(rng, dims, 2, density=0.7)
        args = [random_vector(rng, d) for d in dims]
        total = FinVector([0] * 2)
        for signs in itertools.product((0, 1), repeat=len(dims)):
            term = t.apply([x.neg() if s else x.pos() for x, s in zip(args, signs)])
            total = total - term if sum(signs) % 2 else total + term
        assert total == t.apply(args)


# -- factorization -----------------------------------------------------------------


def test_factorize_single_entry():
    t = MultiTensor((2, 3), 1, {(0, (1, 2)): F(-7, 3)})
    fac = factorize_multimorphism(t)
    assert fac.scale == F(7, 3)
    assert fac.coords == (1, 2)
    rng = random.Random(12)
    for _ in range(20):
        args = [random_vector(rng, 2), random_vector(rng, 3)]
        assert evaluate(fac, args) == t.modulus().apply(args)[0]


def test_factorize_zero_and_errors():
    zero = MultiTensor((2, 2), 1, {})
    fac = factorize_multimorphism(zero)
    assert fac.coords is None and fac.scale == 0
    with pytest.raises(ShapeError):
        factorize_multimorphism(MultiTensor((2,), 2, {}))
    with pytest.raises(NotDisjointnessPreserving) as err:
        factorize_multimorphism(tensor_2x2(1, 0, 0, 1))
    assert err.value.verdict.witness.verify(tensor_2x2(1, 0, 0, 1))


def test_factorize_random_dp_forms():
    rng = random.Random(13)
    for _ in range(60):
        dims = tuple(rng.choice([2, 3]) for _ in range(rng.choice([1, 2, 3])))
        t = random_dp_tensor(rng, dims, 1)
        fac = factorize_multimorphism(t)
        for _ in range(10):
            args = [random_vector(rng, d) for d in dims]
            assert evaluate(fac, args) == t.modulus().apply(args)[0]
