"""Sequence model: eventually constant sequences and their operators."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    biadjoint_dp_check,
    dual_basis_dp,
    is_finitely_supported,
    rank_lower_bound,
    sample_disjoint_pair,
    slotwise_dp_check,
)
from rieszkit import (
    DiagBilinear,
    EvConstSeq,
    MultiTensor,
    ShapeError,
    WeightedCompOp,
    comp_adjoint,
    comp_apply,
    comp_biadjoint,
    comp_rows,
    diag_apply,
    diag_arens,
    diag_arens_pair,
    diag_lattice_rank,
    pair,
    reads_one_coordinate,
    seqmodel,
)
from rieszkit.seqmodel import random_seq

F = Fraction

ONES = EvConstSeq.constant(1)


def seqs():
    return st.builds(
        EvConstSeq,
        st.dictionaries(st.integers(1, 9), st.fractions(max_denominator=6), max_size=4),
        st.fractions(max_denominator=6),
    )


# -- the sequence type ---------------------------------------------------------------


def test_canonical_form():
    s = EvConstSeq({1: 2, 3: 5, 4: 5}, 5)
    assert s.exceptions == {1: F(2)}  # entries equal to the tail dissolve
    assert s.value_at(3) == 5 and s.value_at(100) == 5
    assert EvConstSeq({2: 0}, 0) == EvConstSeq()
    # equality and hashing ignore the order the exceptions were given in
    forward, backward = EvConstSeq({1: 2, 3: 4}, 5), EvConstSeq({3: 4, 1: 2}, 5)
    assert list(forward.exceptions) != list(backward.exceptions)
    assert forward == backward and hash(forward) == hash(backward)
    assert forward != EvConstSeq({1: 2, 3: 4}, 6) and forward != EvConstSeq({1: 2}, 5)
    with pytest.raises(ValueError):
        EvConstSeq({0: 1}, 0)


def test_lattice_worked_examples():
    e1 = EvConstSeq.atom(1)
    tail_from_2 = EvConstSeq({1: 0}, 1)
    assert e1.is_disjoint(tail_from_2)
    assert abs(EvConstSeq.constant(-1)) == ONES
    assert ONES.inf(ONES) == ONES


def test_tail_decides():
    # each sequence below has no exception that decides it, so only the tail can
    minus_one = EvConstSeq.constant(-1)
    assert not 0 * minus_one <= minus_one  # not positive
    assert not EvConstSeq.constant(3).is_zero()
    assert not EvConstSeq({1: 1}, -1) <= EvConstSeq()
    assert EvConstSeq.constant(-2).neg() == EvConstSeq.constant(2)


def test_support_and_roles():
    f = EvConstSeq({2: 1, 5: -3}, 0)
    assert f.support() == [2, 5]
    assert is_finitely_supported(f)
    with pytest.raises(ValueError):
        EvConstSeq.constant(1).support()


@settings(derandomize=True)
@given(seqs(), seqs())
def test_lattice_laws(u, v):
    assert u.sup(v) == v.sup(u)
    assert u.inf(v) == v.inf(u)
    assert u.sup(u.inf(v)) == u
    assert u.pos() - u.neg() == u
    assert u.pos() + u.neg() == abs(u)
    assert (u + v) - v == u


@settings(derandomize=True)
@given(seqs(), seqs())
def test_order_consistency(u, v):
    assert u.inf(v) <= u and u <= u.sup(v)
    if u <= v and v <= u:
        assert u == v


def test_pointwise_values_drive_everything():
    rng = random.Random(0)
    for _ in range(100):
        u, v = random_seq(rng), random_seq(rng)
        probes = list(range(1, 12))
        s = u.sup(v)
        assert all(s.value_at(k) == max(u.value_at(k), v.value_at(k)) for k in probes)
        assert s.tail == max(u.tail, v.tail)
        p = u.pointwise_mul(v)
        assert all(p.value_at(k) == u.value_at(k) * v.value_at(k) for k in probes)


# -- pairing -------------------------------------------------------------------------


def test_pair_worked_examples():
    assert pair(ONES, EvConstSeq.atom(3)) == 1
    assert pair(EvConstSeq.atom(1), EvConstSeq.atom(2)) == 0
    u = EvConstSeq({1: 2}, 1)
    f = EvConstSeq.atom(1) * 3 + EvConstSeq.atom(5)
    assert pair(u, f) == 7


def test_pair_rejects_nonzero_tail():
    with pytest.raises(ValueError):
        pair(ONES, ONES)


def test_pair_is_bilinear():
    rng = random.Random(1)
    for _ in range(50):
        u, v = random_seq(rng), random_seq(rng)
        f = random_seq(rng, tail_zero=True)
        g = random_seq(rng, tail_zero=True)
        assert pair(u + v, f) == pair(u, f) + pair(v, f)
        assert pair(u, f + g) == pair(u, f) + pair(u, g)


# -- diagonal bilinear map -----------------------------------------------------------


def test_diag_apply_examples():
    op = DiagBilinear(ONES)
    e1 = EvConstSeq.atom(1)
    assert diag_apply(op, e1, e1) == e1
    assert diag_apply(op, ONES, ONES) == ONES
    u, v = EvConstSeq.atom(1), EvConstSeq({1: 0}, 1)
    assert diag_apply(op, u, v).is_zero()
    # a DiagBilinear is the named tuple of its weight
    w = EvConstSeq({2: 5}, 1)
    assert DiagBilinear(w).weight is w
    assert DiagBilinear(w) == DiagBilinear(EvConstSeq({2: 5}, 1)) and DiagBilinear(w) != op
    assert len({DiagBilinear(w), DiagBilinear(EvConstSeq({2: 5}, 1)), op}) == 2


def test_diag_arens_examples():
    op = DiagBilinear(ONES)
    assert diag_arens(op, ONES, ONES) == ONES
    w = DiagBilinear(EvConstSeq({1: 3}, 2))
    assert diag_arens(w, EvConstSeq.atom(1), ONES) == EvConstSeq({1: 3}, 0)
    u, v = EvConstSeq.atom(1), EvConstSeq({1: 0}, 1)
    assert diag_arens(op, u, v).is_zero()


def test_diag_arens_pipeline_agreement():
    # closed form vs the flip-and-contract definition, all y' supported in 1..64
    rng = random.Random(2)
    orders = [(0, 1), (1, 0)]
    for _ in range(10):
        op = DiagBilinear(random_seq(rng))
        u, v = random_seq(rng), random_seq(rng)
        closed = diag_arens(op, u, v)
        for n in range(1, 65):
            y = EvConstSeq.atom(n)
            expected = pair(closed, y)
            for rho in orders:
                assert diag_arens_pair(op, rho, u, v, y) == expected


def test_diag_arens_both_orders_agree_on_mixed_functionals():
    rng = random.Random(3)
    for _ in range(40):
        op = DiagBilinear(random_seq(rng))
        u, v = random_seq(rng), random_seq(rng)
        y = random_seq(rng, tail_zero=True)
        lhs = diag_arens_pair(op, (0, 1), u, v, y)
        rhs = diag_arens_pair(op, (1, 0), u, v, y)
        assert lhs == rhs == pair(diag_arens(op, u, v), y)
    with pytest.raises(ShapeError):
        diag_arens_pair(op, (0, 0), u, v, y)


# -- weighted composition ------------------------------------------------------------


def left_shift():
    return WeightedCompOp(ONES, {}, shift=1)


def test_comp_op_is_a_validated_named_tuple():
    weight = EvConstSeq({1: 5}, 1)
    table = {2: 7}
    T = WeightedCompOp(weight, table, shift=1)
    assert T == (weight, {2: 7}, 1)
    assert (T.weight, T.table, T.shift) == tuple(T)
    assert repr(T) == "WeightedCompOp(weight=EvConstSeq({1: 5}, tail=1), table={2: 7}, shift=1)"
    table[3] = 4  # the op holds its own dict, not the caller's
    assert T.table == {2: 7} and T.sigma(3) == 4
    assert T._replace(shift=2) == WeightedCompOp(weight, {2: 7}, shift=2)


def test_comp_apply_shift():
    T = left_shift()
    assert comp_apply(T, ONES) == ONES
    assert comp_apply(T, EvConstSeq.atom(3)) == EvConstSeq.atom(2)
    assert comp_apply(T, EvConstSeq.atom(1)).is_zero()  # nothing maps to index 1


def test_comp_adjoint_pushes_support_forward():
    # T'(e_j*) = w_j e*_{sigma(j)}: the support moves through sigma, not back
    T = WeightedCompOp(EvConstSeq({1: 5}, 1), {2: 7}, shift=1)
    assert comp_adjoint(T, EvConstSeq.atom(1)) == EvConstSeq.atom(2) * 5
    assert comp_adjoint(T, EvConstSeq.atom(2)) == EvConstSeq.atom(7)
    with pytest.raises(ValueError):
        comp_adjoint(T, ONES)


def test_comp_adjoint_coordinate_is_preimage_sum():
    rng = random.Random(4)
    for _ in range(40):
        T = WeightedCompOp(
            random_seq(rng, max_index=5),
            {k: rng.randint(1, 6) for k in range(1, 4) if rng.random() < 0.5},
            shift=rng.randint(0, 2),
        )
        f = random_seq(rng, tail_zero=True, max_index=6)
        adj = comp_adjoint(T, f)
        for j in range(1, 10):
            expected = sum(
                (
                    T.weight.value_at(k) * f.value_at(k)
                    for k in range(1, 10)
                    if T.sigma(k) == j
                ),
                F(0),
            )
            assert adj.value_at(j) == expected


def test_comp_biadjoint_formula_and_embedding():
    T = left_shift()
    assert comp_biadjoint(T, ONES) == ONES  # the all-ones bidual is shift invariant
    rng = random.Random(5)
    for _ in range(40):
        x = random_seq(rng, tail_zero=True)
        assert comp_biadjoint(T, x) == comp_apply(T, x)


def test_adjoint_pairing_identity():
    rng = random.Random(6)
    for _ in range(100):
        T = WeightedCompOp(
            random_seq(rng),
            {k: rng.randint(1, 8) for k in range(1, 5) if rng.random() < 0.4},
            shift=rng.randint(0, 3),
        )
        u = random_seq(rng)
        f = random_seq(rng, tail_zero=True)
        assert pair(comp_biadjoint(T, u), f) == pair(u, comp_adjoint(T, f))


def test_biadjoint_dp():
    T = left_shift()
    u, v = EvConstSeq.atom(1), EvConstSeq({1: 0}, 1)
    assert comp_biadjoint(T, u).is_disjoint(comp_biadjoint(T, v))
    assert comp_biadjoint(T, EvConstSeq()).is_zero()
    assert biadjoint_dp_check(T, samples=50, seed=0)
    rng = random.Random(7)
    for _ in range(10):
        T = WeightedCompOp(
            random_seq(rng),
            {k: rng.randint(1, 8) for k in range(1, 5) if rng.random() < 0.4},
            shift=rng.randint(0, 3),
        )
        assert biadjoint_dp_check(T, samples=30, seed=rng.randint(0, 999))


# -- instance suite: exact decisions against the sampled oracles --------------------


def comp_ops():
    return st.builds(
        WeightedCompOp,
        seqs(),
        st.dictionaries(st.integers(1, 6), st.integers(1, 9), max_size=3),
        st.integers(0, 3),
    )


@settings(derandomize=True, max_examples=60, deadline=None)
@given(comp_ops(), seqs(), seqs())
def test_structural_dp_matches_sampled_oracles(op, weight, u_fixed):
    assert reads_one_coordinate(comp_rows(op)) == biadjoint_dp_check(op, samples=20)
    frozen = WeightedCompOp(weight.pointwise_mul(u_fixed))
    assert reads_one_coordinate(comp_rows(frozen)) == slotwise_dp_check(
        DiagBilinear(weight), u_fixed, samples=10
    )


@settings(derandomize=True)
@given(
    st.lists(
        st.dictionaries(st.integers(1, 4), st.fractions(max_denominator=4), max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_row_law_is_the_m1_law_of_is_dp(rows):
    seq_rows = [EvConstSeq(row, 0) for row in rows]
    tensor = MultiTensor(
        (4,),
        len(seq_rows),
        {(k, (n - 1,)): v for k, row in enumerate(seq_rows) for n, v in row.exceptions.items()},
    )
    assert reads_one_coordinate(seq_rows) == tensor.is_dp().is_dp


def test_dual_basis_dp():
    assert reads_one_coordinate(EvConstSeq.atom(n) for n in range(1, 33))
    assert dual_basis_dp(limit=32, samples=50, seed=0)
    assert not reads_one_coordinate([EvConstSeq.atom(1) + EvConstSeq.atom(2)])


@settings(derandomize=True, deadline=None)
@given(seqs())
def test_lattice_rank_matches_truncations_and_oracle(weight):
    op = DiagBilinear(weight)
    rank, atoms = diag_lattice_rank(op)
    n = 12  # past every exception index
    truncated = MultiTensor(
        (n, n), n, {(k - 1, (k - 1, k - 1)): weight.value_at(k) for k in range(1, n + 1)}
    )
    truncated_rank = len(truncated.range_sublattice_basis())
    if rank is None:
        # each index past the exceptions adds an atom, so truncations grow without bound
        assert truncated_rank >= n - max(weight.exceptions, default=0)
        images = [diag_apply(op, EvConstSeq.atom(k), EvConstSeq.atom(k)) for k in atoms]
        assert len(images) == 32 and not any(a.is_zero() for a in images)
        assert all(a.is_disjoint(b) for i, a in enumerate(images) for b in images[i + 1 :])
    else:
        assert rank == truncated_rank and atoms == weight.support()
    for k in range(1, n + 1):
        try:
            certified = rank_lower_bound(op, k)
        except ValueError:  # the sampled oracle needs a nonzero weight on 1..k
            continue
        assert rank is None or rank >= certified


def test_lattice_rank_of_fixtures():
    assert diag_lattice_rank(DiagBilinear(EvConstSeq.atom(1))) == (1, [1])
    assert diag_lattice_rank(DiagBilinear(EvConstSeq())) == (0, [])
    rank, atoms = diag_lattice_rank(DiagBilinear(EvConstSeq({4: 3}, F(1, 2))))
    assert rank is None and atoms == list(range(5, 37))


def test_rank_lower_bound():
    op = DiagBilinear(ONES)
    assert rank_lower_bound(op, 32) == 32
    assert rank_lower_bound(op, 1) == 1
    assert op.weight == ONES  # the same operator the DP check sees
    sparse = DiagBilinear(EvConstSeq.atom(1))
    with pytest.raises(ValueError):
        rank_lower_bound(sparse, 2)


def test_slotwise_dp():
    op = DiagBilinear(ONES)
    fixed = ONES
    v, v_hat = EvConstSeq.atom(1), EvConstSeq({1: 0}, 1)
    assert diag_arens(op, fixed, v).is_disjoint(diag_arens(op, fixed, v_hat))
    assert diag_arens(op, EvConstSeq(), v).is_zero()
    assert slotwise_dp_check(op, fixed, samples=50, seed=0)
    rng = random.Random(8)
    for _ in range(5):
        assert slotwise_dp_check(
            DiagBilinear(random_seq(rng)), random_seq(rng), samples=20, seed=rng.randint(0, 99)
        )


def test_sampled_disjoint_pairs_are_disjoint():
    rng = random.Random(9)
    for _ in range(200):
        u, v = sample_disjoint_pair(rng)
        assert u.is_disjoint(v)


def test_benchmark_names_answer_exactly():
    # seqmodel keeps these names for the per-layer benchmark; each is the exact decision
    assert seqmodel.biadjoint_dp_check(left_shift(), samples=50, seed=1)
    assert seqmodel.dual_basis_dp(limit=32, samples=50, seed=1)
    assert seqmodel.rank_lower_bound(DiagBilinear(ONES), 32) == 32
    with pytest.raises(ValueError):
        seqmodel.rank_lower_bound(DiagBilinear(EvConstSeq.atom(1)), 2)
    assert seqmodel.slotwise_dp_check(DiagBilinear(ONES), ONES, samples=25, seed=1)


def test_every_op_returns_canonical_forms():
    rng = random.Random(10)
    for _ in range(100):
        u, v = random_seq(rng), random_seq(rng)
        for result in (u + v, u.sup(v), u.inf(v), abs(u), u.pointwise_mul(v)):
            assert all(val != result.tail for val in result.exceptions.values())
            # canonicalization is idempotent
            assert EvConstSeq(result.exceptions, result.tail) == result
