"""Lattice laws for coordinatewise rational vectors, and the indices the
library constructors accept."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import dot
from rieszkit import EvConstSeq, FinVector, MultiTensor, Permutation, WeightedCompOp
from rieszkit.report import vector_from_obj, vector_to_obj

rationals = st.fractions(max_denominator=8)


def vectors(dim):
    return st.lists(rationals, min_size=dim, max_size=dim).map(FinVector)


@settings(derandomize=True)
@given(vectors(3), vectors(3))
def test_sup_inf_commute(x, y):
    assert x.sup(y) == y.sup(x)
    assert x.inf(y) == y.inf(x)


@settings(derandomize=True)
@given(vectors(4), vectors(4), vectors(4))
def test_lattice_associativity(x, y, z):
    assert x.sup(y).sup(z) == x.sup(y.sup(z))
    assert x.inf(y).inf(z) == x.inf(y.inf(z))


@settings(derandomize=True)
@given(vectors(3), vectors(3))
def test_absorption(x, y):
    assert x.sup(x.inf(y)) == x
    assert x.inf(x.sup(y)) == x


@settings(derandomize=True)
@given(vectors(3), vectors(3), vectors(3))
def test_translation_invariance(x, y, z):
    assert (x + z).sup(y + z) == x.sup(y) + z
    assert (x + z).inf(y + z) == x.inf(y) + z


@settings(derandomize=True)
@given(vectors(3))
def test_parts_and_modulus(x):
    assert x.pos() - x.neg() == x
    assert x.pos() + x.neg() == abs(x)
    assert x.pos().inf(x.neg()).is_zero()
    assert abs(-x) == abs(x)


@settings(derandomize=True)
@given(vectors(3), rationals)
def test_positive_scaling(x, c):
    if c >= 0:
        assert abs(x * c) == abs(x) * c
    assert x * c == c * x


def test_distributivity_seeded():
    # x v (y ^ z) = (x v y) ^ (x v z), dual too, on 1000 random triples
    rng = random.Random(20240817)
    for _ in range(1000):
        dim = rng.randint(1, 4)
        x, y, z = (
            FinVector([Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(dim)])
            for _ in range(3)
        )
        assert x.sup(y.inf(z)) == x.sup(y).inf(x.sup(z))
        assert x.inf(y.sup(z)) == x.inf(y).sup(x.inf(z))


def test_atoms_and_basics():
    e0 = FinVector.atom(3, 0)
    e2 = FinVector.atom(3, 2)
    assert e0.is_disjoint(e2)
    assert not e0.is_disjoint(e0)
    assert e0.sup(e2) == FinVector(["1", "0", "1"])
    assert FinVector([0] * 4).is_zero()
    assert dot(e0, FinVector([5, 7, 9])) == 5


def test_disjoint_iff_disjoint_supports():
    x = FinVector(["1/2", "0", "-3", "0"])
    y = FinVector(["0", "2", "0", "0"])
    assert x.is_disjoint(y)
    assert set(x.support()) & set(y.support()) == set()
    z = FinVector(["0", "0", "1", "0"])
    assert not x.is_disjoint(z)


def test_order_and_comparison():
    x = FinVector([1, 2])
    y = FinVector([1, 3])
    assert x <= y and y >= x
    assert not y <= x
    assert 0 * x <= x  # x is positive
    z = FinVector([-1, 0])
    assert not 0 * z <= z


def test_dimension_mismatch_rejected():
    ops = [
        FinVector.sup,
        FinVector.inf,
        FinVector.__add__,
        FinVector.__sub__,
        operator.le,
        operator.ge,
        FinVector.is_disjoint,
    ]
    for op in ops:
        for x, y in [(FinVector([1]), FinVector([1, 2])), (FinVector([1, 2]), FinVector([1]))]:
            with pytest.raises(ValueError, match="dimension mismatch"):
                op(x, y)


@pytest.mark.parametrize(
    "build",
    [
        lambda: MultiTensor((2,), 1.9, {(0, (1,)): 1}),
        lambda: MultiTensor((2,), 1, {(0.7, (1,)): 1}),
        lambda: MultiTensor((2,), 1, {(0, (1.5,)): 1}),
        lambda: MultiTensor((2.0,), 1, {}),
        lambda: EvConstSeq({2.9: 1}),
        lambda: EvConstSeq({"2": 1}),
        lambda: WeightedCompOp(EvConstSeq.constant(1), {1.5: 2}),
        lambda: WeightedCompOp(EvConstSeq.constant(1), {1: 2.5}),
        lambda: WeightedCompOp(EvConstSeq.constant(1), shift=1.7),
        lambda: WeightedCompOp(EvConstSeq.constant(1))._replace(table={1.5: 2}),
        lambda: Permutation([1.0, 0.0]),
        lambda: Permutation(["1", "0"]),
        lambda: FinVector.atom(2, 0.5),
        lambda: EvConstSeq({2: 5}).value_at(2.0),
        lambda: EvConstSeq({2: 5}).value_at(1.5),
        lambda: WeightedCompOp(EvConstSeq.constant(1), {2: 3}, shift=1).sigma(1.5),
    ],
    ids=[
        "tensor-codomain",
        "tensor-output",
        "tensor-index",
        "tensor-dims",
        "seq-float-index",
        "seq-string-index",
        "comp-table-key",
        "comp-table-target",
        "comp-shift",
        "comp-replace-table",
        "perm-float",
        "perm-string",
        "atom-float",
        "seq-value-at-integral-float",
        "seq-value-at-float",
        "comp-sigma-float",
    ],
)
def test_constructors_reject_non_integral_indices(build):
    # int() used to truncate 1.9 to 1 and read "2" as 2; value_at(2.0) read
    # index 2, value_at(1.5) the tail, and sigma(1.5) returned 2.5
    with pytest.raises(TypeError):
        build()


def test_comp_op_rejects_negative_shift():
    # _replace builds through the validating constructor, like the call
    op = WeightedCompOp(EvConstSeq.constant(1))
    for build in (lambda: WeightedCompOp(op.weight, shift=-1), lambda: op._replace(shift=-1)):
        with pytest.raises(ValueError, match="shift must be >= 0, got -1"):
            build()


def test_string_round_trip():
    x = FinVector(["-1/2", "0", "7"])
    assert vector_from_obj(vector_to_obj(x)) == x
    assert vector_to_obj(x) == ["-1/2", "0", "7"]
    with pytest.raises(TypeError):
        FinVector([0.5])
