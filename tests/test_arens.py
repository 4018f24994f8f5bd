"""The permutation-indexed extension pipeline."""

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rieszkit import (
    FinVector,
    IntermediateForm,
    MultiTensor,
    NotDisjointnessPreserving,
    Permutation,
    ShapeError,
    all_permutations,
    arens_evaluate,
    arens_extension,
    check_dp_preservation,
    contract,
    pairing_identities,
    permute_form,
    span_disjointness,
)
from helpers import arens_reference, slot_asymmetric_tensor
from rieszkit import cli
from rieszkit.report import report_json
from rieszkit.sampling import (
    disjoint_vector_pair,
    random_dp_tensor,
    random_tensor,
    random_vector,
)

F = Fraction


# -- permutations ------------------------------------------------------------------


def test_permutation_basics():
    rho = Permutation([1, 0, 2])
    assert rho(0) == 1 and rho.apply_inverse(1) == 0
    assert rho.inverse() == rho  # a transposition
    assert Permutation.identity(3).is_identity()
    assert Permutation.theta(3).one_line() == (3, 2, 1)
    assert Permutation.theta(1).is_identity()
    assert len(list(all_permutations(3))) == 6
    assert sorted(all_permutations(2)) == [Permutation([0, 1]), Permutation([1, 0])]


def test_from_cycles():
    assert Permutation.from_cycles("(1 2)", 3) == Permutation([1, 0, 2])
    assert Permutation.from_cycles("(1 2 3)", 3) == Permutation([1, 2, 0])
    assert Permutation.from_cycles("(2 3)(1)", 3) == Permutation([0, 2, 1])
    with pytest.raises(ValueError):
        Permutation.from_cycles("(1 2", 2)
    with pytest.raises(ValueError):
        Permutation.from_cycles("(1 4)", 3)
    with pytest.raises(ValueError):
        Permutation.from_cycles("(1 2)(2 3)", 3)
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])


# -- forms and contractions ------------------------------------------------------------


def worked_form():
    # C(x, y) = x_1 y_2 on Q^2 x Q^3
    return IntermediateForm((2, 3), (0, 1), {(0, 1): F(1)})


def test_permute_worked_example():
    swapped = permute_form(worked_form(), Permutation([1, 0]))
    assert swapped.dims == (3, 2)
    assert swapped.labels == (1, 0)
    assert swapped.entries == {(1, 0): F(1)}


def test_form_equality_ignores_labels():
    a = IntermediateForm((2, 2), (0, 1), {(0, 1): F(2)})
    b = IntermediateForm((2, 2), (1, 0), {(0, 1): F(2)})
    assert a == b
    assert a.content() == b.content()
    assert a != IntermediateForm((2, 2), (0, 1), {(1, 0): F(2)})


def slice_form(t, k):
    return IntermediateForm(t.domain_dims, range(t.m), t.slices()[k])


def test_contract_matches_dual_pairing():
    # contracting slot 1 against x pairs x with the dual vector
    # x_1 |-> B(x_1, rest) that the form reads at each tail index
    rng = random.Random(0)
    for _ in range(30):
        dims = (rng.choice([2, 3]), rng.choice([2, 3]), rng.choice([2, 3]))
        entries = {
            idx: random_vector(rng, 1)[0]
            for idx in {(rng.randrange(dims[0]), rng.randrange(dims[1]), rng.randrange(dims[2])) for _ in range(5)}
        }
        form = IntermediateForm(dims, (0, 1, 2), entries)
        x = random_vector(rng, dims[0])
        contracted = contract(x, form)
        for rest in itertools.product(range(dims[1]), range(dims[2])):
            dual = FinVector([form.entries.get((j,) + rest, F(0)) for j in range(dims[0])])
            assert contracted.entries.get(rest, F(0)) == x.dot(dual)


def test_contract_chain_matches_full_evaluation():
    # chaining all slots equals evaluating the multilinear form
    rng = random.Random(1)
    for _ in range(30):
        t = random_tensor(rng, (2, 3), 1, density=0.8)
        form = slice_form(t, 0)
        x, y = random_vector(rng, 2), random_vector(rng, 3)
        value = contract(y, contract(x, form)).scalar()
        assert value == t.apply([x, y])[0]


def test_contract_shape_errors():
    form = worked_form()
    with pytest.raises(ShapeError):
        contract(FinVector([1, 2, 3]), form)  # wrong first dim
    scalar = contract(FinVector([1, 1, 1]), contract(FinVector([1, 0]), form))
    with pytest.raises(ShapeError):
        contract(FinVector([1]), scalar)
    assert scalar.scalar() == 1


# -- the extension pipeline ----------------------------------------------------------


def test_restriction_law_random():
    rng = random.Random(2)
    for _ in range(60):
        m = rng.choice([1, 2, 3, 4])
        dims = tuple(rng.choice([1, 2, 3]) for _ in range(m))
        t = random_tensor(rng, dims, rng.choice([1, 2]), density=0.5)
        for rho in all_permutations(m):
            assert arens_extension(t, rho).tensor == t


@st.composite
def small_tensors(draw):
    m = draw(st.integers(1, 4))
    dims = tuple(draw(st.integers(1, 3)) for _ in range(m))
    cod = draw(st.integers(1, 2))
    keys = st.tuples(
        st.integers(0, cod - 1), st.tuples(*(st.integers(0, d - 1) for d in dims))
    )
    values = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    return MultiTensor(dims, cod, draw(st.dictionaries(keys, values, max_size=12)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(small_tensors())
def test_extension_matches_per_node_reference(t):
    for rho in all_permutations(t.m):
        result = arens_extension(t, rho, with_trace=True)
        expected, expected_trace = arens_reference(t, rho)
        assert result.tensor == expected
        assert result.trace.keys() == expected_trace.keys()
        for k, chain in result.trace.items():
            assert chain == expected_trace[k]
            assert [f.labels for f in chain] == [f.labels for f in expected_trace[k]]


def _plain_json(report):
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_tensors(), st.sampled_from(["all", "theta", "id"]), st.booleans())
def test_report_json_equals_plain_dumps(t, perm, trace):
    # report_json encodes the extension tensor shared with the input once
    # and splices it in; the bytes must not change
    _, report = cli._report_arens(t, "sha256:x", {"perm": perm, "trace": trace})
    assert report_json(report) == _plain_json(report)


def test_report_json_falls_back_when_the_stand_in_is_taken():
    shared = {"entries": [], "n": 1}
    extensions = [{"perm": [1], "tensor": shared}, {"perm": [2], "tensor": shared}]
    for taken in ("\x00shared tensor", "x\x00shared tensory"):
        for report in (
            {"detail": {"extensions": extensions, "args": {"perm": taken}}},
            {"detail": {"extensions": extensions + [{"tensor": {"s": taken}}]}},
            {"detail": {"extensions": [{"tensor": {"s": taken}}] + extensions}},
        ):
            assert report_json(report) == _plain_json(report)


def test_derived_objects_equal_validated_rebuilds():
    rng = random.Random(11)
    for _ in range(30):
        m = rng.choice([1, 2, 3, 4])
        dims = tuple(rng.choice([1, 2, 3]) for _ in range(m))
        t = random_tensor(rng, dims, rng.choice([1, 2]), density=0.6)
        for rho in all_permutations(m):
            result = arens_extension(t, rho, with_trace=True)
            ext = result.tensor
            assert ext == MultiTensor(ext.domain_dims, ext.codomain_dim, dict(ext.items()))
            permuted = permute_form(slice_form(t, 0), rho)
            forms = [f for chain in result.trace.values() for f in chain]
            forms += [permuted, contract(random_vector(rng, permuted.dims[0]), permuted)]
            for f in forms:
                rebuilt = IntermediateForm(f.dims, f.labels, f.entries)
                assert f == rebuilt and f.labels == rebuilt.labels


def test_restriction_law_asymmetric_dims():
    t = MultiTensor(
        (2, 3, 4), 2, {(0, (1, 2, 3)): F(5, 3), (1, (0, 0, 1)): F(-2)}
    )
    for rho in all_permutations(3):
        assert arens_extension(t, rho).tensor == t


def test_evaluate_on_embedded_args_is_apply():
    rng = random.Random(3)
    for _ in range(40):
        m = rng.choice([1, 2, 3])
        dims = tuple(rng.choice([2, 3]) for _ in range(m))
        t = random_tensor(rng, dims, rng.choice([1, 2]), density=0.6)
        args = [random_vector(rng, d) for d in dims]
        expected = t.apply(args)
        for rho in all_permutations(m):
            assert arens_evaluate(t, rho, args) == expected


def test_trace_shape_and_distinctness():
    rng = random.Random(4)
    for _ in range(25):
        m = rng.choice([2, 3])
        t = slot_asymmetric_tensor(rng, m, codomain_dim=2)
        traces = {}
        for rho in all_permutations(m):
            result = arens_extension(t, rho, with_trace=True)
            for k, chain in result.trace.items():
                assert len(chain) == m + 1
                assert chain[0].dims == tuple(t.domain_dims[rho(l)] for l in range(m))
                assert chain[-1].is_scalar()
            traces[rho] = tuple(
                form.content() for chain in result.trace.values() for form in chain
            )
        values = list(traces.values())
        assert len(set(values)) == len(values), "permutations left identical traces"


def test_trace_scalar_is_all_ones_value():
    t = MultiTensor((2, 2), 1, {(0, (0, 1)): F(3)})
    result = arens_extension(t, Permutation.identity(2), with_trace=True)
    ones = [FinVector.ones(2), FinVector.ones(2)]
    assert result.trace[0][-1].scalar() == t.apply(ones)[0]


def test_dp_preservation_all_permutations():
    rng = random.Random(5)
    for _ in range(50):
        m = rng.choice([1, 2, 3])
        dims = tuple(rng.choice([2, 3]) for _ in range(m))
        t = random_dp_tensor(rng, dims, rng.choice([1, 2]))
        report = check_dp_preservation(t)
        assert report.all_dp
        assert len(report.per_permutation) == len(list(all_permutations(m)))


def test_dp_preservation_rejects_non_dp_input():
    bad = MultiTensor((2, 2), 1, {(0, (0, 0)): F(1), (0, (1, 1)): F(1)})
    with pytest.raises(NotDisjointnessPreserving) as err:
        check_dp_preservation(bad)
    assert err.value.verdict.witness.verify(bad)


def test_extension_monotone():
    # A <= B pushes through to every extension
    rng = random.Random(6)
    for _ in range(40):
        m = rng.choice([1, 2, 3])
        dims = tuple(rng.choice([2, 3]) for _ in range(m))
        a = random_tensor(rng, dims, 2, density=0.5)
        gap = random_tensor(rng, dims, 2, density=0.5)
        b = a + gap.modulus()
        assert a.leq(b)
        for rho in all_permutations(m):
            ext_a = arens_extension(a, rho).tensor
            ext_b = arens_extension(b, rho).tensor
            assert ext_a.leq(ext_b)


# -- pairing laws --------------------------------------------------------------------


def test_pairing_identities_dp_tensors():
    rng = random.Random(7)
    for _ in range(15):
        m = rng.choice([1, 2])
        dims = tuple(rng.choice([2, 3]) for _ in range(m))
        t = random_dp_tensor(rng, dims, 2)
        for k in range(2):
            y_dual = FinVector.atom(2, k).scale(F(rng.randint(1, 3)))
            assert pairing_identities(t, y_dual, samples=10, seed=rng.randint(0, 99))


def test_pairing_identities_rejects_wide_functional():
    t = random_dp_tensor(random.Random(8), (2, 2), 2)
    with pytest.raises(ValueError):
        pairing_identities(t, FinVector([1, 1]))


def test_pairing_identities_rejects_non_dp_tensor():
    bad = MultiTensor((2, 2), 1, {(0, (0, 0)): F(1), (0, (1, 1)): F(1)})
    with pytest.raises(NotDisjointnessPreserving):
        pairing_identities(bad, FinVector([1]))


def test_span_disjointness_dp():
    rng = random.Random(9)
    for _ in range(40):
        m = rng.choice([2, 3])
        dims = tuple(rng.choice([2, 3]) for _ in range(m))
        t = random_dp_tensor(rng, dims, 2)
        slot = rng.randrange(m)
        w, z = disjoint_vector_pair(rng, dims[slot])
        fixed = {i: random_vector(rng, dims[i]) for i in range(m) if i != slot}
        y_star = random_vector(rng, 2)
        assert span_disjointness(t, slot, w, z, fixed, y_star)


def test_scalar_pairings_of_disjoint_images_need_not_be_disjoint():
    # A(x, y) = (x_1 y_1, x_2 y_2) is DP; against y* = (1, 1) the two
    # extension images of e_1, e_2 pair to the scalars 1 and 1, which are
    # not disjoint in Q. Only the modulus-first pairing vanishes.
    t = MultiTensor((2, 2), 2, {(0, (0, 0)): F(1), (1, (1, 1)): F(1)})
    assert t.is_dp().is_dp
    e1, e2 = FinVector.atom(2, 0), FinVector.atom(2, 1)
    ones = FinVector.ones(2)
    y_star = FinVector([1, 1])
    for rho in all_permutations(2):
        u = arens_evaluate(t, rho, [e1, ones])
        v = arens_evaluate(t, rho, [e2, ones])
        assert u.dot(y_star) == 1 and v.dot(y_star) == 1  # the literal reading fails
        assert abs(u).inf(abs(v)).dot(abs(y_star)) == 0
    assert span_disjointness(t, 0, e1, e2, {1: ones}, y_star)


def test_span_disjointness_requires_disjoint_inputs():
    t = random_dp_tensor(random.Random(10), (2, 2), 1)
    with pytest.raises(ValueError):
        span_disjointness(
            t, 0, FinVector([1, 0]), FinVector([1, 1]), {1: FinVector([1, 1])}, FinVector([1])
        )
