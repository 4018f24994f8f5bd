"""The permutation-indexed extension pipeline."""

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rieszkit import (
    FinVector,
    MultiTensor,
    Permutation,
    ShapeError,
    all_permutations,
    arens_evaluate,
    arens_extension,
)
from helpers import (
    add,
    arens_reference,
    compose_functional,
    disjoint_vector_pair,
    dot,
    leq,
    pairing_identities,
    random_dp_tensor,
    random_tensor,
    random_vector,
    read_chain,
    slot_asymmetric_tensor,
    span_disjointness,
)
from rieszkit.arens import _report_arens
from rieszkit.operators import _contract_entries
from rieszkit.report import report_json

F = Fraction


# -- permutations ------------------------------------------------------------------


def test_permutation_basics():
    rho = Permutation([1, 0, 2])
    images = rho.one_line()
    assert rho(0) == 1 and images.index(2) == 0  # the preimage of slot 2 is slot 1 (1-based)
    assert tuple(images[i - 1] for i in images) == (1, 2, 3)  # a transposition is its own inverse
    assert Permutation.identity(3).one_line() == (1, 2, 3)
    assert Permutation.theta(3).one_line() == (3, 2, 1)
    assert Permutation.theta(1).one_line() == (1,)
    assert len(list(all_permutations(3))) == 6
    assert list(all_permutations(2)) == [Permutation([0, 1]), Permutation([1, 0])]  # lexicographic
    # a Permutation is the tuple of its 0-based images
    assert Permutation([1, 0]) == (1, 0) and hash(Permutation([1, 0])) == hash((1, 0))
    assert all(rho[i] == rho(i) for i in range(3)) and rho.m == len(rho) == 3
    assert repr(rho) == "Permutation(2, 1, 3)"


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


# -- the contraction core ---------------------------------------------------------------


small_fractions = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def forms_and_pairings(draw):
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    keys = st.tuples(*(st.integers(0, d - 1) for d in dims))
    entries = draw(st.dictionaries(keys, small_fractions.filter(bool), max_size=12))
    position = draw(st.integers(0, len(dims) - 1))
    bidual = draw(st.lists(small_fractions, min_size=dims[position], max_size=dims[position]))
    return dims, entries, position, bidual


@settings(derandomize=True, max_examples=150, deadline=None)
@given(forms_and_pairings())
def test_contract_matches_dual_pairing(case):
    # contracting the slot at position against x pairs x with the dual
    # vector j |-> B(..., e_j, ...) that the form reads at each tail index
    dims, entries, position, bidual = case
    contracted = _contract_entries(entries, bidual.__getitem__, position)
    tails = list(itertools.product(*(range(d) for i, d in enumerate(dims) if i != position)))
    assert set(contracted) <= set(tails)
    assert all(v != 0 for v in contracted.values())
    for rest in tails:
        dual = FinVector([
            entries.get(rest[:position] + (j,) + rest[position:], F(0)) for j in range(dims[position])
        ])
        assert contracted.get(rest, F(0)) == dot(FinVector(bidual), dual)


def test_evaluate_shape_errors():
    t = MultiTensor((2, 3), 1, {(0, (0, 1)): F(1)})
    rho = Permutation([1, 0])
    with pytest.raises(ShapeError):
        arens_evaluate(t, rho, [FinVector([1, 2])])  # one bidual for two slots
    with pytest.raises(ShapeError):
        arens_evaluate(t, rho, [FinVector([1, 2]), FinVector([1, 2])])  # wrong dim in slot 2
    with pytest.raises(ShapeError):
        arens_evaluate(t, Permutation([0]), [FinVector([1, 0]), FinVector([1, 1, 1])])
    assert arens_evaluate(t, rho, [FinVector([1, 0]), FinVector([1, 1, 1])]) == FinVector([1])


def test_reference_uses_no_library_contraction(monkeypatch):
    # the oracle must reach its answer without the library's contraction core
    import rieszkit.arens
    import rieszkit.operators

    def refuse(*args):
        raise AssertionError("the reference called the library contraction")

    monkeypatch.setattr(rieszkit.operators, "_contract_entries", refuse)
    monkeypatch.setattr(rieszkit.arens, "_contract_entries", refuse)
    t = MultiTensor((2, 3, 2), 2, {(0, (0, 1, 1)): F(2), (0, (1, 2, 0)): F(-1, 3), (1, (1, 0, 0)): F(5)})
    for rho in all_permutations(3):
        expected, trace = arens_reference(t, rho)
        assert expected == t
        assert trace[0][-1] == ((), (), {(): F(5, 3)})
    composed = compose_functional(FinVector([2, -1]), t)
    assert composed == MultiTensor(
        (2, 3, 2), 1, {(0, (0, 1, 1)): F(4), (0, (1, 2, 0)): F(-2, 3), (0, (1, 0, 0)): F(-5)}
    )


# -- the extension pipeline ----------------------------------------------------------


def test_restriction_law_random():
    rng = random.Random(2)
    for _ in range(60):
        m = rng.choice([1, 2, 3, 4])
        dims = tuple(rng.choice([1, 2, 3]) for _ in range(m))
        t = random_tensor(rng, dims, rng.choice([1, 2]), density=0.5)
        for rho in all_permutations(m):
            assert arens_reference(t, rho)[0] == t


@st.composite
def small_tensors(draw):
    m = draw(st.integers(1, 4))
    dims = tuple(draw(st.integers(1, 3)) for _ in range(m))
    cod = draw(st.integers(1, 2))
    keys = st.tuples(
        st.integers(0, cod - 1), st.tuples(*(st.integers(0, d - 1) for d in dims))
    )
    return MultiTensor(dims, cod, draw(st.dictionaries(keys, small_fractions, max_size=12)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(small_tensors())
def test_extension_matches_per_node_reference(t):
    for rho in all_permutations(t.m):
        result = arens_extension(t, rho, with_trace=True)
        expected, expected_trace = arens_reference(t, rho)
        assert result.tensor is t and expected == t
        assert result.trace.keys() == expected_trace.keys()
        for k, marginals in result.trace.items():
            assert read_chain(t.domain_dims, rho, marginals) == expected_trace[k]


def _plain_json(report):
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_tensors(), st.sampled_from(["all", "theta", "id"]), st.booleans())
def test_report_json_equals_plain_dumps(t, perm, trace):
    # report_json encodes the extension tensor shared with the input once
    # and splices it in; the bytes must not change
    report = _report_arens(t, perm, trace)
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
            ext = arens_reference(t, rho)[0]
            assert ext == MultiTensor(t.domain_dims, t.codomain_dim, dict(result.tensor.items()))
            for marginals in result.trace.values():
                for mask, entries in marginals.items():
                    remaining = [dims[s] for s in range(m) if not mask >> s & 1]
                    for idx, value in entries.items():
                        assert len(idx) == m - bin(mask).count("1")
                        assert all(0 <= i < d for i, d in zip(idx, remaining))
                        assert isinstance(value, F) and value != 0


def test_restriction_law_asymmetric_dims():
    t = MultiTensor(
        (2, 3, 4), 2, {(0, (1, 2, 3)): F(5, 3), (1, (0, 0, 1)): F(-2)}
    )
    for rho in all_permutations(3):
        assert arens_reference(t, rho)[0] == t


def test_evaluate_on_embedded_args_is_apply():
    # at m = 4 a slot's in-place position is furthest from its step in rho's chain
    rng = random.Random(3)
    for _ in range(40):
        m = rng.choice([1, 2, 3, 4])
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
            chains = [read_chain(t.domain_dims, rho, result.trace[k]) for k in sorted(result.trace)]
            for marginals, chain in zip(result.trace.values(), chains):
                assert len(marginals) == len(chain) == m + 1
                assert chain[0][0] == tuple(t.domain_dims[rho(l)] for l in range(m))
                assert chain[-1][0] == ()
            traces[rho] = tuple(
                (dims, tuple(sorted(entries.items()))) for chain in chains for dims, _, entries in chain
            )
        values = list(traces.values())
        assert len(set(values)) == len(values), "permutations left identical traces"


def test_trace_scalar_is_all_ones_value():
    t = MultiTensor((2, 2), 1, {(0, (0, 1)): F(3)})
    rho = Permutation.identity(2)
    result = arens_extension(t, rho, with_trace=True)
    ones = [FinVector([1, 1]), FinVector([1, 1])]
    *_, (dims, labels, entries) = read_chain(t.domain_dims, rho, result.trace[0])
    assert dims == labels == ()
    assert entries[()] == t.apply(ones)[0]


def test_dp_preservation_all_permutations():
    rng = random.Random(5)
    for _ in range(50):
        m = rng.choice([1, 2, 3])
        dims = tuple(rng.choice([2, 3]) for _ in range(m))
        t = random_dp_tensor(rng, dims, rng.choice([1, 2]))
        assert t.is_dp().is_dp
        for rho in all_permutations(m):
            assert arens_reference(t, rho)[0].is_dp().is_dp


def test_extension_monotone():
    # A <= B pushes through to every extension
    rng = random.Random(6)
    for _ in range(40):
        m = rng.choice([1, 2, 3])
        dims = tuple(rng.choice([2, 3]) for _ in range(m))
        a = random_tensor(rng, dims, 2, density=0.5)
        gap = random_tensor(rng, dims, 2, density=0.5)
        b = add(a, gap.modulus())
        assert leq(a, b)
        for rho in all_permutations(m):
            ext_a = arens_reference(a, rho)[0]
            ext_b = arens_reference(b, rho)[0]
            assert leq(ext_a, ext_b)


# -- pairing laws --------------------------------------------------------------------


def test_pairing_identities_dp_tensors():
    rng = random.Random(7)
    for _ in range(15):
        m = rng.choice([1, 2])
        dims = tuple(rng.choice([2, 3]) for _ in range(m))
        t = random_dp_tensor(rng, dims, 2)
        for k in range(2):
            y_dual = FinVector.atom(2, k) * F(rng.randint(1, 3))
            assert pairing_identities(t, y_dual, samples=10, seed=rng.randint(0, 99))


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
    ones = FinVector([1, 1])
    y_star = FinVector([1, 1])
    for rho in all_permutations(2):
        u = arens_evaluate(t, rho, [e1, ones])
        v = arens_evaluate(t, rho, [e2, ones])
        assert dot(u, y_star) == 1 and dot(v, y_star) == 1  # the literal reading fails
        assert dot(abs(u).inf(abs(v)), abs(y_star)) == 0
    assert span_disjointness(t, 0, e1, e2, {1: ones}, y_star)

