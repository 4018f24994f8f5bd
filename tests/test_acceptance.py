"""Whole-artifact acceptance sweep.

Each criterion is one test that prints a single PASS or FAIL line on the
real stdout (bypassing capture) so a log scan shows the verdict per
criterion. All comparisons are exact rational equality; the timed
criteria assert their own wall-clock budget.
"""

import contextlib
import json
import math
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from helpers import (
    add,
    arens_reference,
    biadjoint_dp_check,
    count_sign_tensors,
    disjoint_vector_pair,
    dp_oracle,
    dual_basis_dp,
    dumps_spec,
    evaluate,
    leq,
    modulus_oracle,
    negative_part,
    pairing_identities,
    positive_part,
    random_dp_tensor,
    random_tensor,
    random_vector,
    rank_lower_bound,
    read_chain,
    sample_disjoint_pair,
    sign_tensors,
    slot_asymmetric_tensor,
    slotwise_dp_check,
    span_disjointness,
)
from rieszkit import (
    DiagBilinear,
    EvConstSeq,
    FinVector,
    WeightedCompOp,
    all_permutations,
    arens_extension,
    comp_rows,
    diag_apply,
    diag_arens,
    diag_arens_pair,
    factorize_multimorphism,
    pair,
    reads_one_coordinate,
)
from rieszkit.fileformat import loads_spec
from rieszkit.seqmodel import _report_seq_demo, random_seq, random_weighted_comp

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# The enumeration budget allows 200,000 tensors; slot symmetry and support
# caps keep the actual sweep under a quarter of that while still covering
# every shape with m <= 3 and dims <= 3. Shapes whose cell count is at most
# 8 are enumerated in full (one representative per slot-sorted dim profile,
# sound because slot permutation preserves the DP property). The 9-cell
# shapes are halved by a swap of equal slots, the larger ones capped by
# support size, and three vector-valued families cover codomain dim 2.
FULL_SHAPES = [
    (1,), (2,), (3,),
    (1, 1), (1, 2), (1, 3), (2, 2), (2, 3),
    (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3), (2, 2, 2),
]
CAPPED_FAMILIES = [
    ((3, 3), 1, None, (0, 1)),
    ((1, 3, 3), 1, None, (1, 2)),
    ((2, 2, 3), 1, 3, None),
    ((2, 3, 3), 1, 3, None),
    ((3, 3, 3), 1, 2, None),
    ((2,), 2, None, None),
    ((3,), 2, None, None),
    ((2, 2), 2, None, None),
]


def _expected_count() -> int:
    total = sum(count_sign_tensors(dims, 1) for dims in FULL_SHAPES)
    for dims, cod, cap, swap in CAPPED_FAMILIES:
        if swap is not None:
            cells = math.prod(dims)
            sym = 3 ** ((cells + dims[swap[0]]) // 2)
            total += (3 ** cells + sym) // 2
        else:
            total += count_sign_tensors(dims, cod, max_support=cap)
    return total


@pytest.fixture(scope="module")
def exhaustive_tensors():
    tensors = []
    for dims in FULL_SHAPES:
        tensors.extend(sign_tensors(dims, 1))
    for dims, cod, cap, swap in CAPPED_FAMILIES:
        tensors.extend(sign_tensors(dims, cod, max_support=cap, dedup_swap=swap))
    assert len(tensors) == _expected_count() < 200_000
    return tensors


@contextlib.contextmanager
def reported(capsys, number: int, label: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None:
            assert elapsed < budget, f"{label}: {elapsed:.1f}s over the {budget:.0f}s budget"
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} ({label}): FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number} ({label}): PASS [{elapsed:.1f}s]", flush=True)


def test_acceptance_1_dp_decision(capsys, exhaustive_tensors):
    with reported(capsys, 1, "is_dp vs brute-force oracle", budget=60.0):
        negatives = 0
        for t in exhaustive_tensors:
            verdict = t.is_dp()
            assert verdict.is_dp == dp_oracle(t)
            if not verdict.is_dp:
                negatives += 1
                assert verdict.witness is not None and verdict.witness.verify(t)
        assert negatives > 0
        rng = random.Random(11)
        for _ in range(500):
            m = rng.randint(1, 3)
            dims = tuple(rng.randint(1, 4) for _ in range(m))
            t = random_tensor(rng, dims, rng.randint(1, 3), density=rng.choice((0.2, 0.5, 0.8)))
            verdict = t.is_dp()
            assert verdict.is_dp == dp_oracle(t)
            if not verdict.is_dp:
                assert verdict.witness.verify(t)


def test_acceptance_2_modulus_minimality(capsys, exhaustive_tensors):
    with reported(capsys, 2, "modulus is the least majorant", budget=30.0):
        for t in exhaustive_tensors:
            mod = t.modulus()
            assert mod == modulus_oracle(t)
            assert mod.is_positive() and leq(t, mod) and leq(-t, mod)
        rng = random.Random(22)
        for _ in range(200):
            m = rng.randint(1, 3)
            dims = tuple(rng.randint(1, 4) for _ in range(m))
            a = random_dp_tensor(rng, dims, rng.randint(1, 3))
            mod, pos, neg = a.modulus(), positive_part(a), negative_part(a)
            for _ in range(100):
                args = [random_vector(rng, d) for d in dims]
                abs_args = [abs(x) for x in args]
                value = a.apply(args)
                assert (
                    abs(a.apply(abs_args))
                    == abs(mod.apply(args))
                    == abs(value)
                    == mod.apply(abs_args)
                )
                on_cone = a.apply(abs_args)
                assert pos.apply(abs_args) == on_cone.pos()
                assert neg.apply(abs_args) == on_cone.neg()


def test_acceptance_3_restriction_law(capsys):
    with reported(capsys, 3, "extensions restrict to the original", budget=60.0):
        rng = random.Random(33)
        for _ in range(200):
            m = rng.randint(1, 4)
            dims = tuple(rng.randint(1, 3) for _ in range(m))
            t = random_tensor(rng, dims, rng.randint(1, 2), density=0.6)
            for rho in all_permutations(m):
                assert arens_reference(t, rho)[0] == t
        for m, instances in ((2, 10), (3, 10), (4, 3)):
            for _ in range(instances):
                t = slot_asymmetric_tensor(rng, m)
                traces = set()
                for rho in all_permutations(m):
                    result = arens_extension(t, rho, with_trace=True)
                    key = tuple(
                        (dims, tuple(sorted(entries.items())))
                        for k in sorted(result.trace)
                        for dims, _, entries in read_chain(t.domain_dims, rho, result.trace[k])
                    )
                    assert key not in traces
                    traces.add(key)
                assert len(traces) == math.factorial(m)


def test_acceptance_4_extensions_stay_dp(capsys, exhaustive_tensors):
    with reported(capsys, 4, "every extension of a DP operator is DP", budget=60.0):
        checked = 0
        for t in exhaustive_tensors:
            if t.is_dp().is_dp:
                assert all(arens_reference(t, rho)[0].is_dp().is_dp for rho in all_permutations(t.m))
                checked += 1
        assert checked > 300
        rng = random.Random(44)
        for _ in range(200):
            m = rng.randint(1, 3)
            dims = tuple(rng.randint(1, 4) for _ in range(m))
            t = random_dp_tensor(rng, dims, rng.randint(1, 3))
            assert all(arens_reference(t, rho)[0].is_dp().is_dp for rho in all_permutations(m))


def test_acceptance_5_extension_monotone(capsys):
    with reported(capsys, 5, "A <= B carries to all extensions"):
        rng = random.Random(55)
        for _ in range(100):
            m = rng.randint(1, 3)
            dims = tuple(rng.randint(1, 3) for _ in range(m))
            cod = rng.randint(1, 2)
            a = random_tensor(rng, dims, cod)
            b = add(a, random_tensor(rng, dims, cod).modulus())
            assert leq(a, b)
            for rho in all_permutations(m):
                assert leq(arens_reference(a, rho)[0], arens_reference(b, rho)[0])


def test_acceptance_6_pairing_identities(capsys):
    with reported(capsys, 6, "modulus pairing laws and span disjointness"):
        rng = random.Random(66)
        for n in range(50):
            m = rng.randint(1, 3)
            dims = tuple(rng.randint(1, 3) for _ in range(m))
            cod = rng.randint(1, 3)
            a = random_dp_tensor(rng, dims, cod)
            for k in range(cod):
                y_dual = FinVector.atom(cod, k)
                assert pairing_identities(a, y_dual, samples=100, seed=31 * n + k)
        for n in range(100):
            m = rng.randint(1, 3)
            dims = tuple(rng.randint(1, 3) for _ in range(m))
            cod = rng.randint(1, 3)
            a = random_dp_tensor(rng, dims, cod)
            slot = rng.randrange(m)
            w, z = disjoint_vector_pair(rng, dims[slot])
            fixed = {i: random_vector(rng, dims[i]) for i in range(m) if i != slot}
            for _ in range(20):
                assert span_disjointness(a, slot, w, z, fixed, random_vector(rng, cod))


def test_acceptance_7_factorization(capsys):
    with reported(capsys, 7, "scalar DP forms factor through coordinates"):
        rng = random.Random(77)
        for _ in range(100):
            m = rng.randint(1, 3)
            dims = tuple(rng.randint(1, 4) for _ in range(m))
            a = random_dp_tensor(rng, dims, 1)
            fact = factorize_multimorphism(a)
            mod = a.modulus()
            assert fact.is_zero or fact.scale > 0
            for _ in range(100):
                args = [random_vector(rng, d) for d in dims]
                if fact.is_zero:
                    expected = Fraction(0)
                else:
                    expected = fact.scale
                    for i, c in enumerate(fact.coords):
                        expected *= args[i][c]
                assert evaluate(fact, args) == expected == mod.apply(args)[0]
                assert abs(a.apply(args)[0]) == abs(expected)


def test_acceptance_8_sequence_model(capsys):
    with reported(capsys, 8, "sequence space model", budget=30.0):
        rng = random.Random(88)
        orders = ((0, 1), (1, 0))
        for _ in range(50):
            op = DiagBilinear(random_seq(rng))
            u, v = random_seq(rng), random_seq(rng)
            closed = diag_arens(op, u, v)
            functionals = [EvConstSeq.atom(n) for n in range(1, 65)]
            functionals += [random_seq(rng, max_index=64, tail_zero=True) for _ in range(5)]
            for order in orders:
                for y_prime in functionals:
                    assert diag_arens_pair(op, order, u, v, y_prime) == pair(closed, y_prime)
        # the exact decisions, with the sampled oracles as the second route
        for i in range(20):
            comp = random_weighted_comp(rng)
            assert reads_one_coordinate(comp_rows(comp))
            assert biadjoint_dp_check(comp, samples=50, seed=88 + i)
        assert dual_basis_dp(limit=32)
        ones = EvConstSeq.constant(1)
        ones_op = DiagBilinear(ones)
        assert rank_lower_bound(ones_op, 32) == 32
        # the reported certificate of infinite rank: >= 32 disjoint nonzero range elements
        _, report = _report_seq_demo(ones, "sha256:x", {"seed": 88})
        rank_check = next(c for c in report["checks"] if c["name"] == "rank")
        assert rank_check["hypothesis"] == "dual-basis"
        first, last = rank_check["disjoint"]
        images = [diag_apply(ones_op, EvConstSeq.atom(n), EvConstSeq.atom(n)) for n in range(first, last + 1)]
        assert len(images) >= 32
        assert not any(a.is_zero() for a in images)
        assert all(a.is_disjoint(b) for i, a in enumerate(images) for b in images[i + 1 :])
        for _ in range(50):
            u, v = sample_disjoint_pair(rng)
            z = random_seq(rng)
            assert diag_apply(ones_op, u, z).is_disjoint(diag_apply(ones_op, v, z))
            assert diag_apply(ones_op, z, u).is_disjoint(diag_apply(ones_op, z, v))
        for u_fixed in (ones, EvConstSeq.atom(3), random_seq(rng)):
            assert reads_one_coordinate(comp_rows(WeightedCompOp(u_fixed)))
            assert slotwise_dp_check(ones_op, u_fixed)


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "rieszkit", *map(str, args)],
        capture_output=True,
    )


def test_acceptance_9_cli_round_trip(capsys):
    with reported(capsys, 9, "CLI round trip, determinism, exit paths"):
        corpus = sorted(FIXTURES.glob("*.json"))
        assert len(corpus) == 20
        for path in corpus:
            text = path.read_text()
            parsed = loads_spec(text)
            dumped = dumps_spec(parsed)
            assert loads_spec(dumped) == parsed
            assert dumps_spec(loads_spec(dumped)) == dumped
        for args in (
            ("check-dp", FIXTURES / "t_vector_dp.json", "--json"),
            ("arens", FIXTURES / "t_m3.json", "--trace", "--json"),
            ("modulus", FIXTURES / "t_cancel.json", "--json"),
            ("rank", FIXTURES / "t_m1.json", "--json"),
            ("seq-demo", "--json"),
        ):
            first, second = _cli(*args), _cli(*args)
            # failing verdicts must be just as reproducible as passing ones
            assert first.returncode == second.returncode
            assert first.stdout == second.stdout
            json.loads(first.stdout)
        assert _cli("check-dp", FIXTURES / "t_single.json").returncode == 0
        failing = _cli("check-dp", FIXTURES / "t_diag.json", "--json")
        assert failing.returncode == 1
        assert json.loads(failing.stdout)["witness"] is not None
        assert _cli("check-dp", FIXTURES / "nonexistent.json").returncode == 2
