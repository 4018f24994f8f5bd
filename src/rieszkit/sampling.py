"""Seeded random generators for vectors and tensors.

Everything draws from an explicit :class:`random.Random` so any run can be
replayed from its seed. Used by the property suites and by the sampled
law checks of :mod:`rieszkit.arens` and :mod:`rieszkit.seqmodel`; nothing
here is needed for the core algebra, and this module imports only
:mod:`rieszkit.operators` and :mod:`rieszkit.vectors`.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .operators import MultiTensor
from .vectors import FinVector


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
