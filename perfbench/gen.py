"""Seeded inputs and op lists for the three workloads.

Everything here draws from one ``random.Random(seed)`` owned by the
benchmark, and every input carries the answer it was built to have: DP or
not DP, the planted lattice rank, or "all checks pass" for the sequence
model. Nothing is imported from ``rieszkit``; spec files are written in the
documented wire format (format 1, 1-based indices, "p/q" rationals), so the
program under test only ever sees files.

Shape ladder (domain dims -> codomain), shared by all workloads:
4^3->4, 8^3->8, 6^4->4, 16^2->16, 16^3->16, 16^4->1.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

LADDER = {
    "4x3": ((4, 4, 4), 4),
    "8x3": ((8, 8, 8), 8),
    "6x4": ((6, 6, 6, 6), 4),
    "16x2": ((16, 16), 16),
    "16x3": ((16, 16, 16), 16),
    "16x4": ((16, 16, 16, 16), 1),
}


@dataclass
class TensorInput:
    """A generated tensor with the answers it was built to have.

    ``entries`` maps (out, idx) 0-based to a nonzero Fraction. ``dp`` is the
    planted verdict and ``rank`` the planted lattice rank; each is None when
    the input was not built with one.
    """

    name: str
    dims: tuple[int, ...]
    cod: int
    entries: dict[tuple[int, tuple[int, ...]], Fraction]
    dp: bool | None
    rank: int | None = None

    def spec_obj(self) -> dict:
        return {
            "format": 1,
            "kind": "tensor",
            "m": len(self.dims),
            "domain_dims": list(self.dims),
            "codomain_dim": self.cod,
            "entries": [
                {"out": k + 1, "idx": [i + 1 for i in idx], "value": fmt(v)}
                for (k, idx), v in sorted(self.entries.items())
            ],
        }


@dataclass
class SeqInput:
    """A seq-demo run: its seed and, optionally, a weight written to a file.

    ``weight`` is (exceptions, tail) with 1-based exception indices; the
    weight never vanishes on 1..32, so every seq-demo check must pass.
    """

    name: str
    seed: int
    weight: tuple[dict[int, Fraction], Fraction] | None = None

    def spec_obj(self) -> dict:
        exc, tail = self.weight
        return {
            "exceptions": {str(k): fmt(v) for k, v in sorted(exc.items())},
            "tail": fmt(tail),
        }


@dataclass
class Op:
    """One CLI invocation. ``argv`` names inputs by key; the runner maps keys
    to file paths. ``after`` names the op whose stdout a replay reads."""

    op_id: str
    command: str
    input: str
    argv: list[str]
    expect_code: int
    after: str | None = None


@dataclass
class Workload:
    name: str
    tensors: dict[str, TensorInput] = field(default_factory=dict)
    seqs: dict[str, SeqInput] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)


def fmt(v: Fraction) -> str:
    """The wire format of a rational: 'p' or 'p/q' in lowest terms."""
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def spec_bytes(obj: dict) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def _value(rng: random.Random) -> Fraction:
    """Nonzero rational: numerator +-1..9, denominator 1..4."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))


def _positive(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 4))


def _tuple(rng: random.Random, dims) -> tuple[int, ...]:
    return tuple(rng.randrange(d) for d in dims)


def dp_tensor(rng: random.Random, name: str, shape: str) -> TensorInput:
    """At most one tuple per output coordinate; about one in five is empty."""
    dims, cod = LADDER[shape]
    entries = {}
    for k in range(cod):
        if cod == 1 or rng.random() < 0.8:
            entries[(k, _tuple(rng, dims))] = _value(rng)
    return TensorInput(name, dims, cod, entries, dp=True)


def non_dp_tensor(rng: random.Random, name: str, shape: str, nnz: int, split: int | None = None) -> TensorInput:
    """``nnz`` entries spread over the slices, not DP by a planted pair.

    The pair sits in the first slice: the all-zero tuple and the tuple with
    a single 1 in slot ``split`` (default m - 2), and no other tuple of that
    slice sorts between them. rieszkit 0.1.0 builds its witness from the
    two smallest tuples of the first slice with more than one, so every seed
    gets a witness of the same shape; left to chance, the slot where those
    two tuples differ changes the cost of a 16^4 is_dp about fivefold.
    """
    dims, cod = LADDER[shape]
    m = len(dims)
    split = m - 2 if split is None else split
    a = (0,) * m
    b = tuple(1 if i == split else 0 for i in range(m))
    entries = {(0, a): _value(rng), (0, b): _value(rng)}
    # Slice 0 cannot hold the other tuples that share a's prefix through split.
    target = min(nnz, cod * math.prod(dims) - math.prod(dims[split + 1:]) + 1)
    while len(entries) < target:
        k, idx = rng.randrange(cod), _tuple(rng, dims)
        if (k, idx) not in entries and not (k == 0 and idx[: split + 1] == a[: split + 1]):
            entries[(k, idx)] = _value(rng)
    return TensorInput(name, dims, cod, entries, dp=False)


def rank_tensor(rng: random.Random, name: str, shape: str, rays: int, support: int) -> TensorInput:
    """Planted lattice rank.

    ``rays`` rows over atom tuples, each with ``support`` nonzero entries,
    no one a positive multiple of another. Every output coordinate gets one
    ray times a positive scalar, and every ray is used, so the sublattice
    generated by the range has one disjoint basis vector per ray and the
    lattice rank is exactly ``rays``.
    """
    dims, cod = LADDER[shape]
    if not 1 <= rays <= cod:
        raise ValueError(f"{rays} rays cannot fit codomain {cod}")
    rows: list[dict[tuple[int, ...], Fraction]] = []
    while len(rows) < rays:
        row = {}
        while len(row) < support:
            row[_tuple(rng, dims)] = _value(rng)
        if not any(_same_ray(row, other) for other in rows):
            rows.append(row)
    owner = list(range(rays)) + [rng.randrange(rays) for _ in range(cod - rays)]
    rng.shuffle(owner)
    entries = {}
    for k, r in enumerate(owner):
        c = _positive(rng)
        for idx, v in rows[r].items():
            entries[(k, idx)] = c * v
    return TensorInput(name, dims, cod, entries, dp=None, rank=rays)


def _same_ray(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return False
    key = next(iter(a))
    ratio = a[key] / b[key]
    return ratio > 0 and all(a[i] == ratio * b[i] for i in a)


def seq_weight(rng: random.Random) -> tuple[dict[int, Fraction], Fraction]:
    """A weight with a few nonzero exceptions in 1..40 and a nonzero tail."""
    exc = {k: _value(rng) for k in range(1, 41) if rng.random() < 0.3}
    return exc, _value(rng)


def resolve(op: Op, files: dict, work) -> list[str]:
    """Map '@input' to its spec file and '@@op' to that op's stored report."""
    out = []
    for arg in op.argv:
        if arg.startswith("@@"):
            out.append(str(work / f"{arg[2:]}.report.json"))
        elif arg.startswith("@"):
            out.append(str(files[arg[1:]]))
        else:
            out.append(arg)
    return out


# Non-DP entry counts for dp_verdicts, sparse to a few thousand. Every 16^4
# input has at least 8 entries in its one slice, which in rieszkit 0.1.0
# always pushes the witness past the int-to-str digit limit: those ops exit
# 1 with a traceback and count as failed.
DP_VERDICTS_NON_DP = [
    ("4x3", 12), ("8x3", 400), ("6x4", 600), ("16x2", 40),
    ("16x3", 3000), ("16x4", 300), ("16x4", 3000),
]
# Two non-DP inputs of equal size per shape for arens_sweep; the seed picks
# which of the two also passes --trace, so the traced share (one half) and
# the work per pass do not depend on the seed. 16^4 stays sparse.
ARENS_NON_DP = {"4x3": 240, "8x3": 400, "6x4": 250, "16x2": 1200, "16x3": 800, "16x4": 150}
# Planted lattice rank for rank_seq: (shape, rays, support of each ray).
# Two small inputs per small shape keep the median op among the cheap,
# start-up-bound ones, where the seed barely moves it; seq-demo costs move
# with its seed.
RANK_PLANTS = [
    ("4x3", 3, 16), ("4x3", 2, 24), ("8x3", 5, 60), ("8x3", 6, 40), ("6x4", 3, 100), ("6x4", 2, 150),
    ("16x2", 10, 120), ("16x3", 12, 300), ("16x4", 1, 300), ("16x4", 1, 150),
]
SEQ_DEMO_RUNS = 4


def build(workload: str, seed: int) -> Workload:
    """Inputs and op list of one workload, fully determined by ``seed``."""
    wl = Workload(workload)
    WORKLOADS[workload](wl, random.Random(seed))
    return wl


def _add(wl: Workload, op: Op) -> Op:
    wl.ops.append(op)
    return op


def _tensor_op(wl: Workload, inp: TensorInput, command: str, extra: list[str], code: int) -> Op:
    op_id = f"{len(wl.ops):02d}-{command}-{inp.name}"
    return _add(wl, Op(op_id, command, inp.name, [command, "@" + inp.name, *extra, "--json"], code))


def _replay(wl: Workload, source: Op) -> None:
    argv = ["replay", "@@" + source.op_id]
    if source.input in wl.tensors:
        argv.append("@" + source.input)
    _add(wl, Op(f"{len(wl.ops):02d}-replay-{source.input}", "replay", source.input,
                argv + ["--json"], 0, after=source.op_id))


def _dp_verdicts(wl: Workload, rng: random.Random) -> None:
    inputs = [dp_tensor(rng, f"dp-{shape}", shape) for shape in LADDER]
    inputs.append(dp_tensor(rng, "dp-16x4-b", "16x4"))
    for shape, nnz in DP_VERDICTS_NON_DP:
        inputs.append(non_dp_tensor(rng, f"nondp-{shape}-{nnz}", shape, nnz))
    for inp in inputs:
        wl.tensors[inp.name] = inp
        code = 0 if inp.dp else 1
        ops = [_tensor_op(wl, inp, "check-dp", [], code)]
        if inp.cod == 1:
            ops.append(_tensor_op(wl, inp, "factorize", [], code))
        for op in ops:
            _replay(wl, op)


def _arens_sweep(wl: Workload, rng: random.Random) -> None:
    for shape in LADDER:
        dp = dp_tensor(rng, f"dp-{shape}", shape)
        pair = [non_dp_tensor(rng, f"nondp-{shape}-{c}", shape, ARENS_NON_DP[shape]) for c in "ab"]
        traced = rng.randrange(2)
        for i, inp in enumerate([dp, *pair]):
            wl.tensors[inp.name] = inp
            flags = ["--perm", "all"] + (["--trace"] if i == traced + 1 else [])
            _tensor_op(wl, inp, "arens", flags, 0 if inp.dp else 1)


def _rank_seq(wl: Workload, rng: random.Random) -> None:
    for i, (shape, rays, support) in enumerate(RANK_PLANTS):
        inp = rank_tensor(rng, f"rank{i}-{shape}", shape, rays, support)
        wl.tensors[inp.name] = inp
        _tensor_op(wl, inp, "rank", [], 0)
        _tensor_op(wl, inp, "modulus", [], 0)
    first = None
    for i in range(SEQ_DEMO_RUNS):
        s = SeqInput(f"seq-{i}", rng.randrange(10**6))
        wl.seqs[s.name] = s
        op = _add(wl, Op(f"{len(wl.ops):02d}-seq-demo-{s.name}", "seq-demo", s.name,
                         ["seq-demo", "--seed", str(s.seed), "--json"], 0))
        first = first or op
    weighted = SeqInput("seq-weight", rng.randrange(10**6), seq_weight(rng))
    wl.seqs[weighted.name] = weighted
    _add(wl, Op(f"{len(wl.ops):02d}-seq-demo-{weighted.name}", "seq-demo", weighted.name,
                ["seq-demo", "--seed", str(weighted.seed), "--weight-file", "@" + weighted.name,
                 "--json"], 0))
    _replay(wl, first)


WORKLOADS = {"dp_verdicts": _dp_verdicts, "arens_sweep": _arens_sweep, "rank_seq": _rank_seq}
