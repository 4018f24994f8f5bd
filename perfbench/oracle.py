"""Known-answer gate for CLI outputs, independent of the library.

Each answer comes from how the input was built (see gen.py): the planted
DP verdict, the planted rank, the restriction law for `arens` (every
extension tensor equals the input), and "every check passes" for the
sequence model. Witnesses are re-checked with the small Fraction evaluator
below, never with ``DPWitness.verify``.

An op *fails* when its exit code, stderr or report is not what the answer
demands. A failure is also *wrong* when the program emitted a report that
contradicts the answer; a crash (traceback, no report) fails without being
wrong.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from gen import Op, TensorInput, fmt

_RATIONAL = re.compile(r"-?(\d+)(?:/(\d+))?")


@dataclass
class Outcome:
    failed: bool = False
    wrong: bool = False
    reason: str = ""
    report: dict | None = None


def evaluate(inp: TensorInput, args: list[list[Fraction]]) -> list[Fraction]:
    """A(args) by the definition: sum over entries of value * prod args[i][idx_i]."""
    acc = [Fraction(0)] * inp.cod
    for (k, idx), v in inp.entries.items():
        term = v
        for i, pos in enumerate(idx):
            term *= args[i][pos]
            if not term:
                break
        acc[k] += term
    return acc


def witness_holds(inp: TensorInput, out_coord: int, slot: int, x, y, fixed: dict, image_x, image_y) -> bool:
    """Disjoint x, y in ``slot``, the other slots pinned by ``fixed`` (0-based
    slot -> vector), whose images match and overlap at ``out_coord``."""
    m = len(inp.dims)
    if sorted([*fixed, slot]) != list(range(m)) or not 0 <= out_coord < inp.cod:
        return False
    vectors = [x, y, *fixed.values()]
    dims = [inp.dims[slot], inp.dims[slot], *(inp.dims[i] for i in fixed)]
    if any(len(v) != d for v, d in zip(vectors, dims)):
        return False
    if any(a and b for a, b in zip(x, y)):
        return False

    def image(vec):
        return evaluate(inp, [vec if i == slot else fixed[i] for i in range(m)])

    ix, iy = image(x), image(y)
    return ix == list(image_x) and iy == list(image_y) and ix[out_coord] != 0 and iy[out_coord] != 0


def report_witness_holds(inp: TensorInput, w: dict) -> bool:
    try:
        def vec(items):
            return [Fraction(c) for c in items]

        fixed = {int(i) - 1: vec(v) for i, v in w["fixed"].items()}
        return witness_holds(inp, w["out_coord"] - 1, w["slot"] - 1, vec(w["x"]), vec(w["y"]),
                             fixed, vec(w["image_x"]), vec(w["image_y"]))
    except (KeyError, TypeError, ValueError, AttributeError):
        return False


def wire_entries(inp: TensorInput) -> list[tuple[int, list[int], str]]:
    return [(k + 1, [i + 1 for i in idx], fmt(v)) for (k, idx), v in sorted(inp.entries.items())]


def _report_entries(tensor_obj: dict) -> list[tuple[int, list[int], str]]:
    return sorted((e["out"], e["idx"], e["value"]) for e in tensor_obj["entries"])


def int_bits_max(obj) -> int:
    """Largest numerator or denominator bit length among the report's rationals."""
    best = 0
    stack = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, str):
            match = _RATIONAL.fullmatch(item)
            if match:
                for part in match.groups():
                    if part:
                        # Printed reports stay under the interpreter's
                        # int-to-str limit, so int() can read them back.
                        best = max(best, int(part).bit_length())
    return best


def check_op(op: Op, inp, code: int, stdout: bytes, stderr: bytes) -> Outcome:
    """Judge one CLI op against the answer its input was built to have."""
    if b"Traceback (most recent call last)" in stderr:
        last = stderr.strip().splitlines()[-1:] or [b""]
        return Outcome(True, False, "traceback: " + last[0].decode(errors="replace")[:160])
    try:
        report = json.loads(stdout)
    except ValueError:
        return Outcome(True, False, f"exit {code}, no parseable report")
    if not isinstance(report, dict):
        return Outcome(True, True, "report is not an object")
    out = Outcome(report=report)
    if code != op.expect_code:
        out.failed = out.wrong = True
        out.reason = f"exit {code}, expected {op.expect_code}"
        return out
    try:
        reason = _CHECKS[op.command](op, inp, report)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        reason = f"malformed report: {exc!r}"
    if reason:
        out.failed = out.wrong = True
        out.reason = reason
    return out


def _check_dp(op: Op, inp: TensorInput, report: dict) -> str:
    if report["command"] != "check-dp":
        return "wrong command"
    if inp.dp:
        expected = [None] * inp.cod
        for (k, idx) in inp.entries:
            expected[k] = [i + 1 for i in idx]
        if report["detail"]["certificate"] != expected:
            return "certificate differs from the planted tuples"
        return ""
    if not report_witness_holds(inp, report["witness"]):
        return "witness does not re-verify"
    return ""


def _check_factorize(op: Op, inp: TensorInput, report: dict) -> str:
    if inp.dp:
        ((k, idx), v), = inp.entries.items()
        detail = report["detail"]
        if detail["scale"] != fmt(abs(v)) or detail["coords"] != [i + 1 for i in idx]:
            return "factorization differs from the planted entry"
        return ""
    if not report_witness_holds(inp, report["witness"]):
        return "witness does not re-verify"
    return ""


def _check_arens(op: Op, inp: TensorInput, report: dict) -> str:
    extensions = report["detail"]["extensions"]
    m = len(inp.dims)
    perms = sorted(tuple(e["perm"]) for e in extensions)
    if len(perms) != math.factorial(m) or len(set(perms)) != len(perms):
        return "not one extension per permutation"
    expected = wire_entries(inp)
    traced = "--trace" in op.argv
    for e in extensions:
        t = e["tensor"]
        if t["domain_dims"] != list(inp.dims) or t["codomain_dim"] != inp.cod:
            return "extension shape differs from the input"
        if _report_entries(t) != expected:
            return f"restriction law fails for perm {e['perm']}"
        if traced != ("trace" in e):
            return "trace presence does not match --trace"
        if inp.dp and not e["dp"]:
            return "extension of a DP input is not DP"
    if not inp.dp and not report_witness_holds(inp, report["witness"]):
        return "witness does not re-verify"
    return ""


def _check_rank(op: Op, inp: TensorInput, report: dict) -> str:
    if report["detail"]["rank"] != inp.rank or len(report["detail"]["basis"]) != inp.rank:
        return f"rank {report['detail']['rank']}, planted {inp.rank}"
    return ""


def _check_modulus(op: Op, inp: TensorInput, report: dict) -> str:
    expected = sorted((k + 1, [i + 1 for i in idx], fmt(abs(v))) for (k, idx), v in inp.entries.items())
    if _report_entries(report["detail"]["modulus"]) != expected:
        return "modulus differs from the entrywise absolute value"
    return ""


def _check_all_pass(op: Op, inp, report: dict) -> str:
    if not report["ok"] or any(c["verdict"] != "pass" for c in report["checks"]):
        return "a check failed: " + ", ".join(c["name"] for c in report["checks"] if c["verdict"] != "pass")
    return ""


def _check_seq_demo(op: Op, inp, report: dict) -> str:
    if len(report["checks"]) != 6:
        return f"{len(report['checks'])} seq-demo checks, expected 6"
    return _check_all_pass(op, inp, report)


_CHECKS = {
    "check-dp": _check_dp,
    "factorize": _check_factorize,
    "arens": _check_arens,
    "rank": _check_rank,
    "modulus": _check_modulus,
    "seq-demo": _check_seq_demo,
    "replay": _check_all_pass,
}
