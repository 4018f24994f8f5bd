"""Command line front end.

Subcommands ingest operator spec files, run the corresponding checks and
print a report, human-readable by default or compact canonical JSON with
--json. Exit codes: 0 when the checked property holds, 1 when it fails
(the report then carries a witness), 2 on input errors, 3 on an
unexpected internal error (one ``error:`` line on stderr, no report), 4
when the report cannot be written because stdout is closed or fails.
Reports are byte-identical across runs for the same input and seed;
wall-clock time goes to stderr only. The Arens and sequence-model modules
are imported only by the subcommands that run them.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from typing import TYPE_CHECKING

from .fileformat import (
    SpecFileError,
    canonical_json,
    decode_json,
    decode_utf8,
    loads_spec,
    parse_seq,
    parse_spec,
    read_bytes,
    seq_to_obj,
    tensor_to_obj,
)
from .operators import (
    MultiTensor,
    NotDisjointnessPreserving,
    ShapeError,
    factorize_multimorphism,
)
from .rational import DigitLimitError, format_rational
from .report import (
    build_report,
    certificate_to_obj,
    check,
    input_digest,
    render_human,
    report_json,
    vector_to_obj,
    witness_from_obj,
    witness_to_obj,
)

if TYPE_CHECKING:
    from .arens import Permutation
    from .seqmodel import EvConstSeq


def _load_tensor(path: str) -> tuple[MultiTensor, str]:
    data = read_bytes(path)
    spec = loads_spec(decode_utf8(data))
    if not isinstance(spec, MultiTensor):
        raise SpecFileError(f"{path} does not contain a tensor spec")
    return spec, input_digest(data)


def _perm_choices(text: str, m: int) -> list[Permutation]:
    from .arens import Permutation, all_permutations

    if text == "all":
        return list(all_permutations(m))
    if text == "id":
        return [Permutation.identity(m)]
    if text == "theta":
        return [Permutation.theta(m)]
    try:
        return [Permutation.from_cycles(text, m)]
    except ValueError as exc:
        raise SpecFileError(str(exc)) from exc


def _marginal_obj(dims: tuple[int, ...], mask: int, entries: dict) -> dict:
    """Wire form of a trace marginal: its remaining slots ascending, 1-based.

    Each entry is [i_1, ..., i_k, "p/q"], an index tuple over those slots
    followed by the value.
    """
    slots = [s for s in range(len(dims)) if not mask >> s & 1]
    return {
        "dims": [dims[s] for s in slots],
        "slots": [s + 1 for s in slots],
        "entries": [
            [i + 1 for i in idx] + [format_rational(v)]
            for idx, v in sorted(entries.items())
        ],
    }


def _report_check_dp(tensor: MultiTensor, digest: str, args: dict) -> tuple[int, dict]:
    verdict = tensor.is_dp()
    checks = [check("disjointness-preserving", verdict.is_dp)]
    witness = None if verdict.witness is None else witness_to_obj(verdict.witness)
    detail = {"certificate": certificate_to_obj(verdict)}
    report = build_report(
        "check-dp",
        digest,
        checks,
        witness=witness,
        cost={"entries": tensor.nnz(), "slices": tensor.codomain_dim},
        detail={**detail, "args": args},
    )
    return (0 if verdict.is_dp else 1), report


def _report_arens(tensor: MultiTensor, digest: str, args: dict) -> tuple[int, dict]:
    from .arens import chain_masks, trace_marginals

    perms = _perm_choices(args["perm"], tensor.m)
    with_trace = args["trace"]
    verdict = tensor.is_dp()
    # Every Q^d is reflexive: each extension is the input, so all of them
    # share its verdict and its one wire-form dict.
    tensor_obj = tensor_to_obj(tensor)
    checks = [check("input-dp", verdict.is_dp)]
    extensions = []
    for rho in perms:
        name = "perm " + " ".join(str(i) for i in rho.one_line())
        checks.append(check(f"restriction [{name}]", True))
        if verdict.is_dp:
            checks.append(check(f"dp-preserved [{name}]", True))
        entry = {"perm": list(rho.one_line()), "dp": verdict.is_dp, "tensor": tensor_obj}
        if with_trace:
            entry["trace"] = chain_masks(rho)
        extensions.append(entry)
    witness = None if verdict.witness is None else witness_to_obj(verdict.witness)
    detail = {"extensions": extensions, "args": args}
    if with_trace:
        detail["marginals"] = {
            str(k + 1): {
                str(mask): _marginal_obj(tensor.domain_dims, mask, entries)
                for mask, entries in memo.items()
            }
            for k, memo in trace_marginals(tensor.slices(), perms).items()
        }
    report = build_report(
        "arens",
        digest,
        checks,
        witness=witness,
        cost={
            "permutations": len(perms),
            "entries": tensor.nnz(),
            "codomain": tensor.codomain_dim,
        },
        detail=detail,
    )
    return (0 if report["ok"] else 1), report


def _report_modulus(tensor: MultiTensor, digest: str, args: dict) -> tuple[int, dict]:
    report = build_report(
        "modulus",
        digest,
        [check("modulus-computed", True, entries=tensor.nnz())],
        cost={"entries": tensor.nnz()},
        detail={"modulus": tensor_to_obj(tensor.modulus()), "args": args},
    )
    return 0, report


def _report_factorize(tensor: MultiTensor, digest: str, args: dict) -> tuple[int, dict]:
    try:
        factorization = factorize_multimorphism(tensor)
    except NotDisjointnessPreserving as exc:
        verdict = exc.verdict
        report = build_report(
            "factorize",
            digest,
            [check("disjointness-preserving", False)],
            witness=witness_to_obj(verdict.witness),
            detail={"args": args},
        )
        return 1, report
    if factorization.is_zero:
        detail = {"zero": True, "args": args}
    else:
        detail = {
            "zero": False,
            "scale": format_rational(factorization.scale),
            "coords": [c + 1 for c in factorization.coords],
            "args": args,
        }
    report = build_report(
        "factorize",
        digest,
        [check("disjointness-preserving", True), check("factorized", True)],
        cost={"entries": tensor.nnz()},
        detail=detail,
    )
    return 0, report


def _report_rank(tensor: MultiTensor, digest: str, args: dict) -> tuple[int, dict]:
    basis = tensor.range_sublattice_basis()
    report = build_report(
        "rank",
        digest,
        [check("rank-computed", True, rank=len(basis))],
        cost={"entries": tensor.nnz(), "atoms": len({idx for (_, idx), _ in tensor.items()})},
        detail={
            "rank": len(basis),
            "basis": [vector_to_obj(v) for v in basis],
            "args": args,
        },
    )
    return 0, report


def _report_seq_demo(weight: EvConstSeq, digest: str, args: dict) -> tuple[int, dict]:
    """The paper's theorem on the c0 model, for the diagonal map of ``weight``.

    The DP checks and the lattice rank are decided exactly over finite
    patterns; only the two seeded probe suites, closed form against
    definition, can fail, and the first disagreement is the witness.
    """
    from . import seqmodel as sm

    probes = 0
    witness = None

    def agrees(name: str, pairs) -> bool:
        nonlocal probes, witness
        for index, got, expected in pairs:
            probes += 1
            if got != expected:
                got, expected = format_rational(got), format_rational(expected)
                witness = witness or {"check": name, "index": index, "got": got, "expected": expected}
                return False
        return True

    seed = args["seed"]
    rng = random.Random(seed)
    extension_ok = all(
        agrees(
            "diag-extension-agrees",
            sm.diag_probe_pairs(sm.DiagBilinear(sm.random_seq(rng)), sm.random_seq(rng), sm.random_seq(rng)),
        )
        for _ in range(50)
    )
    rng = random.Random(seed + 1)
    biadjoint_rows = [row for _ in range(5) for row in sm.comp_rows(sm.random_weighted_comp(rng))]
    rank, indices = sm.diag_lattice_rank(sm.DiagBilinear(weight))
    if rank is None:  # infinitely many disjoint range elements: the dual basis carries it
        rank_check = check("rank", True, disjoint=[indices[0], indices[-1]], hypothesis="dual-basis")
    else:
        rank_check = check("rank", True, basis=indices, hypothesis="finite-rank", rank=rank)
    checks = [
        check("diag-extension-agrees", extension_ok, samples=50),
        check("biadjoint-dp", sm.reads_one_coordinate(biadjoint_rows), operators=5),
        check("dual-basis-dp", sm.reads_one_coordinate(map(sm.EvConstSeq.atom, range(1, 33))), atoms=32),
        rank_check,
        # Slot 1 frozen at the constant 1 leaves v |-> (w_n v_n).
        check("slotwise-dp", sm.reads_one_coordinate(sm.comp_rows(sm.WeightedCompOp(weight)))),
    ]
    rng = random.Random(seed + 2)
    embeds_ok = all(
        agrees(
            "biadjoint-extends-apply",
            sm.comp_probe_pairs(sm.random_weighted_comp(rng), sm.random_seq(rng, tail_zero=True)),
        )
        for _ in range(20)
    )
    checks.append(check("biadjoint-extends-apply", embeds_ok, samples=20))
    report = build_report(
        "seq-demo",
        digest,
        checks,
        witness=witness,
        seed=seed,
        cost={"probes": probes},
        detail={"args": args},
    )
    return (0 if report["ok"] else 1), report


def _tensor_reports() -> dict:
    """Report builder per tensor command, looked up per call so a test can swap one."""
    return {
        "check-dp": _report_check_dp,
        "arens": _report_arens,
        "modulus": _report_modulus,
        "factorize": _report_factorize,
        "rank": _report_rank,
    }


def _seq_demo_inputs(args) -> tuple[EvConstSeq, str, dict]:
    from .seqmodel import EvConstSeq

    if args.weight_file:
        data = read_bytes(args.weight_file)
        obj = decode_json(decode_utf8(data, "weight file"))
        if isinstance(obj, dict) and obj.get("kind") == "diag-bilinear":
            weight = parse_spec(obj).weight
        else:
            weight = parse_seq(obj, "weight")
        digest = input_digest(data)
    else:
        weight = EvConstSeq.constant(1)
        digest = input_digest(
            canonical_json({"seed": args.seed, "weight": seq_to_obj(weight)}).encode()
        )
    return weight, digest, {"seed": args.seed, "weight": seq_to_obj(weight)}


def _stored_fields(stored) -> tuple[str, str, dict]:
    """Command, input digest and args of a stored report, type-checked.

    The args are checked for exactly the fields a rebuild reads, so a
    malformed report is an input error rather than a crash.
    """
    if not isinstance(stored, dict) or not isinstance(stored.get("command"), str):
        raise SpecFileError("not a report file")
    command = stored["command"]
    digest = stored.get("input_digest")
    if not isinstance(digest, str):
        raise SpecFileError("report has no input_digest string")
    detail = stored.get("detail", {})
    stored_args = detail.get("args", {}) if isinstance(detail, dict) else None
    if not isinstance(stored_args, dict):
        raise SpecFileError("report detail.args must be a JSON object")
    required = {"arens": {"perm": str, "trace": bool}, "seq-demo": {"seed": int}}
    for key, kind in required.get(command, {}).items():
        if type(stored_args.get(key)) is not kind:  # exact: bool is an int subclass
            raise SpecFileError(f"report detail.args.{key} must be a {kind.__name__}")
    return command, digest, stored_args


def _stored_witness_verifies(obj, tensor: MultiTensor) -> bool:
    """Re-verify a stored witness; a malformed one is an input error."""
    try:
        witness = witness_from_obj(obj)
        others = [i for i in range(tensor.m) if i != witness.slot]
        if not (
            0 <= witness.out_coord < tensor.codomain_dim
            and 0 <= witness.slot < tensor.m
            and sorted(i for i, _ in witness.fixed) == others
        ):
            raise ValueError("coordinates out of range for the tensor")
        return witness.verify(tensor)
    except DigitLimitError as exc:
        raise SpecFileError(
            f"witness in report passes the int-to-str digit limit ({exc}); "
            "replay it under python -X int_max_str_digits=0 -m rieszkit replay"
        ) from exc
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SpecFileError(f"malformed witness in report: {exc}") from exc


def _run_replay(args) -> tuple[int, dict]:
    stored = decode_json(decode_utf8(read_bytes(args.report), "report file"), "report JSON")
    command, stored_digest, stored_args = _stored_fields(stored)

    if command == "seq-demo":
        weight = parse_seq(stored_args.get("weight", {"tail": "1"}), "weight")
        _, rebuilt = _report_seq_demo(weight, stored_digest, stored_args)
    else:
        if not args.spec:
            raise SpecFileError(f"replaying {command!r} needs the original spec file")
        spec, digest = _load_tensor(args.spec)
        if digest != stored_digest:
            raise SpecFileError("spec file does not match the report's input digest")
        builder = _tensor_reports().get(command)
        if builder is None:
            raise SpecFileError(f"unknown command in report: {command!r}")
        _, rebuilt = builder(spec, digest, stored_args)

    # Compared as canonical bytes: parsed JSON has true == 1 == 1.0.
    checks = [check("report-reproduced", report_json(rebuilt) == report_json(stored))]
    if "witness" in stored and command in ("check-dp", "arens", "factorize"):
        witness_ok = _stored_witness_verifies(stored["witness"], spec)
        checks.append(check("witness-verifies", witness_ok))
    report = build_report(
        "replay",
        stored_digest,
        checks,
        detail={"args": {"command": command}},
    )
    return (0 if report["ok"] else 1), report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rieszkit",
        description="Exact lattice computations for disjointness preserving multilinear operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, needs_file: bool = True):
        p = sub.add_parser(name, help=help_text)
        if needs_file:
            p.add_argument("file", help="operator spec file (JSON)")
        p.add_argument("--json", action="store_true", help="emit the report as JSON")
        return p

    add("check-dp", "decide whether a tensor preserves disjointness")

    p_arens = add("arens", "compute bidual extensions and re-check disjointness")
    p_arens.add_argument(
        "--perm",
        default="all",
        help='"all", "id", "theta", or cycle notation such as "(1 2)"',
    )
    p_arens.add_argument("--trace", action="store_true", help="record intermediate forms")

    add("modulus", "entrywise modulus of a tensor")
    add("factorize", "factor a scalar disjointness preserving tensor")
    add("rank", "dimension of the sublattice generated by the range")

    p_seq = add("seq-demo", "run the sequence model instance suite", needs_file=False)
    p_seq.add_argument("--seed", type=int, default=0)
    p_seq.add_argument("--weight-file", help="EvConstSeq JSON overriding the default weight")

    p_replay = add("replay", "re-verify a stored report", needs_file=False)
    p_replay.add_argument("report", help="report JSON produced with --json")
    p_replay.add_argument("spec", nargs="?", help="the original spec file")

    return parser


class _OutputError(Exception):
    """The report could not be written to stdout."""


def _write_stdout(text: str) -> None:
    if sys.stdout is None:  # the process started with stdout closed
        raise _OutputError("stdout is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise _OutputError(exc) from exc


def _note(line: str) -> None:
    """One line to stderr; a closed or failing stderr must not change the exit code."""
    if sys.stderr is not None:  # None when the process started with stderr closed
        try:
            print(line, file=sys.stderr)
        except OSError:
            pass


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        if args.command == "seq-demo":
            weight, digest, demo_args = _seq_demo_inputs(args)
            code, report = _report_seq_demo(weight, digest, demo_args)
        elif args.command == "replay":
            code, report = _run_replay(args)
        else:  # argparse admits only the tensor commands besides
            tensor, digest = _load_tensor(args.file)
            command_args = {"perm": args.perm, "trace": args.trace} if args.command == "arens" else {}
            code, report = _tensor_reports()[args.command](tensor, digest, command_args)
        _write_stdout(report_json(report) if args.json else render_human(report))
    except (SpecFileError, ShapeError) as exc:
        _note(f"error: {exc}")
        return 2
    except _OutputError as exc:
        _note(f"error: cannot write the report: {exc}")
        return 4
    except Exception as exc:  # exit 1 means "property fails", so never let a crash say it
        _note(f"error: internal {type(exc).__name__}: {exc}".replace("\n", " "))
        return 3
    _note(f"elapsed: {time.monotonic() - started:.3f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
