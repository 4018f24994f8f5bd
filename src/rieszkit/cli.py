"""Command line front end.

Subcommands ingest operator spec files, run the corresponding checks and
print a report, human-readable by default or compact canonical JSON with
--json. Exit codes: 0 when the checked property holds, 1 when it fails
(the report then carries a witness), 2 on input errors, 3 on an
unexpected internal error (one ``error:`` line on stderr, no report), 4
when the report cannot be written because stdout is closed or fails.
Reports are byte-identical across runs for the same input and seed;
wall-clock time goes to stderr only.

This module holds the parser, the exit-code contract, the report
builders of the four tensor commands that share one code path (check-dp,
modulus, factorize, rank) and :func:`_report`, the one path from a parsed
command line to its report, which ``replay`` reruns. Every other builder
lives beside the code it runs and is imported only by the subcommand that
runs it, so a process compiles no source it does not execute: ``arens`` in
:mod:`rieszkit.arens`, ``seq-demo`` in :mod:`rieszkit.seqmodel` and
``replay`` in :mod:`rieszkit.replay`.
"""

from __future__ import annotations

import argparse
import sys
import time

from .fileformat import SpecFileError, decode_utf8, loads_spec, read_bytes, tensor_to_obj
from .operators import (
    MultiTensor,
    NotDisjointnessPreserving,
    ShapeError,
    factorize_multimorphism,
)
from .rational import format_rational
from .report import (
    build_report,
    certificate_to_obj,
    check,
    input_digest,
    render_human,
    report_json,
    vector_to_obj,
    witness_to_obj,
)


def _load_tensor(path: str) -> tuple[MultiTensor, str]:
    data = read_bytes(path)
    spec = loads_spec(decode_utf8(data))
    if not isinstance(spec, MultiTensor):
        raise SpecFileError(f"{path} does not contain a tensor spec")
    return spec, input_digest(data)


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


def _report(args) -> tuple[int, dict, MultiTensor | None]:
    """Exit code, report and input tensor (if any) of a parsed command line.

    Every command reaches its builder here, ``replay``'s rerun included,
    and each command's ``detail.args`` is recorded here. Builders are
    looked up per call, so a test can swap one.
    """
    if args.command == "seq-demo":
        from .seqmodel import _report_seq_demo, _seq_demo_inputs

        return (*_report_seq_demo(*_seq_demo_inputs(args)), None)
    if args.command == "replay":
        from .replay import _run_replay

        return (*_run_replay(args), None)
    tensor, digest = _load_tensor(args.file)
    if args.command == "arens":
        from .arens import _report_arens

        return (*_report_arens(tensor, digest, {"perm": args.perm, "trace": args.trace}), tensor)
    builder = {
        "check-dp": _report_check_dp,
        "modulus": _report_modulus,
        "factorize": _report_factorize,
        "rank": _report_rank,
    }[args.command]  # argparse admits only the tensor commands besides
    return (*builder(tensor, digest, {}), tensor)


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
        code, report, _ = _report(args)
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
