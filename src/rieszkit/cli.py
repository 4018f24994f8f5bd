"""Command line front end.

Subcommands ingest operator spec files, run the corresponding checks and
print a report, human-readable by default or compact canonical JSON with
--json. Exit codes: 0 when the report's ``ok`` holds, 1 when it does not
(the checked property fails, and a DP decision's report then carries a
DP witness), 2 on input errors, 3 on an unexpected internal error or a
failed self-check (one ``error:`` line on stderr, no report), 4 when the
report cannot be written because stdout is closed or fails. Reports are
byte-identical across runs for the same input and seed; wall-clock time
goes to stderr only.

This module holds the parser, the exit-code contract, the report
builders of the four tensor commands that share one code path (check-dp,
modulus, factorize, rank), the options each command records
(:data:`RECORDED_OPTIONS`) and :func:`build`, the one reader of spec
files, seq-demo's weight file too, and the one path from a command, its
input file and those options to its report: the command line takes it,
and so does ``replay`` with a stored report's command and options. Every
other builder lives beside the code it runs and is imported only by the
subcommand that runs it, so a process compiles no source it does not
execute: ``arens`` in :mod:`rieszkit.arens`, ``seq-demo`` in
:mod:`rieszkit.seqmodel` and ``replay`` in :mod:`rieszkit.replay`.
:func:`main` alone turns a report's ``ok`` into exit code 0 or 1.
"""

from __future__ import annotations

import argparse
import sys
import time

from .fileformat import (
    SpecFileError,
    decode_json,
    decode_utf8,
    parse_spec,
    read_bytes,
    tensor_to_obj,
)
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
)


def _report_check_dp(tensor: MultiTensor) -> dict:
    verdict = tensor.is_dp()
    return build_report(
        [check("disjointness-preserving", verdict.is_dp)],
        witness=verdict.witness,
        detail={"certificate": certificate_to_obj(verdict)},
    )


def _report_modulus(tensor: MultiTensor) -> dict:
    return build_report([], detail={"modulus": tensor_to_obj(tensor.modulus())})


def _report_factorize(tensor: MultiTensor) -> dict:
    try:
        scale, coords = factorize_multimorphism(tensor)
    except NotDisjointnessPreserving as exc:
        return build_report(
            [check("disjointness-preserving", False)],
            witness=exc.verdict.witness,
        )
    return build_report(
        [check("disjointness-preserving", True)],
        detail={
            "scale": format_rational(scale),
            "coords": None if coords is None else [c + 1 for c in coords],
        },
    )


def _report_rank(tensor: MultiTensor) -> dict:
    basis = tensor.range_sublattice_basis()
    return build_report(
        [check("rank-computed", True, rank=len(basis))],
        detail={"rank": len(basis), "basis": [vector_to_obj(v) for v in basis]},
    )


# The commands a report can come from and the options each records in
# detail.args, with their exact JSON types (bool is an int subclass).
RECORDED_OPTIONS = {
    "check-dp": {},
    "modulus": {},
    "factorize": {},
    "rank": {},
    "arens": {"perm": str, "trace": bool},
    "seq-demo": {"seed": int},
}


def build(command: str, path: str | None, options: dict) -> dict:
    """The report of ``command`` on the input file at ``path`` with ``options``.

    The one reader of spec files: the file's operator, parsed with the kinds
    ``command`` takes, or None without a file, goes to the builder with
    ``options`` (:data:`RECORDED_OPTIONS`). Only this function writes
    ``detail.args``, exactly ``options``, and the input digest, of the
    file's bytes or of no bytes without a file. Builders are looked up per
    call, so a test can swap one.
    """
    kinds = ("tensor",)
    if command == "seq-demo":
        kinds = ("sequence", "diag-bilinear")
        from .seqmodel import _report_seq_demo as builder
    elif command == "arens":
        from .arens import _report_arens as builder
    else:
        builder = {
            "check-dp": _report_check_dp,
            "modulus": _report_modulus,
            "factorize": _report_factorize,
            "rank": _report_rank,
        }[command]
    data = None if path is None else read_bytes(path)
    operand = None if data is None else parse_spec(decode_json(decode_utf8(data)), kinds, command)
    report = {"command": command, **builder(operand, **options)}
    report.setdefault("detail", {})["args"] = options
    report["input_digest"] = input_digest(b"" if data is None else data)
    return report


def _report(args) -> dict:
    """The report of a parsed command line: replay's, or :func:`build`'s."""
    if args.command == "replay":
        from .replay import _run_replay

        return _run_replay(args)
    options = {key: getattr(args, key) for key in RECORDED_OPTIONS[args.command]}
    return build(args.command, args.file, options)


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

    p_arens = add("arens", "compute bidual extensions and decide disjointness of the input")
    p_arens.add_argument(
        "--perm",
        default="all",
        help='"all", "id", "theta", or cycle notation such as "(1 2)"',
    )
    p_arens.add_argument("--trace", action="store_true", help="print the chain masks and subset marginals")

    add("modulus", "entrywise modulus of a tensor")
    add("factorize", "factor a scalar disjointness preserving tensor")
    add("rank", "dimension of the sublattice generated by the range")

    p_seq = add("seq-demo", "run the sequence model instance suite", needs_file=False)
    p_seq.add_argument("--seed", type=int, default=0)
    p_seq.add_argument(
        "--weight-file",
        dest="file",
        metavar="WEIGHT_FILE",
        help="EvConstSeq or diag-bilinear spec JSON overriding the default weight",
    )

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
        report = _report(args)
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
    return 0 if report["ok"] else 1
