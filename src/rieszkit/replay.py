"""The ``replay`` subcommand: re-verify a stored report.

A stored report is decoded and its command and recorded options
(``detail.args``) are type-checked. That command line is rerun on the
given input file through :func:`rieszkit.cli._report`, the path every
command takes, so every field is recomputed, the input digest and
``detail.args`` included. The input must have the stored digest (exit 2
otherwise), the rebuilt report must match the stored one as canonical
bytes, and a stored witness must re-verify against the input tensor.
Only ``replay`` loads this module.
"""

from __future__ import annotations

import argparse

from . import cli
from .fileformat import SpecFileError, decode_json, decode_utf8, read_bytes
from .operators import MultiTensor
from .rational import DigitLimitError
from .report import build_report, check, report_json, witness_from_obj


# The commands a report can come from and the options each records in
# detail.args, with their exact JSON types (bool is an int subclass).
_RECORDED_OPTIONS = {
    "check-dp": {},
    "modulus": {},
    "factorize": {},
    "rank": {},
    "arens": {"perm": str, "trace": bool},
    "seq-demo": {"seed": int},
}


def _stored_command(stored) -> tuple[str, dict]:
    """Command and recorded options of a stored report, type-checked.

    Only the options a rerun reads are taken; every other field is
    recomputed, so a malformed report is an input error rather than a crash.
    """
    command = stored.get("command") if isinstance(stored, dict) else None
    if not isinstance(command, str) or command not in _RECORDED_OPTIONS:
        raise SpecFileError(f"not a report of a command that replays: {command!r}")
    detail = stored.get("detail", {})
    stored_args = detail.get("args", {}) if isinstance(detail, dict) else None
    if not isinstance(stored_args, dict):
        raise SpecFileError("report detail.args must be a JSON object")
    options = _RECORDED_OPTIONS[command]
    for key, kind in options.items():
        if type(stored_args.get(key)) is not kind:
            raise SpecFileError(f"report detail.args.{key} must be a {kind.__name__}")
    return command, {key: stored_args[key] for key in options}


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
    command, options = _stored_command(stored)
    if args.spec is None and command != "seq-demo":
        raise SpecFileError(f"replaying {command!r} needs the original spec file")
    rerun = argparse.Namespace(command=command, file=args.spec, weight_file=args.spec, **options)
    _, rebuilt, tensor = cli._report(rerun)
    if rebuilt["input_digest"] != stored.get("input_digest"):
        raise SpecFileError("the input does not match the report's input_digest")

    # Compared as canonical bytes: parsed JSON has true == 1 == 1.0.
    checks = [check("report-reproduced", report_json(rebuilt) == report_json(stored))]
    if "witness" in stored and tensor is not None:
        checks.append(check("witness-verifies", _stored_witness_verifies(stored["witness"], tensor)))
    report = build_report(
        "replay",
        rebuilt["input_digest"],
        checks,
        detail={"args": {"command": command}},
    )
    return (0 if report["ok"] else 1), report
