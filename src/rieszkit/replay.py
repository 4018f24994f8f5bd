"""The ``replay`` subcommand: re-verify a stored report.

A stored report is decoded, its command, input digest and args are
type-checked, and the report is rebuilt by the same builder the command
ran: the tensor builders of :mod:`rieszkit.cli`, the Arens builder of
:mod:`rieszkit.arens` (loaded only for a stored ``arens`` report) or the
seq-demo builder of :mod:`rieszkit.seqmodel` (loaded only for a stored
``seq-demo`` report). The rebuilt report must match the stored one as
canonical bytes, and a stored DP witness must still re-verify against the
spec. Only ``replay`` loads this module.
"""

from __future__ import annotations

from . import cli
from .fileformat import SpecFileError, decode_json, decode_utf8, parse_seq, read_bytes
from .operators import MultiTensor
from .rational import DigitLimitError
from .report import build_report, check, report_json, witness_from_obj


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
        from .seqmodel import _report_seq_demo

        weight = parse_seq(stored_args.get("weight", {"tail": "1"}), "weight")
        _, rebuilt = _report_seq_demo(weight, stored_digest, stored_args)
    else:
        if not args.spec:
            raise SpecFileError(f"replaying {command!r} needs the original spec file")
        spec, digest = cli._load_tensor(args.spec)
        if digest != stored_digest:
            raise SpecFileError("spec file does not match the report's input digest")
        builder = cli._tensor_report(command)
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
