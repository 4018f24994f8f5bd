"""The ``replay`` subcommand: re-verify a stored report.

Only four things are read from a stored report: its command, its
``format`` (one other than :data:`rieszkit.report.REPORT_FORMAT`, or none,
is an input error that names both), the options it recorded
(``detail.args``, type-checked against
:data:`rieszkit.cli.RECORDED_OPTIONS`) and its input digest. That command
is rerun with those options on the given input file through
:func:`rieszkit.cli.build`, the path every command takes, so every field
is recomputed, the input digest and ``detail.args`` included. The
input must have the stored digest (exit 2 otherwise), and the verdict is
whether the rebuilt report matches the stored one as canonical bytes. A
stored witness is one of those fields: the rerun checked the witness it
built against the tensor's entries, so a changed or malformed stored one
is a report that was not reproduced. Only ``replay`` loads this module.
"""

from __future__ import annotations

from . import cli
from .fileformat import SpecFileError, decode_json, decode_utf8, read_bytes
from .report import REPORT_FORMAT, build_report, check, report_json


def _stored_command(stored) -> tuple[str, dict]:
    """Command and recorded options of a stored report, type-checked.

    Only the options a rerun reads are taken; every other field is
    recomputed, so a malformed report is an input error rather than a crash.
    """
    command = stored.get("command") if isinstance(stored, dict) else None
    if not isinstance(command, str) or command not in cli.RECORDED_OPTIONS:
        raise SpecFileError(f"not a report of a command that replays: {command!r}")
    found = stored.get("format")  # None when missing
    if type(found) is not int or found != REPORT_FORMAT:  # 2.0 == 2
        raise SpecFileError(f"report format {found!r} does not replay; this version reads {REPORT_FORMAT}")
    detail = stored.get("detail", {})
    stored_args = detail.get("args", {}) if isinstance(detail, dict) else None
    if not isinstance(stored_args, dict):
        raise SpecFileError("report detail.args must be a JSON object")
    options = cli.RECORDED_OPTIONS[command]
    for key, kind in options.items():
        if type(stored_args.get(key)) is not kind:
            raise SpecFileError(f"report detail.args.{key} must be a {kind.__name__}")
    return command, {key: stored_args[key] for key in options}


def _run_replay(args: dict) -> dict:
    stored = decode_json(decode_utf8(read_bytes(args["report"]), "report file"), "report JSON")
    command, options = _stored_command(stored)
    if args["spec"] is None and command != "seq-demo":
        raise SpecFileError(f"replaying {command!r} needs the original spec file")
    rebuilt = cli.build(command, args["spec"], options)
    if rebuilt["input_digest"] != stored.get("input_digest"):
        raise SpecFileError("the input does not match the report's input_digest")

    # Compared as canonical bytes: parsed JSON has true == 1 == 1.0.
    return {
        "command": "replay",
        "input_digest": rebuilt["input_digest"],
        **build_report(
            [check("report-reproduced", report_json(rebuilt) == report_json(stored))],
            detail={"args": {"command": command}},
        ),
    }
