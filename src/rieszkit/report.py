"""Deterministic reports for the command line front end.

A report is a plain dict rendered either as compact canonical JSON
(sorted keys, no insignificant whitespace, trailing newline) or as stable
human text, which shows only the checks and the witness besides the
command, digest and verdict (``detail`` needs JSON). Its top-level keys
are ``checks``, ``command``, ``detail``, ``format``
(:data:`REPORT_FORMAT`), ``input_digest``, ``ok`` and, when a DP decision
fails, ``witness``; none restates the input or another field, and only
:func:`rieszkit.cli.build` writes ``detail.args`` and ``input_digest``.
Identical input and seed produce identical bytes: nothing time- or
path-dependent goes in (wall time goes to stderr). Every witness is a DP
witness (:class:`rieszkit.operators.DPWitness`) that re-verifies by
evaluation: seq-demo's probe suites raise rather than report a
disagreement. :func:`build_report` serializes it 1-based to match the
file formats; :func:`witness_from_obj` reads a printed one back for the
tests and the benchmark, since replay reads no stored witness. The replay
command re-encodes the parsed stored report in this compact form before
comparing, so a report stored in indented form replays just the same.
"""

from __future__ import annotations

import hashlib
import json

from .fileformat import _int_field, index_key
from .operators import DPVerdict, DPWitness
from .rational import format_rational, parse_rational
from .vectors import FinVector


# Replay refuses a report of another format; a change to any report's fields bumps it.
REPORT_FORMAT = 2


def input_digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def vector_to_obj(vec: FinVector) -> list[str]:
    return [format_rational(c) for c in vec]


def vector_from_obj(obj) -> FinVector:
    if not isinstance(obj, list):  # a string would be read character by character
        raise TypeError(f"a vector must be a list of rational strings, not {type(obj).__name__}")
    return FinVector([parse_rational(c) for c in obj])


def witness_to_obj(witness: DPWitness) -> dict:
    return {
        "out_coord": witness.out_coord + 1,
        "slot": witness.slot + 1,
        "x": vector_to_obj(witness.x),
        "y": vector_to_obj(witness.y),
        "fixed": {str(i + 1): vector_to_obj(v) for i, v in witness.fixed},
        "image_x": vector_to_obj(witness.image_x),
        "image_y": vector_to_obj(witness.image_y),
    }


def witness_from_obj(obj) -> DPWitness:
    return DPWitness(
        out_coord=_int_field(obj, "out_coord", "witness") - 1,
        slot=_int_field(obj, "slot", "witness") - 1,
        x=vector_from_obj(obj["x"]),
        y=vector_from_obj(obj["y"]),
        fixed=tuple(sorted(
            ((index_key(i, "witness slot") - 1, vector_from_obj(v)) for i, v in obj["fixed"].items()),
            key=lambda pair: pair[0],
        )),
        image_x=vector_from_obj(obj["image_x"]),
        image_y=vector_from_obj(obj["image_y"]),
    )


def certificate_to_obj(verdict: DPVerdict):
    if verdict.certificate is None:
        return None
    return [
        None if idx is None else [i + 1 for i in idx]
        for idx in verdict.certificate
    ]


def check(name: str, passed: bool, **detail) -> dict:
    entry = {"name": name, "verdict": "pass" if passed else "fail"}
    entry.update(detail)
    return entry


def build_report(
    checks: list[dict],
    *,
    witness: DPWitness | None = None,
    detail: dict | None = None,
) -> dict:
    """A report but for what :func:`rieszkit.cli.build` adds: command, digest, args."""
    report = {
        "checks": checks,
        "format": REPORT_FORMAT,
        "ok": all(c["verdict"] == "pass" for c in checks),
    }
    if witness is not None:
        report["witness"] = witness_to_obj(witness)
    if detail is not None:
        report["detail"] = detail
    return report


_STAND_IN = "\x00shared tensor"


def _encode(obj) -> str:
    # No indent: CPython only uses its C encoder when indent is None.
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def report_json(report: dict) -> str:
    """Compact canonical JSON: sorted keys, no insignificant whitespace, a newline."""
    return (_spliced(report) or _encode(report)) + "\n"


def _spliced(report: dict) -> str | None:
    """``_encode(report)`` with the input's wire form encoded only once, or None.

    ``report`` comes from :func:`rieszkit.cli.build`, or is one decoded. Each
    ``arens`` extension is the input (every Q^d is reflexive), and the
    report holds the input's one wire-form dict at every permutation, m!
    copies in the text. That dict is encoded once and its text spliced in
    at each of them. A stand-in string marks the places; if its encoding
    shows up anywhere else, or fewer than two extensions share the dict,
    the result is None and the caller encodes the report whole.
    """
    detail = report.get("detail", {})
    extensions = detail.get("extensions")
    if not isinstance(extensions, list) or len(extensions) < 2 or not all(
        isinstance(e, dict) and "tensor" in e for e in extensions
    ):  # a decoded report may hold anything here
        return None
    shared = extensions[0]["tensor"]
    marked = [{**e, "tensor": _STAND_IN} if e["tensor"] is shared else e for e in extensions]
    count = sum(e is not o for e, o in zip(marked, extensions))
    if count < 2:
        return None
    text = _encode({**report, "detail": {**detail, "extensions": marked}})
    marker = _encode(_STAND_IN)
    if text.count(marker) != count:
        return None
    return text.replace(marker, _encode(shared))


def render_human(report: dict) -> str:
    lines = [f"command: {report['command']}", f"input: {report['input_digest']}"]
    for entry in report["checks"]:
        extras = [
            f"{key}={value}"
            for key, value in sorted(entry.items())
            if key not in ("name", "verdict")
        ]
        suffix = f"  ({', '.join(extras)})" if extras else ""
        lines.append(f"  [{entry['verdict'].upper():4}] {entry['name']}{suffix}")
    w = report.get("witness")
    if w is not None:
        lines.append(
            f"witness: output coordinate {w['out_coord']}, slot {w['slot']}"
        )
        lines.append(f"  x = {w['x']}")
        lines.append(f"  y = {w['y']}")
        for i, v in sorted(w["fixed"].items(), key=lambda kv: int(kv[0])):
            lines.append(f"  slot {i} fixed at {v}")
        lines.append(f"  image of x = {w['image_x']}")
        lines.append(f"  image of y = {w['image_y']}")
    lines.append("result: " + ("ok" if report["ok"] else "FAILED"))
    return "\n".join(lines) + "\n"
