"""Deterministic reports for the command line front end.

A report is a plain dict rendered either as compact canonical JSON
(sorted keys, no insignificant whitespace, trailing newline) or as stable
human text. Identical input and seed produce identical bytes: nothing
time- or path-dependent goes in (wall time is printed to stderr by the
CLI, never into the report). Witnesses are serialized 1-based to match
the file formats and can be re-verified later by the replay command,
which compares parsed reports, so the indented form older versions wrote
replays just the same.
"""

from __future__ import annotations

import hashlib
import json

from .operators import DPVerdict, DPWitness
from .rational import format_rational, parse_rational
from .vectors import FinVector


def input_digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def vector_to_obj(vec: FinVector) -> list[str]:
    return [format_rational(c) for c in vec]


def vector_from_obj(obj) -> FinVector:
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
        out_coord=obj["out_coord"] - 1,
        slot=obj["slot"] - 1,
        x=vector_from_obj(obj["x"]),
        y=vector_from_obj(obj["y"]),
        fixed=tuple(
            (int(i) - 1, vector_from_obj(v)) for i, v in sorted(obj["fixed"].items(), key=lambda kv: int(kv[0]))
        ),
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
    command: str,
    digest: str,
    checks: list[dict],
    *,
    witness: dict | None = None,
    cost: dict | None = None,
    seed: int | None = None,
    detail: dict | None = None,
) -> dict:
    report = {
        "command": command,
        "input_digest": digest,
        "checks": checks,
        "ok": all(c["verdict"] == "pass" for c in checks),
    }
    if witness is not None:
        report["witness"] = witness
    if cost is not None:
        report["cost"] = cost
    if seed is not None:
        report["seed"] = seed
    if detail is not None:
        report["detail"] = detail
    return report


def report_json(report: dict) -> str:
    # No indent: CPython only uses its C encoder when indent is None.
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def render_human(report: dict) -> str:
    lines = [f"command: {report['command']}", f"input: {report['input_digest']}"]
    if "seed" in report:
        lines.append(f"seed: {report['seed']}")
    for entry in report["checks"]:
        extras = [
            f"{key}={value}"
            for key, value in sorted(entry.items())
            if key not in ("name", "verdict") and not isinstance(value, dict)
        ]
        suffix = f"  ({', '.join(extras)})" if extras else ""
        lines.append(f"  [{entry['verdict'].upper():4}] {entry['name']}{suffix}")
    w = report.get("witness")
    if w is not None and "check" in w:  # a seq-demo probe disagreement
        lines.append(f"witness: check {w['check']} at index {w['index']}")
        lines.append(f"  got {w['got']}, expected {w['expected']}")
    elif w is not None:
        lines.append(
            f"witness: output coordinate {w['out_coord']}, slot {w['slot']}"
        )
        lines.append(f"  x = {w['x']}")
        lines.append(f"  y = {w['y']}")
        for i, v in sorted(w["fixed"].items(), key=lambda kv: int(kv[0])):
            lines.append(f"  slot {i} fixed at {v}")
        lines.append(f"  image of x = {w['image_x']}")
        lines.append(f"  image of y = {w['image_y']}")
    if "cost" in report:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(report["cost"].items()))
        lines.append(f"cost: {parts}")
    lines.append("result: " + ("ok" if report["ok"] else "FAILED"))
    return "\n".join(lines) + "\n"
