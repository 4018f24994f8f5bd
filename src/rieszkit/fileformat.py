"""Reading and writing operator spec files.

Three kinds of JSON files are understood: tensors, diagonal bilinear maps
and weighted composition operators. All indices on the wire are 1-based;
rationals are strings "p/q" (or "p" when the denominator is 1). A tensor
file is recognized by its "m" field; the two sequence kinds must carry an
explicit "kind". Duplicate tensor entries are rejected rather than merged.

Spec serialization is canonical (sorted keys, fixed indentation, trailing
newline), so identical objects produce identical bytes. CLI reports use a
compact canonical form instead (:func:`rieszkit.report.report_json`).
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction
from typing import TYPE_CHECKING

from .operators import MultiTensor, ShapeError, check_shape
from .rational import format_rational, parse_rational

if TYPE_CHECKING:
    from .seqmodel import DiagBilinear, EvConstSeq, WeightedCompOp

FORMAT_VERSION = 1

_TENSOR_KEYS = {"format", "kind", "m", "domain_dims", "codomain_dim", "entries"}
_ENTRY_KEYS = {"out", "idx", "value"}
_INT_TYPE = {int}
_SEQ_KEYS = {"exceptions", "tail"}
_DIAG_KEYS = {"format", "kind", "weight"}
_COMP_KEYS = {"format", "kind", "weight", "table", "shift"}


class SpecFileError(ValueError):
    """Malformed spec file: bad JSON, bad schema, or out-of-range data."""


def read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc


def decode_utf8(data: bytes, what: str = "spec file") -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SpecFileError(f"{what} is not UTF-8 text: {exc}") from exc


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _require_dict(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise SpecFileError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _check_keys(obj: dict, allowed: set[str], required: set[str], what: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise SpecFileError(f"unknown keys in {what}: {sorted(extra)}")
    missing = required - set(obj)
    if missing:
        raise SpecFileError(f"missing keys in {what}: {sorted(missing)}")


def _check_version(obj: dict) -> None:
    version = obj.get("format", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise SpecFileError(f"unsupported format version {version!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _all_ints(items: list) -> bool:
    # Plain ints, the only kind JSON yields, are told apart in C; bools
    # and other int subclasses take the per-item test.
    return set(map(type, items)) == _INT_TYPE or all(map(_is_int, items))


def _int_field(obj: dict, key: str, what: str) -> int:
    value = obj[key]
    if not _is_int(value):
        raise SpecFileError(f"{what}.{key} must be an integer, got {value!r}")
    return value


def _rational_field(value, what: str):
    if not isinstance(value, str):
        raise SpecFileError(f"{what} must be a rational string, got {value!r}")
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise SpecFileError(f"{what}: {exc}") from exc


def parse_tensor(obj) -> MultiTensor:
    """Validate a tensor spec and build its tensor, in one pass over the entries.

    The shape is checked first; then each entry gets its type, 1-based,
    range and duplicate checks, and each distinct rational literal is
    parsed once per file. Entries given as zero are checked like the
    others and then dropped.
    """
    obj = _require_dict(obj, "tensor spec")
    _check_keys(obj, _TENSOR_KEYS, {"m", "domain_dims", "codomain_dim", "entries"}, "tensor spec")
    _check_version(obj)
    if obj.get("kind", "tensor") != "tensor":
        raise SpecFileError(f"kind {obj['kind']!r} does not describe a tensor")
    m = _int_field(obj, "m", "tensor spec")
    dims = obj["domain_dims"]
    if not isinstance(dims, list) or len(dims) != m or not _all_ints(dims):
        raise SpecFileError(f"domain_dims must be a list of {m} integers")
    codomain = _int_field(obj, "codomain_dim", "tensor spec")
    if not isinstance(obj["entries"], list):
        raise SpecFileError("entries must be a list")
    dims = tuple(map(int, dims))
    codomain = int(codomain)
    try:
        check_shape(dims, codomain)
    except ShapeError as exc:
        raise SpecFileError(str(exc)) from exc
    entries: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    zeros: set[tuple[int, tuple[int, ...]]] = set()
    literals: dict[str, Fraction] = {}
    for pos, entry in enumerate(obj["entries"]):
        if not isinstance(entry, dict) or entry.keys() != _ENTRY_KEYS:
            entry = _require_dict(entry, f"entries[{pos}]")
            _check_keys(entry, _ENTRY_KEYS, _ENTRY_KEYS, f"entries[{pos}]")
        out = entry["out"]
        if type(out) is not int:  # the message is built only off the common path
            out = _int_field(entry, "out", f"entries[{pos}]")
        idx = entry["idx"]
        if not isinstance(idx, list) or len(idx) != m or not _all_ints(idx):
            raise SpecFileError(f"entries[{pos}].idx must be a list of {m} integers")
        if out < 1 or min(idx) < 1:
            raise SpecFileError(f"entries[{pos}]: indices are 1-based")
        raw = entry["value"]
        value = literals.get(raw) if isinstance(raw, str) else None
        if value is None:
            value = literals[raw] = _rational_field(raw, f"entries[{pos}].value")
        key = (out - 1, tuple([i - 1 for i in idx]))
        if key in entries or key in zeros:
            raise SpecFileError(f"duplicate entry for out={key[0]}, idx={key[1]}")
        if out > codomain:
            raise SpecFileError(f"output coordinate {key[0]} out of range 0..{codomain - 1}")
        if not all(map(operator.le, idx, dims)):
            raise SpecFileError(f"index tuple {key[1]} out of range for dims {dims}")
        if value:
            entries[key] = value
        else:
            zeros.add(key)
    return MultiTensor._derived(dims, codomain, entries)


def tensor_to_obj(tensor: MultiTensor) -> dict:
    return {
        "format": FORMAT_VERSION,
        "kind": "tensor",
        "m": tensor.m,
        "domain_dims": list(tensor.domain_dims),
        "codomain_dim": tensor.codomain_dim,
        "entries": [
            {
                "out": out + 1,
                "idx": [i + 1 for i in idx],
                "value": format_rational(value),
            }
            for out, idx, value in tensor.rows()
        ],
    }


def parse_seq(obj, what: str = "sequence") -> EvConstSeq:
    from .seqmodel import EvConstSeq

    obj = _require_dict(obj, what)
    _check_keys(obj, _SEQ_KEYS, {"tail"}, what)
    exceptions = obj.get("exceptions", {})
    exceptions = _require_dict(exceptions, f"{what}.exceptions")
    exc: dict[int, object] = {}
    for key, raw in exceptions.items():
        if not isinstance(key, str) or not key.isdigit() or int(key) < 1:
            raise SpecFileError(f"{what}: exception index {key!r} must be a 1-based integer string")
        exc[int(key)] = _rational_field(raw, f"{what}.exceptions[{key}]")
    return EvConstSeq(exc, _rational_field(obj["tail"], f"{what}.tail"))


def seq_to_obj(seq: EvConstSeq) -> dict:
    return {
        "exceptions": {
            str(k): format_rational(v) for k, v in sorted(seq.exceptions.items())
        },
        "tail": format_rational(seq.tail),
    }


def parse_diag(obj) -> DiagBilinear:
    from .seqmodel import DiagBilinear

    obj = _require_dict(obj, "diag-bilinear spec")
    _check_keys(obj, _DIAG_KEYS, {"kind", "weight"}, "diag-bilinear spec")
    _check_version(obj)
    if obj["kind"] != "diag-bilinear":
        raise SpecFileError(f"kind {obj['kind']!r} is not 'diag-bilinear'")
    return DiagBilinear(parse_seq(obj["weight"], "weight"))


def diag_to_obj(op: DiagBilinear) -> dict:
    return {
        "format": FORMAT_VERSION,
        "kind": "diag-bilinear",
        "weight": seq_to_obj(op.weight),
    }


def parse_comp(obj) -> WeightedCompOp:
    from .seqmodel import WeightedCompOp

    obj = _require_dict(obj, "weighted-comp spec")
    _check_keys(obj, _COMP_KEYS, {"kind", "weight"}, "weighted-comp spec")
    _check_version(obj)
    if obj["kind"] != "weighted-comp":
        raise SpecFileError(f"kind {obj['kind']!r} is not 'weighted-comp'")
    table_obj = _require_dict(obj.get("table", {}), "weighted-comp table")
    table: dict[int, int] = {}
    for key, target in table_obj.items():
        if not isinstance(key, str) or not key.isdigit() or int(key) < 1:
            raise SpecFileError(f"table index {key!r} must be a 1-based integer string")
        if not isinstance(target, int) or isinstance(target, bool) or target < 1:
            raise SpecFileError(f"table target {target!r} must be a 1-based integer")
        table[int(key)] = target
    shift = obj.get("shift", 0)
    if not isinstance(shift, int) or isinstance(shift, bool) or shift < 0:
        raise SpecFileError(f"shift must be a nonnegative integer, got {shift!r}")
    return WeightedCompOp(parse_seq(obj["weight"], "weight"), table, shift)


def comp_to_obj(op: WeightedCompOp) -> dict:
    return {
        "format": FORMAT_VERSION,
        "kind": "weighted-comp",
        "weight": seq_to_obj(op.weight),
        "table": {str(k): v for k, v in sorted(op.table.items())},
        "shift": op.shift,
    }


def parse_spec(obj) -> MultiTensor | DiagBilinear | WeightedCompOp:
    obj = _require_dict(obj, "spec file")
    kind = obj.get("kind")
    if kind is None:
        if "m" in obj:
            kind = "tensor"
        else:
            raise SpecFileError("cannot tell the spec kind: no 'kind' and no 'm' field")
    if kind == "tensor":
        return parse_tensor(obj)
    if kind == "diag-bilinear":
        return parse_diag(obj)
    if kind == "weighted-comp":
        return parse_comp(obj)
    raise SpecFileError(f"unknown spec kind {kind!r}")


def spec_to_obj(spec) -> dict:
    if isinstance(spec, MultiTensor):
        return tensor_to_obj(spec)
    from .seqmodel import DiagBilinear, WeightedCompOp

    if isinstance(spec, DiagBilinear):
        return diag_to_obj(spec)
    if isinstance(spec, WeightedCompOp):
        return comp_to_obj(spec)
    raise TypeError(f"not a spec object: {type(spec).__name__}")


def decode_json(text: str, what: str = "JSON"):
    """json.loads; bad syntax, nesting past the recursion limit and integer
    literals past the int-to-str digit limit are all SpecFileError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError
        raise SpecFileError(f"invalid {what}: {exc}") from exc


def loads_spec(text: str) -> MultiTensor | DiagBilinear | WeightedCompOp:
    return parse_spec(decode_json(text))


def load_spec_file(path: str) -> MultiTensor | DiagBilinear | WeightedCompOp:
    return loads_spec(decode_utf8(read_bytes(path)))


def dumps_spec(spec) -> str:
    return canonical_json(spec_to_obj(spec))
