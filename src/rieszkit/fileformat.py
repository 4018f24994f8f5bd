"""Reading and writing operator spec files.

Four kinds of JSON files are understood: tensors, diagonal bilinear maps,
weighted composition operators and bare sequences. All indices on the wire
are 1-based; rationals are strings "p/q" (or "p" when the denominator is
1). :func:`parse_spec` alone reads a file's envelope: its kind is the
"kind" field, else "tensor" when there is an "m" field, else "sequence";
a command refuses a kind it does not take before reading anything else,
and the three kinds other than a bare sequence carry a format version.
Duplicate tensor entries are rejected rather than merged. The parsers of
the two operator kinds on sequences live in :mod:`rieszkit.seqmodel`,
which only a sequence kind loads.
"""

from __future__ import annotations

import json
import operator
import sys
from collections import Counter
from fractions import Fraction
from typing import TYPE_CHECKING

from .operators import MultiTensor, ShapeError, check_shape
from .rational import format_rational, parse_rational

if TYPE_CHECKING:
    from .seqmodel import DiagBilinear, EvConstSeq, WeightedCompOp

FORMAT_VERSION = 1
# Every spec kind, in the order the refusal of another kind lists them.
SPEC_KINDS = ("tensor", "diag-bilinear", "weighted-comp", "sequence")

_TENSOR_KEYS = {"format", "kind", "m", "domain_dims", "codomain_dim", "entries"}
_ENTRY_KEYS = {"out", "idx", "value"}
_INT_TYPE = {int}
_SEQ_KEYS = {"exceptions", "tail"}


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


def index_key(key, what: str) -> int:
    """A 1-based index written as a JSON object key, in ASCII digits only.

    A leading zero is refused, so each index has one spelling and two keys
    such as "1" and "01" cannot silently name one index. The key must also
    stay below the int-to-str digit limit by a digit: reports write indices
    a few past the largest one read (the rank certificate of seq-demo), and
    those must convert back to text.
    """
    if not (isinstance(key, str) and key.isascii() and key.isdigit()):
        raise SpecFileError(f"{what} {key!r} must be a 1-based integer string of ASCII digits")
    if key.startswith("0") and key != "0":
        raise SpecFileError(f"{what} {key!r} has a leading zero; write it without one")
    limit = sys.get_int_max_str_digits()
    if limit and len(key) >= limit:
        raise SpecFileError(
            f"{what} {key!r} has {len(key)} digits, not fewer than the int-to-str digit "
            f"limit of {limit}; rerun under python -X int_max_str_digits=0"
        )
    index = int(key)
    if index < 1:
        raise SpecFileError(f"{what} {key!r} must be 1-based")
    return index


def _rational_field(value, what: str):
    if not isinstance(value, str):
        raise SpecFileError(f"{what} must be a rational string, got {value!r}")
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise SpecFileError(f"{what}: {exc}") from exc


def parse_tensor(obj) -> MultiTensor:
    """Validate a tensor spec and fill its tensor's slices, in one pass over the entries.

    ``obj`` is a dict whose envelope (kind and format version)
    :func:`parse_spec` has read. The shape is checked first; then each
    entry gets its type, 1-based, range and duplicate checks, and each
    distinct rational literal is parsed once per file. Errors quote the
    file's own 1-based values. Entries given as zero are checked like the
    others, duplicates included, and dropped slice by slice at the end.
    """
    _check_keys(obj, _TENSOR_KEYS, {"m", "domain_dims", "codomain_dim", "entries"}, "tensor spec")
    m = _int_field(obj, "m", "tensor spec")
    dims = obj["domain_dims"]
    if not isinstance(dims, list) or len(dims) != m or not _all_ints(dims):
        raise SpecFileError(f"domain_dims must be a list of {m} integers")
    codomain = _int_field(obj, "codomain_dim", "tensor spec")
    if not isinstance(obj["entries"], list):
        raise SpecFileError("entries must be a list")
    dims = tuple(dims)
    try:
        check_shape(dims, codomain)
    except ShapeError as exc:
        raise SpecFileError(str(exc)) from exc
    slices: tuple[dict[tuple[int, ...], Fraction], ...] = tuple({} for _ in range(codomain))
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
        if out > codomain:
            raise SpecFileError(f"entries[{pos}]: output coordinate {out} out of range 1..{codomain}")
        row = slices[out - 1]
        key = tuple([i - 1 for i in idx])
        if key in row:
            raise SpecFileError(f"entries[{pos}]: duplicate entry for out={out}, idx={tuple(idx)}")
        if not all(map(operator.le, idx, dims)):
            raise SpecFileError(f"entries[{pos}]: index tuple {tuple(idx)} out of range for dims {dims}")
        row[key] = value
    return MultiTensor._derived(
        dims, tuple(row if all(row.values()) else {i: v for i, v in row.items() if v} for row in slices)
    )


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
            for out, row in enumerate(tensor.slices())
            for idx, value in sorted(row.items())
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
        index = index_key(key, f"{what}: exception index")
        exc[index] = _rational_field(raw, f"{what}.exceptions[{key}]")
    return EvConstSeq(exc, _rational_field(obj["tail"], f"{what}.tail"))


def parse_spec(
    obj, kinds: tuple[str, ...] = SPEC_KINDS, what: str = "spec file"
) -> MultiTensor | DiagBilinear | WeightedCompOp | EvConstSeq:
    """The operator a spec object holds, if its kind is one of ``kinds``.

    The kind is the "kind" field, else "tensor" when there is an "m"
    field, else "sequence". A kind outside ``kinds`` is refused before
    anything else is read, as ``what takes a ... spec``; it is compared
    by tuple membership, so an unhashable one is refused too. Every kind
    but a bare sequence, which carries no "kind" field, has a version.
    """
    obj = _require_dict(obj, "spec file")
    kind = obj.get("kind", "tensor" if "m" in obj else "sequence")
    if kind not in kinds:
        raise SpecFileError(f"{what} takes a {' or a '.join(kinds)} spec, not {kind!r}")
    if kind == "sequence":
        if "kind" in obj:
            raise SpecFileError('a sequence spec is a bare sequence: it carries no "kind" field')
        return parse_seq(obj, "weight")
    version = obj.get("format", FORMAT_VERSION)
    if not _is_int(version) or version != FORMAT_VERSION:  # true and 1.0 equal 1 too
        raise SpecFileError(f"unsupported format version {version!r}")
    if kind == "tensor":
        return parse_tensor(obj)
    from . import seqmodel

    return seqmodel.parse_diag(obj) if kind == "diag-bilinear" else seqmodel.parse_comp(obj)


def _unique_keys(pairs: list) -> dict:
    """object_pairs_hook: a key given twice in one object is an error, not the last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        key = next(key for key, n in counts.items() if n > 1)
        raise SpecFileError(f"duplicate object key {key!r}")
    return obj


def decode_json(text: str, what: str = "JSON"):
    """json.loads; bad syntax, a key given twice in one object, nesting past
    the recursion limit and integer literals past the int-to-str digit limit
    are all SpecFileError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError
        raise SpecFileError(f"invalid {what}: {exc}") from exc


def loads_spec(text: str) -> MultiTensor | DiagBilinear | WeightedCompOp | EvConstSeq:
    return parse_spec(decode_json(text))
