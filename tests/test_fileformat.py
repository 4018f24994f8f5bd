"""Spec file parsing, validation, and canonical serialization."""

import json
import pathlib
import random
import re

import pytest

from rieszkit import EvConstSeq, MultiTensor, cli
from rieszkit.fileformat import (
    SpecFileError,
    canonical_json,
    loads_spec,
    parse_seq,
    parse_spec,
    parse_tensor,
    seq_to_obj,
)

from helpers import dumps_spec, load_spec_file, parse_tensor_reference, spec_to_obj

FIXTURES = sorted(pathlib.Path(__file__).parent.glob("fixtures/*.json"))


def test_fixture_corpus_present():
    assert len(FIXTURES) == 20


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_round_trip_identity(path):
    first = load_spec_file(str(path))
    text = dumps_spec(first)
    second = loads_spec(text)
    assert first == second
    assert dumps_spec(second) == text  # serialization is a fixed point


def test_kinds_detected():
    kinds = {}
    for path in FIXTURES:
        spec = load_spec_file(str(path))
        kinds.setdefault(type(spec).__name__, 0)
        kinds[type(spec).__name__] += 1
    assert kinds == {"MultiTensor": 8, "DiagBilinear": 6, "WeightedCompOp": 6}


def test_tensor_indices_are_one_based():
    spec = loads_spec(
        json.dumps(
            {
                "m": 2,
                "domain_dims": [2, 3],
                "codomain_dim": 1,
                "entries": [{"out": 1, "idx": [2, 3], "value": "4"}],
            }
        )
    )
    assert isinstance(spec, MultiTensor)
    assert spec.entry(0, (1, 2)) == 4


def test_tensor_without_kind_is_recognized():
    spec = loads_spec('{"m": 1, "domain_dims": [2], "codomain_dim": 1, "entries": []}')
    assert isinstance(spec, MultiTensor)
    assert spec.nnz() == 0


@pytest.mark.parametrize(
    "text",
    [
        "not json at all {",
        "[1, 2]",
        '{"kind": "mystery"}',
        '{"weight": {"tail": "1"}}',  # no kind, no m
        '{"format": 2, "m": 1, "domain_dims": [2], "codomain_dim": 1, "entries": []}',
        '{"format": true, "m": 1, "domain_dims": [2], "codomain_dim": 1, "entries": []}',
        '{"format": 1.0, "m": 1, "domain_dims": [2], "codomain_dim": 1, "entries": []}',
        '{"format": true, "kind": "diag-bilinear", "weight": {"tail": "1"}}',
        '{"m": 2, "domain_dims": [2], "codomain_dim": 1, "entries": []}',
        '{"m": 1, "domain_dims": [2], "codomain_dim": 1, "entries": [], "extra": 1}',
        '{"m": 1, "domain_dims": [2], "codomain_dim": 1, "entries": [{"out": 0, "idx": [1], "value": "1"}]}',
        '{"m": 1, "domain_dims": [2], "codomain_dim": 1, "entries": [{"out": 1, "idx": [3], "value": "1"}]}',
        '{"m": 1, "domain_dims": [2], "codomain_dim": 1, "entries": [{"out": 1, "idx": [1], "value": "0.5"}]}',
        '{"m": 1, "domain_dims": [2], "codomain_dim": 1, "entries": [{"out": 1, "idx": [1], "value": 1}]}',
        '{"m": 1, "domain_dims": [2], "codomain_dim": 1, "entries": ['
        '{"out": 1, "idx": [1], "value": "1"}, {"out": 1, "idx": [1], "value": "2"}]}',
        '{"m": 5, "domain_dims": [2, 2, 2, 2, 2], "codomain_dim": 1, "entries": []}',
        '{"kind": "diag-bilinear", "weight": {"tail": "1/0"}}',
        '{"kind": "weighted-comp", "weight": {"tail": "1"}, "shift": -1}',
        '{"kind": "weighted-comp", "weight": {"tail": "1"}, "table": {"0": 1}}',
        '{"kind": "weighted-comp", "weight": {"tail": "1"}, "table": {"1": "2"}}',
        '{"m": true, "domain_dims": [2], "codomain_dim": 1, "entries": []}',
    ],
)
def test_malformed_specs_rejected(text):
    with pytest.raises(SpecFileError):
        loads_spec(text)


def test_explicit_sequence_kind_is_refused_by_name():
    # a bare sequence has no kind field; this used to fail on "kind" as an unknown key
    with pytest.raises(SpecFileError, match='^a sequence spec is a bare sequence: it carries no "kind" field$'):
        loads_spec('{"kind": "sequence", "tail": "1"}')
    with pytest.raises(SpecFileError, match="^check-dp takes a tensor spec, not 'sequence'$"):
        parse_spec({"kind": "sequence", "tail": "1"}, ("tensor",), "check-dp")


def test_seq_json_round_trip():
    seq = EvConstSeq({1: "2", 7: "-1/3"}, "1/2")
    obj = seq_to_obj(seq)
    assert obj == {"exceptions": {"1": "2", "7": "-1/3"}, "tail": "1/2"}
    assert parse_seq(obj) == seq


@pytest.mark.parametrize(
    "key",
    ["0", "x", "²", "٣", "３", "1" * 5000, "9" * 4300, "-1", "+1", " 1", "", "01", "007"],
    ids=[
        "zero", "letter", "superscript", "arabic-indic", "fullwidth", "5000-digits", "4300-digits",
        "minus", "plus", "space", "empty", "leading-zero", "leading-zeros",
    ],
)
def test_seq_rejects_bad_indices(key):
    # each bad key is an input error that names the key, never a ValueError from int()
    named = re.escape(repr(key)[:21])
    with pytest.raises(SpecFileError, match=named):
        parse_seq({"exceptions": {key: "1"}, "tail": "0"})
    with pytest.raises(SpecFileError, match=named):
        loads_spec(json.dumps({"kind": "weighted-comp", "weight": {"tail": "1"}, "table": {key: 1}}))


DUPLICATE_KEYS = {
    "sequence exception": ('{"exceptions": {"1": "2", "1": "3"}, "tail": "0"}', "'1'"),
    "entry value": (
        '{"m": 1, "domain_dims": [2], "codomain_dim": 1,'
        ' "entries": [{"out": 1, "idx": [1], "value": "1", "value": "7"}]}',
        "'value'",
    ),
    "top level": (
        '{"m": 1, "m": 1, "domain_dims": [2], "codomain_dim": 1, "entries": []}',
        "'m'",
    ),
}


@pytest.mark.parametrize("text, key", DUPLICATE_KEYS.values(), ids=DUPLICATE_KEYS)
def test_duplicate_object_keys_are_input_errors(tmp_path, capsys, text, key):
    # json.loads alone keeps the last of two equal keys; a file that names
    # a key twice is an input error that names the key
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = ["seq-demo", "--weight-file", str(path)] if "tail" in text else ["check-dp", str(path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: invalid JSON: duplicate object key {key}\n"


def test_duplicate_key_in_a_stored_report_is_an_input_error(tmp_path, capsys):
    fixture = pathlib.Path(__file__).parent / "fixtures" / "t_diag.json"
    assert cli.main(["check-dp", str(fixture), "--json"]) == 1
    text = capsys.readouterr().out
    path = tmp_path / "report.json"
    path.write_text(text.replace('"ok":false', '"ok":true,"ok":false'))
    assert cli.main(["replay", str(path), str(fixture)]) == 2
    assert capsys.readouterr().err == "error: invalid report JSON: duplicate object key 'ok'\n"


def test_seq_rejects_unknown_keys():
    with pytest.raises(SpecFileError):
        parse_seq({"tail": "0", "stray": 1})


def test_canonical_json_is_deterministic():
    obj = {"b": 1, "a": [3, 2], "c": {"y": "1/2", "x": None}}
    assert canonical_json(obj) == canonical_json(json.loads(json.dumps(obj)))
    assert canonical_json(obj).endswith("\n")


def test_spec_to_obj_rejects_unknown():
    with pytest.raises(TypeError):
        spec_to_obj(42)


def test_serialized_tensor_sorted():
    tensor = parse_tensor(
        {
            "m": 1,
            "domain_dims": [3],
            "codomain_dim": 2,
            "entries": [
                {"out": 2, "idx": [3], "value": "1"},
                {"out": 1, "idx": [1], "value": "2"},
            ],
        }
    )
    obj = spec_to_obj(tensor)
    assert [e["out"] for e in obj["entries"]] == [1, 2]


def test_missing_file_is_spec_error(tmp_path):
    with pytest.raises(SpecFileError):
        load_spec_file(str(tmp_path / "nope.json"))


def test_non_utf8_file_is_spec_error(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(SpecFileError):
        load_spec_file(str(path))


def _spec(**changes):
    """A valid 2 x 3 -> 2 tensor spec with one entry changed per fault."""
    spec = {
        "m": 2,
        "domain_dims": [2, 3],
        "codomain_dim": 2,
        "entries": [
            {"out": 1, "idx": [1, 2], "value": "1/2"},
            {"out": 2, "idx": [2, 3], "value": "-3"},
        ],
    }
    entry = changes.pop("entry", None)
    if entry is not None:
        spec["entries"][1] = entry(dict(spec["entries"][1]))
    spec.update(changes)
    return spec


def _without(key):
    def change(entry):
        del entry[key]
        return entry

    return change


def _with(**fields):
    return lambda entry: {**entry, **fields}


SINGLE_FAULTS = {
    "non-dict entry": (_spec(entry=lambda e: [2, [2, 3], "-3"]), "entries[1] must be a JSON object, got list"),
    "extra key": (_spec(entry=_with(extra=1)), "unknown keys in entries[1]: ['extra']"),
    "missing key": (_spec(entry=_without("value")), "missing keys in entries[1]: ['value']"),
    "bool out": (_spec(entry=_with(out=True)), "entries[1].out must be an integer, got True"),
    "string out": (_spec(entry=_with(out="2")), "entries[1].out must be an integer, got '2'"),
    "short idx": (_spec(entry=_with(idx=[2])), "entries[1].idx must be a list of 2 integers"),
    "float idx": (_spec(entry=_with(idx=[2, 3.0])), "entries[1].idx must be a list of 2 integers"),
    "bool idx": (_spec(entry=_with(idx=[2, True])), "entries[1].idx must be a list of 2 integers"),
    "idx not a list": (_spec(entry=_with(idx="23")), "entries[1].idx must be a list of 2 integers"),
    "0-based out": (_spec(entry=_with(out=0)), "entries[1]: indices are 1-based"),
    "0-based idx": (_spec(entry=_with(idx=[0, 3])), "entries[1]: indices are 1-based"),
    "out past codomain": (_spec(entry=_with(out=3)), "entries[1]: output coordinate 3 out of range 1..2"),
    "idx past dim": (_spec(entry=_with(idx=[2, 4])), "entries[1]: index tuple (2, 4) out of range for dims (2, 3)"),
    "duplicate": (_spec(entry=_with(out=1, idx=[1, 2])), "entries[1]: duplicate entry for out=1, idx=(1, 2)"),
    "duplicate of a zero": (
        _spec(
            entries=[
                {"out": 1, "idx": [1, 2], "value": "0"},
                {"out": 1, "idx": [1, 2], "value": "2"},
            ]
        ),
        "entries[1]: duplicate entry for out=1, idx=(1, 2)",
    ),
    "decimal value": (
        _spec(entry=_with(value="0.5")),
        "entries[1].value: not a rational literal of the form p/q: '0.5'",
    ),
    "number value": (_spec(entry=_with(value=3)), "entries[1].value must be a rational string, got 3"),
    "arity 5": (
        _spec(m=5, domain_dims=[2] * 5, entries=[]),
        "arity must be between 1 and 4, got 5",
    ),
    "arity 0": (_spec(m=0, domain_dims=[], entries=[]), "arity must be between 1 and 4, got 0"),
    "dims length": (_spec(domain_dims=[2]), "domain_dims must be a list of 2 integers"),
    "dim 17": (_spec(domain_dims=[2, 17]), "domain dims must lie in 1..16: (2, 17)"),
    "dim 0": (_spec(domain_dims=[0, 3], entries=[]), "domain dims must lie in 1..16: (0, 3)"),
    "codomain 0": (_spec(codomain_dim=0), "codomain dim must lie in 1..16: 0"),
    "codomain 17": (_spec(codomain_dim=17), "codomain dim must lie in 1..16: 17"),
    "entries not a list": (_spec(entries={}), "entries must be a list"),
}


@pytest.mark.parametrize("spec, message", SINGLE_FAULTS.values(), ids=SINGLE_FAULTS)
def test_single_fault_message(tmp_path, capsys, spec, message):
    with pytest.raises(SpecFileError) as direct:
        parse_tensor(spec)
    assert str(direct.value) == message
    with pytest.raises(SpecFileError) as reference:
        parse_tensor_reference(spec)
    assert str(reference.value) == message
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["check-dp", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _parse_both(obj):
    """parse_tensor and the validating route: equal tensors or equal errors."""
    outcomes = []
    for parse in (parse_tensor, parse_tensor_reference):
        try:
            outcomes.append(parse(obj))
        except SpecFileError as exc:
            outcomes.append(str(exc))
    return outcomes


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_parse_matches_validating_route_on_fixtures(path):
    fast, reference = _parse_both(json.loads(path.read_text()))
    assert fast == reference


def test_parse_matches_validating_route_on_random_specs():
    rng = random.Random(21)
    literals = ["0", "-0", "0/7", "1", "-1", "2/4", "-9/4", "7/3", "+5", "12/8"]
    for _ in range(300):
        m = rng.randint(1, 4)
        dims = [rng.randint(1, 5) for _ in range(m)]
        cod = rng.randint(1, 3)
        positions = {
            (rng.randint(1, cod), tuple(rng.randint(1, d) for d in dims))
            for _ in range(rng.randint(0, 30))
        }
        spec = {
            "m": m,
            "domain_dims": dims,
            "codomain_dim": cod,
            "entries": [
                {"out": out, "idx": list(idx), "value": rng.choice(literals)}
                for out, idx in sorted(positions)
            ],
        }
        fast, reference = _parse_both(spec)
        assert isinstance(fast, MultiTensor) and fast == reference
        assert sorted(fast.items()) == sorted(reference.items())
