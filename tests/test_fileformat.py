"""Spec file parsing, validation, and canonical serialization."""

import json
import pathlib

import pytest

from rieszkit import EvConstSeq, MultiTensor
from rieszkit.fileformat import (
    SpecFileError,
    canonical_json,
    dumps_spec,
    load_spec_file,
    loads_spec,
    parse_seq,
    parse_tensor,
    seq_to_obj,
    spec_to_obj,
)

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


def test_seq_json_round_trip():
    seq = EvConstSeq({1: "2", 7: "-1/3"}, "1/2")
    obj = seq_to_obj(seq)
    assert obj == {"exceptions": {"1": "2", "7": "-1/3"}, "tail": "1/2"}
    assert parse_seq(obj) == seq


def test_seq_rejects_bad_indices():
    with pytest.raises(SpecFileError):
        parse_seq({"exceptions": {"0": "1"}, "tail": "0"})
    with pytest.raises(SpecFileError):
        parse_seq({"exceptions": {"x": "1"}, "tail": "0"})
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
