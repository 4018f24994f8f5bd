"""Seeded mutations of the fixtures and of their reports keep the exit-code contract.

Each fixture, and each report a command writes for it, is mutated a few
times: a key dropped or renamed, a value retyped, a huge integer literal or
deep nesting put in its place, a non-UTF-8 byte inserted, or the file
truncated. Every mutant runs in process through ``cli.main``, in human and
``--json`` mode, and must exit 0, 1 or 2 with no traceback on stderr. A
tensor command that exits 1 must carry a witness, and in ``--json`` mode
that witness must pass ``DPWitness.verify`` against the mutated spec. The
generator is seeded by the fixture name, so every run sees the same mutants.

Most of those mutants fail the strict tensor schema and exit 2, so each
tensor fixture also gets mutants that keep the schema valid: an entry moved
next to another one in that entry's slice, an entry's output coordinate
set to an occupied one, or a value replaced by another nonzero rational.
They reach a verdict, and the exit-1 witness check runs on them.
"""

import json
import pathlib
import random

import pytest

from rieszkit import cli
from rieszkit.fileformat import loads_spec
from rieszkit.report import witness_from_obj

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
TENSOR_COMMANDS = ("check-dp", "arens", "modulus", "factorize", "rank")
MUTANTS = 12  # per fixture, and per report

KINDS = ("drop", "retype", "resize", "rekey", "huge", "deep", "utf8", "truncate")
# Stand-ins for a value: wrong types, and rationals and indices valid or not.
VALUES = [
    None, True, 0, 1, 2, -1, 2**64, 1.5, [], {}, [[[]]], {"1": "1"},
    "", "x", "0", "-1", "7/3", "1/0", "٣", "３/2", "9" * 300, "1/" + "7" * 300, "9" * 5000,
]
# Same-type stand-ins (an integer moves by one or grows huge), which keep
# more mutants past the schema checks.
STRINGS = ["0", "-1", "7/3", "1/0", "٣", "9" * 300, "1/" + "7" * 300]
KEYS = ["²", "٣", "３", "0", "01", "-1", "9" * 4300, "1" * 5000, "x", ""]
SENTINEL = "\x00mutant"
# Literals no json.dumps writes: integers within and past the int-to-str
# digit limit, and nesting past the recursion limit.
LITERALS = {"huge": ("9" * 4000, "9" * 5000), "deep": ("[" * 50_000 + "]" * 50_000,)}


def _sites(obj):
    """Every (container, key) position in a decoded JSON document."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in list(items):
        yield obj, key
        yield from _sites(value)


def mutate(rng: random.Random, data: bytes) -> bytes:
    kind = rng.choice(KINDS)
    if kind == "truncate":
        return data[: rng.randrange(len(data))]
    if kind == "utf8":
        at = rng.randrange(len(data) + 1)
        return data[:at] + rng.choice([b"\xff", b"\xc3", b"\xed\xa0\x80"]) + data[at:]
    obj = json.loads(data)
    sites = [(c, k) for c, k in _sites(obj) if kind != "rekey" or isinstance(c, dict)]
    container, key = rng.choice(sites)
    if kind == "drop":
        del container[key]
    elif kind == "rekey":
        container[rng.choice(KEYS)] = container.pop(key)
    elif kind == "resize":
        old = container[key]
        if type(old) is int:
            container[key] = rng.choice([old - 1, old + 1, 2**64])
        else:
            container[key] = rng.choice(STRINGS if isinstance(old, str) else VALUES)
    elif kind in LITERALS:
        container[key] = SENTINEL
    else:
        container[key] = rng.choice(VALUES)
    text = json.dumps(obj, ensure_ascii=rng.random() < 0.5)
    return text.replace(json.dumps(SENTINEL), rng.choice(LITERALS.get(kind, ("null",)))).encode()


SCHEMA_MUTANTS = 8  # per tensor fixture with entries
NONZERO = ["1", "-1", "2", "-7/3", "5/2", "1/9"]


def mutate_entries(rng: random.Random, spec: dict) -> bytes:
    """A tensor spec mutant that keeps the schema: move, reout or revalue one entry.

    A move or reout needs a second entry; with one entry only the value changes.
    Either may still repeat an occupied (out, idx), which is an input error.
    """
    spec = json.loads(json.dumps(spec))
    entries = spec["entries"]
    if len(entries) > 1:
        a, b = rng.sample(entries, 2)
        kind = rng.choice(("move", "reout", "revalue"))
    else:
        a, kind = entries[0], "revalue"
    if kind == "move":  # a lands next to b, differing from it in one slot
        idx = list(b["idx"])
        slot = rng.randrange(len(idx))
        idx[slot] = rng.choice([i for i in range(1, spec["domain_dims"][slot] + 1) if i != idx[slot]] or [idx[slot]])
        a["out"], a["idx"] = b["out"], idx
    elif kind == "reout":
        a["out"] = b["out"]
    else:
        a["value"] = rng.choice([v for v in NONZERO if v != a["value"]])
    return json.dumps(spec).encode()


def holds_contract(capsys, argv, spec=None):
    """Run argv in both modes and check the contract; the --json stdout and exit code."""
    for mode in ([], ["--json"]):
        code = cli.main(argv + mode)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2) and "Traceback" not in err, (argv, mode, err)
        if code == 1 and argv[0] in TENSOR_COMMANDS:
            if mode:
                tensor = loads_spec(spec.read_bytes().decode())
                assert witness_from_obj(json.loads(out)["witness"]).verify(tensor), argv
            else:
                assert "\nwitness: " in out, argv
    return code, out


def commands(path):
    return [[c, str(path)] for c in TENSOR_COMMANDS] + [["seq-demo", "--weight-file", str(path)]]


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_mutants_keep_the_exit_code_contract(tmp_path, capsys, name):
    rng = random.Random(f"mutations {name}")
    original = (FIXTURES / name).read_bytes()
    spec = tmp_path / "spec.json"
    for _ in range(MUTANTS):
        spec.write_bytes(mutate(rng, original))
        for argv in commands(spec):
            holds_contract(capsys, argv, spec)

    # the reports of the intact fixture, each mutated and replayed
    stored = tmp_path / "report.json"
    for argv in commands(FIXTURES / name):
        code, report = holds_contract(capsys, argv, FIXTURES / name)
        if code == 2:
            continue
        replay = ["replay", str(stored), str(FIXTURES / name)]
        for _ in range(MUTANTS):
            stored.write_bytes(mutate(rng, report.encode()))
            holds_contract(capsys, replay)


ENTRY_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.json") if json.loads(p.read_text()).get("entries"))


@pytest.mark.parametrize("name", ENTRY_FIXTURES)
def test_schema_preserving_mutants_reach_verdicts(tmp_path, capsys, name):
    rng = random.Random(f"schema mutations {name}")
    original = json.loads((FIXTURES / name).read_bytes())
    spec = tmp_path / "spec.json"
    verdicts = {c: 0 for c in TENSOR_COMMANDS}
    failures = {c: 0 for c in TENSOR_COMMANDS}
    for _ in range(SCHEMA_MUTANTS):
        spec.write_bytes(mutate_entries(rng, original))
        for command in TENSOR_COMMANDS:
            code, _ = holds_contract(capsys, [command, str(spec)], spec)
            verdicts[command] += code in (0, 1)
            failures[command] += code == 1
    # a repeated (out, idx) is the only way such a mutant exits 2, and it is rare
    for command in ("check-dp", "arens", "modulus", "rank"):
        assert verdicts[command] >= SCHEMA_MUTANTS - 2, (command, verdicts)
    if len(original["entries"]) > 1:
        witnessed = ["check-dp", "arens"] + (["factorize"] if original["codomain_dim"] == 1 else [])
        assert all(failures[c] for c in witnessed), failures
