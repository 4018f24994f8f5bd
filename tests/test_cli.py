"""End-to-end CLI behavior through subprocesses."""

import json
import os
import pathlib
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction as F

import pytest

from rieszkit import MultiTensor, Permutation, arens_extension, cli, parse_rational
from rieszkit.fileformat import loads_spec
from rieszkit.report import input_digest, witness_from_obj

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run(*args):
    return subprocess.run(
        [sys.executable, "-m", "rieszkit", *map(str, args)],
        capture_output=True,
    )


def fixture(name):
    return FIXTURES / name


def test_check_dp_pass():
    result = run("check-dp", fixture("t_single.json"))
    assert result.returncode == 0
    assert b"[PASS] disjointness-preserving" in result.stdout


def test_check_dp_fail_with_witness():
    result = run("check-dp", fixture("t_diag.json"), "--json")
    assert result.returncode == 1
    report = json.loads(result.stdout)
    assert report["ok"] is False
    assert report["witness"]["out_coord"] == 1
    assert report["witness"]["x"] != report["witness"]["y"]


def test_input_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run("check-dp", bad).returncode == 2
    assert run("check-dp", tmp_path / "missing.json").returncode == 2
    # sequence specs are not tensors
    assert run("check-dp", fixture("d_ones.json")).returncode == 2
    assert run("arens", fixture("t_single.json"), "--perm", "bogus").returncode == 2


def test_non_utf8_inputs_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")  # a UTF-16 byte order mark
    report = json.loads(run("check-dp", fixture("t_single.json"), "--json").stdout)
    report["input_digest"] = input_digest(bad.read_bytes())  # so replay gets to decoding
    stored = tmp_path / "report.json"
    stored.write_text(json.dumps(report))
    for args in (("check-dp", bad), ("replay", stored, bad), ("seq-demo", "--weight-file", bad)):
        result = run(*args)
        assert result.returncode == 2, args
        assert b"Traceback" not in result.stderr, args


def test_unexpected_error_exits_3(monkeypatch, capsys):
    def crash(*args):
        raise RuntimeError("handler crashed")

    monkeypatch.setattr(cli, "_report_check_dp", crash)
    assert cli.main(["check-dp", str(fixture("t_single.json")), "--json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: internal RuntimeError: handler crashed\n"


def test_tensor_commands_import_only_what_they_run(tmp_path):
    # Structural, not timed: start-up cost is the modules a process imports
    # (and, without cached bytecode, compiles), so tensor subcommands must not
    # pull in the Arens or sequence-model layers, or dataclasses' inspect chain.
    report = tmp_path / "report.json"
    report.write_bytes(run("check-dp", fixture("t_diag.json"), "--json").stdout)
    argvs = [
        ["check-dp", str(fixture("t_diag.json"))],
        ["rank", str(fixture("t_vector_dp.json"))],
        ["modulus", str(fixture("t_m3.json"))],
        ["factorize", str(fixture("t_single.json"))],
        ["replay", str(report), str(fixture("t_diag.json"))],
    ]
    script = textwrap.dedent(
        f"""
        import contextlib, io, json, sys
        import rieszkit.cli
        codes = []
        for argv in {argvs!r}:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(rieszkit.cli.main(argv))
        heavy = {{"rieszkit.arens", "rieszkit.seqmodel", "rieszkit.sampling", "dataclasses"}}
        print(json.dumps({{"codes": codes, "loaded": sorted(heavy & set(sys.modules))}}))
        """
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"codes": [1, 0, 0, 0, 0], "loaded": []}


def test_reports_byte_identical():
    first = run("arens", fixture("t_vector_dp.json"), "--perm", "all", "--trace", "--json")
    second = run("arens", fixture("t_vector_dp.json"), "--perm", "all", "--trace", "--json")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    # compact canonical JSON: sorted keys, no insignificant whitespace
    report = json.loads(first.stdout)
    assert first.stdout.decode() == json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("name", ["t_m3.json", "t_m4.json"])
def test_trace_wire_format(name):
    # each trace form entry is [i_1, ..., i_k, "p/q"] with 1-based indices
    report = json.loads(run("arens", fixture(name), "--perm", "all", "--trace", "--json").stdout)
    tensor = loads_spec(fixture(name).read_text())
    for extension in report["detail"]["extensions"]:
        rho = Permutation([i - 1 for i in extension["perm"]])
        decoded = {
            int(k) - 1: [
                (
                    tuple(form["dims"]),
                    tuple(l - 1 for l in form["slots"]),
                    {tuple(i - 1 for i in e[:-1]): parse_rational(e[-1]) for e in form["entries"]},
                )
                for form in chain
            ]
            for k, chain in extension["trace"].items()
        }
        expected = arens_extension(tensor, rho, with_trace=True).trace
        assert decoded == {
            k: [(f.dims, f.labels, f.entries) for f in chain] for k, chain in expected.items()
        }


def test_arens_perm_selection():
    theta = run("arens", fixture("t_vector_dp.json"), "--perm", "theta", "--json")
    cycled = run("arens", fixture("t_vector_dp.json"), "--perm", "(1 2)", "--json")
    assert theta.returncode == cycled.returncode == 0
    a = json.loads(theta.stdout)
    b = json.loads(cycled.stdout)
    assert a["detail"]["extensions"] == b["detail"]["extensions"]
    assert a["detail"]["extensions"][0]["perm"] == [2, 1]
    everything = json.loads(run("arens", fixture("t_m3.json"), "--json").stdout)
    assert len(everything["detail"]["extensions"]) == 6


def test_arens_m4_and_non_dp_input():
    assert run("arens", fixture("t_m4.json"), "--perm", "theta").returncode == 0
    result = run("arens", fixture("t_diag.json"), "--json")
    assert result.returncode == 1
    assert "witness" in json.loads(result.stdout)


def test_arens_decides_dp_once_per_distinct_extension(monkeypatch):
    tensor = loads_spec(fixture("t_diag.json").read_text())
    calls = []
    is_dp = MultiTensor.is_dp

    def counted(self):
        calls.append(self)
        return is_dp(self)

    monkeypatch.setattr(MultiTensor, "is_dp", counted)
    code, report = cli._report_arens(tensor, "sha256:x", {"perm": "all", "trace": False})
    assert code == 1
    assert len(calls) == 1 and calls[0] is tensor  # every extension equals the input
    extensions = report["detail"]["extensions"]
    assert len(extensions) == 2
    assert all(e["dp"] is False for e in extensions)


def _non_dp_16x4_spec(seed: int) -> dict:
    """3,000 entries on 16^4 -> 1 whose two smallest tuples differ in every slot."""
    rng = random.Random(seed)
    entries = {(1, 16, 16, 16): F(rng.randint(1, 9), rng.randint(1, 4))}
    while len(entries) < 3000:
        idx = (rng.randint(2, 16), *(rng.randint(1, 16) for _ in range(3)))
        entries[idx] = F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
    return {
        "m": 4,
        "domain_dims": [16] * 4,
        "codomain_dim": 1,
        "entries": [
            {"out": 1, "idx": list(idx), "value": str(v)} for idx, v in entries.items()
        ],
    }


def _int_bits(obj) -> list[int]:
    """Bit lengths of every integer in a report: JSON numbers and p/q parts."""
    if isinstance(obj, dict):
        return [b for v in obj.values() for b in _int_bits(v)]
    if isinstance(obj, list):
        return [b for v in obj for b in _int_bits(v)]
    if isinstance(obj, int):
        return [abs(obj).bit_length()]
    if isinstance(obj, str) and re.fullmatch(r"-?\d+(/\d+)?", obj):
        return [int(part).bit_length() for part in obj.lstrip("-").split("/")]
    return []


def test_non_dp_16x4_witness_is_small(tmp_path):
    # Full-support witnesses of a 16^4 tensor ran to tens of thousands of
    # bits and past the int-to-str limit (exit 3); the bounded witness
    # stays a few bits wide and replays.
    spec = tmp_path / "nondp.json"
    spec.write_text(json.dumps(_non_dp_16x4_spec(16)))
    tensor = loads_spec(spec.read_text())
    for args in (["check-dp"], ["factorize"], ["arens", "--perm", "all", "--trace"]):
        result = run(args[0], spec, *args[1:], "--json")
        assert result.returncode == 1, (args, result.stderr)
        report = json.loads(result.stdout)
        assert witness_from_obj(report["witness"]).verify(tensor)
        assert max(_int_bits(report)) < 64
        stored = tmp_path / f"{args[0]}.report.json"
        stored.write_bytes(result.stdout)
        assert run("replay", stored, spec).returncode == 0, args


def test_arens_restriction_visible_in_report():
    report = json.loads(run("arens", fixture("t_cancel.json"), "--json").stdout)
    # input is not DP, but every extension still restricts back to it
    for entry in report["checks"]:
        if entry["name"].startswith("restriction"):
            assert entry["verdict"] == "pass"


def test_modulus_and_rank():
    report = json.loads(run("modulus", fixture("t_m3.json"), "--json").stdout)
    values = [e["value"] for e in report["detail"]["modulus"]["entries"]]
    assert values == ["1", "5/2"]
    rank0 = json.loads(run("rank", fixture("t_zero.json"), "--json").stdout)
    assert rank0["detail"]["rank"] == 0
    rank2 = json.loads(run("rank", fixture("t_vector_dp.json"), "--json").stdout)
    assert rank2["detail"]["rank"] == 2
    tensor = loads_spec(fixture("t_vector_dp.json").read_text())
    assert rank2["cost"]["atoms"] == len(tensor.atom_images())


def test_factorize_paths():
    ok = run("factorize", fixture("t_single.json"), "--json")
    assert ok.returncode == 0
    report = json.loads(ok.stdout)
    assert report["detail"]["scale"] == "1/2"
    assert report["detail"]["coords"] == [1, 2]
    assert run("factorize", fixture("t_vector_dp.json")).returncode == 2  # not scalar
    assert run("factorize", fixture("t_diag.json")).returncode == 1
    zero = json.loads(run("factorize", fixture("t_zero.json"), "--json").stdout)
    assert zero["detail"]["zero"] is True


def test_seq_demo_deterministic_and_seeded():
    first = run("seq-demo", "--json")
    second = run("seq-demo", "--json")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    seeded = run("seq-demo", "--seed", "5", "--json")
    assert seeded.returncode == 0
    assert json.loads(seeded.stdout)["seed"] == 5


@pytest.mark.parametrize(
    "name, rank",
    [("d_sparse", 1), ("d_decay", 3), ("d_zero", 0), ("d_ones", None), ("d_neg", None), ("d_tailhalf", None)],
)
def test_seq_demo_exact_rank(capsys, name, rank):
    # finite rank and the dual basis are the theorem's two hypotheses; either one passes
    path = str(fixture(f"{name}.json"))
    assert cli.main(["seq-demo", "--weight-file", path]) == 0
    human = capsys.readouterr().out
    assert cli.main(["seq-demo", "--weight-file", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and len(report["checks"]) == 6
    (entry,) = [c for c in report["checks"] if c["name"] == "rank"]
    if rank is None:
        assert entry["hypothesis"] == "dual-basis" and "rank" not in entry
        first, last = entry["disjoint"]
        assert last - first + 1 == 32
        assert "hypothesis=dual-basis" in human
    else:
        assert entry["hypothesis"] == "finite-rank"
        assert entry["rank"] == rank == len(entry["basis"])
        assert f"hypothesis=finite-rank, rank={rank}" in human


def test_seq_demo_probe_disagreement_is_a_witness(monkeypatch, capsys):
    from rieszkit import seqmodel

    real = seqmodel.diag_arens_pair
    monkeypatch.setattr(seqmodel, "diag_arens_pair", lambda *args: real(*args) + 1)
    assert cli.main(["seq-demo", "--weight-file", str(fixture("d_sparse.json"))]) == 1
    out, err = capsys.readouterr()
    assert "[FAIL] diag-extension-agrees" in out
    assert re.search(r"witness: check diag-extension-agrees at index \d+\n  got \S+, expected \S+\n", out)
    assert "Traceback" not in err
    assert cli.main(["seq-demo", "--json"]) == 1
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert set(witness) == {"check", "index", "got", "expected"}
    assert parse_rational(witness["got"]) == parse_rational(witness["expected"]) + 1


def test_closed_stdout_exits_4():
    result = subprocess.run(
        [sys.executable, "-m", "rieszkit", "check-dp", str(fixture("t_vector_dp.json"))],
        stderr=subprocess.PIPE,
        preexec_fn=lambda: os.close(1),
    )
    assert result.returncode == 4
    assert result.stderr == b"error: cannot write the report: stdout is closed\n"


def test_closed_stderr_keeps_the_verdict():
    # the elapsed line is best effort: writing it to a closed stderr used to exit 1
    result = subprocess.run(
        [sys.executable, "-m", "rieszkit", "check-dp", str(fixture("t_vector_dp.json"))],
        stdout=subprocess.PIPE,
        preexec_fn=lambda: os.close(2),
    )
    assert result.returncode == 0
    assert result.stdout.endswith(b"result: ok\n")


@pytest.mark.parametrize(
    "text, message",
    [("[" * 100_000, "maximum recursion depth"), ('{"m": ' + "9" * 5000 + "}", "integer string conversion")],
    ids=["deep", "huge-int"],
)
@pytest.mark.parametrize(
    "argv", [["check-dp", "{path}"], ["seq-demo", "--weight-file", "{path}"], ["replay", "{path}"]]
)
def test_json_past_decoder_limits_is_an_input_error(tmp_path, capsys, argv, text, message):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert cli.main([a.format(path=path) for a in argv]) == 2
    assert message in capsys.readouterr().err


def test_replay_past_the_digit_limit_names_the_limit(tmp_path, capsys):
    # a witness whose numbers pass the int-to-str limit is well-formed: it
    # replays under a raised limit, and exits 2 saying so elsewhere
    spec = tmp_path / "big.json"
    entries = [([1, 1, 1, 1], "1"), ([2, 2, 2, 2], str(10**1200))]
    spec.write_text(json.dumps({
        "m": 4, "domain_dims": [2] * 4, "codomain_dim": 1,
        "entries": [{"out": 1, "idx": idx, "value": value} for idx, value in entries],
    }))
    assert cli.main(["check-dp", str(spec), "--json"]) == 1
    stored = tmp_path / "report.json"
    stored.write_text(capsys.readouterr().out)
    assert cli.main(["replay", str(stored), str(spec)]) == 2
    err = capsys.readouterr().err
    assert "int-to-str digit limit" in err and "python -X int_max_str_digits=0" in err
    assert "malformed" not in err
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert cli.main(["replay", str(stored), str(spec)]) == 0
    finally:
        sys.set_int_max_str_digits(previous)


TENSOR_COMMANDS = ("check-dp", "arens", "modulus", "factorize", "rank")


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_exit_code_smoke_matrix(tmp_path, capsys, name):
    # every subcommand, human and --json, in process: exit 0, 1 or 2, never a
    # traceback, and a fresh --json report always replays
    path = str(fixture(name))
    stored = tmp_path / "report.json"
    for argv in [[c, path] for c in TENSOR_COMMANDS] + [["seq-demo", "--weight-file", path]]:
        for mode in ([], ["--json"]):
            code = cli.main(argv + mode)
            out, err = capsys.readouterr()
            assert code in (0, 1, 2) and "Traceback" not in err, (argv, mode, err)
        if code == 2:
            continue
        if code == 1 and argv[0] != "seq-demo":
            assert witness_from_obj(json.loads(out)["witness"]).verify(loads_spec(fixture(name).read_text()))
        stored.write_text(out)
        replay = ["replay", str(stored)] + ([] if argv[0] == "seq-demo" else [path])
        for mode in ([], ["--json"]):
            assert cli.main(replay + mode) == 0, (argv, mode)
            assert "Traceback" not in capsys.readouterr().err


def test_replay_confirms_and_detects_tampering(tmp_path):
    report_path = tmp_path / "report.json"
    report_path.write_bytes(run("check-dp", fixture("t_diag.json"), "--json").stdout)
    good = run("replay", report_path, fixture("t_diag.json"))
    assert good.returncode == 0
    assert b"witness-verifies" in good.stdout

    tampered = tmp_path / "tampered.json"
    obj = json.loads(report_path.read_text())
    obj["ok"] = True
    tampered.write_text(json.dumps(obj))
    assert run("replay", tampered, fixture("t_diag.json")).returncode == 1

    # a well-formed witness that does not verify is a failure, not an input error
    obj = json.loads(report_path.read_text())
    obj["witness"]["x"], obj["witness"]["y"] = obj["witness"]["y"], obj["witness"]["x"]
    tampered.write_text(json.dumps(obj))
    swapped = run("replay", tampered, fixture("t_diag.json"))
    assert swapped.returncode == 1
    assert b"[FAIL] witness-verifies" in swapped.stdout

    # digest mismatch: replay against a different file
    assert run("replay", report_path, fixture("t_single.json")).returncode == 2


def _drop_digest(report):
    del report["input_digest"]


def _drop_perm(report):
    del report["detail"]["args"]["perm"]


def _empty_witness(report):
    report["witness"] = {}


def _zero_denominator(report):
    report["witness"]["x"][0] = "1/0"


@pytest.mark.parametrize(
    "command, corrupt",
    [
        ("check-dp", _drop_digest),
        ("arens", _drop_perm),
        ("check-dp", _empty_witness),
        ("check-dp", _zero_denominator),
    ],
)
def test_replay_malformed_report_exits_2(tmp_path, command, corrupt):
    report = json.loads(run(command, fixture("t_diag.json"), "--json").stdout)
    corrupt(report)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    result = run("replay", path, fixture("t_diag.json"))
    assert result.returncode == 2
    assert b"Traceback" not in result.stderr


def test_replay_covers_other_commands(tmp_path):
    for cmd, fix in [
        ("arens", "t_vector_dp.json"),
        ("modulus", "t_m3.json"),
        ("rank", "t_m1.json"),
        ("factorize", "t_single.json"),
    ]:
        report_path = tmp_path / f"{cmd}.json"
        report_path.write_bytes(run(cmd, fixture(fix), "--json").stdout)
        assert run("replay", report_path, fixture(fix)).returncode == 0

    seq_report = tmp_path / "seq.json"
    seq_report.write_bytes(run("seq-demo", "--json").stdout)
    assert run("replay", seq_report).returncode == 0


def test_replay_accepts_indented_reports(tmp_path):
    # replay compares parsed reports, so reports stored in the indented
    # form older versions wrote keep replaying
    for cmd, fix in [("arens", "t_diag.json"), ("arens", "t_m3.json"), ("check-dp", "t_diag.json")]:
        fresh = json.loads(run(cmd, fixture(fix), "--json").stdout)
        old_style = tmp_path / f"{cmd}-{fix}"
        old_style.write_text(json.dumps(fresh, sort_keys=True, indent=2) + "\n")
        replayed = run("replay", old_style, fixture(fix), "--json")
        assert replayed.returncode == 0
        assert json.loads(replayed.stdout)["ok"] is True


def test_timing_only_on_stderr():
    result = run("check-dp", fixture("t_single.json"), "--json")
    assert b"elapsed" in result.stderr
    assert b"elapsed" not in result.stdout
    json.loads(result.stdout)  # stdout is pure JSON
