"""End-to-end CLI behavior through subprocesses."""

import hashlib
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

from helpers import arens_reference, read_chain
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


def loaded_after(argvs, modules):
    """Exit codes of cli.main over argvs in one fresh interpreter, and which of modules it loaded."""
    script = textwrap.dedent(
        f"""
        import contextlib, io, json, sys
        import rieszkit.cli
        codes = []
        for argv in {argvs!r}:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(rieszkit.cli.main(argv))
        print(json.dumps({{"codes": codes, "loaded": sorted({set(modules)!r} & set(sys.modules))}}))
        """
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


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
    heavy = ["rieszkit.arens", "rieszkit.seqmodel", "dataclasses"]
    assert loaded_after(argvs, heavy) == {"codes": [1, 0, 0, 0, 0], "loaded": []}


def test_seq_demo_does_not_import_arens(tmp_path):
    # the sequence model shares only the sparse contraction, which lives in operators
    report = tmp_path / "report.json"
    report.write_bytes(run("seq-demo", "--seed", "3", "--json").stdout)
    argvs = [
        ["seq-demo"],
        ["seq-demo", "--weight-file", str(fixture("d_decay.json"))],
        ["replay", str(report)],
    ]
    assert loaded_after(argvs, ["rieszkit.arens"]) == {"codes": [0, 0, 0], "loaded": []}


def test_arens_does_not_import_sampling_or_seqmodel(tmp_path):
    # the package ships no sampling module (the seeded generators are test
    # helpers), and arens runs no part of the sequence model
    report = tmp_path / "report.json"
    report.write_bytes(run("arens", fixture("t_m3.json"), "--trace", "--json").stdout)
    argvs = [
        ["arens", str(fixture("t_m3.json"))],
        ["arens", str(fixture("t_diag.json")), "--perm", "theta", "--trace"],
        ["replay", str(report), str(fixture("t_m3.json"))],
    ]
    heavy = ["rieszkit.seqmodel"]
    code = 0 if loads_spec(fixture("t_m3.json").read_text()).is_dp().is_dp else 1
    assert loaded_after(argvs, heavy) == {"codes": [code, 1, 0], "loaded": []}


def test_reports_byte_identical():
    first = run("arens", fixture("t_vector_dp.json"), "--perm", "all", "--trace", "--json")
    second = run("arens", fixture("t_vector_dp.json"), "--perm", "all", "--trace", "--json")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    # compact canonical JSON: sorted keys, no insignificant whitespace
    report = json.loads(first.stdout)
    assert first.stdout.decode() == json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def _unique_keys(pairs):
    """object_pairs_hook for json.loads that fails on a key printed twice."""
    keys = [key for key, _ in pairs]
    assert len(keys) == len(set(keys)), keys
    return dict(pairs)


@pytest.mark.parametrize("name", ["t_m3.json", "t_m4.json"])
def test_trace_wire_format(name):
    # detail.marginals holds each output coordinate's marginals once, keyed
    # by contracted-slot bitmask, slots ascending, entries [i_1, ..., i_k,
    # "p/q"] 1-based; each extension's trace lists its chain's bitmasks.
    # Decoded, every coordinate's marginals on a chain are arens_extension's
    # trace, and read in rho order they are the reference chain.
    tensor = loads_spec(fixture(name).read_text())
    m = tensor.m
    for perm in ("all", "theta", "(1 3 2)"):
        result = run("arens", fixture(name), "--perm", perm, "--trace", "--json")
        assert result.returncode == (0 if tensor.is_dp().is_dp else 1), result.stderr
        report = json.loads(result.stdout, object_pairs_hook=_unique_keys)
        marginals = report["detail"]["marginals"]
        assert sorted(marginals) == [str(k + 1) for k in range(tensor.codomain_dim)]
        decoded = {}
        for k, forms in marginals.items():
            decoded[int(k) - 1] = memo = {}
            for mask, form in forms.items():
                slots = [s for s in range(m) if not int(mask) >> s & 1]
                assert form["slots"] == [s + 1 for s in slots]
                assert form["dims"] == [tensor.domain_dims[s] for s in slots]
                memo[int(mask)] = {
                    tuple(i - 1 for i in e[:-1]): parse_rational(e[-1]) for e in form["entries"]
                }
        used = set()
        for extension in report["detail"]["extensions"]:
            rho = Permutation([i - 1 for i in extension["perm"]])
            masks = extension["trace"]
            assert masks == [sum(1 << rho(i) for i in range(l)) for l in range(m + 1)]
            used.update(masks)
            expected = arens_extension(tensor, rho, with_trace=True).trace
            reference = arens_reference(tensor, rho)[1]
            assert expected.keys() == decoded.keys() == reference.keys()
            for k, memo in decoded.items():
                assert {mask: memo[mask] for mask in masks} == expected[k]
                assert read_chain(tensor.domain_dims, rho, memo) == reference[k]
        # every printed marginal lies on a chain, and a coordinate prints each once
        for forms in marginals.values():
            assert sorted(map(int, forms)) == sorted(used)
        assert len(used) == (2**m if perm == "all" else m + 1)


@pytest.mark.parametrize("name", ["t_m3.json", "t_m4.json"])
def test_trace_contracts_each_marginal_once(monkeypatch, capsys, name):
    # all m! chains share one memo per output coordinate: at most 2^m - 1
    # all-ones contractions each, not m per chain
    import rieszkit.arens as arens

    calls = []
    contract_entries = arens._contract_entries

    def counted(*args):
        calls.append(args)
        return contract_entries(*args)

    monkeypatch.setattr(arens, "_contract_entries", counted)
    tensor = loads_spec(fixture(name).read_text())
    code = cli.main(["arens", str(fixture(name)), "--perm", "all", "--trace", "--json"])
    assert code == (0 if tensor.is_dp().is_dp else 1)
    capsys.readouterr()
    assert 0 < len(calls) <= (2**tensor.m - 1) * tensor.codomain_dim


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


@pytest.mark.parametrize(
    "text, point",
    [("(1 ٢)", "٢"), ("(+1 2)", "+1"), ("(1 2_0)", "2_0"), ("(1 ２)", "２"), ("(1)(2 0x3)", "0x3")],
    ids=["arabic-indic", "plus", "underscore", "fullwidth", "hex"],
)
def test_perm_cycle_points_are_ascii_digits(capsys, text, point):
    # int() read each of these as a point: "(1 ٢)" ran as (1 2) and "(1 2_0)" named slot 20
    for mode in ([], ["--json"]):
        assert cli.main(["arens", str(fixture("t_m3.json")), "--perm", text] + mode) == 2
        out, err = capsys.readouterr()
        assert out == "" and repr(point) in err and "internal" not in err
    with pytest.raises(ValueError, match="ASCII digits"):
        Permutation.from_cycles(text, 3)


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


@pytest.mark.parametrize(
    "key",
    ["²", "٣", "1" * 5000, "9" * 4300, "01"],
    ids=["superscript", "arabic-indic", "5000-digits", "4300-digits", "leading-zero"],
)
@pytest.mark.parametrize(
    "argv, spec",
    [
        (["seq-demo", "--weight-file"], lambda key: {"exceptions": {key: "2"}, "tail": "1"}),
        (["check-dp"], lambda key: {"kind": "weighted-comp", "weight": {"tail": "1"}, "table": {key: 1}}),
    ],
    ids=["seq-demo", "check-dp"],
)
def test_bad_index_key_is_an_input_error(tmp_path, capsys, key, argv, spec):
    # int() ran outside the input-error net (exit 3), "٣" was read as index 3,
    # and seq-demo could not write the rank certificate past 10**4300 - 1 (exit 3)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec(key)))
    for mode in ([], ["--json"]):
        assert cli.main(argv + [str(path)] + mode) == 2
        out, err = capsys.readouterr()
        assert out == "" and repr(key)[:21] in err and "internal" not in err


@pytest.mark.parametrize("keys", [("1", "01"), ("01", "1")], ids=["zero-padded-last", "zero-padded-first"])
def test_zero_padded_index_key_does_not_collapse(tmp_path, capsys, keys):
    # "1" and "01" named one index, and whichever came last silently won
    path = tmp_path / "weight.json"
    path.write_text(json.dumps({"exceptions": dict(zip(keys, ("2", "3"))), "tail": "0"}))
    for mode in ([], ["--json"]):
        assert cli.main(["seq-demo", "--weight-file", str(path)] + mode) == 2
        out, err = capsys.readouterr()
        assert out == "" and "'01'" in err and "leading zero" in err


def test_zero_padded_witness_slot_is_an_input_error(tmp_path, capsys):
    # a stored witness slot "02" was read as slot 2 and replayed as valid
    assert cli.main(["check-dp", str(fixture("t_diag.json")), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    report["witness"]["fixed"] = {"0" + k: v for k, v in report["witness"]["fixed"].items()}
    stored = tmp_path / "report.json"
    stored.write_text(json.dumps(report))
    assert cli.main(["replay", str(stored), str(fixture("t_diag.json"))]) == 2
    assert "'02'" in capsys.readouterr().err


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


# sha256 over every (argv, mode, exit code, stdout) of the smoke matrix, per
# fixture, with paths written as fixture and report names. A change of CLI
# bytes, wanted or not, shows here and must be recorded on purpose.
SMOKE_DIGESTS = {
    "c_identity.json": "dc884590530a98d736b29c11d581d4ae777f85e157b0c1e6a9e903a67d1c08e5",
    "c_mixed.json": "82c341b9c277a9a45117a3958ff59c0c62f082de5b7a48d0cf3b4b96644894a2",
    "c_proj.json": "2d3185d78017fa62964ded71f80d99acda29e12c2043219d868680124ea44633",
    "c_shift.json": "6f0b3fe1187aa478d4d179d91876e28bef7bb79132c09595acea4e1b6a509d0b",
    "c_table.json": "7a85a1be5489dea3f02e0e89e8d490375842920f576db693cfa39d832c9c07a4",
    "c_weighted.json": "90421f20a4739787ac163485587b45aff6659e3fd0fcf7cab1c7f7dd75b50b7f",
    "d_decay.json": "31be02bd006bb8c02da4014cb8e3a55b1185701eaa6e566dda7037c0268ef418",
    "d_neg.json": "b3a69e1216f4dda0ff47104c4ecaffb3c79f2072f8043199bdcbde63b083dc17",
    "d_ones.json": "b531480ced3d9b11d966b860878252480e15309aa976fd335ccb9cc45f8cb315",
    "d_sparse.json": "556caede6f7dcaae184b761e298f03cd8d04e48c360f8a8275c20e9f2c54b339",
    "d_tailhalf.json": "964d1858d7503412c354e5ff1b193a2098e215bf526c8af0d95f3aac9d626c67",
    "d_zero.json": "7af43f8369c90c18d81fa1431f06556f079f6b6f30d5134433e8b34d332672b1",
    "t_cancel.json": "259f0798a6cafff74c02d6313f170ab0544410cd9dc0ff652a18005eef61e020",
    "t_diag.json": "7f4930ede80790947f2965a3b6d3daa15d0268dd6e3884999c8d787b98a04099",
    "t_m1.json": "ed5dcc0488ba22f222f461fc13033b37f2ad4673b0fa0a91e181d329578629d4",
    "t_m3.json": "e56d28235f6f07502b1480a126ea8eeb954aedfd6b8164e4f8318a458f17ee1d",
    "t_m4.json": "f0f15660575807c2824e060b3b86561ffc5143e50a9323d4d7a80b576659542a",
    "t_single.json": "384d41a023a7a6f1fce1ad021be688c2df63fae4a6aacafbddb4fb75c2b95449",
    "t_vector_dp.json": "c0c0376a8bb42ff9222ba328f7303cfefa0f7d46d376dfcb2450a394bc11d479",
    "t_zero.json": "2988d279d83b1cbe6788349cf734835640dc744fdb7bfbe6d4b61c0fc5f502cf",
}


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_exit_code_smoke_matrix(tmp_path, capsys, name):
    # every subcommand, human and --json, in process: exit 0, 1 or 2, never a
    # traceback, a fresh --json report always replays, and stdout is pinned
    path = str(fixture(name))
    stored = tmp_path / "report.json"
    digest = hashlib.sha256()

    def main(argv, mode):
        code = cli.main(argv + mode)
        out, err = capsys.readouterr()
        names = [{path: name, str(stored): stored.name}.get(a, a) for a in argv]
        digest.update(json.dumps([names, mode, code, out]).encode() + b"\n")
        return code, out, err

    argvs = [[c, path] for c in TENSOR_COMMANDS] + [
        ["arens", path, "--perm", "all", "--trace"],
        ["seq-demo", "--weight-file", path],
    ]
    for argv in argvs:
        for mode in ([], ["--json"]):
            code, out, err = main(argv, mode)
            assert code in (0, 1, 2) and "Traceback" not in err, (argv, mode, err)
        if code == 2:
            continue
        if code == 1 and argv[0] != "seq-demo":
            assert witness_from_obj(json.loads(out)["witness"]).verify(loads_spec(fixture(name).read_text()))
        stored.write_text(out)
        replay = ["replay", str(stored)] + ([] if argv[0] == "seq-demo" else [path])
        for mode in ([], ["--json"]):
            code, _, err = main(replay, mode)
            assert code == 0 and "Traceback" not in err, (argv, mode, err)
    assert digest.hexdigest() == SMOKE_DIGESTS.get(name), digest.hexdigest()


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


def test_replay_tells_true_and_floats_from_integers(tmp_path):
    # parsed JSON has true == 1 == 1.0, so replay compares canonical bytes,
    # and a witness index that is not a plain integer is malformed
    report_path = tmp_path / "report.json"
    report_path.write_bytes(run("check-dp", fixture("t_diag.json"), "--json").stdout)
    obj = json.loads(report_path.read_text())
    assert obj["witness"]["out_coord"] == 1 and obj["witness"]["slot"] == 1
    for path, value, code, message in [
        (("witness", "out_coord"), True, 2, b"malformed witness"),
        (("witness", "slot"), 1.0, 2, b"malformed witness"),
        (("cost", "entries"), float(obj["cost"]["entries"]), 1, b"[FAIL] report-reproduced"),
    ]:
        changed = json.loads(report_path.read_text())
        changed[path[0]][path[1]] = value
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(changed))
        result = run("replay", tampered, fixture("t_diag.json"))
        assert result.returncode == code, path
        assert message in (result.stdout if code == 1 else result.stderr)


def test_replay_of_mangled_extensions_is_a_failed_check(tmp_path):
    # the stored report is re-encoded for the comparison, whatever it holds
    report = json.loads(run("arens", fixture("t_m3.json"), "--json").stdout)
    path = tmp_path / "report.json"
    for mangled in ("abc", [1, 2], [], [{"perm": [1, 2, 3]}, {"perm": [3, 2, 1]}]):
        report["detail"]["extensions"] = mangled
        path.write_text(json.dumps(report))
        result = run("replay", path, fixture("t_m3.json"))
        assert result.returncode == 1, mangled
        assert b"Traceback" not in result.stderr


def test_replay_refuses_a_bool_seed(tmp_path):
    seq = json.loads(run("seq-demo", "--seed", "1", "--json").stdout)
    path = tmp_path / "seq.json"
    seq["seed"] = seq["detail"]["args"]["seed"] = True
    path.write_text(json.dumps(seq))
    refused = run("replay", path)
    assert refused.returncode == 2
    assert b"detail.args.seed" in refused.stderr
    # a seed of true in the report alone is a report that was not reproduced
    seq["detail"]["args"]["seed"] = 1
    path.write_text(json.dumps(seq))
    assert run("replay", path).returncode == 1


def _drop_digest(report):
    del report["input_digest"]


def _drop_perm(report):
    del report["detail"]["args"]["perm"]


def _empty_witness(report):
    report["witness"] = {}


def _zero_denominator(report):
    report["witness"]["x"][0] = "1/0"


def _bool_out_coord(report):
    report["witness"]["out_coord"] = True


def _float_slot(report):
    report["witness"]["slot"] = 1.0


def _string_vector(report):
    # "10" was read character by character as the vector [1, 0]
    report["witness"]["x"] = "".join(report["witness"]["x"])


MALFORMED_REPORTS = [
    ("check-dp", _drop_digest, b"input_digest"),
    ("arens", _drop_perm, b"detail.args.perm"),
    ("check-dp", _empty_witness, b"malformed witness"),
    ("check-dp", _zero_denominator, b"malformed witness"),
    ("check-dp", _bool_out_coord, b"malformed witness"),
    ("check-dp", _float_slot, b"malformed witness"),
    ("check-dp", _string_vector, b"malformed witness"),
]


@pytest.mark.parametrize(
    "command, corrupt, message",
    MALFORMED_REPORTS,
    ids=[f"{command}-{corrupt.__name__}" for command, corrupt, _ in MALFORMED_REPORTS],
)
def test_replay_malformed_report_exits_2(tmp_path, command, corrupt, message):
    report = json.loads(run(command, fixture("t_diag.json"), "--json").stdout)
    corrupt(report)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    result = run("replay", path, fixture("t_diag.json"))
    assert result.returncode == 2
    assert message in result.stderr and b"Traceback" not in result.stderr


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
    # replay re-encodes the parsed stored report before comparing, so
    # reports stored in the indented form older versions wrote keep replaying
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
