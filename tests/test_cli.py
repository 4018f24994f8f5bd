"""End-to-end CLI behavior through subprocesses."""

import functools
import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import pytest

from helpers import arens_reference, non_dp_16x4_spec, read_chain
from rieszkit import FinVector, MultiTensor, Permutation, arens_extension, cli, parse_rational
from rieszkit.arens import _report_arens
from rieszkit.fileformat import loads_spec, tensor_to_obj
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
    errors = {}
    for args in (("check-dp", bad), ("replay", stored, bad), ("seq-demo", "--weight-file", bad)):
        result = run(*args)
        assert result.returncode == 2, args
        assert b"Traceback" not in result.stderr, args
        errors[args[0]] = result.stderr
    # one reader: a weight file and a tensor spec fail the same way
    assert errors["seq-demo"] == errors["check-dp"]
    assert errors["check-dp"].startswith(b"error: spec file is not UTF-8 text: ")


def test_unexpected_error_exits_3(monkeypatch, capsys):
    def crash(*args):
        raise RuntimeError("handler crashed")

    monkeypatch.setattr(cli, "_report_check_dp", crash)
    assert cli.main(["check-dp", str(fixture("t_single.json")), "--json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: internal RuntimeError: handler crashed\n"


@pytest.mark.parametrize("name", ["t_diag.json", "t_m3.json"])
@pytest.mark.parametrize("command", ["check-dp", "factorize", "arens"])
@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_wrong_evaluator_is_an_internal_error(monkeypatch, capsys, name, command, mode):
    # is_dp checks its witness images against the slice's entries, not by a
    # second evaluation, so an evaluator that is off by one everywhere is an
    # internal error rather than a witness printed with exit 1
    apply = MultiTensor.apply
    monkeypatch.setattr(
        MultiTensor, "apply", lambda self, args: FinVector([c + 1 for c in apply(self, args)])
    )
    assert cli.main([command, str(fixture(name)), *mode]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: internal AssertionError") and err.count("\n") == 1, err


@pytest.mark.parametrize("name", ["t_diag.json", "t_cancel.json", "t_m3.json"])
def test_non_dp_verdict_evaluates_each_image_once(monkeypatch, name):
    # the witness's two images are evaluated once each and checked against
    # the slice, not evaluated again to re-verify them
    calls = []
    apply = MultiTensor.apply

    def counted(self, args):
        calls.append(args)
        return apply(self, args)

    monkeypatch.setattr(MultiTensor, "apply", counted)
    verdict = loads_spec(fixture(name).read_text()).is_dp()
    assert not verdict.is_dp
    assert len(calls) == 2


def loaded_after(argvs, modules):
    """What cli.main over argvs loads, in one fresh interpreter.

    Returns, after each argv, its exit code, which of ``modules`` are
    loaded, and the AST node count of every loaded ``rieszkit`` module's
    source: what a process without cached bytecode compiles. Both
    accumulate over the argvs, as the modules do.
    """
    script = textwrap.dedent(
        f"""
        import ast, contextlib, io, json, sys
        import rieszkit.cli

        def nodes():
            names = [n for n in sys.modules if n == "rieszkit" or n.startswith("rieszkit.")]
            total = 0
            for name in names:
                with open(sys.modules[name].__file__, encoding="utf-8") as handle:
                    total += sum(1 for _ in ast.walk(ast.parse(handle.read())))
            return total

        codes, loaded, counts = [], [], []
        for argv in {argvs!r}:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(rieszkit.cli.main(argv))
            loaded.append(sorted({set(modules)!r} & set(sys.modules)))
            counts.append(nodes())
        print(json.dumps({{"codes": codes, "loaded": loaded, "nodes": counts}}))
        """
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


# Compile budgets, in AST nodes of the loaded rieszkit sources. A docstring is
# one node and a comment none, so trimming them cannot meet a budget.
TENSOR_BUDGET = 7_200
REPLAY_BUDGET = 7_600
ARENS_BUDGET = 8_600
SEQ_DEMO_BUDGET = 10_000


def test_tensor_commands_import_only_what_they_run(tmp_path):
    # Structural, not timed: start-up cost is the modules a process imports
    # (and, without cached bytecode, compiles), so tensor subcommands must not
    # pull in the Arens, sequence-model or replay layers, or dataclasses'
    # inspect chain, and stay within their compile budget. A sequence spec
    # is refused by its kind alone, so refusing it loads no sequence model.
    report = tmp_path / "report.json"
    report.write_bytes(run("check-dp", fixture("t_diag.json"), "--json").stdout)
    argvs = [
        ["check-dp", str(fixture("d_ones.json"))],
        ["check-dp", str(fixture("t_diag.json"))],
        ["rank", str(fixture("t_vector_dp.json"))],
        ["modulus", str(fixture("t_m3.json"))],
        ["factorize", str(fixture("t_single.json"))],
        ["replay", str(report), str(fixture("t_diag.json"))],
    ]
    heavy = ["rieszkit.arens", "rieszkit.seqmodel", "rieszkit.replay", "dataclasses", "argparse", "gettext"]
    got = loaded_after(argvs, heavy)
    assert got["codes"] == [2, 1, 0, 0, 0, 0]
    # the replay of a check-dp report adds its own module, and nothing else
    assert got["loaded"] == [[], [], [], [], [], ["rieszkit.replay"]]
    *tensor, replay = got["nodes"]
    assert max(tensor) <= TENSOR_BUDGET and replay <= REPLAY_BUDGET, got["nodes"]


def test_seq_demo_does_not_import_arens(tmp_path):
    # the sequence model shares only the sparse contraction, which lives in operators
    report = tmp_path / "report.json"
    report.write_bytes(run("seq-demo", "--seed", "3", "--json").stdout)
    argvs = [
        ["seq-demo"],
        ["seq-demo", "--weight-file", str(fixture("d_decay.json"))],
        ["replay", str(report)],
    ]
    got = loaded_after(argvs, ["rieszkit.arens", "argparse", "gettext"])
    assert got["codes"] == [0, 0, 0] and got["loaded"] == [[], [], []]
    # the replay adds rieszkit.replay on top of what the two seq-demo runs loaded
    assert max(got["nodes"][:2]) <= SEQ_DEMO_BUDGET, got["nodes"]


def test_arens_does_not_import_sampling_or_seqmodel(tmp_path):
    # the package ships no sampling module (the seeded generators are test
    # helpers), arens runs no part of the sequence model, and only replay
    # loads the replay module
    report = tmp_path / "report.json"
    report.write_bytes(run("arens", fixture("t_m3.json"), "--trace", "--json").stdout)
    argvs = [
        ["arens", str(fixture("t_m3.json"))],
        ["arens", str(fixture("t_diag.json")), "--perm", "theta", "--trace"],
        ["replay", str(report), str(fixture("t_m3.json"))],
    ]
    heavy = ["rieszkit.seqmodel", "rieszkit.replay", "argparse", "gettext"]
    code = 0 if loads_spec(fixture("t_m3.json").read_text()).is_dp().is_dp else 1
    got = loaded_after(argvs, heavy)
    assert got["codes"] == [code, 1, 0]
    assert got["loaded"] == [[], [], ["rieszkit.replay"]]
    assert max(got["nodes"][:2]) <= ARENS_BUDGET, got["nodes"]


def test_reports_independent_of_hash_seed(monkeypatch):
    # reports must not depend on the interpreter's hash seed: every set or
    # dict a report is built from is read in an order fixed by its contents
    argvs = [
        [command, fixture(name), *extra, "--json"]
        for name in ("t_cancel.json", "t_diag.json", "t_m3.json")
        for command, *extra in (["check-dp"], ["arens", "--trace"], ["rank"], ["modulus"])
    ]
    outputs = []
    for seed in ("0", "987654"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        outputs.append([run(*argv) for argv in argvs])
    for argv, first, second in zip(argvs, *outputs):
        # the three inputs are not DP; rank and modulus report without a verdict
        code = 0 if argv[0] in ("rank", "modulus") else 1
        assert first.returncode == second.returncode == code, first.stderr
        assert first.stdout == second.stdout


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
    # by contracted-slot bitmask, for the nonzero masks only; a marginal is
    # a list of rows [i_1, ..., i_k, "p/q"], 1-based, over the slots its
    # mask leaves unset, ascending. Mask 0 is the coordinate's slice, which
    # the printed tensor holds. Each extension's trace lists its chain's
    # bitmasks. Decoded, with mask 0 from the slice, every coordinate's
    # marginals on a chain are arens_extension's trace, and read in rho
    # order they are the reference chain.
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
            assert "0" not in forms
            decoded[int(k) - 1] = memo = {0: tensor.slices()[int(k) - 1]}
            for mask, rows in forms.items():
                assert isinstance(rows, list)
                dims = [tensor.domain_dims[s] for s in range(m) if not int(mask) >> s & 1]
                memo[int(mask)] = form = {}
                for row in rows:
                    *idx, value = row
                    assert len(idx) == len(dims)
                    assert all(1 <= i <= d for i, d in zip(idx, dims)), row
                    form[tuple(i - 1 for i in idx)] = parse_rational(value)
                assert len(form) == len(rows)
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
        # a coordinate prints each nonzero mask on a requested chain, once
        for forms in marginals.values():
            assert sorted(map(int, forms)) == sorted(used - {0})
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


@pytest.mark.parametrize("name", ["t_m3.json", "t_m4.json"])
def test_human_trace_builds_no_marginals(monkeypatch, capsys, name):
    # human text prints no detail, so --trace without --json contracts
    # nothing and prints what the untraced run prints
    import rieszkit.arens as arens

    calls = []
    contract_entries = arens._contract_entries

    def counted(*args):
        calls.append(args)
        return contract_entries(*args)

    monkeypatch.setattr(arens, "_contract_entries", counted)
    path = str(fixture(name))
    traced = cli.main(["arens", path, "--perm", "all", "--trace"]), capsys.readouterr().out
    assert calls == []
    assert traced == (cli.main(["arens", path, "--perm", "all"]), capsys.readouterr().out)


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
    # theta runs slot m first and id slot 1 first, at every arity
    for name, m in (("t_m1.json", 1), ("t_m3.json", 3), ("t_m4.json", 4)):
        for perm, images in (("theta", list(range(m, 0, -1))), ("id", list(range(1, m + 1)))):
            report = json.loads(run("arens", fixture(name), "--perm", perm, "--json").stdout)
            assert [e["perm"] for e in report["detail"]["extensions"]] == [images], (name, perm)


@pytest.mark.parametrize(
    "text, point, reason",
    [
        ("(1 ٢)", "٢", "ASCII digits"),
        ("(+1 2)", "+1", "ASCII digits"),
        ("(1 2_0)", "2_0", "ASCII digits"),
        ("(1 ２)", "２", "ASCII digits"),
        ("(1)(2 0x3)", "0x3", "ASCII digits"),
        ("(01 2)", "01", "leading zero"),
        ("(1 002)", "002", "leading zero"),
        ("(0 1)", "0", "1-based"),
        (f"(1 {'1' * 4300})", "1" * 4300, "digit limit"),
    ],
    ids=[
        "arabic-indic", "plus", "underscore", "fullwidth", "hex", "leading-zero", "leading-zeros",
        "zero", "digit-limit",
    ],
)
def test_perm_cycle_points_are_ascii_digits(capsys, text, point, reason):
    # int() read each of these as a point: "(1 ٢)" ran as (1 2) and "(1 2_0)"
    # named slot 20; "(01 2)" ran as (1 2) but the report echoed it as given,
    # so one permutation had two report digests
    for mode in ([], ["--json"]):
        assert cli.main(["arens", str(fixture("t_m3.json")), "--perm", text] + mode) == 2
        out, err = capsys.readouterr()
        assert out == "" and repr(point) in err and reason in err and "internal" not in err
    with pytest.raises(ValueError, match=reason):
        Permutation.from_cycles(text, 3)


def test_arens_m4_and_non_dp_input():
    assert run("arens", fixture("t_m4.json"), "--perm", "theta").returncode == 0
    result = run("arens", fixture("t_diag.json"), "--json")
    assert result.returncode == 1
    assert "witness" in json.loads(result.stdout)


def test_arens_builds_no_extension_tensor(monkeypatch):
    # every extension is the input, by reflexivity: the report decides DP
    # once, on the input, and builds no tensor per permutation
    calls, built = [], []
    is_dp, init, derived = MultiTensor.is_dp, MultiTensor.__init__, MultiTensor._derived.__func__

    def counted(self):
        calls.append(self)
        return is_dp(self)

    def counted_init(self, *args, **kwargs):
        built.append("__init__")
        init(self, *args, **kwargs)

    def counted_derived(cls, *args):
        built.append("_derived")
        return derived(cls, *args)

    for name, dp in (("t_diag.json", False), ("t_m4.json", True)):
        tensor = loads_spec(fixture(name).read_text())
        for trace in (False, True):
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(MultiTensor, "is_dp", counted)
                patch.setattr(MultiTensor, "__init__", counted_init)
                patch.setattr(MultiTensor, "_derived", classmethod(counted_derived))
                report = _report_arens(tensor, "all", trace)
            assert report["ok"] is dp
            assert built == [], (name, trace, len(built))  # one tensor per permutation shows here
            assert len(calls) == 1 and calls[0] is tensor
            extensions = report["detail"]["extensions"]
            assert len(extensions) == math.factorial(tensor.m)
            assert all(e["dp"] is dp for e in extensions)


def test_arens_report_matches_reference_on_every_fixture():
    # the report prints the input as every extension; the per-node reference
    # chain decides on each tensor fixture that this is the extension and
    # that it is DP whenever the input is
    for path in sorted(FIXTURES.glob("*.json")):
        tensor = loads_spec(path.read_text())
        if not isinstance(tensor, MultiTensor):
            continue
        report = _report_arens(tensor, "all", False)
        input_dp = tensor.is_dp().is_dp
        for extension in report["detail"]["extensions"]:
            rho = Permutation([i - 1 for i in extension["perm"]])
            expected = arens_reference(tensor, rho)[0]
            assert expected == tensor, (path.name, rho)
            assert extension["tensor"] == tensor_to_obj(expected), (path.name, rho)
            assert expected.is_dp().is_dp is input_dp
            assert extension["dp"] is input_dp


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


# sha256 of the stdout of `arens --perm all --json` on non_dp_16x4_spec(16),
# without and with --trace. Only at this size do the spliced encoding and
# the bounded witness both show in the bytes.
NON_DP_16X4_ARENS_DIGESTS = {
    (): "cc03c5786613152b3e5615a49a270e291d904615745e0ba1a0b0070a63b3bfb8",
    ("--trace",): "49b7827a5dfd66f5d54c915d8dae4538d4b81626b64df921d8ce5fad93b4718a",
}


def test_non_dp_16x4_witness_is_small(tmp_path):
    # Full-support witnesses of a 16^4 tensor ran to tens of thousands of
    # bits and past the int-to-str limit (exit 3); the bounded witness
    # stays a few bits wide and replays.
    spec = tmp_path / "nondp.json"
    spec.write_text(json.dumps(non_dp_16x4_spec(16)))
    tensor = loads_spec(spec.read_text())
    arens = ["arens", "--perm", "all"]
    for args in (["check-dp"], ["factorize"], arens, arens + ["--trace"]):
        result = run(args[0], spec, *args[1:], "--json")
        assert result.returncode == 1, (args, result.stderr)
        if args[0] == "arens":
            digest = NON_DP_16X4_ARENS_DIGESTS[tuple(args[3:])]
            assert hashlib.sha256(result.stdout).hexdigest() == digest, args
        report = json.loads(result.stdout)
        assert witness_from_obj(report["witness"]).verify(tensor)
        assert max(_int_bits(report)) < 64
        stored = tmp_path / f"{args[0]}.report.json"
        stored.write_bytes(result.stdout)
        assert run("replay", stored, spec).returncode == 0, args


def test_modulus_and_rank():
    report = json.loads(run("modulus", fixture("t_m3.json"), "--json").stdout)
    values = [e["value"] for e in report["detail"]["modulus"]["entries"]]
    assert values == ["1", "5/2"]
    rank0 = json.loads(run("rank", fixture("t_zero.json"), "--json").stdout)
    assert rank0["detail"]["rank"] == 0
    rank2 = json.loads(run("rank", fixture("t_vector_dp.json"), "--json").stdout)
    assert rank2["detail"]["rank"] == 2


def test_factorize_paths():
    ok = run("factorize", fixture("t_single.json"), "--json")
    assert ok.returncode == 0
    report = json.loads(ok.stdout)
    assert report["detail"]["scale"] == "1/2"
    assert report["detail"]["coords"] == [1, 2]
    assert run("factorize", fixture("t_vector_dp.json")).returncode == 2  # not scalar
    assert run("factorize", fixture("t_diag.json")).returncode == 1
    zero = json.loads(run("factorize", fixture("t_zero.json"), "--json").stdout)
    assert zero["detail"]["coords"] is None and zero["detail"]["scale"] == "0"


def assert_recorded(command, report, named):
    """detail.args holds exactly the options ``command`` records (replay: its
    stored command), and input_digest is of the bytes of the file ``named``
    on the command line (replay: the spec), or of no bytes without one."""
    keys = {"command"} if command == "replay" else set(cli.RECORDED_OPTIONS[command])
    assert set(report["detail"]["args"]) == keys, (command, report["detail"]["args"])
    data = b"" if named is None else pathlib.Path(named).read_bytes()
    assert report["input_digest"] == "sha256:" + hashlib.sha256(data).hexdigest(), command


def test_seq_demo_deterministic_and_seeded(tmp_path):
    first = run("seq-demo", "--json")
    second = run("seq-demo", "--json")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    seeded = run("seq-demo", "--seed", "5", "--json")
    assert seeded.returncode == 0
    assert json.loads(seeded.stdout)["detail"]["args"]["seed"] == 5
    # no file named: the digest is of no bytes, for the report and its replay
    assert_recorded("seq-demo", json.loads(seeded.stdout), None)
    stored = tmp_path / "report.json"
    stored.write_bytes(seeded.stdout)
    replayed = run("replay", stored, "--json")
    assert replayed.returncode == 0
    assert_recorded("replay", json.loads(replayed.stdout), None)


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


# A weight with a nonzero tail, written as a bare sequence: the weight file
# kind the benchmark's rank_seq workload sends (every d_* fixture is a
# diag-bilinear spec). BARE_WEIGHT_REPORT_DIGEST is the sha256 of its
# seq-demo --seed 7 --json report.
BARE_WEIGHT = {"exceptions": {"3": "-2/5", "17": "4"}, "tail": "3/2"}
BARE_WEIGHT_REPORT_DIGEST = "93dcc00fdb1943dcfabdce2fbf99a01cb6de27a15defd358af55aaadd87b1945"


def test_bare_sequence_weight_file_report_is_pinned(tmp_path, capsys):
    # the two kinds of one weight give one report but for the file's digest
    bare, diag = tmp_path / "bare.json", tmp_path / "diag.json"
    bare.write_text(json.dumps(BARE_WEIGHT))
    diag.write_text(json.dumps({"format": 1, "kind": "diag-bilinear", "weight": BARE_WEIGHT}))
    outs = []
    for path in (bare, diag):
        assert cli.main(["seq-demo", "--seed", "7", "--weight-file", str(path), "--json"]) == 0
        outs.append(capsys.readouterr().out)
    assert hashlib.sha256(outs[0].encode()).hexdigest() == BARE_WEIGHT_REPORT_DIGEST
    first, second = map(json.loads, outs)
    assert first.pop("input_digest") == input_digest(bare.read_bytes())
    assert second.pop("input_digest") == input_digest(diag.read_bytes())
    assert first == second


def _assert_probe_fault(capsys, name, argv):
    # a probe suite compares the library with itself: a disagreement is an
    # internal error (exit 3, no report), never a verdict with a witness
    for mode in ([], ["--json"]):
        assert cli.main([*argv, *mode]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        line = re.fullmatch(
            rf"error: internal RuntimeError: probe suite {name} fails at index \d+: got (\S+), expected (\S+)\n",
            err,
        )
        assert line and parse_rational(line[1]) == parse_rational(line[2]) + 1, err


def test_seq_demo_diagonal_probe_disagreement_exits_3(monkeypatch, capsys):
    from rieszkit import seqmodel

    real = seqmodel.diag_arens_pair
    monkeypatch.setattr(seqmodel, "diag_arens_pair", lambda *args: real(*args) + 1)
    _assert_probe_fault(capsys, "diag-extension-agrees", ["seq-demo", "--weight-file", str(fixture("d_sparse.json"))])


def test_seq_demo_composition_probe_disagreement_exits_3(monkeypatch, capsys):
    from rieszkit import seqmodel

    real = seqmodel.comp_probe_pairs
    monkeypatch.setattr(
        seqmodel, "comp_probe_pairs", lambda *args: ((j, got + 1, want) for j, got, want in real(*args))
    )
    _assert_probe_fault(capsys, "biadjoint-extends-apply", ["seq-demo"])


def test_seq_demo_counts_every_probe(monkeypatch, capsys):
    from rieszkit import seqmodel

    yielded = []
    for name in ("diag_probe_pairs", "comp_probe_pairs"):

        def counted(*args, real=getattr(seqmodel, name)):
            for probe in real(*args):
                yielded.append(probe)
                yield probe

        monkeypatch.setattr(seqmodel, name, counted)
    assert cli.main(["seq-demo", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert sum(c.get("probes", 0) for c in report["checks"]) == len(yielded) > 0


def test_empty_weight_file_path_is_an_input_error(tmp_path, capsys):
    # "" names no file, as for check-dp; it used to run the default weight
    assert cli.main(["seq-demo", "--seed", "3", "--json"]) == 0
    report = tmp_path / "report.json"
    report.write_text(capsys.readouterr().out)
    for argv in (["seq-demo", "--weight-file", ""], ["replay", str(report), ""]):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cannot read "), err


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


def test_module_run_skips_interpreter_finalization():
    # once the report and its elapsed line are flushed the process ends at
    # once: an atexit hook, which finalization would run, never fires
    script = textwrap.dedent(
        f"""
        import atexit, runpy, sys
        atexit.register(lambda: sys.stderr.write("finalized\\n"))
        sys.argv = ["rieszkit", "check-dp", {str(fixture("t_diag.json"))!r}, "--json"]
        runpy.run_module("rieszkit", run_name="__main__")
        """
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True)
    assert result.returncode == 1
    assert json.loads(result.stdout)["ok"] is False
    assert re.fullmatch(rb"elapsed: \d+\.\d{3}s\n", result.stderr), result.stderr


def test_large_report_through_a_pipe_is_whole(tmp_path, capsys):
    # the process exits without finalizing, so every byte of a report of
    # a few MB must be flushed down the pipe first
    spec = tmp_path / "nondp.json"
    spec.write_text(json.dumps(non_dp_16x4_spec(16)))
    argv = ["arens", str(spec), "--perm", "all", "--trace", "--json"]
    result = run(*argv)
    assert cli.main(argv) == result.returncode == 1
    out, err = capsys.readouterr()
    assert len(result.stdout) > 1_000_000
    assert result.stdout == out.encode()
    assert re.fullmatch(rb"elapsed: \d+\.\d{3}s\n", result.stderr), result.stderr
    assert re.fullmatch(r"elapsed: \d+\.\d{3}s\n", err), err


# Command lines the table accepts, each with what argparse parsed it to.
ACCEPTED_LINES = [
    (["check-dp", "t.json"], {"command": "check-dp", "file": "t.json", "json": False}),
    (["rank", "--json", "t.json"], {"command": "rank", "file": "t.json", "json": True}),
    (
        ["arens", "--trace", "--perm", "theta", "t.json", "--json"],
        {"command": "arens", "file": "t.json", "perm": "theta", "trace": True, "json": True},
    ),
    (
        ["arens", "t.json", "--perm", "(1 2)"],
        {"command": "arens", "file": "t.json", "perm": "(1 2)", "trace": False, "json": False},
    ),
    (["seq-demo"], {"command": "seq-demo", "seed": 0, "file": None, "json": False}),
    (["seq-demo", "--seed", "-3"], {"command": "seq-demo", "seed": -3, "file": None, "json": False}),
    (
        ["seq-demo", "--weight-file", "w.json", "--json", "--seed", "7"],
        {"command": "seq-demo", "seed": 7, "file": "w.json", "json": True},
    ),
    (["replay", "r.json"], {"command": "replay", "report": "r.json", "spec": None, "json": False}),
    (
        ["replay", "--json", "r.json", "t.json"],
        {"command": "replay", "report": "r.json", "spec": "t.json", "json": True},
    ),
]


@pytest.mark.parametrize("argv, expected", ACCEPTED_LINES, ids=[" ".join(argv) for argv, _ in ACCEPTED_LINES])
def test_command_line_table_accepts(argv, expected):
    assert cli.parse_args(argv) == expected


# Malformed command lines, each with what its one error line names.
REFUSED_LINES = [
    ([], "no command"),
    (["bogus", "{input}"], "'bogus'"),
    (["--json", "check-dp", "{input}"], "'--json'"),
    (["check-dp"], "file"),
    (["check-dp", "{input}", "{input}"], "unexpected argument"),
    (["check-dp", "{input}", "--js"], "'--js'"),
    (["arens", "{input}", "--tr"], "'--tr'"),
    (["check-dp", "{input}", "--perm", "all"], "'--perm'"),
    (["arens", "{input}", "--perm"], "--perm"),
    (["arens", "{input}", "--json", "--perm", "--json"], "--perm"),
    (["arens", "{input}", "--perm=theta"], "'--perm=theta'"),
    (["seq-demo", "--seed", "x"], "'x'"),
    (["seq-demo", "--seed", "1.5"], "'1.5'"),
    (["seq-demo", "{input}"], "unexpected argument"),
    (["replay"], "report"),
    (["replay", "{input}", "{input}", "{input}"], "unexpected argument"),
]


@pytest.mark.parametrize("argv, named", REFUSED_LINES, ids=[" ".join(argv) or "empty" for argv, _ in REFUSED_LINES])
def test_malformed_command_line_is_an_input_error(capsys, argv, named):
    # argparse took --js for --json and --perm=theta for --perm theta; the
    # table takes each option in one spelling only
    path = str(fixture("t_diag.json"))
    assert cli.main([path if a == "{input}" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err, err


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["arens", "t.json", "--help"]], ids=" ".join)
def test_help_prints_usage(capsys, argv):
    assert cli.main(argv) == 0
    assert capsys.readouterr() == (cli.USAGE, "")


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
    "argv, spec, named",
    [
        (["seq-demo", "--weight-file"], lambda key: {"exceptions": {key: "2"}, "tail": "1"}, None),
        (
            ["check-dp"],
            lambda key: {"kind": "weighted-comp", "weight": {"tail": "1"}, "table": {key: 1}},
            "check-dp takes a tensor spec, not 'weighted-comp'",
        ),
    ],
    ids=["seq-demo", "check-dp"],
)
def test_bad_index_key_is_an_input_error(tmp_path, capsys, key, argv, spec, named):
    # int() ran outside the input-error net (exit 3), "٣" was read as index 3,
    # and seq-demo could not write the rank certificate past 10**4300 - 1 (exit 3).
    # check-dp refuses the weighted-comp kind before it reads the table, so its
    # error names the kind; tests/test_fileformat.py reads such tables.
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec(key)))
    for mode in ([], ["--json"]):
        assert cli.main(argv + [str(path)] + mode) == 2
        out, err = capsys.readouterr()
        assert out == "" and (named or repr(key)[:21]) in err and "internal" not in err


@pytest.mark.parametrize("keys", [("1", "01"), ("01", "1")], ids=["zero-padded-last", "zero-padded-first"])
def test_zero_padded_index_key_does_not_collapse(tmp_path, capsys, keys):
    # "1" and "01" named one index, and whichever came last silently won
    path = tmp_path / "weight.json"
    path.write_text(json.dumps({"exceptions": dict(zip(keys, ("2", "3"))), "tail": "0"}))
    for mode in ([], ["--json"]):
        assert cli.main(["seq-demo", "--weight-file", str(path)] + mode) == 2
        out, err = capsys.readouterr()
        assert out == "" and "'01'" in err and "leading zero" in err


@pytest.mark.parametrize("command", ["check-dp", "modulus", "factorize", "rank", "arens"])
@pytest.mark.parametrize(
    "text, kind",
    [
        (fixture("d_ones.json").read_text(), "'diag-bilinear'"),
        (fixture("c_weighted.json").read_text(), "'weighted-comp'"),
        ('{"exceptions": {"2": "1/2"}, "tail": "1"}', "'sequence'"),
        ('{"kind": "sequence", "tail": "1"}', "'sequence'"),
        ('{"kind": [], "m": 2}', "[]"),
    ],
    ids=["diag-bilinear", "weighted-comp", "sequence", "explicit-sequence", "unhashable"],
)
def test_tensor_command_names_a_spec_of_another_kind(tmp_path, capsys, command, text, kind):
    # a wrong kind is an input error naming the command and the kind; an
    # unhashable kind is one too, not a TypeError from a set or dict lookup
    path = tmp_path / "spec.json"
    path.write_text(text)
    for mode in ([], ["--json"]):
        assert cli.main([command, str(path)] + mode) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {command} takes a tensor spec, not {kind}\n"


@pytest.mark.parametrize("name, kind", [("c_weighted", "weighted-comp"), ("t_m3", "tensor")])
def test_weight_file_of_another_kind_is_named(capsys, name, kind):
    # the spec was read as a sequence, so the error listed its keys as unknown weight keys
    for mode in ([], ["--json"]):
        assert cli.main(["seq-demo", "--weight-file", str(fixture(f"{name}.json"))] + mode) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: seq-demo takes a sequence or a diag-bilinear spec, not {kind!r}\n"


def test_weight_file_with_a_sequence_kind_names_the_rule(tmp_path, capsys):
    # a bare sequence has no kind field; the error blamed the key: "unknown keys in weight: ['kind']"
    path = tmp_path / "weight.json"
    path.write_text('{"kind": "sequence", "tail": "1"}')
    for mode in ([], ["--json"]):
        assert cli.main(["seq-demo", "--weight-file", str(path)] + mode) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == 'error: a sequence spec is a bare sequence: it carries no "kind" field\n'


def test_zero_padded_witness_slot_is_not_reproduced(tmp_path, capsys):
    # a stored witness slot "02" was read as slot 2 and replayed as valid;
    # replay reads no stored witness, so the respelled one is not reproduced
    assert cli.main(["check-dp", str(fixture("t_diag.json")), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    report["witness"]["fixed"] = {"0" + k: v for k, v in report["witness"]["fixed"].items()}
    stored = tmp_path / "report.json"
    stored.write_text(json.dumps(report))
    assert cli.main(["replay", str(stored), str(fixture("t_diag.json"))]) == 1
    assert "[FAIL] report-reproduced" in capsys.readouterr().out


def test_witness_past_the_digit_limit_replays_at_the_default_limit(tmp_path, capsys):
    # a witness whose numbers pass the int-to-str limit is one the CLI
    # prints; replay reads no stored witness, so it replays at the default
    # limit (it exited 2 there and replayed only under a raised limit). The
    # image of y sums two entries with 2,201-digit coprime denominators at
    # output 2, so its denominator has 4,401 digits.
    spec = tmp_path / "big.json"
    entries = [
        (1, [1, 1], "1"),
        (1, [2, 2], "1"),
        (2, [2, 1], f"1/{10**2200 + 1}"),
        (2, [2, 2], f"1/{10**2200 + 3}"),
    ]
    spec.write_text(json.dumps({
        "m": 2, "domain_dims": [2, 2], "codomain_dim": 2,
        "entries": [{"out": k, "idx": idx, "value": value} for k, idx, value in entries],
    }))
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # CPython's default
    try:
        assert cli.main(["check-dp", str(spec), "--json"]) == 1
        out = capsys.readouterr().out
        assert max(map(len, re.findall(r"\d+", json.dumps(json.loads(out)["witness"])))) > 4300
        stored = tmp_path / "report.json"
        stored.write_text(out)
        assert cli.main(["replay", str(stored), str(spec)]) == 0
        assert "[PASS] report-reproduced" in capsys.readouterr().out
    finally:
        sys.set_int_max_str_digits(previous)


TENSOR_COMMANDS = ("check-dp", "arens", "modulus", "factorize", "rank")
# The top-level keys of every --json report; one whose DP decision fails adds "witness".
REPORT_KEYS = {"checks", "command", "detail", "format", "input_digest", "ok"}


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
    "d_decay.json": "630c8e4fbf0398a6dea35f3433b768b37c3009d0981b4bf7267ec9d461e49d80",
    "d_neg.json": "11433a741b9c32834417d28bf05420fb9e49135ed40732adc8e78c961d0d782b",
    "d_ones.json": "c4fee3311298d0e48de5796fca8baddd2301172a2e083d3d53fd0c897a2cb935",
    "d_sparse.json": "d41c0b39825425222d094ec7018fdd8c6722e24c1489a57f3ece7bf15c2e8b1d",
    "d_tailhalf.json": "ec9c6d2f95527d37c28b1ff2cb022f89ba459bebdc038d8377998d7fea55f487",
    "d_zero.json": "9153f1d74fb849af104f3a0a1e8685168d396ebcb51dbf93d190909969c14a27",
    "t_cancel.json": "ce0a7d68001f6e378639968ff0e556ec14b3ca13bd2aa450d7d8f0742673fcd1",
    "t_diag.json": "2d8becbd4401ff32a454c18ffbbbff2316784ed26e72172eece4d65892ffb1f5",
    "t_m1.json": "727e21a4b7f7f7ba5ae3b65bcbe47d33240b2579ce440e633b9dd69fce28fbfe",
    "t_m3.json": "fd84f0958520360367aceda168f581f21be45e3949d667c6aaa803a2b2a7a9e5",
    "t_m4.json": "90908869d2f96fe12c50fec8b18cca5f816b89754f49e3bb5df80810ed86dd79",
    "t_single.json": "e936a7a8b630b187da4fd57e9916217177ee43d1449ef92cc486ed5a8c45aa03",
    "t_vector_dp.json": "f2233382abda90aad2d420bd37ea4cd9902e3fa48a2864a013e35d03e75e41cb",
    "t_zero.json": "baeeaee2023c2903de4cd68d4d2a7379cb618c533dfa1cc76ca63d4220375e80",
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
        if mode and code != 2:  # every report names the fixture, as its input or the spec
            assert_recorded(argv[0], json.loads(out), path)
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
        # one schema: a command's results sit in its checks and detail
        assert set(json.loads(out)) == REPORT_KEYS | ({"witness"} if code == 1 else set()), argv
        if code == 1 and argv[0] != "seq-demo":
            assert witness_from_obj(json.loads(out)["witness"]).verify(loads_spec(fixture(name).read_text()))
        stored.write_text(out)
        replay = ["replay", str(stored), path]
        for mode in ([], ["--json"]):
            code, out, err = main(replay, mode)
            assert code == 0 and "Traceback" not in err, (argv, mode, err)
        assert set(json.loads(out)) == REPORT_KEYS
    assert digest.hexdigest() == SMOKE_DIGESTS.get(name), digest.hexdigest()


def test_replay_confirms_and_detects_tampering(tmp_path):
    report_path = tmp_path / "report.json"
    report_path.write_bytes(run("check-dp", fixture("t_diag.json"), "--json").stdout)
    good = run("replay", report_path, fixture("t_diag.json"))
    assert good.returncode == 0
    assert b"[PASS] report-reproduced" in good.stdout and b"witness-verifies" not in good.stdout

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
    assert b"[FAIL] report-reproduced" in swapped.stdout

    # digest mismatch: replay against a different file
    assert run("replay", report_path, fixture("t_single.json")).returncode == 2


def test_replay_tells_true_and_floats_from_integers(tmp_path):
    # parsed JSON has true == 1 == 1.0, so replay compares canonical bytes,
    # a witness index that is not a plain integer is not reproduced, and a
    # format that is not the integer 2 is refused
    report_path = tmp_path / "report.json"
    report_path.write_bytes(run("check-dp", fixture("t_diag.json"), "--json").stdout)
    obj = json.loads(report_path.read_text())
    assert obj["witness"]["out_coord"] == 1 and obj["witness"]["slot"] == 1
    for path, value, code, message in [
        (("witness", "out_coord"), True, 1, b"[FAIL] report-reproduced"),
        (("witness", "slot"), 1.0, 1, b"[FAIL] report-reproduced"),
        (("format",), 2.0, 2, b"report format 2.0 does not replay"),
    ]:
        changed = json.loads(report_path.read_text())
        *parents, key = path
        functools.reduce(dict.__getitem__, parents, changed)[key] = value
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
    seq["detail"]["args"]["seed"] = True
    path.write_text(json.dumps(seq))
    refused = run("replay", path)
    assert refused.returncode == 2
    assert b"detail.args.seed" in refused.stderr
    # the seed is held once, in detail.args: a second copy is a report that was not reproduced
    seq["detail"]["args"]["seed"] = 1
    seq["seed"] = 1
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


def _no_format(report):
    del report["format"]


def _bool_format(report):
    report["format"] = True


def _float_format(report):
    report["format"] = 2.0


def _next_format(report):
    report["format"] = 3


# A report field that a rerun reads is an input error (exit 2) when it is
# malformed; a report of another format than 2, or of none, is one too.
# Replay reads no stored witness: a malformed one is a field the
# rerun does not reproduce (exit 1).
MALFORMED_REPORTS = [
    ("check-dp", _drop_digest, 2, b"input_digest"),
    ("arens", _drop_perm, 2, b"detail.args.perm"),
    ("check-dp", _empty_witness, 1, b"[FAIL] report-reproduced"),
    ("check-dp", _zero_denominator, 1, b"[FAIL] report-reproduced"),
    ("check-dp", _bool_out_coord, 1, b"[FAIL] report-reproduced"),
    ("check-dp", _float_slot, 1, b"[FAIL] report-reproduced"),
    ("check-dp", _string_vector, 1, b"[FAIL] report-reproduced"),
    ("check-dp", _no_format, 2, b"report format None does not replay; this version reads 2"),
    ("rank", _bool_format, 2, b"report format True does not replay; this version reads 2"),
    ("arens", _float_format, 2, b"report format 2.0 does not replay; this version reads 2"),
    ("modulus", _next_format, 2, b"report format 3 does not replay; this version reads 2"),
]


@pytest.mark.parametrize(
    "command, corrupt, code, message",
    MALFORMED_REPORTS,
    ids=[f"{command}-{corrupt.__name__}" for command, corrupt, _, _ in MALFORMED_REPORTS],
)
def test_replay_malformed_report_exits_1_or_2(tmp_path, command, corrupt, code, message):
    report = json.loads(run(command, fixture("t_diag.json"), "--json").stdout)
    corrupt(report)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    result = run("replay", path, fixture("t_diag.json"))
    assert result.returncode == code
    assert message in (result.stdout if code == 1 else result.stderr)
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


# A stored report of every command that replays: its argv, with {input} for
# the input file, and that file (None for seq-demo's default weight).
STORED_REPORTS = {
    "check-dp": (["check-dp", "{input}"], "t_diag.json"),
    "arens": (["arens", "{input}"], "t_m3.json"),
    "arens-trace": (["arens", "{input}", "--trace"], "t_m3.json"),
    "factorize": (["factorize", "{input}"], "t_single.json"),
    "modulus": (["modulus", "{input}"], "t_m3.json"),
    "rank": (["rank", "{input}"], "t_vector_dp.json"),
    "seq-demo-seed": (["seq-demo", "--seed", "3"], None),
    "seq-demo-weight-file": (["seq-demo", "--weight-file", "{input}"], "d_neg.json"),
}


def _extra_arg(report):
    report["detail"]["args"]["note"] = "tampered"


def _other_digest(report):
    report["input_digest"] = "sha256:" + "0" * 64


def _stray_weight(report):
    # the weight copy that format-1 seq-demo reports held
    report["detail"]["args"]["weight"] = {"exceptions": {}, "tail": "1"}


def _next_seed(report):
    report["detail"]["args"]["seed"] += 1


def _other_perm(report):
    report["detail"]["args"]["perm"] = "id"


@pytest.mark.parametrize("case", sorted(STORED_REPORTS))
def test_replay_recomputes_every_field(tmp_path, capsys, case):
    # replay reruns the recorded command line: the stored args, digest and
    # weight were handed back to the builder, so edits to them replayed as
    # reproduced
    argv, name = STORED_REPORTS[case]
    inputs = [] if name is None else [str(fixture(name))]
    assert cli.main([str(fixture(name)) if a == "{input}" else a for a in argv] + ["--json"]) in (0, 1)
    fresh = capsys.readouterr().out
    stored = tmp_path / "report.json"

    def replay(report, *files):
        stored.write_text(json.dumps(report))
        code = cli.main(["replay", str(stored), *files])
        err = capsys.readouterr().err
        assert "Traceback" not in err and "internal" not in err, err
        return code

    assert replay(json.loads(fresh), *inputs) == 0
    for tamper in (_extra_arg, _other_digest):
        report = json.loads(fresh)
        tamper(report)
        assert replay(report, *inputs) != 0, tamper.__name__
    # an edited or stray option is one verdict, whatever the input: not reproduced
    for tamper in {"seq-demo": [_stray_weight, _next_seed], "arens": [_other_perm]}.get(argv[0], []):
        report = json.loads(fresh)
        tamper(report)
        assert replay(report, *inputs) == 1, tamper.__name__
    if argv[0] == "seq-demo" and inputs:
        assert replay(json.loads(fresh)) == 2  # the default weight has another digest


def test_replay_table_names_every_command():
    assert set(cli.COMMANDS) - {"replay"} == set(cli.RECORDED_OPTIONS)
    for command, options in cli.RECORDED_OPTIONS.items():
        assert set(options) <= {key for key, _ in cli.COMMANDS[command][1].values()}, command


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
