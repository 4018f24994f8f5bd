"""The examples in README.md run and say what the code does."""

import doctest
import importlib
import pathlib
import pkgutil
import re

import rieszkit
from rieszkit import cli
from rieszkit.fileformat import loads_spec

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def test_python_blocks_run():
    # the blocks build on each other, so they share one namespace
    found = blocks("python")
    assert len(found) >= 3
    namespace = {}
    for source in found:
        exec(compile(source, "README.md", "exec"), namespace)


def test_docstring_examples_run():
    failed = attempted = 0
    names = [info.name for info in pkgutil.iter_modules(rieszkit.__path__, "rieszkit.")]
    for module in [rieszkit, *map(importlib.import_module, names)]:
        result = doctest.testmod(module)
        failed += result.failed
        attempted += result.attempted
    assert failed == 0 and attempted >= 3


def test_json_blocks_are_specs():
    # one spec per block: a block of two objects is not JSON
    found = blocks("json")
    assert len(found) >= 4
    for source in found:
        loads_spec(source)


def test_check_dp_transcript(capsys, monkeypatch):
    command = "$ rieszkit check-dp tests/fixtures/t_diag.json\n"
    (transcript,) = [b for b in blocks("") if b.startswith(command)]
    stdout, code = re.fullmatch(
        re.escape(command) + r"(.*)\$ echo \$\?\n(\d+)\n", transcript, re.S
    ).groups()
    monkeypatch.chdir(ROOT)
    assert cli.main(["check-dp", "tests/fixtures/t_diag.json"]) == int(code) == 1
    assert capsys.readouterr().out == stdout


def test_usage_block_is_the_help_text():
    assert cli.USAGE in blocks("")
