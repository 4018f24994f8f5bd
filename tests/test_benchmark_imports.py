"""Every rieszkit name the benchmark under perfbench/ imports still resolves.

The benchmark runs from its own checkout against the package's public and
private names, so renaming or deleting one breaks it without failing any
other test. This reads perfbench/ and changes nothing there.
"""

import ast
import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _imported_names():
    """(module, name) for each name a ``from rieszkit... import`` in perfbench/*.py takes."""
    names = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "rieszkit":
                names += [(node.module, alias.name) for alias in node.names]
    return names


def _resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # `from rieszkit import cli` names a submodule
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_benchmark_imports_resolve():
    names = _imported_names()
    assert names  # the parse found the traced run's imports
    missing = [f"{module}.{name}" for module, name in names if not _resolves(module, name)]
    assert not missing, missing


def test_traced_run_reads_only_names_that_exist(tmp_path, monkeypatch):
    # The traced run also reads attributes and keyword arguments that no
    # import names (.lattice_rank, .nnz(), .trace, .verify, the deciders'
    # samples/seed), so run its three passes once per workload, in process.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen
    import traced

    problems = []
    for workload in sorted(gen.WORKLOADS):
        wl = gen.build(workload, 4242)
        work = tmp_path / workload
        work.mkdir()
        # the spec files perfbench/run.py writes: every tensor, and each seq-demo weight
        specs = {**wl.tensors, **{name: s for name, s in wl.seqs.items() if s.weight is not None}}
        files = {name: work / f"{name}.json" for name in specs}
        for name, spec in specs.items():
            files[name].write_bytes(gen.spec_bytes(spec.spec_obj()))
        _, reports, outcomes = traced.cli_pass(wl, files, work, None)
        assert not [op.op_id for op, outcome in outcomes if outcome.failed or outcome.wrong]
        layer = traced.LayerPass(wl, files, reports, traced.Tracer(True))
        layer.run()
        problems += layer.problems
    traced.baseline(4242, problems)
    assert not problems, problems
