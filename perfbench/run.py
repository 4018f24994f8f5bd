"""rieszkit benchmark: seeded CLI workloads with known answers.

Run from the repository root:

    python3 perfbench/run.py --workload dp_verdicts --seed 1 --seconds 30 --trace 0

Workloads (see gen.py for the inputs): dp_verdicts, arens_sweep, rank_seq.
Each op is one ``python -m rieszkit ...`` subprocess; ops run one after
another from this process (a closed loop with one client, never more than
one child alive). Passes over the workload's op list repeat while another
one fits in ``--seconds``, with at least MIN_PASSES passes. Every op's exit
code and report are checked against the answer its input was built to
have (oracle.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the separate
in-process traced run (traced.py) and prints the per-layer metrics. The
last line of stdout is one JSON object: correct, attempted, failed,
metrics. The lines before it, each starting with '#', record the
environment, the failures and the details behind each metric; the same
record, with spans for a traced run, goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 6
OP_TIMEOUT_S = 60
TAIL_BEYOND = 10

END_TO_END = {
    "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "ok_ratio": "ratio", "report_bytes": "bytes",
    "report_int_bits_max": "bits", "peak_rss_mb": "MB", "setup_s": "s",
}
PER_LAYER = {
    "cli.startup_ms": "ms", "cli.main_s": "s", "cli.threads2_s": "s", "cli.threads2_ratio": "ratio",
    "cli.coverage": "ratio",
    "fileformat.parse_s": "s", "fileformat.parse_calls": "count", "fileformat.input_bytes": "bytes",
    "operators.is_dp_s": "s", "operators.is_dp_calls": "count", "operators.is_dp_nondp_s": "s",
    "operators.witness_bits_max": "bits", "operators.verify_s": "s", "operators.factorize_s": "s",
    "operators.rank_s": "s", "operators.rank_calls": "count", "operators.modulus_s": "s",
    "arens.extension_s": "s", "arens.extension_calls": "count", "arens.trace_s": "s",
    "arens.entries_out": "count", "arens.distinct_ratio": "ratio",
    "seqmodel.diag_arens_s": "s", "seqmodel.comp_biadjoint_s": "s", "seqmodel.checks_s": "s",
    "report.parse_s": "s", "report.serialize_s": "s", "report.bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "baseline.is_dp_16x4_s": "s", "baseline.arens_6x4_s": "s", "baseline.arens_16x4_s": "s",
    "baseline.rank_16x2_s": "s", "baseline.rank_16x3_s": "s",
}


def child_env(src: Path) -> dict:
    """The caller's environment without RIESZKIT_* knobs, with src importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RIESZKIT_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def run_op(argv: list[str], env: dict, cwd: Path) -> tuple[float, int, bytes, bytes]:
    started = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "rieszkit", *argv], capture_output=True,
                              env=env, cwd=cwd, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
        return time.perf_counter() - started, -9, b"", b"timed out"
    return time.perf_counter() - started, proc.returncode, proc.stdout, proc.stderr


def setup_once(workload: str, seed: int, work: Path, env: dict, root: Path):
    """Generate the inputs, write the spec files, run one discarded warm-up op."""
    started = time.perf_counter()
    wl = gen.build(workload, seed)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    files = {}
    for name, inp in wl.tensors.items():
        files[name] = work / f"{name}.json"
        files[name].write_bytes(gen.spec_bytes(inp.spec_obj()))
    for name, s in wl.seqs.items():
        if s.weight is not None:
            files[name] = work / f"{name}.json"
            files[name].write_bytes(gen.spec_bytes(s.spec_obj()))
    run_op(gen.resolve(wl.ops[0], files, work), env, root)
    return time.perf_counter() - started, wl, files


def measure(wl: gen.Workload, files: dict, work: Path, env: dict, root: Path, seconds: float,
            setup, setups: list[float]) -> dict:
    """Untraced passes over the op list while another one fits in ``seconds``.

    ``setup()`` runs between the first passes until ``setups`` holds
    SETUP_REPEATS times, so their median samples the host's speed over the
    run rather than at one moment."""
    deadline = time.perf_counter() + seconds
    latencies: list[float] = []
    per_op: dict[str, list[float]] = {}
    pass_walls: list[float] = []
    first_stdout: dict[str, bytes] = {}
    failures: dict[str, str] = {}
    attempted = failed = 0
    wrong = False
    bits_max = 0
    report_bytes = 0
    last = 0.0
    while len(pass_walls) < MIN_PASSES or time.perf_counter() + last < deadline:
        if pass_walls and len(setups) < SETUP_REPEATS:
            setups.append(setup())
        started = time.perf_counter()
        emitted: set[str] = set()
        wall = 0.0
        for op in wl.ops:
            attempted += 1
            if op.after and op.after not in emitted:
                failed += 1
                failures.setdefault(op.op_id, "source op emitted no report; not run")
                continue
            dt, code, stdout, stderr = run_op(gen.resolve(op, files, work), env, root)
            wall += dt
            latencies.append(dt * 1000)
            per_op.setdefault(op.op_id, []).append(dt * 1000)
            outcome = oracle.check_op(op, wl.tensors.get(op.input), code, stdout, stderr)
            if outcome.report is not None:
                emitted.add(op.op_id)
                (work / f"{op.op_id}.report.json").write_bytes(stdout)
            if outcome.failed:
                failed += 1
                failures.setdefault(op.op_id, outcome.reason)
                wrong = wrong or outcome.wrong
            if not pass_walls:
                first_stdout[op.op_id] = stdout
                report_bytes += len(stdout)
                if outcome.report is not None:
                    bits_max = max(bits_max, oracle.int_bits_max(outcome.report))
            elif first_stdout.get(op.op_id) != stdout:
                failures.setdefault(op.op_id, "stdout differs between passes")
                wrong = True
        pass_walls.append(wall)
        last = time.perf_counter() - started
    run_per_pass = len(latencies) // len(pass_walls)
    pct = tail_percentile(MIN_PASSES * run_per_pass)
    ordered = sorted(latencies)
    rank = math.ceil(pct / 100 * len(ordered))
    return {
        "metrics": {
            "wall_s": statistics.median(pass_walls),
            "op_p50_ms": statistics.median(latencies),
            "op_tail_ms": ordered[rank - 1],
            "ok_ratio": 1 - failed / attempted,
            "report_bytes": report_bytes,
            "report_int_bits_max": bits_max,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        },
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "failures": failures,
        "details": {
            "passes": len(pass_walls),
            "ops_per_pass": len(wl.ops),
            "failed_ratio": f"{failed // len(pass_walls)}/{len(wl.ops)} ops per pass = {failed / attempted:.4f}",
            "op_tail": f"p{pct} of {len(ordered)} op latencies, {len(ordered) - rank} beyond it",
            "pass_walls_s": pass_walls,
            "op_median_ms": {k: round(statistics.median(v), 2) for k, v in per_op.items()},
        },
    }


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of ``samples`` beyond it.

    Fixed from the guaranteed minimum sample count, so runs that fit more
    passes report the same percentile."""
    pct = 99
    while pct > 50 and samples - math.ceil(pct / 100 * samples) < TAIL_BEYOND:
        pct -= 1
    return pct


def environment(root: Path, seed: int, workload: str, trace: int) -> dict:
    commit = None
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                                   capture_output=True, text=True, timeout=30).stdout.split()
        if Path(top).resolve() == root.resolve():
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass  # not a git checkout: src_sha256 still identifies the code
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "rieszkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "int_max_str_digits": sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps its child, and the
    # work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    src = root / "src"
    if not (src / "rieszkit" / "cli.py").is_file():
        print(f"error: no rieszkit sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = child_env(src)
    out_dir = root / ".perfbench_out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    record = {"env": environment(root, args.seed, args.workload, args.trace)}
    try:
        elapsed, wl, files = setup_once(args.workload, args.seed, work, env, root)
        setups = [elapsed]
        if args.trace:
            import traced  # noqa: E402

            result = traced.run(wl, files, work, args.seed, args.seconds, env, root)
            outcomes = result.pop("outcomes")
            attempted = len(outcomes)
            failed = sum(o.failed for _, o in outcomes)
            correct = not any(o.wrong for _, o in outcomes) and not result["problems"]
            failures = {op.op_id: o.reason for op, o in outcomes if o.failed}
            spans = result.pop("spans")
            self_times = result.pop("self_times")
            record["spans"] = [
                {"name": n, "op": op_id, "parent": parent, "start": start, "end": end, "self": st, "note": note}
                for (n, op_id, parent, start, end, note), st in zip(spans, self_times)
            ]
            busy_total = sum(result["busy"].values()) or 1.0
            details = {
                "rounds": result["rounds"],
                "threads": result["threads"],
                "busy_split": {k: round(v / busy_total, 4) for k, v in result["busy"].items()},
                "busy_s": result["busy"],
                "baseline_roadmap": {name: f"{ref} s in ROADMAP item 1: {what}"
                                     for name, ref, what in traced.BASELINE_ROWS},
                "problems": result["problems"],
            }
        else:
            result = measure(wl, files, work, env, root, args.seconds,
                             lambda: setup_once(args.workload, args.seed, work, env, root)[0], setups)
            result["metrics"]["setup_s"] = statistics.median(setups)
            attempted, failed = result["attempted"], result["failed"]
            correct = not result["wrong"]
            failures = result["failures"]
            details = result["details"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details["setup_runs_s"] = setups
    metrics = result["metrics"]
    units = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError(f"metric names drifted from the declared ones: {sorted(set(metrics) ^ set(units))}")
    record.update({"details": details, "failures": failures, "metrics": metrics,
                   "correct": correct, "attempted": attempted, "failed": failed})
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"# env {json.dumps(record['env'], sort_keys=True)}")
    for key, value in details.items():
        print(f"# {key}: {json.dumps(value, default=str)}")
    for op_id, reason in sorted(failures.items()):
        print(f"# failed {op_id}: {reason}")
    for key, value in metrics.items():
        print(f"# {key} = {value} {units[key]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
