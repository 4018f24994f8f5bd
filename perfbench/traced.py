"""The traced run: the same inputs, in process, layer by layer.

Never used for end-to-end numbers. One round is four passes over the
workload's op list:

* ``cli.main`` in process with RIESZKIT_THREADS unset, then with it at 2
  (at most nproc). Both are checked against the known answers, and their
  stdout bytes must be identical.
* A layer pass with span recording on, and the same pass with it off. The
  layer pass calls each module's public functions the way the CLI does,
  with one span per call (name, start, end, parent, op id) under one root
  span per op. ``DPWitness.verify`` is wrapped while spans are on, so the
  verification inside ``is_dp`` shows up as a child span.

Rounds repeat while another one fits in the time; times are medians over
rounds, counts come from the first round. The ROADMAP item-1 baseline rows are timed once
per run, outside the rounds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from fractions import Fraction

import gen
import oracle
from rieszkit import cli
from rieszkit.arens import all_permutations, arens_extension
from rieszkit.fileformat import loads_spec, parse_seq
from rieszkit.operators import DPWitness, MultiTensor, NotDisjointnessPreserving, factorize_multimorphism
from rieszkit.report import report_json, witness_from_obj
from rieszkit.seqmodel import (
    DiagBilinear,
    EvConstSeq,
    WeightedCompOp,
    biadjoint_dp_check,
    comp_biadjoint,
    diag_arens,
    dual_basis_dp,
    rank_lower_bound,
    slotwise_dp_check,
)

LAYERS = ("fileformat", "operators", "arens", "seqmodel", "report")
STARTUP_SAMPLES = 3


class _Span:
    __slots__ = ("_tracer", "_index")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self._tracer = tracer
        self._index = index

    def __enter__(self):
        self._tracer._stack.append(self._index)
        return self

    def __exit__(self, *exc) -> None:
        self._tracer._stack.pop()
        self._tracer.spans[self._index][4] = time.perf_counter()

    @property
    def note(self):
        return self._tracer.spans[self._index][5]

    @note.setter
    def note(self, value) -> None:
        self._tracer.spans[self._index][5] = value


class _NoSpan:
    note = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass


class Tracer:
    """Spans kept in memory as [name, op_id, parent, start, end, note]."""

    def __init__(self, on: bool) -> None:
        self.on = on
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = ""

    def op(self, op_id: str):
        """The root span of one op."""
        self.op_id = op_id
        return self.span("op")

    def span(self, name: str, note: str | None = None):
        if not self.on:
            return _NoSpan()
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.op_id, parent, time.perf_counter(), None, note])
        return _Span(self, len(self.spans) - 1)

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        out = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[2] is not None:
                out[s[2]] -= s[4] - s[3]
        return out

    def totals(self) -> dict[str, float]:
        """Inclusive time per span name, with 'nondp' / 'trace' notes split out."""
        out: dict[str, float] = defaultdict(float)
        for name, _, _, start, end, note in self.spans:
            out[name] += end - start
            if note:
                out[f"{name}.{note}"] += end - start
        return out

    def calls(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def busy(self) -> dict[str, float]:
        """Self time per layer (the module prefix of each span name)."""
        out = dict.fromkeys(LAYERS, 0.0)
        for s, t in zip(self.spans, self.self_times()):
            layer = s[0].split(".")[0]
            if layer in out:
                out[layer] += t
        return out


def witness_bits(w: DPWitness) -> int:
    vectors = [w.x, w.y, w.image_x, w.image_y, *(v for _, v in w.fixed)]
    return max(max(c.numerator.bit_length(), c.denominator.bit_length()) for v in vectors for c in v)


@contextlib.contextmanager
def _spanned(cls, attr: str, tracer: Tracer, name: str, note=None):
    """Give every call of ``cls.attr``, wherever it comes from, a span."""
    original = getattr(cls, attr)

    def wrapper(self, *args, **kwargs):
        with tracer.span(name) as span:
            result = original(self, *args, **kwargs)
            if note is not None:
                span.note = note(result)
        return result

    setattr(cls, attr, wrapper)
    try:
        yield
    finally:
        setattr(cls, attr, original)


class LayerPass:
    """Replays the workload's ops as calls to each module's public functions."""

    def __init__(self, wl: gen.Workload, files: dict, reports: dict[str, bytes], tracer: Tracer) -> None:
        self.wl = wl
        self.files = files
        self.reports = reports
        self.t = tracer
        self.counts: Counter = Counter()
        self.problems: list[str] = []
        self.check_s = 0.0
        self._op = None

    def run(self) -> float:
        """One pass. Returns its seconds, less the benchmark's own witness checks."""
        with contextlib.ExitStack() as stack:
            if self.t.on:
                stack.enter_context(_spanned(MultiTensor, "is_dp", self.t, "operators.is_dp",
                                             lambda v: None if v.is_dp else "nondp"))
                stack.enter_context(_spanned(DPWitness, "verify", self.t, "operators.verify"))
            started = time.perf_counter()
            for op in self.wl.ops:
                self._op = op
                with self.t.op(op.op_id):
                    getattr(self, "_" + op.command.replace("-", "_"))(op)
            return time.perf_counter() - started - self.check_s

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(f"{self._op.op_id}: {what}")

    # -- layer calls ----------------------------------------------------------

    def parse(self, name: str):
        text = self.files[name].read_bytes().decode("utf-8")
        self.counts["fileformat.input_bytes"] += len(text.encode())
        with self.t.span("fileformat.parse"):
            return loads_spec(text)

    def is_dp(self, tensor, inp: gen.TensorInput):
        verdict = tensor.is_dp()  # the span comes from the wrapper run() installs
        self.expect(verdict.is_dp == inp.dp, "is_dp verdict differs from the planted one")
        if verdict.witness is not None:
            self.witness(inp, verdict.witness)
        return verdict

    def witness(self, inp: gen.TensorInput, w: DPWitness) -> None:
        self.counts["operators.witness_bits_max"] = max(self.counts["operators.witness_bits_max"], witness_bits(w))
        started = time.perf_counter()
        fixed = {i: list(v) for i, v in w.fixed}
        self.expect(oracle.witness_holds(inp, w.out_coord, w.slot, list(w.x), list(w.y), fixed,
                                         list(w.image_x), list(w.image_y)),
                    "witness does not re-verify under the benchmark's evaluator")
        self.check_s += time.perf_counter() - started

    def report(self, op_id: str):
        """json.loads the CLI's own stdout, then report_json it again."""
        stdout = self.reports.get(op_id)
        if stdout is None:
            return None
        with self.t.span("report.parse"):
            obj = json.loads(stdout)
        with self.t.span("report.serialize"):
            text = report_json(obj)
        self.counts["report.bytes"] += len(text.encode())
        return obj

    # -- one handler per CLI command ----------------------------------------------

    def _check_dp(self, op: gen.Op) -> None:
        inp = self.wl.tensors[op.input]
        self.is_dp(self.parse(op.input), inp)
        self.report(op.op_id)

    def _factorize(self, op: gen.Op) -> None:
        inp = self.wl.tensors[op.input]
        tensor = self.parse(op.input)
        self.factorize(tensor, inp)
        self.report(op.op_id)

    def factorize(self, tensor, inp: gen.TensorInput) -> None:
        with self.t.span("operators.factorize") as span:
            try:
                result = factorize_multimorphism(tensor)
            except NotDisjointnessPreserving as exc:
                result = exc.verdict
                span.note = "nondp"
        if inp.dp:
            ((k, idx), v), = inp.entries.items()
            self.expect(getattr(result, "scale", None) == abs(v) and result.coords == idx,
                        "factorization differs from the planted entry")
        else:
            self.expect(result.witness is not None, "factorize accepted a non-DP input")
            self.witness(inp, result.witness)

    def _arens(self, op: gen.Op) -> None:
        inp = self.wl.tensors[op.input]
        tensor = self.parse(op.input)
        with_trace = "--trace" in op.argv
        distinct = set()
        for rho in all_permutations(tensor.m):
            with self.t.span("arens.extension", "trace" if with_trace else None):
                result = arens_extension(tensor, rho, with_trace=with_trace)
            self.counts["arens.entries_out"] += result.tensor.nnz()
            entries = dict(result.tensor.items())
            distinct.add(frozenset(entries.items()))
            self.expect(entries == inp.entries, f"restriction law fails for {rho}")
            self.expect(not with_trace or len(result.trace) == inp.cod, "trace missing")
            self.is_dp(result.tensor, inp)
        self.counts["arens.distinct"] += len(distinct)
        self.is_dp(tensor, inp)
        self.report(op.op_id)

    def _rank(self, op: gen.Op) -> None:
        inp = self.wl.tensors[op.input]
        tensor = self.parse(op.input)
        with self.t.span("operators.rank"):
            basis = tensor.range_sublattice_basis()
        self.expect(len(basis) == inp.rank, f"rank {len(basis)}, planted {inp.rank}")
        self.report(op.op_id)

    def _modulus(self, op: gen.Op) -> None:
        inp = self.wl.tensors[op.input]
        tensor = self.parse(op.input)
        with self.t.span("operators.modulus"):
            modulus = tensor.modulus()
        self.expect(dict(modulus.items()) == {key: abs(v) for key, v in inp.entries.items()},
                    "modulus differs from the entrywise absolute value")
        self.report(op.op_id)

    def _seq_demo(self, op: gen.Op) -> None:
        s = self.wl.seqs[op.input]
        weight = EvConstSeq.constant(1)
        if s.weight is not None:
            text = self.files[s.name].read_bytes().decode("utf-8")
            self.counts["fileformat.input_bytes"] += len(text.encode())
            with self.t.span("fileformat.parse"):
                weight = parse_seq(json.loads(text), "weight")
            self.expect(_same_seq(weight, s.weight), "weight file parsed to another sequence")
        self.seq_suite(s.seed, weight)
        self.report(op.op_id)

    def _replay(self, op: gen.Op) -> None:
        stored = self.report(op.after)
        if stored is None:
            return  # the source op emitted nothing; the CLI pass counts it
        source = next(o for o in self.wl.ops if o.op_id == op.after)
        if source.command == "seq-demo":
            s = self.wl.seqs[source.input]
            self.seq_suite(s.seed, _ev(s.weight) if s.weight else EvConstSeq.constant(1))
        else:
            inp = self.wl.tensors[op.input]
            tensor = self.parse(op.input)
            if source.command == "check-dp":
                self.is_dp(tensor, inp)
            else:
                self.factorize(tensor, inp)
            if "witness" in stored:
                with self.t.span("report.parse"):
                    witness = witness_from_obj(stored["witness"])
                self.expect(witness.verify(tensor), "stored witness no longer verifies")
        self.report(op.op_id)

    def seq_suite(self, seed: int, weight: EvConstSeq) -> None:
        """The seq-demo suite, on sequences the benchmark generates itself."""
        rng = random.Random(seed)
        for _ in range(50):
            w, u, v = _seq(rng), _seq(rng), _seq(rng)
            with self.t.span("seqmodel.diag_arens"):
                got = diag_arens(DiagBilinear(_ev(w)), _ev(u), _ev(v))
            self.expect(_same_seq(got, _product(w, u, v)), "diag_arens differs from w*u*v")
        op = DiagBilinear(weight)
        for i in range(5):
            with self.t.span("seqmodel.checks"):
                ok = biadjoint_dp_check(_comp(rng)[0], samples=50, seed=seed + i)
            self.expect(ok, "biadjoint_dp_check failed")
        with self.t.span("seqmodel.checks"):
            self.expect(dual_basis_dp(limit=32, samples=50, seed=seed), "dual_basis_dp failed")
        with self.t.span("seqmodel.checks"):
            self.expect(rank_lower_bound(op, 32) == 32, "rank_lower_bound collapsed")
        with self.t.span("seqmodel.checks"):
            ok = slotwise_dp_check(op, EvConstSeq.constant(1), samples=25, seed=seed)
        self.expect(ok, "slotwise_dp_check failed")
        for _ in range(20):
            comp, (w, table, shift) = _comp(rng)
            x = _seq(rng, tail_zero=True)
            with self.t.span("seqmodel.comp_biadjoint"):
                got = comp_biadjoint(comp, _ev(x))
            expected_exc = {k: _at(w, k) * _at(x, table.get(k, k + shift)) for k in range(1, 40)}
            self.expect(_same_seq(got, (expected_exc, w[1] * x[1])), "comp_biadjoint differs from w_k x_sigma(k)")


# -- the benchmark's own sequences: (exceptions, tail), 1-based ---------------------


def _seq(rng: random.Random, tail_zero: bool = False):
    tail = Fraction(0) if tail_zero else rng.choice([Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3)])
    exc = {k: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for k in range(1, 9) if rng.random() < 0.4}
    return exc, tail


def _comp(rng: random.Random):
    w = _seq(rng)
    table = {k: rng.randint(1, 8) for k in range(1, 6) if rng.random() < 0.3}
    shift = rng.randint(0, 3)
    return WeightedCompOp(_ev(w), table, shift), (w, table, shift)


def _ev(seq) -> EvConstSeq:
    return EvConstSeq(*seq)


def _at(seq, k: int) -> Fraction:
    return seq[0].get(k, seq[1])


def _product(*seqs):
    keys = set().union(*(s[0] for s in seqs))
    tail = Fraction(1)
    for s in seqs:
        tail *= s[1]
    exc = {}
    for k in keys:
        value = Fraction(1)
        for s in seqs:
            value *= _at(s, k)
        exc[k] = value
    return exc, tail


def _same_seq(got: EvConstSeq, expected) -> bool:
    exc, tail = expected
    top = max([*exc, *got.exceptions, 0]) + 2
    return got.tail == tail and all(got.value_at(k) == exc.get(k, tail) for k in range(1, top))


# -- in-process cli.main ----------------------------------------------------------------


def cli_pass(wl: gen.Workload, files: dict, work, threads: str | None):
    """cli.main over the op list; returns (seconds, stdout per op, outcomes)."""
    saved = os.environ.pop("RIESZKIT_THREADS", None)
    if threads is not None:
        os.environ["RIESZKIT_THREADS"] = threads
    stdout_by_op: dict[str, bytes] = {}
    outcomes = []
    total = 0.0
    try:
        for op in wl.ops:
            if op.after and op.after not in stdout_by_op:
                outcomes.append((op, oracle.Outcome(True, False, "source op emitted no report")))
                continue
            argv = gen.resolve(op, files, work)
            out, err = io.StringIO(), io.StringIO()
            started = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # an uncaught error ends a real run with exit 1 and a traceback
                    traceback.print_exc()
                    code = 1
            total += time.perf_counter() - started
            stdout = out.getvalue().encode()
            outcome = oracle.check_op(op, wl.tensors.get(op.input), code, stdout, err.getvalue().encode())
            if outcome.report is not None:
                stdout_by_op[op.op_id] = stdout
                (work / f"{op.op_id}.report.json").write_bytes(stdout)
            outcomes.append((op, outcome))
    finally:
        os.environ.pop("RIESZKIT_THREADS", None)
        if saved is not None:
            os.environ["RIESZKIT_THREADS"] = saved
    return total, stdout_by_op, outcomes


# -- ROADMAP item-1 baseline rows ----------------------------------------------------------

# (metric, ROADMAP time in seconds, what is timed). Entry counts follow the
# ROADMAP table; 16^3 uses 16 rays x 765 = 12,240 entries for its 12,233.
BASELINE_ROWS = [
    ("baseline.is_dp_16x4_s", 2.8, "is_dp, non-DP 16^4, 6,129 entries, pair split in the last slot"),
    ("baseline.arens_6x4_s", 0.49, "arens_extension x24, 6^4->4, 972 entries"),
    ("baseline.arens_16x4_s", 4.7, "arens_extension x24, 16^4, 6,062 entries"),
    ("baseline.rank_16x2_s", 0.088, "lattice rank, 16^2->16, 1,904 entries"),
    ("baseline.rank_16x3_s", 1.06, "lattice rank, 16^3->16, 12,240 entries"),
]


def baseline(seed: int, problems: list[str]) -> dict[str, float]:
    rng = random.Random(f"baseline-{seed}")
    out = {}

    def timed(name, fn):
        started = time.perf_counter()
        result = fn()
        out[name] = time.perf_counter() - started
        return result

    def tensor_of(inp):
        return loads_spec(gen.spec_bytes(inp.spec_obj()).decode())

    # The two smallest tuples differ in the last slot: the costly case, and
    # the one that reproduces the ROADMAP figure.
    inp = gen.non_dp_tensor(rng, "b", "16x4", 6129, split=3)
    verdict = timed("baseline.is_dp_16x4_s", tensor_of(inp).is_dp)
    if verdict.is_dp:
        problems.append("baseline: 16^4 non-DP input judged DP")
    for name, shape, nnz in (("baseline.arens_6x4_s", "6x4", 972), ("baseline.arens_16x4_s", "16x4", 6062)):
        inp = gen.non_dp_tensor(rng, "b", shape, nnz)
        tensor = tensor_of(inp)
        results = timed(name, lambda: [arens_extension(tensor, rho) for rho in all_permutations(tensor.m)])
        if any(dict(r.tensor.items()) != inp.entries for r in results):
            problems.append(f"baseline: restriction law fails on {shape}")
    for name, shape, support in (("baseline.rank_16x2_s", "16x2", 119), ("baseline.rank_16x3_s", "16x3", 765)):
        inp = gen.rank_tensor(rng, "b", shape, 16, support)
        tensor = tensor_of(inp)
        if timed(name, tensor.lattice_rank) != 16:
            problems.append(f"baseline: wrong rank on {shape}")
    return out


# -- the run ------------------------------------------------------------------------------------


def startup_samples(env: dict, root) -> list[float]:
    """Milliseconds for ``python -c "import rieszkit.cli"``, STARTUP_SAMPLES times."""
    samples = []
    for _ in range(STARTUP_SAMPLES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import rieszkit.cli"], env=env, cwd=root,
                       check=True, timeout=120)
        samples.append((time.perf_counter() - started) * 1000)
    return samples


def run(wl: gen.Workload, files: dict, work, seed: int, seconds: float, env: dict, root) -> dict:
    """The traced run. Returns per-layer metrics plus the counts and spans."""
    deadline = time.perf_counter() + seconds
    problems: list[str] = []
    startup = startup_samples(env, root)
    metrics = {}
    metrics.update(baseline(seed, problems))
    threads = str(min(2, os.cpu_count() or 1))
    rounds = []
    first = None
    last = 0.0
    while not rounds or time.perf_counter() + last < deadline:
        started = time.perf_counter()
        flip = len(rounds) % 2 == 1
        plain = {}
        for setting in ([threads, None] if flip else [None, threads]):
            plain[setting] = cli_pass(wl, files, work, setting)
        main_s, reports, outcomes = plain[None]
        for op_id, stdout in reports.items():
            if plain[threads][1].get(op_id) != stdout:
                problems.append(f"{op_id}: stdout differs with RIESZKIT_THREADS={threads}")
        passes = {}
        for on in ([False, True] if flip else [True, False]):
            tracer = Tracer(on)
            layer = LayerPass(wl, files, reports, tracer)
            passes[on] = (layer.run(), layer, tracer)
        (on_s, layer, tracer), (off_s, _, _) = passes[True], passes[False]
        problems.extend(layer.problems)
        if first is None:
            first = (outcomes, layer.counts + tracer.calls(), tracer)
        startup += startup_samples(env, root)  # spread over the run: host speed drifts
        rounds.append({
            "main_s": main_s,
            "threads2_s": plain[threads][0],
            "on_s": on_s,
            "off_s": off_s,
            "totals": tracer.totals(),
            "busy": tracer.busy(),
        })
        last = time.perf_counter() - started
    outcomes, counts, tracer = first

    def med(fn):
        return statistics.median(fn(r) for r in rounds)

    def total(name):
        return med(lambda r: r["totals"].get(name, 0.0))

    extensions = counts["arens.extension"]
    metrics.update({
        "cli.startup_ms": statistics.median(startup),
        "cli.main_s": med(lambda r: r["main_s"]),
        "cli.threads2_s": med(lambda r: r["threads2_s"]),
        "cli.threads2_ratio": med(lambda r: r["threads2_s"] / r["main_s"]),
        "cli.coverage": med(lambda r: sum(r["busy"].values()) / r["main_s"]),
        "fileformat.parse_s": total("fileformat.parse"),
        "fileformat.parse_calls": counts["fileformat.parse"],
        "fileformat.input_bytes": counts["fileformat.input_bytes"],
        "operators.is_dp_s": total("operators.is_dp"),
        "operators.is_dp_calls": counts["operators.is_dp"],
        "operators.is_dp_nondp_s": total("operators.is_dp.nondp"),
        "operators.witness_bits_max": counts["operators.witness_bits_max"],
        "operators.verify_s": total("operators.verify"),
        "operators.factorize_s": total("operators.factorize"),
        "operators.rank_s": total("operators.rank"),
        "operators.rank_calls": counts["operators.rank"],
        "operators.modulus_s": total("operators.modulus"),
        "arens.extension_s": total("arens.extension"),
        "arens.extension_calls": extensions,
        "arens.trace_s": total("arens.extension.trace"),
        "arens.entries_out": counts["arens.entries_out"],
        "arens.distinct_ratio": counts["arens.distinct"] / extensions if extensions else 0.0,
        "seqmodel.diag_arens_s": total("seqmodel.diag_arens"),
        "seqmodel.comp_biadjoint_s": total("seqmodel.comp_biadjoint"),
        "seqmodel.checks_s": total("seqmodel.checks"),
        "report.parse_s": total("report.parse"),
        "report.serialize_s": total("report.serialize"),
        "report.bytes": counts["report.bytes"],
        # Fastest pass each way: the effect is small next to host noise.
        "trace.overhead_ratio": min(r["on_s"] for r in rounds) / min(r["off_s"] for r in rounds),
    })
    busy = {layer: med(lambda r: r["busy"][layer]) for layer in LAYERS}
    return {
        "metrics": metrics,
        "outcomes": outcomes,
        "problems": sorted(set(problems)),
        "busy": busy,
        "rounds": len(rounds),
        "threads": threads,
        "spans": tracer.spans,
        "self_times": tracer.self_times(),
    }
