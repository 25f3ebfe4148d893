"""Benchmark runner for wsq.

Run from the root of a checkout::

    python3 perfbench/run.py --workload net_bounded --seed 1 --seconds 20 --trace 0

The runner uses only the standard library, the package in ``src/`` and the
test helpers ``tests/randgen.py`` and ``tests/ref_eval.py``.  It sets the
workload up three to seven times and reports the median set-up time, then
runs rounds of operations, one at a time, until ``--seconds`` have passed
and at least ``MIN_OPS`` operations are done.  Every answer is compared
with its precomputed oracle value; a mismatch makes the run fail.

End-to-end times are corrected for the machine's speed: a fixed reference
(``SPEED_PROBES``) is timed between operations, and each latency is scaled
by the reference's nominal time over its time around that operation.  The
raw times are kept in the record.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics named in ``BENCHMARK.json``.  With ``--trace 1`` each round runs
twice, untraced and traced in alternating order, and the last line holds
the per-layer metrics computed from the spans of the traced pass.  A
record of the run (seed, source revision, machine, every answer and, when
traced, every span) is written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from tracing import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SETUP_REPS = (3, 7)  # at least 3 set-ups, up to 7 while they take under SETUP_BUDGET
SETUP_BUDGET = 2.0
SETUP_PROBES = 8  # kernel probes between two set-ups
MIN_OPS = 100
MAX_SECONDS = 120
CENSUS_SEED = 0
PROBES = 10
SPEED_WINDOW = 1.0  # seconds either side of an operation whose speed probes set its speed
REQUIRED = ("src/wsq/__init__.py", "tests/randgen.py", "tests/ref_eval.py", "BENCHMARK.json")

LAYERS = ("cli", "fnn", "structures", "syntax", "queries", "evaluator", "numerics")
ANALYSIS = ("free_vars", "vocabulary_of", "check_scalar_fragment")


# ---------------------------------------------------------------------------
# Run context
# ---------------------------------------------------------------------------


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def revision() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def origin_layer(tb) -> str:
    """The wsq module of the innermost package frame that raised."""
    layer = "bench"
    src = str(ROOT / "src" / "wsq")
    for frame, _ in traceback.walk_tb(tb):
        name = frame.f_code.co_filename
        if name.startswith(src):
            rel = Path(name).relative_to(src).parts
            layer = rel[0] if len(rel) > 1 else rel[0].removesuffix(".py")
    return layer if layer in LAYERS else "bench"


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------


def reference_kernel() -> int:
    """Fixed work of the kinds wsq does: exact rational arithmetic, tuple
    keys in dicts, short strings."""
    x, table = Fraction(1, 3), {}
    for i in range(150):
        x = x * Fraction(i + 2, i + 1) - Fraction(1, i + 5)
        table[(i, i % 7)] = str(x.numerator % 997)
    return len(table)


def kernel_ms() -> float:
    """The least time of three runs of the reference kernel, with the cycle
    collector off so that the size of the heap does not enter."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            reference_kernel()
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best * 1000


def process_ms() -> float:
    """The time to start and end one ``python -c pass`` process, waited for
    as the workload waits for its processes: reading its output pipes to
    the end, which sees the exit at once, unlike a wait with a timeout,
    which polls."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True, capture_output=True, timeout=60)
    return (time.perf_counter() - start) * 1000


@dataclass(frozen=True)
class SpeedProbe:
    """A fixed piece of work timed between operations to follow the
    machine's speed, which on a shared virtual machine drifts by up to a
    factor of two over seconds to minutes.  ``reference_ms`` is about its
    time on the machine the benchmark was tuned on (2 vCPUs, Python 3.11),
    so corrected latencies read as milliseconds on that machine."""

    measure: Callable[[], float]
    every: float  # seconds of operations between two probes
    reference_ms: float


SPEED_PROBES = {
    # in-process operations follow the reference kernel
    "kernel": SpeedProbe(kernel_ms, 0.05, 1.0),
    # whole processes follow the start-up of a bare interpreter
    "process": SpeedProbe(process_ms, 0.4, 50.0),
}


class Runner:
    def __init__(self, workload):
        self.workload = workload
        self.speed = SPEED_PROBES[workload.speed_probe]
        self.null = NullTracer()
        self.records = []
        self.errors = defaultdict(int)
        self.failed = 0
        self.probes = []

    def run_op(self, op, fn, tracer, round_no, traced):
        op_id = len(self.records)
        answer, error = None, None
        start = time.perf_counter()
        try:
            with tracer.op(op_id, op.kind, op.bucket, layer="cli" if op.replay and traced else None):
                answer = fn(tracer)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            self.errors[origin_layer(exc.__traceback__)] += 1
        elapsed = time.perf_counter() - start
        at = start + elapsed / 2
        ok = error is None and answer == op.expected
        if not ok:
            self.failed += 1
            if error is None and fn is op.run and op.replay is not None and not answer.startswith("0:"):
                self.errors["cli"] += 1  # a wsq process exited non-zero
        self.records.append(
            {
                "id": op_id,
                "round": round_no,
                "kind": op.kind,
                "bucket": op.bucket,
                "traced": traced,
                "ms": elapsed * 1000,
                "at": at,
                "ok": ok,
                "answer": answer,
                "expected": None if ok else op.expected,
                "error": error,
            }
        )
        return elapsed

    def probe(self) -> float:
        """Take a speed probe; returns when it ended."""
        self.probes.append((time.perf_counter(), self.speed.measure()))
        return self.probes[-1][0]

    def corrected(self):
        """Each operation's latency scaled to the reference speed by the
        median probe within SPEED_WINDOW of its midpoint (at least the three
        nearest probes), and the operations per second of each round from
        the scaled latencies."""
        times = [t for t, _ in self.probes]
        latencies, by_round = [], defaultdict(list)
        for rec in self.records:
            i = bisect.bisect_left(times, rec["at"])
            lo = bisect.bisect_left(times, rec["at"] - SPEED_WINDOW, hi=i)
            hi = bisect.bisect_right(times, rec["at"] + SPEED_WINDOW, lo=i)
            lo, hi = min(lo, max(i - 2, 0)), max(hi, min(i + 1, len(times)))
            speed = statistics.median(ms for _, ms in self.probes[lo:hi])
            rec["ms_corrected"] = rec["ms"] * self.speed.reference_ms / speed
            latencies.append(rec["ms_corrected"] / 1000)
            by_round[rec["round"]].append(latencies[-1])
        return latencies, [len(v) / sum(v) for v in by_round.values()]

    def measure(self, seconds, trace):
        """Whole rounds until the time is up and MIN_OPS are done.  Returns
        the wall time, the op latencies, the operations per second of each
        round, and for traced runs the tracer and the summed untraced and
        traced times of the paired passes."""
        tracer = Tracer() if trace else None
        latencies, rates, plain_total, traced_total = [], [], 0.0, 0.0
        start = time.perf_counter()
        r = 0
        while True:
            ops = self.workload.round(r)
            if not trace:
                since = self.probe()
                for op in ops:
                    self.run_op(op, op.run, self.null, r, False)
                    if time.perf_counter() - since >= self.speed.every:
                        since = self.probe()
            else:
                passes = (False, True) if r % 2 == 0 else (True, False)
                for traced in passes:
                    for op in ops:
                        fn = op.replay or op.run
                        spent = self.run_op(op, fn, tracer if traced else self.null, r, traced)
                        if traced:
                            traced_total += spent
                            latencies.append(spent)
                        else:
                            plain_total += spent
            r += 1
            wall = time.perf_counter() - start
            # the end-to-end percentiles need MIN_OPS samples; per-layer
            # metrics have no bound, so a traced run stops on time alone
            enough = trace or len(self.records) >= MIN_OPS
            if (wall >= seconds and enough) or wall >= MAX_SECONDS:
                if not trace:
                    self.probe()
                    latencies, rates = self.corrected()
                return wall, latencies, rates, tracer, plain_total, traced_total


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(latencies, rates, setup_times, attempted, failed, children) -> dict:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    ms = [x * 1000 for x in latencies]
    return {
        "latency_p50_ms": p50(ms),
        "latency_p90_ms": p90(ms),
        "throughput_ops_s": p50(rates),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "success_ratio": (attempted - failed) / attempted,
    }


def _bucket_chars(n: int) -> str:
    for limit, name in ((1000, "c1k"), (8000, "c8k")):
        if n <= limit:
            return name
    return "c64k"


def per_layer(spans, census, probes, errors, plain_total, traced_total) -> dict:
    m = {}
    roots = [s for s in spans if s.name == "op" and s.end is not None]
    total = sum(s.duration for s in roots) or 1.0
    per_op = defaultdict(lambda: defaultdict(float))
    by_layer = defaultdict(float)
    by_name = defaultdict(list)
    for s in spans:
        if s.end is None:
            continue
        if s.layer:
            by_name[s.name].append(s)
            if s.op is not None:
                per_op[s.op][s.layer] += s.self_time
                by_layer[s.layer] += s.self_time
    for layer in LAYERS:
        m[f"{layer}.share"] = by_layer[layer] / total
        m[f"{layer}.errors"] = errors.get(layer, 0)

    def ms(spans_):
        return [s.duration * 1000 for s in spans_]

    ev = defaultdict(list)
    ev_all = []
    for root in roots:
        if "evaluator" in per_op[root.op]:
            t = per_op[root.op]["evaluator"] * 1000
            ev_all.append(t)
            ev[f"evaluator.{root.attrs['kind']}.{root.attrs['bucket']}.p50_ms"].append(t)
    m["evaluator.self_ms.p50"] = p50(ev_all)
    m["evaluator.self_ms.p90"] = p90(ev_all)
    m.update({name: p50(values) for name, values in ev.items()})

    m["syntax.parse_ms"] = p50(ms(by_name["parse"]))
    parse_buckets = defaultdict(list)
    for s in by_name["parse"]:
        parse_buckets[_bucket_chars(s.attrs["chars"])].append(s.duration * 1000)
    m.update({f"syntax.parse.{b}.p50_ms": p50(v) for b, v in parse_buckets.items()})
    analysis = defaultdict(float)
    for name in ANALYSIS:
        for s in by_name[name]:
            analysis[s.op] += s.duration * 1000
    m["syntax.analysis_ms"] = p50(list(analysis.values()))

    m["structures.load_ms"] = p50(ms(by_name["structure_from_json"]))
    loads = defaultdict(list)
    for s in by_name["structure_from_json"]:
        loads[f"structures.load.A{s.attrs['A']}.p50_ms"].append(s.duration * 1000)
    m.update({name: p50(v) for name, v in loads.items()})
    m["structures.expand_ms"] = p50(ms(by_name["with_input"] + by_name["expand"]))

    m["fnn.load_ms"] = p50(ms(by_name["fnn_from_json"]))
    loads = defaultdict(list)
    for s in by_name["fnn_from_json"]:
        loads[f"fnn.load.in{s.attrs['inputs']}.p50_ms"].append(s.duration * 1000)
    m.update({name: p50(v) for name, v in loads.items()})
    for metric, name in (("to_pwl_ms", "to_pwl"), ("forward_ms", "forward"), ("integral_ms", "pwl_integral"), ("pad_ms", "pad")):
        m[f"fnn.{metric}"] = p50(ms(by_name[name]))

    m["queries.build_ms"] = p50([s.duration * 1000 for s in spans if s.layer == "queries" and s.end is not None])
    cli_self = [r.self_time * 1000 for r in roots if r.layer == "cli"]
    m["cli.self_ms"] = p50(cli_self)
    m["cli.import_ms"] = p50(probes.get("import", []))
    m["cli.startup_ms"] = p50(probes.get("startup", []))

    m.update(census)
    m["trace.overhead_ratio"] = traced_total / plain_total if plain_total else 0.0
    m["trace.ops"] = len(roots)
    return m


def result_bits(answer: str) -> int:
    bits = 0
    for token in answer.split(":", 1)[-1].split():
        num, _, den = token.partition("/")
        if num.lstrip("-").isdigit():
            bits += int(num).bit_length() + (int(den).bit_length() if den else 1)
    return bits


def take_census(workload) -> dict:
    """Exact counts over round 0 of a fixed-seed corpus, so they repeat
    from run to run whatever ``--seed`` is."""
    counts = defaultdict(int)
    for op in workload.round(0):
        if op.census is not None:
            for name, value in op.census().items():
                counts[name] += value
        counts["numerics.result_bits"] += result_bits(op.expected)
    return dict(counts)


def cli_probes(env) -> dict:
    """Process start-up alone and with ``import wsq.cli``, interleaved."""
    argvs = {"startup": [sys.executable, "-c", "pass"], "import": [sys.executable, "-c", "import wsq.cli"]}
    out = defaultdict(list)
    for _ in range(PROBES):
        for name, argv in argvs.items():
            start = time.perf_counter()
            subprocess.run(argv, env=env, cwd=ROOT, check=True, capture_output=True, timeout=60)
            out[name].append((time.perf_counter() - start) * 1000)
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def more_setups(times) -> bool:
    low, high = SETUP_REPS
    return len(times) < low or (len(times) < high and sum(times) < SETUP_BUDGET)


def declared_metrics(spec: dict, trace: bool) -> dict:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"perfbench: checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        units = declared_metrics(json.load(fh), bool(args.trace))

    setup = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    trace = bool(args.trace)
    setup_tracer = Tracer() if trace else NullTracer()
    # set-up runs in process, so it follows the kernel; a burst of probes
    # between set-ups gives the speed of the set-ups on either side
    kernel = SPEED_PROBES["kernel"]
    setup_times, setup_corrected, state = [], [], None
    bursts = [[kernel.measure() for _ in range(SETUP_PROBES)]]
    while not setup_times or not trace and more_setups(setup_times):
        if state is not None:
            state.close()
        start = time.perf_counter()
        state = setup(args.seed, setup_tracer, OUT, ROOT)
        for op in state.warmup():
            op.run(NullTracer())
        setup_times.append(time.perf_counter() - start)
        bursts.append([kernel.measure() for _ in range(SETUP_PROBES)])
        speed = statistics.median(bursts[-2] + bursts[-1])
        setup_corrected.append(setup_times[-1] * kernel.reference_ms / speed)

    try:
        runner = Runner(state)
        # keep full collections from walking the corpus during measurement
        gc.collect()
        gc.freeze()
        extra = {}
        if trace:
            census_state = setup(CENSUS_SEED, NullTracer(), OUT, ROOT)
            try:
                census = take_census(census_state)
            finally:
                census_state.close()
            probes = cli_probes(workloads.child_env(ROOT)) if args.workload == "cli" else {}
            wall, latencies, _, tracer, plain_total, traced_total = runner.measure(args.seconds, True)
            spans = setup_tracer.spans + tracer.spans
            metrics = per_layer(spans, census, probes, runner.errors, plain_total, traced_total)
            extra = {"census": census, "probes": probes}
        else:
            wall, latencies, rates, _, _, _ = runner.measure(args.seconds, False)
            spans = []
            metrics = end_to_end(latencies, rates, setup_corrected, len(runner.records), runner.failed, args.workload == "cli")
            raw = [rec["ms"] for rec in runner.records]
            extra = {"raw": {"latency_p50_ms": p50(raw), "latency_p90_ms": p90(raw), "setup_s": statistics.median(setup_times)}}
        notes = state.notes
    finally:
        state.close()

    attempted = len(runner.records)
    result = {
        "correct": runner.failed == 0,
        "attempted": attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **revision(),
        "machine": machine(),
        "setup_s": setup_times,
        "setup_s_corrected": setup_corrected,
        "measured_s": wall,
        "speed_probes_ms": [ms for _, ms in runner.probes],
        "notes": notes,
        **extra,
        "result": result,
        "all_metrics": metrics,
        "operations": runner.records,
    }
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(s.as_dict()) + "\n")

    for name, entry in result["metrics"].items():
        print(f"{name:34} {entry['value']:>14.6g} {entry['unit']}")
    if "raw" in extra:
        print("uncorrected: " + ", ".join(f"{name} {value:.6g}" for name, value in extra["raw"].items()))
    print(f"operations: {attempted} attempted, {runner.failed} failed, {wall:.1f} s measured; record: {stem}.json")
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
