"""fusscat benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; fusscat is imported from ./src.  Each
workload is a closed loop in one process and one thread: the next op
starts when the last one returns (for cli_oneshot, one child process at
a time).  A run repeats whole passes over the seeded inputs until
--seconds have gone by, so every run does the same mix of work.  Every
op's output is checked against `reference`, which does not use fusscat;
an op fails when it raises, answers wrongly or passes its timeout, and a
failed op counts as taking the whole timeout.

Timing.  On a shared machine the speed of the processor drifts: on a
2-core cloud VM, the same 0.5 ms call took anywhere from 1x to 2x its
best time in alternating spells of several seconds.  So every timed
sample is taken next to a speed probe and reported at the reference
speed:

    time = measured time * reference probe time / probe time

For an op run in this process the probe is a fixed piece of pure-Python
work that does not use fusscat, run before and after the op.  For a
sample that starts a fresh interpreter (a cli_oneshot op, or one set-up)
the probe is a bare interpreter start, which tracks the drift of process
start-up far better (within 2% against 13% over three minutes on the
same VM); a cli_oneshot op takes one, before it.  An op's time is
the median of its repetitions in the run; an op faster than 5 ms runs
up to five times in a row in each pass, and a full garbage collection
precedes every run of an op.  The measured (unscaled) figures are
printed too, on lines marked "raw".

--trace 0 prints the end-to-end metrics, measured untraced:
  throughput_ops_s  ops completed per second of op time
  latency_p50_ms    median op time
  latency_tail_ms   the highest of a fixed set of percentiles that leaves
                    at least 10 ops of a pass beyond it
  peak_rss_mib      peak resident memory of the process running the ops
                    (for cli_oneshot, of the largest child)
  setup_s           median time for a fresh interpreter to import fusscat,
                    sampled four times per pass
--trace 1 runs untraced passes for half the time, then traced passes,
and prints the per-layer metrics, per traced pass; spans are written to
.perfbench-out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
output was right, 1 when any was wrong, and 2 when the benchmark could
not run at all (for instance, without ./src/fusscat).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from math import factorial
from time import perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

OP_TIMEOUT_S = 20.0
IMPORT_REPEATS = 9      # fresh interpreters per cli.* per-layer figure
MAX_OVERRUN_S = 60.0    # stop starting ops this long after --seconds
MAX_RUN_S = 120.0       # ... or this long after the start, if sooner
SHORT_OP_NS = 5_000_000  # an op faster than this runs up to
SHORT_OP_RUNS = 5        # this many times in a row per pass
TAIL_PERCENTILES = (50, 75, 90, 95, 98, 99, 99.5, 99.8, 99.9)
TAIL_BEYOND = 10
# The probes' times at the reference speed: about their best times on a
# 2.1 GHz Xeon cloud VM under Python 3.11.
REFERENCE_PROBE_NS = 55_000
REFERENCE_START_NS = 40_000_000


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout("op passed its %g s timeout" % OP_TIMEOUT_S)


def _probe_work() -> int:
    """Fixed pure-Python work: tuples, a dict and big integers."""
    table: dict[int, int] = {}
    chain: tuple = ()
    for i in range(300):
        chain = (i, chain) if i % 3 else (chain, i)
        table[i & 63] = table.get(i & 63, 0) + i * i
    return factorial(300) // factorial(150) + len(table)


def probe_ns() -> int:
    """The machine's current speed: best of three runs of the probe."""
    best = None
    for _ in range(3):
        t0 = perf_counter_ns()
        _probe_work()
        t = perf_counter_ns() - t0
        if best is None or t < best:
            best = t
    return best


def start_ns() -> int:
    """The machine's current speed at starting processes."""
    return interpreter_ns("pass")


def quantile(sorted_values, q: float) -> float:
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(pass_size: int) -> float:
    """Highest candidate percentile with TAIL_BEYOND ops of one pass
    beyond it; the same for every run of a workload."""
    fits = [p for p in TAIL_PERCENTILES
            if pass_size * (100 - p) / 100 >= TAIL_BEYOND]
    return fits[-1] if fits else TAIL_PERCENTILES[0]


def import_code(module: str) -> str:
    return "import sys; sys.path.insert(0, %r); import %s" % (SRC, module)


def interpreter_ns(code: str) -> int:
    """Wall time of one fresh `python -c code`."""
    t0 = perf_counter_ns()
    subprocess.run([sys.executable, "-c", code], check=True,
                   stdout=subprocess.DEVNULL)
    return perf_counter_ns() - t0


def import_ms(module: str) -> float:
    """Median time a fresh interpreter spends importing `module`."""
    code = ("import sys, time; t = time.perf_counter(); %s; "
            "print((time.perf_counter() - t) * 1e3)" % import_code(module))
    argv = [sys.executable, "-c", code]
    times = [float(subprocess.run(argv, check=True, capture_output=True,
                                  text=True).stdout)
             for _ in range(IMPORT_REPEATS + 1)]
    return statistics.median(times[1:])


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "fusscat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return digest.hexdigest()


class Loop:
    """Runs whole passes of one workload and keeps every op's times, at
    the reference speed and raw."""

    def __init__(self, workload, inputs, op, setup_code=None,
                 in_children=False, short_op_runs=1):
        self.workload = workload
        self.inputs = inputs
        self.op = op
        self.in_children = in_children  # whether `op` starts a process
        self.short_op_runs = short_op_runs
        self.scaled_ns: list[list[float]] = [[] for _ in inputs]
        self.raw_ns: list[list[int]] = [[] for _ in inputs]
        self.failed_ops: set[int] = set()
        self.attempted = 0
        self.spent_ns = 0  # all raw op time, repetitions included
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.passes = 0
        # Fresh-interpreter set-up, sampled at four points of every pass
        # so that its median spans the run like the op times do.
        self.setup_code = setup_code
        self.setup_ns: list[float] = []
        self.setup_raw_ns: list[int] = []

    def one_op(self, index: int) -> int | None:
        """Run, time and check one op; its raw time, or None if it failed."""
        inp = self.inputs[index]
        error = None
        # Start every op from an empty collector, so that when garbage
        # collection runs inside an op depends on that op alone.
        gc.collect()
        if self.in_children:
            probe, reference = start_ns(), REFERENCE_START_NS
        else:
            probe, reference = probe_ns(), REFERENCE_PROBE_NS
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        t0 = perf_counter_ns()
        try:
            out = self.op(inp)
        except OpTimeout:  # a child process is killed on the way out
            error = "timeout"
        except Exception as exc:  # an op that raises is a failed op
            error = "raised %s: %s" % (type(exc).__name__, exc)
        finally:
            t1 = perf_counter_ns()
            signal.setitimer(signal.ITIMER_REAL, 0)
        if not self.in_children:
            probe = (probe + probe_ns()) / 2
        self.attempted += 1
        self.spent_ns += t1 - t0
        if error is None:
            try:
                error = self.workload.check(index, inp, out)
            except Exception as exc:
                error = "unreadable output (%s: %s)" % (type(exc).__name__, exc)
        if error is None:
            self.scaled_ns[index].append((t1 - t0) * reference / probe)
            self.raw_ns[index].append(t1 - t0)
            return t1 - t0
        self.failed += 1
        self.failed_ops.add(index)
        kind = error.split(":")[0] if error.startswith("raised") else error
        if kind not in self.failures:
            print("op %d %r failed: %s" % (index, inp, error)[:500],
                  file=sys.stderr)
        self.failures[kind] = self.failures.get(kind, 0) + 1
        return None

    def sample_setup(self) -> None:
        before = start_ns()
        elapsed = interpreter_ns(self.setup_code)
        probe = (before + start_ns()) / 2
        self.setup_ns.append(elapsed * REFERENCE_START_NS / probe)
        self.setup_raw_ns.append(elapsed)

    def run_until(self, seconds: float, hard_stop: float,
                  min_passes: int) -> None:
        """Whole passes until `seconds` of wall time have gone by (and
        at least `min_passes`), never starting an op after `hard_stop`."""
        start = time.monotonic()
        n = len(self.inputs)
        checkpoints = {n * q // 4 for q in range(4)}
        while True:
            for index in range(n):
                if time.monotonic() > hard_stop:
                    self._not_reached()
                    return
                if self.setup_code is not None and index in checkpoints:
                    self.sample_setup()
                # Short ops run a few times, for as many samples as
                # the long ops' repetitions across passes give.
                for _ in range(self.short_op_runs):
                    elapsed = self.one_op(index)
                    if elapsed is None or elapsed >= SHORT_OP_NS:
                        break
            self.passes += 1
            if (self.passes >= min_passes
                    and time.monotonic() - start >= seconds):
                return

    def _not_reached(self) -> None:
        """Count every op that has not run yet as failed."""
        missed = [i for i, times in enumerate(self.raw_ns)
                  if not times and i not in self.failed_ops]
        self.failed_ops.update(missed)
        self.attempted += len(missed)
        self.failed += len(missed)
        if missed:
            self.failures["not reached before the hard stop"] = len(missed)

    def op_ms(self, raw=False) -> list[float]:
        """Per op, its median time; a failed op counts as the timeout."""
        samples = self.raw_ns if raw else self.scaled_ns
        return [OP_TIMEOUT_S * 1e3 if i in self.failed_ops
                else statistics.median(samples[i]) / 1e6
                for i in range(len(self.inputs))]


def end_to_end(loop: Loop, workload, raw=False):
    times = loop.op_ms(raw)
    ordered = sorted(times)
    tail = tail_percentile(len(times))
    completed = len(times) - len(loop.failed_ops)
    who = (resource.RUSAGE_CHILDREN if workload.ops_in_children
           else resource.RUSAGE_SELF)
    setup = loop.setup_raw_ns if raw else loop.setup_ns
    metrics = {
        "throughput_ops_s": completed / (sum(times) / 1e3),
        "latency_p50_ms": quantile(ordered, 0.5),
        "latency_tail_ms": quantile(ordered, tail / 100),
        "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024,
        "setup_s": statistics.median(setup) / 1e9,
    }
    notes = {"tail_percentile": tail, "ops": len(times),
             "setup_samples": len(setup),
             "failed_frac": loop.failed / loop.attempted}
    return metrics, notes


def per_layer(tracer, traced: Loop, untraced: Loop):
    by_name, top_busy, rotations, brute_tuples = tracer.totals()
    passes = max(traced.passes, 1)

    def calls(name):
        return by_name.get(name, (0, 0, 0))[0] / passes

    def self_ms(name):
        return by_name.get(name, (0, 0, 0))[1] / 1e6 / passes

    def items(name):
        return by_name.get(name, (0, 0, 0))[2] / passes

    def ratio(a, b):
        return a / b if b else 0.0

    parse_ns = by_name.get("expr.parse", (0, 0, 0))[1]
    return {
        "counting.modular_fuss_catalan.self_ms":
            self_ms("counting.modular_fuss_catalan"),
        "counting.modular_fuss_catalan.calls":
            calls("counting.modular_fuss_catalan"),
        "counting.count_minimal_brute.self_ms":
            self_ms("counting.count_minimal_brute"),
        "counting.count_minimal_brute.useful_ratio":
            ratio(tracer.brute_found, brute_tuples),
        "counting.enumerate_classes.self_ms":
            self_ms("counting.enumerate_classes"),
        "counting.closure.states": tracer.closure_states / passes,
        "counting.closure.new_state_ratio":
            ratio(tracer.closure_new, rotations),
        "dyck.enumerate_tuples.tuples": items("dyck.enumerate_tuples"),
        "dyck.enumerate_tuples.self_ms": self_ms("dyck.enumerate_tuples"),
        "dyck.to_dyck.self_ms": self_ms("dyck.to_dyck"),
        "dyck.to_dyck.calls": calls("dyck.to_dyck"),
        "dyck.from_dyck.self_ms": self_ms("dyck.from_dyck"),
        "dyck.from_dyck.calls": calls("dyck.from_dyck"),
        "dyck.signature.self_ms": self_ms("dyck.signature"),
        "dyck.canonicalize.self_ms": self_ms("dyck.canonicalize"),
        "tree.rotation_sites.self_ms": self_ms("tree.rotation_sites"),
        "tree.rotation_sites.calls": calls("tree.rotation_sites"),
        "tree.rotate.self_ms": self_ms("tree.rotate"),
        "tree.rotate.calls": calls("tree.rotate"),
        "tree.enumerate_trees.trees": items("tree.enumerate_trees"),
        "expr.parse.self_ms": self_ms("expr.parse"),
        "expr.parse.us_per_operand":
            ratio(parse_ns / 1e3, tracer.parse_operands),
        "expr.unparse.self_ms": self_ms("expr.unparse"),
        "cli.main.self_ms": self_ms("cli.main"),
        "trace.overhead_frac": sum(traced.op_ms()) / sum(untraced.op_ms()) - 1,
        "trace.coverage_frac": top_busy / traced.spent_ns,
    }


def declared_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fusscat", "__init__.py")):
        print("error: no fusscat sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    import fusscat
    if os.path.dirname(os.path.dirname(os.path.abspath(fusscat.__file__))) != SRC:
        print("error: fusscat was imported from %s" % fusscat.__file__,
              file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    units = declared_metrics(args.trace)
    signal.signal(signal.SIGALRM, _alarm)

    inputs = workload.make(args.seed)
    input_sha = hashlib.sha256(json.dumps(inputs, sort_keys=True)
                               .encode()).hexdigest()
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "cpu_count": os.cpu_count(), "git_commit": git_commit(),
        "source_sha256": source_digest(), "input_sha256": input_sha,
        "ops_per_pass": len(inputs),
    }
    print("input_sha256 %s" % input_sha)

    start = time.monotonic()
    hard_stop = start + min(args.seconds + MAX_OVERRUN_S, MAX_RUN_S)
    raw = {}
    if args.trace == 0:
        setup_code = import_code(workload.import_target)
        interpreter_ns(setup_code)  # warm the file cache
        loop = Loop(workload, inputs, workload.run, setup_code,
                    workload.ops_in_children, SHORT_OP_RUNS)
        loop.run_until(args.seconds, hard_stop, min_passes=2)
        metrics, notes = end_to_end(loop, workload)
        raw, _ = end_to_end(loop, workload, raw=True)
        del raw["peak_rss_mib"]
        loops = [loop]
    else:
        # Both halves run each op once per pass and in-process, so their
        # difference is the tracing overhead and the counts per pass are
        # exact.
        untraced = Loop(workload, inputs, workload.run_traced)
        untraced.run_until(args.seconds / 2, hard_stop, min_passes=1)
        tracer = Tracer()
        traced = Loop(workload, inputs, workload.run_traced)
        tracer.install()
        try:
            traced.run_until(args.seconds / 2, hard_stop, min_passes=1)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, traced, untraced)
        metrics["cli.import_ms"] = import_ms("fusscat.cli")
        interpreter_ns("pass")  # warm the file cache
        metrics["cli.interpreter_ms"] = statistics.median(
            interpreter_ns("pass") for _ in range(IMPORT_REPEATS)) / 1e6
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, "spans-%s.csv.gz" % workload.name)
        tracer.dump(spans)
        notes = {"spans": os.path.relpath(spans, ROOT),
                 "traced_passes": traced.passes,
                 "untraced_passes": untraced.passes}
        loops = [untraced, traced]

    if set(metrics) != set(units):
        print("error: measured %s but BENCHMARK.json lists %s"
              % (sorted(metrics), sorted(units)), file=sys.stderr)
        return 2
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    record.update(notes)
    record["passes"] = sum(lp.passes for lp in loops)
    record["failures"] = {k: v for lp in loops for k, v in lp.failures.items()}
    record["failed_frac"] = failed / attempted
    print("run %s" % json.dumps(record, sort_keys=True))
    for name, value in metrics.items():
        print("%-45s %14.6g %s" % (name, value, units[name]))
    for name, value in raw.items():
        print("%-45s %14.6g %s" % ("raw " + name, value, units[name]))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
