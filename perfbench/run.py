"""Benchmark for the `eur` package: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep-presets --seed 1 --seconds 30 --trace 0

Run from the repository root. The package is imported from `src/` of the
same checkout, never from an installed copy. With `--trace 0` the run
times operations with tracing off and reports the end-to-end metrics;
with `--trace 1` it runs a fixed list of operations alternately without
and with the span tracer and reports per-layer metrics. Every operation
is checked against the raw-numpy oracle outside the timed window.
cli-small also runs an untimed probe that reaches the program's known
defects; its failures go into the record, not into `failed`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The lines before it name
every metric with its unit, and the full record (seed, workload
parameters, environment, failure causes) is written to
`.bench_out/<workload>-seed<seed>-trace<0|1>.json`.
"""

import os

# Thread settings must be in place before numpy loads its BLAS. The
# benchmark drives one single-threaded process; 4x4 problems gain
# nothing from BLAS threads and only pick up scheduling noise from them.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402
from tracer import LAYERS, EigenCounter, Tracer  # noqa: E402
from workloads import PARAMETERS, PROBES, WORKLOADS, remove_output  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WARMUP_SECONDS = 1.0
BLOCK_SECONDS = 0.1
SETUP_REPEATS = 21
P90_MIN_SAMPLES = 100  # at least ten samples beyond the 90th percentile
TRACE_OPS = {"sweep-presets": 2, "cli-small": 64, "library-scalar": 256}

# Cold start of the CLI: a fresh interpreter imports the package and
# resolves one preset. Timed inside the child, so process spawn is left out.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import eur
eur.parse_args(["sweep", "--preset", "fig1"])
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "evals_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}


def per_layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls_per_op"] = "count"
        units[f"{layer}.self_s_per_op"] = "s"
        units[f"{layer}.self_share"] = "ratio"
    units.update({
        "linalg.eig_matrices_per_point": "count",
        "linalg.eig_useful_ratio": "ratio",
        "cli.emit_csv.self_s_per_op": "s",
        "cli.csv_bytes_per_op": "bytes",
        "trace.overhead": "ratio",
    })
    return units


def load_eur():
    """Import `eur` from this checkout's `src/`, or exit with an error."""
    if not (SRC / "eur" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'eur'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import eur
    import eur.cli

    if Path(eur.__file__).resolve().parent != (SRC / "eur").resolve():
        sys.exit(f"error: imported eur from {eur.__file__}, not from {SRC}")
    return eur


def measure_setup(kernel):
    """SETUP_REPEATS cold-start times of fresh interpreters, rescaled by the kernel
    passes around each; the first start, which may compile bytecode, is
    discarded. Returns (rescaled, raw) seconds."""

    def cold_start():
        child = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        return float(child.stdout.strip().splitlines()[-1])

    cold_start()
    rescaled, raw = [], []
    before = kernel.measure()
    for _ in range(SETUP_REPEATS):
        seconds = cold_start()
        after = kernel.measure()
        rescaled.append(seconds * calibration.scale(before, after))
        raw.append(seconds)
        before = after
    return rescaled, raw


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class Tally:
    """Latencies, completed points and failures of a series of operations."""

    def __init__(self):
        self.latencies = []
        self.points = 0
        self.failed = 0
        self.unexplained = 0
        self.causes = Counter()

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def add(self, op, elapsed: float, problems: list):
        self.latencies.append(elapsed)
        if not problems:
            self.points += op.points
            return
        self.failed += 1
        self.unexplained += not all(known for _, known in problems)
        for cause, known in problems:
            self.causes[("known: " if known else "unexplained: ") + cause] += 1


def execute(op):
    """Run one operation; only the call is timed. Returns (seconds, problems)."""
    remove_output(op)
    t0 = time.perf_counter()
    try:
        result, error = op.call(), None
    except SystemExit as exc:  # argparse rejects usage errors this way
        result, error = None, exc
    except Exception as exc:  # every library error is a failed operation
        result, error = None, exc
    elapsed = time.perf_counter() - t0
    return elapsed, op.check(result, error)


def warm_up(ops):
    """Run operations for WARMUP_SECONDS (at least one) so lazy set-up
    and caches settle before timing; returns their tally."""
    tally = Tally()
    end = time.perf_counter() + WARMUP_SECONDS
    while True:
        op = next(ops)
        tally.add(op, *execute(op))
        if time.perf_counter() >= end:
            return tally


def run_untraced(eur, workload, seed, seconds, out_csv):
    """Time operations in blocks of BLOCK_SECONDS, each followed by a
    kernel pass; every operation is rescaled by the kernels around its
    block. Runs at least P90_MIN_SAMPLES operations."""
    ops = WORKLOADS[workload](eur, seed, out_csv)
    warm = warm_up(ops)
    kernel = calibration.Kernel()
    tally = Tally()
    raw = []
    before = kernel.measure()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or tally.attempted < P90_MIN_SAMPLES:
        block = []
        block_start = time.perf_counter()
        while not block or time.perf_counter() - block_start < BLOCK_SECONDS:
            op = next(ops)
            block.append((op, *execute(op)))
        after = kernel.measure()
        factor = calibration.scale(before, after)
        for op, elapsed, problems in block:
            tally.add(op, elapsed * factor, problems)
            raw.append(elapsed)
        before = after

    setup, setup_raw = measure_setup(kernel)
    n = tally.attempted
    values = {
        "setup_s": (statistics.median(setup), len(setup)),
        "points_per_s": (tally.points / sum(tally.latencies), n),
        "evals_per_s": (tally.points / sum(tally.latencies), n),
        "latency_p50_s": (statistics.median(tally.latencies), n),
        "latency_p90_s": (statistics.quantiles(tally.latencies, n=10)[-1], n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "error_rate": (tally.failed / n, n),
    }
    metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name], "samples": k}
               for name, (v, k) in values.items()}
    extra = {
        "raw": {
            "setup_s": statistics.median(setup_raw),
            "points_per_s": tally.points / sum(raw),
            "latency_p50_s": statistics.median(raw),
            "latency_p90_s": statistics.quantiles(raw, n=10)[-1],
        },
        "kernel_nominal_s": calibration.NOMINAL_S,
        "warmup_unexplained": warm.unexplained,
    }
    return tally, metrics, warm.unexplained == 0, extra


def run_pass(ops, tally):
    """Run `ops` once into `tally`; returns (op seconds, csv bytes)."""
    op_seconds = 0.0
    csv_bytes = 0
    for op in ops:
        elapsed, problems = execute(op)
        tally.add(op, elapsed, problems)
        op_seconds += elapsed
        if op.out_path is not None and os.path.exists(op.out_path):
            csv_bytes += os.path.getsize(op.out_path)
    return op_seconds, csv_bytes


def count_eigen(ops, tally):
    """Run `ops` once with the eigen-solver counter installed, untimed.
    Returns {label: [points, matrices, distinct]}."""
    counter = EigenCounter()
    counter.install()
    by_label = {}
    try:
        for op in ops:
            counter.start_operation()
            before = (counter.matrices, counter.distinct)
            tally.add(op, *execute(op))
            seen = by_label.setdefault(op.label, [0, 0, 0])
            seen[0] += op.points
            seen[1] += counter.matrices - before[0]
            seen[2] += counter.distinct - before[1]
    finally:
        counter.uninstall()
    return by_label


def run_traced(eur, workload, seed, seconds, out_csv):
    """Alternate untraced and traced passes over a fixed operation list.

    The list is the first TRACE_OPS operations of the seeded stream, so
    counts repeat exactly for a seed; times are medians over the passes.
    The eigen-solver counts come from two untimed passes, one before and
    one after the timed ones.
    """
    ops = list(itertools.islice(WORKLOADS[workload](eur, seed, out_csv), TRACE_OPS[workload]))
    execute(ops[0])
    k = len(ops)
    points = sum(op.points for op in ops)
    tally = Tally()
    tracer = Tracer()
    passes = []
    spans = None
    by_label = count_eigen(ops, tally)
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        plain_s, _ = run_pass(ops, tally)
        tracer.install("eur")
        try:
            traced_s, csv_bytes = run_pass(ops, tally)
        finally:
            tracer.uninstall()
        totals = tracer.layer_totals()
        counts = {layer: totals[layer][0] for layer in LAYERS}
        passes.append((plain_s, traced_s, totals, counts, csv_bytes))
        if spans is None:
            spans = tracer.spans()
        tracer.reset()

    repeatable = all(p[3] == passes[0][3] for p in passes) and count_eigen(ops, tally) == by_label
    layer_calls = passes[0][3]
    eig_matrices = sum(m for _, m, _ in by_label.values())
    distinct = sum(d for _, _, d in by_label.values())

    def median(f):
        return statistics.median(f(p) for p in passes)

    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls_per_op"] = layer_calls[layer] / k
        values[f"{layer}.self_s_per_op"] = median(lambda p: p[2][layer][1] / 1e9 / k)
        values[f"{layer}.self_share"] = median(lambda p: p[2][layer][1] / 1e9 / p[1])
    values.update({
        "linalg.eig_matrices_per_point": eig_matrices / points,
        "linalg.eig_useful_ratio": distinct / eig_matrices if eig_matrices else 0.0,
        "cli.emit_csv.self_s_per_op": median(
            lambda p: p[2]["functions"].get("cli.emit_csv", (0, 0.0))[1] / 1e9 / k),
        "cli.csv_bytes_per_op": passes[0][4] / k,
        "trace.overhead": median(lambda p: p[1] / p[0]),
    })
    units = per_layer_units()
    metrics = {name: {"value": v, "unit": units[name], "samples": len(passes)} for name, v in values.items()}
    extra = {
        "trace_ops": k,
        "trace_passes": len(passes),
        "counts_repeat_exactly": repeatable,
        "eig_by_preset": {
            label: {"eig_matrices_per_point": m / n, "eig_useful_ratio": d / m if m else 0.0}
            for label, (n, m, d) in by_label.items()
        },
        "functions": {name: {"calls_per_op": c / k, "self_s_per_op": s / 1e9 / k}
                      for name, (c, s) in sorted(passes[0][2]["functions"].items())},
    }
    return tally, metrics, repeatable, extra, spans


def run_probe(eur, workload, seed, out_csv):
    """Run the workload's untimed defect probe, if it has one. Its
    failures are reported apart from the timed operations. Returns the
    probe's tally and its record entry, or (None, {})."""
    if workload not in PROBES:
        return None, {}
    draws, ops = PROBES[workload](eur, seed, out_csv)
    probe = Tally()
    run_pass(ops, probe)
    return probe, {"known_defects": {
        "draws": draws,
        "flagged": probe.attempted,
        "failed": probe.failed,
        "share": probe.failed / draws,
        "causes": dict(probe.causes.most_common(20)),
    }}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    eur = load_eur()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_csv = str(OUT / f"{stem}.csv")
    t0 = time.perf_counter()
    spans = None
    if args.trace:
        tally, metrics, ok, extra, spans = run_traced(eur, args.workload, args.seed, args.seconds, out_csv)
    else:
        tally, metrics, ok, extra = run_untraced(eur, args.workload, args.seed, args.seconds, out_csv)
        probe, probe_record = run_probe(eur, args.workload, args.seed, out_csv)
        ok = ok and (probe is None or probe.unexplained == 0)
        extra.update(probe_record)
    if os.path.exists(out_csv):
        os.remove(out_csv)
    correct = ok and tally.unexplained == 0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - t0,
        "parameters": PARAMETERS[args.workload],
        "environment": environment(),
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failure_causes": dict(tally.causes.most_common(20)),
        "metrics": metrics,
        **extra,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with gzip.open(OUT / f"{stem}.spans.json.gz", "wt", compresslevel=1) as fh:
            json.dump(spans, fh)

    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"commit {env['commit']}  python {env['python']}  numpy {env['numpy']}  "
          f"nproc {env['nproc']}  cpu {env['cpu_model']}  threads {env['threads']['OMP_NUM_THREADS']}")
    print(f"attempted {tally.attempted}  failed {tally.failed}  correct {correct}")
    for cause, count in record["failure_causes"].items():
        print(f"  failure x{count}: {cause}")
    if "known_defects" in record:
        probe = record["known_defects"]
        print(f"known-defect probe (untimed): {probe['failed']} of {probe['draws']} draws failed "
              f"(share {probe['share']:.3f}; {probe['flagged']} flagged and run)")
        for cause, count in probe["causes"].items():
            print(f"  probe failure x{count}: {cause}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']:6s} (n={m['samples']})")
    for name, value in record.get("raw", {}).items():
        print(f"  raw {name:28s} {value:14.6g} (not rescaled by the kernel)")

    contract = {name: {"value": m["value"], "unit": m["unit"]}
                for name, m in metrics.items() if name != "error_rate"}
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": contract}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
