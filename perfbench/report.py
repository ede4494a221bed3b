"""Run every workload once and print each metric by name and unit.

    python3 perfbench/report.py [--seed 1] [--seconds 30] [--trace]

Run from the repository root. Each workload runs in its own process
through run.py, so peak memory is per workload. Without --trace the
table holds the seven end-to-end metrics (error_rate included); with
--trace it holds the per-layer metrics of the traced runs.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-presets", "cli-small", "library-scalar")


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    path = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    records = {w: run_workload(w, args.seed, args.seconds, int(args.trace)) for w in WORKLOADS}
    env = next(iter(records.values()))["environment"]
    print(f"seed {args.seed}  seconds {args.seconds}  commit {env['commit']}  python {env['python']}  "
          f"numpy {env['numpy']}  nproc {env['nproc']}  cpu {env['cpu_model']}  threads {env['threads']}")
    names = list(next(iter(records.values()))["metrics"])
    print(f"{'metric':32s} {'unit':6s}" + "".join(f"{w:>16s}" for w in WORKLOADS))
    for name in names:
        unit = records[WORKLOADS[0]]["metrics"][name]["unit"]
        cells = "".join(f"{records[w]['metrics'][name]['value']:16.6g}" for w in WORKLOADS)
        print(f"{name:32s} {unit:6s}{cells}")
    print(f"{'attempted / failed':39s}" + "".join(
        f"{str(r['attempted']) + ' / ' + str(r['failed']):>16s}" for r in records.values()))
    print(f"{'correct':39s}" + "".join(f"{str(r['correct']):>16s}" for r in records.values()))
    for w, r in records.items():
        for cause, count in r["failure_causes"].items():
            print(f"{w}: x{count} {cause}")
        if "known_defects" in r:
            probe = r["known_defects"]
            print(f"{w}: known-defect probe (untimed) {probe['failed']} of {probe['draws']} draws failed")
            for cause, count in probe["causes"].items():
                print(f"{w}: probe x{count} {cause}")
    return 0 if all(r["correct"] for r in records.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
