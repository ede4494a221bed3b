#!/usr/bin/env python3
"""Check that `eur sweep` writes the same CSV bytes as another source tree.

    python scripts/compare_csv.py BASE_SRC

Runs every case in CASES with `python -m eur sweep`, once with BASE_SRC
(the `src` directory of another checkout) first on PYTHONPATH and once
with this checkout's `src`, and compares the two CSV files byte for
byte. Prints one line per case; exits 1 if any case differs, naming its
first differing line, how many cells differ and the largest absolute
difference between two numeric cells, and 0 otherwise.
"""

import argparse
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# argv after `eur sweep`: six flag sets at three grid sizes (4099 steps
# spans five 1024-point chunks), then two long fig1 sweeps
CASES = [
    (*flags, "--steps", str(steps))
    for flags in (
        ("--preset", "fig1"),
        ("--preset", "fig2", "--sweep-var", "r"),
        ("--preset", "fig2", "--obs", "z,z", "--p", "0"),
        ("--preset", "fig1", "--a-min", "1e-300", "--a-max", "1e300"),
        ("--preset", "fig1", "--obs", "x,z", "--sweep-var", "r"),
        ("--state", "x", "--p", "0.3", "--obs", "y,z"),
    )
    for steps in (101, 1001, 4099)
] + [("--preset", "fig1", "--steps", "10000"), ("--preset", "fig1", "--steps", "100000")]


def sweep_bytes(src: Path, case: tuple, out: Path) -> bytes:
    """The CSV that `eur sweep` imported from `src` writes for `case`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "eur", "sweep", *case, "--out", str(out)],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        return f"<exit {done.returncode}: {done.stderr.strip()}>\n".encode()
    return out.read_bytes()


def first_difference(base: bytes, this: bytes) -> str:
    """'line N: <base line> != <this line>' for the first line that differs."""
    base_lines, this_lines = base.splitlines(), this.splitlines()
    for n, (old, new) in enumerate(zip(base_lines + [b"<end>"], this_lines + [b"<end>"]), 1):
        if old != new:
            return f"line {n}: {old.decode()} != {new.decode()}"
    return "line endings differ"


def cell_differences(base: bytes, this: bytes) -> tuple:
    """(number of CSV cells that differ, largest |this - base| over the
    differing cells that both hold numbers; 0.0 when none do)."""
    count, largest = 0, 0.0
    rows = itertools.zip_longest(base.splitlines(), this.splitlines(), fillvalue=b"")
    for old_row, new_row in rows:
        for old, new in itertools.zip_longest(old_row.split(b","), new_row.split(b",")):
            if old != new:
                count += 1
                try:
                    largest = max(largest, abs(float(new) - float(old)))
                except (TypeError, ValueError):  # a missing, blank or text cell
                    pass
    return count, largest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src", type=Path, help="the src directory to compare against")
    base_src = parser.parse_args(argv).base_src.resolve()
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            base = sweep_bytes(base_src, case, Path(tmp) / "base.csv")
            this = sweep_bytes(SRC, case, Path(tmp) / "this.csv")
            if base == this:
                print(f"same    {' '.join(case)}")
            else:
                differing += 1
                count, largest = cell_differences(base, this)
                print(f"DIFFERS {' '.join(case)}: {first_difference(base, this)}; "
                      f"{count} cells differ, largest |difference| {largest:.3g}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
