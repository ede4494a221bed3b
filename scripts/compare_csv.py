#!/usr/bin/env python3
"""Check that `eur` gives the same CSV bytes and reports as another source tree.

    python scripts/compare_csv.py BASE_SRC

Runs every case in CASES with `python -m eur sweep`, once with BASE_SRC
(the `src` directory of another checkout) first on PYTHONPATH and once
with this checkout's `src`, and compares the two CSV files byte for
byte. Then evaluates `evaluate_eur`, `post_measurement_state`,
`measurement_ensemble` and `apply_to_memory` on LIBRARY_INPUTS seeded
inputs in one subprocess per tree and compares every result's type and
bytes. Prints one line per case; exits 1 if any case differs, naming
its first differing line, how many cells differ and the largest
absolute difference between two numeric cells (for the library case,
its first differing field), and 0 otherwise.
"""

import argparse
import dataclasses
import itertools
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parent
SRC = SCRIPTS.parent / "src"

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

# the library case: (stack shape, rank) of each input in turn, each with
# its own pair of Haar-random observable bases
LIBRARY_INPUTS = 300
LIBRARY_SEED = 12
LIBRARY_KINDS = (((), 4), ((5,), 4), ((2, 3), 4), ((0,), 4), ((), 1))


def tree_env(src: Path) -> dict:
    """The environment that puts `src` first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def sweep_bytes(src: Path, case: tuple, out: Path) -> bytes:
    """The CSV that `eur sweep` imported from `src` writes for `case`."""
    done = subprocess.run([sys.executable, "-m", "eur", "sweep", *case, "--out", str(out)],
                          env=tree_env(src), capture_output=True, text=True)
    if done.returncode != 0:
        return f"<exit {done.returncode}: {done.stderr.strip()}>\n".encode()
    return out.read_bytes()


def haar_basis(rng) -> np.ndarray:
    """Haar-random 2x2 unitary, whose columns are an eigenbasis."""
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def library_inputs():
    """The seeded (q basis, r basis, rho) inputs of the library case, built
    with numpy alone: G G^dag / tr for a complex Gaussian G of shape
    (..., 4, rank)."""
    rng = np.random.default_rng(LIBRARY_SEED)
    for k in range(LIBRARY_INPUTS):
        lead, rank = LIBRARY_KINDS[k % len(LIBRARY_KINDS)]
        g = rng.normal(size=lead + (4, rank)) + 1j * rng.normal(size=lead + (4, rank))
        rho = g @ g.conj().swapaxes(-1, -2)
        rho = rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
        yield haar_basis(rng), haar_basis(rng), rho


def encoded(name: str, value) -> tuple:
    """(name, type, dtype, shape, bytes) of one value; None has no bytes."""
    if value is None:
        return (name, "NoneType", "", (), b"")
    array = np.asarray(value)
    return (name, type(value).__name__, array.dtype.str, array.shape, array.tobytes())


def library_report_bytes() -> bytes:
    """For every library input, evaluated by the `eur` on sys.path: every
    `EurReport` field and the state `post_measurement_state` gives for q;
    for one-state inputs also q's `measurement_ensemble` and the states
    that `apply_to_memory` gives for a stack of seven Unruh channels and
    for the Kraus family read back from a Choi matrix. Pickled as a list
    of (name, type, dtype, shape, bytes) per input."""
    from eur import (
        ProjectiveObservable,
        apply_to_memory,
        choi,
        evaluate_eur,
        kraus_from_choi,
        measurement_ensemble,
        post_measurement_state,
        unruh_channel,
    )
    from eur.channels import R_MAX

    channels = {
        "unruh stack": unruh_channel(np.linspace(0.0, R_MAX, 7)),
        "choi round trip": kraus_from_choi(choi(unruh_channel(0.3))),
    }
    reports = []
    for q, r, rho in library_inputs():
        q = ProjectiveObservable("q", q)
        report = evaluate_eur(q, ProjectiveObservable("r", r), rho)
        fields = [encoded(field.name, getattr(report, field.name))
                  for field in dataclasses.fields(report)]
        fields.append(encoded("post_measurement_state", post_measurement_state(q, rho)))
        if rho.shape == (4, 4):
            for i, (p_i, conditional) in enumerate(measurement_ensemble(q, rho)):
                fields += [encoded(f"measurement_ensemble p_{i}", p_i),
                           encoded(f"measurement_ensemble rho_B|{i}", conditional)]
            fields += [encoded(f"apply_to_memory of the {name}", apply_to_memory(kraus, rho))
                       for name, kraus in channels.items()]
        reports.append(fields)
    return pickle.dumps(reports)


def library_reports(src: Path):
    """`library_report_bytes` unpickled, computed in a subprocess that
    imports `eur` from `src`; a '<exit N: ...>' string if it fails."""
    program = (f"import sys; sys.path.append({str(SCRIPTS)!r}); import compare_csv; "
               "sys.stdout.buffer.write(compare_csv.library_report_bytes())")
    done = subprocess.run([sys.executable, "-c", program], env=tree_env(src), capture_output=True)
    if done.returncode != 0:
        return f"<exit {done.returncode}: {done.stderr.decode().strip().splitlines()[-1]}>"
    return pickle.loads(done.stdout)


def first_report_difference(base, this) -> "str | None":
    """'<field> of input N' for the first field whose type or bytes differ,
    or the failure of either tree; None when all are equal."""
    for reports in (base, this):
        if isinstance(reports, str):
            return reports
    for n, (old, new) in enumerate(zip(base, this)):
        for old_field, new_field in zip(old, new):
            if old_field != new_field:
                return f"{old_field[0]} of input {n}"
    return None


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
    report_difference = first_report_difference(library_reports(base_src), library_reports(SRC))
    if report_difference is None:
        print("same    library reports")
    else:
        differing += 1
        print(f"DIFFERS library reports: {report_difference}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
