#!/usr/bin/env python3
"""Check that `eur` gives the bits of another source tree, or keeps the RULE.

    python scripts/compare_csv.py BASE_SRC

Runs each tree in one subprocess: once with BASE_SRC (the `src`
directory of another checkout) first on PYTHONPATH and once with this
checkout's `src`. There every case in CASES runs through
`eur.cli.main(["sweep", *case, ...])`, and the two CSV files are
compared byte for byte. Then it evaluates `evaluate_eur`,
`post_measurement_state`, `measurement_ensemble`, `apply_to_memory`
and `vn_entropy` on LIBRARY_INPUTS seeded inputs and two hand-built
one-state ones (an outcome whose probability is PROBABILITY_FLOOR, and
a state 1e-12 off Hermitian), complex and float64, runs each one-state
input through the Choi route at its own Unruh angle, and runs
KRAUS_FAMILIES seeded Kraus families, complex and float64, one channel
or a stack, through `choi` and `kraus_from_choi` and applies each to
one complex state and to its real part, and compares every result's
type and bytes. Prints one line per case; a case that differs names its
first differing line, how many cells differ and the largest absolute
difference between two numeric cells (for the library case, its first
differing field). A tree whose subprocess fails is named once, on the
library line, with its exit status and last stderr line.

The same subprocess runs both PRESETS through `eur.cli.run_sweep` at
STEPS grid points. For each `Sweep` column the script prints how many
values differ in bits between the trees and, where some do, their
summed |value - reference| for the base tree and for this one, against
the 40-digit pipeline of `tests/reference.py` (run only for a preset
with a changed value), and this tree's worst error as a share of the
budget `reference.budget`. Then it prints the sums over all columns and
`RULE holds`, or `RULE FAILS` if a changed value leaves the budget or a
column's summed error grows. Exits 1 if any case differs or the RULE
fails, and 0 otherwise.
"""

import argparse
import contextlib
import dataclasses
import io
import itertools
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

SCRIPTS = Path(__file__).resolve().parent
SRC = SCRIPTS.parent / "src"
TESTS = SCRIPTS.parent / "tests"

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
# the Unruh angles of the Choi route, one per one-state input, from their
# own stream so that the inputs above stay as they are
ROUTE_SEED = 13
# the Kraus families of the Choi case, (stack shape, number of operators)
# in turn, complex128 for the first len(FAMILY_KINDS) and float64 for the
# next, and so on; from their own stream, so the inputs above stay as they are
KRAUS_FAMILIES = 48
FAMILY_SEED = 14
FAMILY_KINDS = (((), 1), ((), 2), ((), 3), ((), 4), ((3,), 2), ((2, 2), 4))
# the sweeps that the RULE is checked on
PRESETS = ("fig1", "fig2")
STEPS = 10**3


def haar_basis(rng) -> np.ndarray:
    """Haar-random 2x2 unitary, whose columns are an eigenbasis."""
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def library_inputs():
    """The (q basis, r basis, rho) inputs of the library case, built with
    numpy alone: first the seeded ones, G G^dag / tr for a complex Gaussian
    G of shape (..., 4, rank), which are exactly Hermitian; then two
    hand-built single states under q = sigma_z and r = sigma_x. The first,
    (1-e)|11><11| + e |0><0| (x) I/2 at e = 1e-12, has a q outcome of
    probability e, at or below PROBABILITY_FLOOR, so that
    `measurement_ensemble` gives it None; the second is a full-rank state
    with one off-diagonal entry moved by 1e-12, so that every reader takes
    its Hermitian part."""
    rng = np.random.default_rng(LIBRARY_SEED)
    for k in range(LIBRARY_INPUTS):
        lead, rank = LIBRARY_KINDS[k % len(LIBRARY_KINDS)]
        g = rng.normal(size=lead + (4, rank)) + 1j * rng.normal(size=lead + (4, rank))
        rho = g @ g.conj().swapaxes(-1, -2)
        rho = rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
        yield haar_basis(rng), haar_basis(rng), rho
    z, x = np.eye(2, dtype=complex), np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    e = 1e-12
    yield z, x, (1 - e) * np.diag([0, 0, 0, 1.0 + 0j]) + e * np.diag([0.5, 0.5, 0, 0j])
    rho = np.array([[0.4, 0, 0, 0.1 + 0.05j], [0, 0.3, 0.08j, 0],
                    [0, -0.08j, 0.2, 0], [0.1 - 0.05j, 0, 0, 0.1]])
    rho[0, 3] += 1e-12
    yield z, x, rho


def kraus_families():
    """The seeded trace-preserving (K, ..., 2, 2) families of the Choi case,
    built with numpy alone: the 2x2 row blocks of the orthonormal columns Q
    of a Gaussian (..., 2K, 2) matrix, so that sum_j K_j^dag K_j = Q^dag Q = I."""
    rng = np.random.default_rng(FAMILY_SEED)
    for n in range(KRAUS_FAMILIES):
        lead, count = FAMILY_KINDS[n % len(FAMILY_KINDS)]
        g = rng.normal(size=lead + (2 * count, 2))
        if n // len(FAMILY_KINDS) % 2 == 0:
            g = g + 1j * rng.normal(size=g.shape)
        q, _ = np.linalg.qr(g)
        yield np.moveaxis(q.reshape(lead + (count, 2, 2)), -3, 0)


def encoded(name: str, value) -> tuple:
    """(name, type, dtype, shape, bytes) of one value; None has no bytes."""
    if value is None:
        return (name, "NoneType", "", (), b"")
    array = np.asarray(value)
    return (name, type(value).__name__, array.dtype.str, array.shape, array.tobytes())


def report_fields(report, name: str = "{}") -> list:
    """`encoded` of every field of an `EurReport`, named name.format(field)."""
    return [encoded(name.format(field.name), getattr(report, field.name))
            for field in dataclasses.fields(report)]


def sweeps() -> dict:
    """{preset: (config fields, {column: list of floats, or None})} of both
    PRESETS' `run_sweep` at STEPS grid points, by the `eur` on sys.path."""
    import eur.cli as cli

    out = {}
    for preset in PRESETS:
        cfg = cli.parse_args(["sweep", "--preset", preset, "--steps", str(STEPS)])
        columns = {name: None if column is None else column.tolist()
                   for name, column in vars(cli.run_sweep(cfg)).items()}
        out[preset] = (dataclasses.asdict(cfg), columns)
    return out


def case_csvs() -> list:
    """The CSV bytes that `eur.cli.main`, imported from sys.path, writes
    for each case in CASES; for a case that exits non-zero,
    '<exit N: last stderr line>'. A case that raises fails the whole run."""
    import eur.cli as cli

    csvs = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.csv"
        for case in CASES:
            with contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    code = cli.main(["sweep", *case, "--out", str(out)])
                except SystemExit as exc:
                    code = exc.code
            if code:
                csvs.append(f"<exit {code}: {err.getvalue().strip().splitlines()[-1]}>\n".encode())
            else:
                csvs.append(out.read_bytes())
    return csvs


def tree_result_bytes() -> bytes:
    """For every library input, evaluated by the `eur` on sys.path: every
    `EurReport` field, the state `post_measurement_state` gives for q,
    and the input's `vn_entropy`; for one-state inputs also q's
    `measurement_ensemble` and the states that `apply_to_memory` gives
    for a stack of seven Unruh channels and for the Kraus family read
    back from a Choi matrix, and every step of the Choi route at an angle
    r drawn for the input: the Choi matrix of `unruh_channel(r)`, the
    family `kraus_from_choi` reads from it, that family applied to the
    input and the input's `EurReport`. Then the same input's real part, a
    real state in float64, gives every `EurReport` field again, under q
    and r and under the real Pauli pair (x, z), its `vn_entropy`, and,
    for one state, the state that `apply_to_memory` gives for the real
    (float64) stack of seven Unruh channels. After the inputs, for every
    Kraus family, its `choi`, the family that `kraus_from_choi` reads
    from each of its Choi matrices, and `apply_to_memory` of the family
    on the first library input and on that input's real part. Pickled
    as (a list of (name, type, dtype, shape, bytes) per input and per
    family, `sweeps()`, `case_csvs()`)."""
    from eur import (
        ProjectiveObservable,
        apply_to_memory,
        choi,
        evaluate_eur,
        kraus_from_choi,
        measurement_ensemble,
        pauli_observable,
        post_measurement_state,
        unruh_channel,
        vn_entropy,
    )
    from eur.channels import R_MAX

    channels = {
        "unruh stack": unruh_channel(np.linspace(0.0, R_MAX, 7)),
        "choi round trip": kraus_from_choi(choi(unruh_channel(0.3))),
    }
    real_channel = np.ascontiguousarray(channels["unruh stack"].real)
    real_pair = (pauli_observable("x"), pauli_observable("z"))
    angles = np.random.default_rng(ROUTE_SEED)

    reports = []
    for q, r, rho in library_inputs():
        q, r = ProjectiveObservable("q", q), ProjectiveObservable("r", r)
        fields = report_fields(evaluate_eur(q, r, rho))
        fields.append(encoded("post_measurement_state", post_measurement_state(q, rho)))
        fields.append(encoded("vn_entropy", vn_entropy(rho)))
        if rho.shape == (4, 4):
            for i, (p_i, conditional) in enumerate(measurement_ensemble(q, rho)):
                fields += [encoded(f"measurement_ensemble p_{i}", p_i),
                           encoded(f"measurement_ensemble rho_B|{i}", conditional)]
            fields += [encoded(f"apply_to_memory of the {name}", apply_to_memory(kraus, rho))
                       for name, kraus in channels.items()]
            c = choi(unruh_channel(angles.uniform(0.0, R_MAX)))
            kraus = kraus_from_choi(c)
            evolved = apply_to_memory(kraus, rho)
            fields += [encoded("route choi", c), encoded("route kraus_from_choi", kraus),
                       encoded("route apply_to_memory", evolved)]
            fields += report_fields(evaluate_eur(q, r, evolved), "route {}")
        # the real part of a state is a real state: symmetric, same trace,
        # PSD; under (x, z) it takes real bases on a real state
        real = np.ascontiguousarray(rho.real)
        fields += report_fields(evaluate_eur(q, r, real), "{} of the real part")
        fields += report_fields(evaluate_eur(*real_pair, real), "{} of the real part under x, z")
        fields.append(encoded("vn_entropy of the real part", vn_entropy(real)))
        if rho.shape == (4, 4):
            fields.append(encoded("apply_to_memory of the real part by the real unruh stack",
                                  apply_to_memory(real_channel, real)))
        reports.append(fields)
    # from a fresh generator, so that no draw above moves
    shared = next(library_inputs())[2]
    for kraus in kraus_families():
        c = choi(kraus)
        fields = [encoded("choi", c)]
        fields += [encoded(f"kraus_from_choi of choi {index}", kraus_from_choi(c[index]))
                   for index in np.ndindex(c.shape[:-2])]
        fields += [encoded("apply_to_memory", apply_to_memory(kraus, shared)),
                   encoded("apply_to_memory on a real state",
                           apply_to_memory(kraus, np.ascontiguousarray(shared.real)))]
        reports.append(fields)
    return pickle.dumps((reports, sweeps(), case_csvs()))


def tree_results(src: Path):
    """`tree_result_bytes` unpickled, computed in one subprocess that
    imports `eur` from `src`, at this module's STEPS and CASES; a
    '<exit N: ...>' string if it fails."""
    program = (f"import sys; sys.path.append({str(SCRIPTS)!r}); import compare_csv; "
               f"compare_csv.STEPS = {STEPS!r}; compare_csv.CASES = {CASES!r}; "
               "sys.stdout.buffer.write(compare_csv.tree_result_bytes())")
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", program], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=pythonpath))
    if done.returncode != 0:
        return f"<exit {done.returncode}: {done.stderr.decode().strip().splitlines()[-1]}>"
    return pickle.loads(done.stdout)


def first_report_difference(base, this) -> "str | None":
    """'<field> of input N' (or 'of Kraus family N') for the first field
    whose type or bytes differ between two `tree_results`, or the
    failure of either tree; None when all are equal."""
    for reports in (base, this):
        if isinstance(reports, str):
            return reports
    inputs = len(base[0]) - KRAUS_FAMILIES
    for n, (old, new) in enumerate(zip(base[0], this[0])):
        for old_field, new_field in zip(old, new):
            if old_field != new_field:
                source = f"input {n}" if n < inputs else f"Kraus family {n - inputs}"
                return f"{old_field[0]} of {source}"
    return None


def rule_holds(base: dict, this: dict) -> bool:
    """Print, per `Sweep` column of two trees' `sweeps()`, its changed
    values and their error against the 40-digit reference before and
    after, then the totals and the verdict; True if the RULE holds."""
    holds, changed_total, before_total, after_total = True, 0, 0.0, 0.0
    for preset in PRESETS:
        cfg, columns = this[preset]
        expected = None  # the reference sweep, run at the preset's first changed value
        for name, column in columns.items():
            if column is None:
                continue  # an r-sweep has no a column
            old = base[preset][1][name]
            changed = [k for k, (v, w) in enumerate(zip(old, column)) if v.hex() != w.hex()]
            if not changed:
                print(f"{preset} {name}: 0 changed")
                continue
            if expected is None:
                if str(TESTS) not in sys.path:
                    sys.path.insert(0, str(TESTS))
                import reference

                expected, _ = reference.sweep(SimpleNamespace(**cfg))
            x = expected[name]
            new_errors = [abs(reference.MP.mpf(column[k]) - x[k]) for k in changed]
            before = float(sum(abs(reference.MP.mpf(old[k]) - x[k]) for k in changed))
            after = float(sum(new_errors))
            worst = max(float(e) / reference.budget(x[k]) for e, k in zip(new_errors, changed))
            problems = [text for text, bad in (("outside the budget", worst > 1.0),
                                               ("summed error grows", after > before)) if bad]
            print(f"{preset} {name}: {len(changed)} changed, summed |value - reference| "
                  f"{before:.3g} -> {after:.3g}, worst {worst:.3g} of the budget"
                  + "".join(f"; FAILS: {text}" for text in problems))
            holds = holds and not problems
            changed_total += len(changed)
            before_total, after_total = before_total + before, after_total + after
    print(f"all columns: {changed_total} changed, summed |value - reference| "
          f"{before_total:.3g} -> {after_total:.3g}")
    print("RULE holds" if holds else "RULE FAILS")
    return holds


def csv_difference(base: bytes, this: bytes) -> str:
    """'line N: <base line> != <this line>' for the first line that differs
    (<end> past a file's last line; 'line endings differ' if none does),
    then how many CSV cells differ and the largest |this - base| over the
    differing cells that both hold numbers (0 when none do)."""
    end, first, count, largest = object(), None, 0, 0.0  # end pads the shorter file
    rows = itertools.zip_longest(base.splitlines(), this.splitlines(), fillvalue=end)
    for n, pair in enumerate(rows, 1):
        if first is None and pair[0] != pair[1]:
            shown = ["<end>" if row is end else row.decode() for row in pair]
            first = f"line {n}: {shown[0]} != {shown[1]}"
        cells = ((b"" if row is end else row).split(b",") for row in pair)
        for old, new in itertools.zip_longest(*cells):
            if old != new:
                count += 1
                try:
                    largest = max(largest, abs(float(new) - float(old)))
                except (TypeError, ValueError):  # a missing, blank or text cell
                    pass
    return f"{first or 'line endings differ'}; {count} cells differ, largest |difference| {largest:.3g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src", type=Path, help="the src directory to compare against")
    base_src = parser.parse_args(argv).base_src.resolve()
    base, this = tree_results(base_src), tree_results(SRC)
    failed = isinstance(base, str) or isinstance(this, str)
    differing = 0
    for case, old, new in () if failed else zip(CASES, base[2], this[2]):
        if old == new:
            print(f"same    {' '.join(case)}")
        else:
            differing += 1
            print(f"DIFFERS {' '.join(case)}: {csv_difference(old, new)}")
    report_difference = first_report_difference(base, this)
    if report_difference is None:
        print("same    library reports")
    else:
        differing += 1
        print(f"DIFFERS library reports: {report_difference}")
    if failed:
        return 1  # a tree that fails has no CSVs to compare and no sweeps to hold to the RULE
    holds = rule_holds(base[1], this[1])
    return 0 if holds and not differing else 1


if __name__ == "__main__":
    sys.exit(main())
