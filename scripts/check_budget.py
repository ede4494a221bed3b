#!/usr/bin/env python3
"""Check a change that alters result bits against the RULE in CHANGES.md.

    python scripts/check_budget.py BASE_SRC

Runs `eur sweep --preset fig1` and `--preset fig2` at STEPS = 10^3 grid
points through `eur.cli.run_sweep`, once imported from BASE_SRC
(the `src` directory of another checkout) and once from this checkout's
`src`, each tree in one subprocess, and through the 40-digit pipeline of
`tests/reference.py`. For each `Sweep` column it prints how many values
differ in bits between the two trees, the summed |value - reference|
over those values for the base tree and for this one, and the worst
error among this tree's changed values as a share of the budget
`reference.budget`; then the same sums over every changed value. Exits
1 if a changed value leaves the budget or a column's summed error
grows, and 0 otherwise.
"""

import argparse
import pickle
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

SCRIPTS = Path(__file__).resolve().parent
SRC = SCRIPTS.parent / "src"
sys.path[:0] = [str(SCRIPTS), str(SCRIPTS.parent / "tests")]

import reference  # noqa: E402
from compare_csv import tree_env  # noqa: E402

PRESETS = ("fig1", "fig2")
STEPS = 10**3


def sweeps(src: Path, steps: int) -> dict:
    """{preset: (config fields, {column: list of floats, or None})} of both
    presets' sweeps, computed by the `eur` imported from `src`."""
    program = (
        "import dataclasses, pickle, sys; import eur.cli as cli\n"
        "out = {}\n"
        f"for preset in {PRESETS!r}:\n"
        f"    cfg = cli.parse_args(['sweep', '--preset', preset, '--steps', '{steps}'])\n"
        "    columns = {name: None if column is None else column.tolist()\n"
        "               for name, column in vars(cli.run_sweep(cfg)).items()}\n"
        "    out[preset] = (dataclasses.asdict(cfg), columns)\n"
        "pickle.dump(out, sys.stdout.buffer)\n"
    )
    done = subprocess.run([sys.executable, "-c", program], env=tree_env(src),
                          capture_output=True, check=True)
    return pickle.loads(done.stdout)


def errors(values: list, expected: list, changed: list) -> list:
    """|values[k] - expected[k]| for each k in `changed`, in 40 digits."""
    return [abs(reference.MP.mpf(values[k]) - expected[k]) for k in changed]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src", type=Path, help="the src directory to compare against")
    args = parser.parse_args(argv)
    base, this = sweeps(args.base_src.resolve(), STEPS), sweeps(SRC, STEPS)
    holds, changed_total, before_total, after_total = True, 0, 0.0, 0.0
    for preset in PRESETS:
        cfg, columns = this[preset]
        expected, _ = reference.sweep(SimpleNamespace(**cfg))
        for name, column in columns.items():
            if column is None:
                continue  # an r-sweep has no a column
            old, x = base[preset][1][name], expected[name]
            changed = [k for k, (v, w) in enumerate(zip(old, column)) if v.hex() != w.hex()]
            if not changed:
                print(f"{preset} {name}: 0 changed")
                continue
            new_errors = errors(column, x, changed)
            before, after = float(sum(errors(old, x, changed))), float(sum(new_errors))
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
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())
