#!/usr/bin/env python3
"""Run both preset sweeps and write fig1.csv / fig2.csv side by side.

Thin wrapper over `eur sweep`; point any plotting tool at the CSVs.
Exit codes are those of `eur sweep`; a --steps that `eur sweep` would
reject exits 2 before --outdir is created.
"""

import argparse
import sys
from pathlib import Path

from eur.cli import EXIT_IO, EXIT_OK, MAX_STEPS, PRESETS
from eur.cli import main as eur_main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default=".", help="directory for the CSV files")
    parser.add_argument("--steps", type=int, default=101, help="grid points per sweep")
    args = parser.parse_args(argv)
    if not 2 <= args.steps <= MAX_STEPS:  # before mkdir, so a bad value creates nothing
        parser.error(f"steps must lie in [2, {MAX_STEPS}], got {args.steps}")

    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create {outdir}: {exc}", file=sys.stderr)
        return EXIT_IO
    for preset in sorted(PRESETS):
        out = outdir / f"{preset}.csv"
        code = eur_main(
            ["sweep", "--preset", preset, "--steps", str(args.steps), "--out", str(out)]
        )
        if code != EXIT_OK:
            return code
        print(f"wrote {out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
