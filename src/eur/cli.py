"""Command-line harness: sweep the acceleration channel and emit CSV.

Each row evaluates the uncertainty sum and both memory-assisted bounds
on the chosen initial state after its memory half passes through the
channel at one grid point. The sweep variable is the acceleration `a` by
default; sweeping the mixing angle `r` directly is supported because `r`
is the reproducible parameterization when absolute accelerations are not
meaningful.
"""

import argparse
import functools
import math
import numbers
import shutil
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import bound_violations, evaluate_eur
from .channels import R_MAX, apply_to_memory, unruh_channel, unruh_r
from .measurement import pauli_observable
from .states import bell_diagonal_p, x_state

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVARIANT = 3
EXIT_IO = 4

CSV_HEADER = "a,r,lhs,berta,holevo,delta"

# Grid points evaluated, or written, per stacked call; bounds the sweep's
# temporary arrays.
_SWEEP_CHUNK = 1024

# Largest accepted --steps; the sweep's float columns then take about 480 MB.
MAX_STEPS = 10**7

# Base values of the four flags a preset sets, taken when neither the flag
# nor a preset gives one.
DEFAULTS = {"state": "bell", "p": 0.5, "obs": "x,y", "omega": 0.1}

# What each named preset changes in DEFAULTS; explicit flags override it.
PRESETS = {"fig1": {}, "fig2": {"state": "x", "p": 1.0}}


@dataclass(frozen=True)
class SweepConfig:
    """Fully resolved sweep parameters.

    `a_min`/`a_max` bound the sweep variable: accelerations when
    sweep_var is "a", mixing angles (within [0, pi/4]) when it is "r".
    """

    state: str
    p: float
    obs: tuple
    omega: float
    a_min: float
    a_max: float
    steps: int
    sweep_var: str
    out_path: str

    def __post_init__(self):
        if self.state not in ("bell", "x"):
            raise ValueError(f"state must be 'bell' or 'x', got {self.state!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if len(self.obs) != 2 or any(axis not in ("x", "y", "z") for axis in self.obs):
            raise ValueError(f"obs must be two of x, y, z, got {self.obs!r}")
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise ValueError(f"omega must be finite and > 0, got {self.omega}")
        if not (math.isfinite(self.a_min) and self.a_min >= 0.0):
            raise ValueError(f"a-min must be finite and >= 0, got {self.a_min}")
        if self.sweep_var == "r" and self.a_min > R_MAX:
            raise ValueError(f"r sweep bound must lie in [0, pi/4], got a-min {self.a_min}")
        if not (math.isfinite(self.a_max) and self.a_max >= self.a_min):
            raise ValueError(f"a-max must be finite and >= a-min, got {self.a_max}")
        if self.sweep_var not in ("a", "r"):
            raise ValueError(f"sweep-var must be 'a' or 'r', got {self.sweep_var!r}")
        if self.sweep_var == "r" and self.a_max > R_MAX:
            raise ValueError(f"r sweep bound must lie in [0, pi/4], got a-max {self.a_max}")
        if not isinstance(self.steps, numbers.Integral):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if not 2 <= self.steps <= MAX_STEPS:
            raise ValueError(f"steps must lie in [2, {MAX_STEPS}], got {self.steps}")


@dataclass(frozen=True)
class Sweep:
    """An evaluated grid as ascending columns; `a` is None for an r-sweep."""

    a: np.ndarray | None
    r: np.ndarray
    lhs: np.ndarray
    berta: np.ndarray
    holevo: np.ndarray
    delta: np.ndarray


def run_sweep(cfg: SweepConfig) -> Sweep:
    """Evaluate the uncertainty report on an evenly spaced grid, ascending.

    The angles, channels, states and reports are computed as stacks of at
    most _SWEEP_CHUNK grid points. Both state families and the channel are
    real and built in float64, so the channel, the state check and the 4x4
    spectra run in float64, bit for bit as the library runs them on the
    same objects.
    """
    q = pauli_observable(cfg.obs[0])
    r_obs = pauli_observable(cfg.obs[1])
    initial = bell_diagonal_p(cfg.p) if cfg.state == "bell" else x_state(cfg.p)

    grid = np.linspace(cfg.a_min, cfg.a_max, cfg.steps)
    sweep_a = cfg.sweep_var == "a"
    r_values = np.empty(cfg.steps) if sweep_a else grid
    values = np.empty((4, cfg.steps))  # lhs, berta, holevo, delta
    for start in range(0, cfg.steps, _SWEEP_CHUNK):
        part = slice(start, start + _SWEEP_CHUNK)
        if sweep_a:
            r_values[part] = unruh_r(grid[part], cfg.omega)
        report = evaluate_eur(q, r_obs, apply_to_memory(unruh_channel(r_values[part]), initial))
        values[:, part] = report.lhs, report.berta_bound, report.holevo_bound, report.delta
    return Sweep(grid if sweep_a else None, r_values, *values)


def emit_csv(sweep: Sweep, path: str) -> None:
    """Write the sweep as CSV: 12 significant digits, LF endings, overwrite.

    The rows are formatted a chunk of at most _SWEEP_CHUNK at a time, each
    chunk with one `%` operation on a row format repeated once per row.
    """
    if len(sweep.r) == 0:
        raise ValueError("no rows to write")
    columns = [sweep.r, sweep.lhs, sweep.berta, sweep.holevo, sweep.delta]
    fmt = ",%.12g" * len(columns) + "\n"  # the a field stays blank for an r-sweep
    if sweep.a is not None:
        columns, fmt = [sweep.a, *columns], "%.12g" + fmt
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        # chunk by chunk, so no Python tuple spans the whole grid
        for start in range(0, len(sweep.r), _SWEEP_CHUNK):
            chunk = np.column_stack([column[start:start + _SWEEP_CHUNK] for column in columns])
            fh.write(fmt * len(chunk) % tuple(chunk.ravel().tolist()))


def _build_parser() -> argparse.ArgumentParser:
    """The one `eur` parser: the `sweep` command and its flags.

    Built afresh on every call and never mutated, so no call sees another
    call's values. The four flags in DEFAULTS have no argparse default:
    one left out parses as None, and their help prints DEFAULTS. The
    terminal is asked for its width once, not once per argument, and help
    wraps at the width argparse would pick itself.
    """
    width = shutil.get_terminal_size().columns - 2
    parser = argparse.ArgumentParser(
        prog="eur",
        description="Uncertainty-bound sweeps for a qubit memory degraded by acceleration.",
        epilog="A negative number in exponent form needs the = form, e.g. --a-min=-1e-3: "
               "after a space, -1e-3 reads as a flag.",
        formatter_class=functools.partial(argparse.HelpFormatter, width=width),
    )
    parser.add_argument("command", choices=["sweep"],
                        help="evaluate bounds over an acceleration grid and write CSV")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="named parameter set; explicit flags override its values")
    parser.add_argument("--state", choices=["bell", "x"],
                        help=f"initial two-qubit family (default {DEFAULTS['state']})")
    parser.add_argument("--p", type=float,
                        help=f"family parameter in [0, 1] (default {DEFAULTS['p']})")
    parser.add_argument("--obs",
                        help=f"comma-separated Pauli axes, e.g. x,z (default {DEFAULTS['obs']})")
    parser.add_argument("--omega", type=float,
                        help=f"Dirac mode frequency > 0 (default {DEFAULTS['omega']})")
    parser.add_argument("--a-min", type=float, default=0.0,
                        help="lower sweep bound (default %(default)s)")
    parser.add_argument("--a-max", type=float,
                        help="upper sweep bound (default 20*omega*2pi, or pi/4 when sweeping r)")
    parser.add_argument("--steps", type=int, default=101,
                        help=f"number of grid points, 2 to {MAX_STEPS} (default %(default)s)")
    parser.add_argument("--sweep-var", choices=["a", "r"], default="a",
                        help="sweep the acceleration or the mixing angle directly (default %(default)s)")
    parser.add_argument("--out", default="eur_sweep.csv", dest="out_path", metavar="PATH",
                        help="output CSV path (default %(default)s)")
    return parser


def parse_args(argv=None) -> SweepConfig:
    """Resolve flags, preset and defaults into a validated SweepConfig.

    The argv is parsed once, by a parser built afresh for this call and
    never mutated. Each of the four flags in DEFAULTS that it leaves out
    then takes the preset's value, or else the DEFAULTS one, so a flag
    given explicitly wins wherever it stands. Every usage error, argparse's own or a
    constraint violation naming the offending field, exits with code 2
    and a last line `eur: error: ...`.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    for name, value in {**DEFAULTS, **PRESETS.get(ns.preset, {})}.items():
        if getattr(ns, name) is None:
            setattr(ns, name, value)
    del ns.command, ns.preset

    try:
        if ns.a_max is None:
            ns.a_max = R_MAX if ns.sweep_var == "r" else 20.0 * ns.omega * 2.0 * math.pi
            # blame a flag the user set; a bad omega or a-min, or an r-sweep's
            # a-min above pi/4, gets SweepConfig's message
            if ns.sweep_var == "a" and 0.0 < ns.omega < math.inf:
                if ns.a_max == math.inf:
                    raise ValueError(
                        f"omega {ns.omega} overflows the default a-max 20*omega*2pi; set --a-max"
                    )
                if ns.a_max < ns.a_min < math.inf:
                    raise ValueError(
                        f"a-min {ns.a_min} exceeds the default a-max {ns.a_max}; set --a-max"
                    )
        ns.obs = tuple(part.strip().lower() for part in ns.obs.split(","))
        return SweepConfig(**vars(ns))
    except ValueError as exc:
        parser.error(str(exc))


def main(argv=None) -> int:
    """Entry point. Exit codes: 0 ok, 2 usage, 3 result invariant, 4 I/O."""
    cfg = parse_args(argv)
    sweep = run_sweep(cfg)
    problems = bound_violations(sweep.lhs, sweep.berta, sweep.holevo)
    if problems:
        print("\n".join(f"error: row {i}: {problem}" for i, problem in problems), file=sys.stderr)
        return EXIT_INVARIANT
    try:
        emit_csv(sweep, cfg.out_path)
    except OSError as exc:
        print(f"error: cannot write {cfg.out_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK
