"""The benchmark's three workloads.

Each workload turns a seed into an endless stream of operations. An
operation's `call` is the only part that is timed; its `check` compares
what the call produced with the raw-numpy oracle and runs outside the
timed window. The program sees only the generated inputs, through the
public functions of the `eur` package.

A check returns a list of (cause, known) pairs, empty on success. `known`
marks the two defects the project has already reproduced (the large-`a`
crash and the `acos` precision loss of the mixing angle); any other
failure is unexplained and makes the run incorrect. The timed workloads
avoid both defects; `PROBES` holds the untimed operation lists that
reach them on purpose.
"""

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

SWEEP_STEPS = 101
CLI_STEPS = (2, 32)
CLI_OMEGA_DECADES = (-3.0, 3.0)
CLI_A_OVER_OMEGA_DECADES = (-2.0, 18.0)
LIBRARY_CHUNK = 256
R_MAX = math.pi / 4
PROBE_DRAWS = 620
PROBE_STREAM = 1  # second seed word, so the probe draws apart from the workload

# The CLI's documented presets, restated for the oracle.
PRESETS = {
    "fig1": {"state": "bell", "p": 0.5, "obs": ("x", "y"), "omega": 0.1},
    "fig2": {"state": "x", "p": 1.0, "obs": ("x", "y"), "omega": 0.1},
}


@dataclass
class Operation:
    label: str
    points: int
    call: Callable[[], object]
    check: Callable[[object, BaseException | None], list]
    out_path: str | None = None


def _sweep_check(cfg, out_path, expected=None):
    def check(code, error):
        if error is not None:
            known = isinstance(error, ValueError) and "r must lie in [0, pi/4]" in str(error)
            return [(f"{type(error).__name__}: {error}", known and oracle.large_a_crash(cfg))]
        if code != 0:
            return [(f"exit code {code}", False)]
        with open(out_path, encoding="ascii", newline="") as fh:
            text = fh.read()
        grid = expected if expected is not None else oracle.sweep_grid(cfg)
        return oracle.check_sweep(text, cfg, grid)

    return check


def _run_cli(eur, argv):
    return lambda: eur.cli.main(argv)


def sweep_presets(eur, seed: int, out_path: str):
    """Alternate the two preset sweeps at SWEEP_STEPS grid points.

    fig1 sweeps the acceleration (full-rank Bell-diagonal states, unruh_r
    on every point); fig2 sweeps the mixing angle directly (a pure state
    that becomes rank 2; unruh_r bypassed). The seed picks which comes
    first; the grids are fixed.
    """
    specs = []
    for name, extra, cfg in (
        ("fig1", [], {"sweep_var": "a", "a_min": 0.0, "a_max": 20.0 * 0.1 * 2.0 * math.pi}),
        ("fig2", ["--sweep-var", "r"], {"sweep_var": "r", "a_min": 0.0, "a_max": R_MAX}),
    ):
        cfg = dict(PRESETS[name], steps=SWEEP_STEPS, **cfg)
        argv = ["sweep", "--preset", name, *extra, "--steps", str(SWEEP_STEPS), "--out", out_path]
        expected = oracle.sweep_grid(cfg)
        specs.append(Operation(name, SWEEP_STEPS, _run_cli(eur, argv), _sweep_check(cfg, out_path, expected), out_path))
    if np.random.default_rng(seed).integers(2):
        specs.reverse()
    while True:
        yield from specs


def cli_config(rng, steps: int) -> dict:
    """One random but valid `eur sweep` configuration of `steps` points."""
    state = ("bell", "x")[rng.integers(2)]
    axes = "xyz"
    obs = (axes[rng.integers(3)], axes[rng.integers(3)])
    omega = 10.0 ** rng.uniform(*CLI_OMEGA_DECADES)
    sweep_var = ("a", "r")[rng.integers(2)]
    if sweep_var == "a":
        a_max = omega * 10.0 ** rng.uniform(*CLI_A_OVER_OMEGA_DECADES)
    else:
        a_max = rng.uniform(0.0, R_MAX)
    a_min = 0.0 if rng.integers(2) else rng.uniform(0.0, a_max)
    return {
        "state": state,
        "p": rng.uniform(0.0, 1.0),
        "obs": obs,
        "omega": omega,
        "a_min": a_min,
        "a_max": a_max,
        "steps": steps,
        "sweep_var": sweep_var,
    }


def cli_argv(cfg: dict, out_path: str) -> list:
    argv = [
        "sweep",
        "--state", cfg["state"],
        "--p", repr(cfg["p"]),
        "--obs", ",".join(cfg["obs"]),
        "--omega", repr(cfg["omega"]),
        "--a-max", repr(cfg["a_max"]),
        "--steps", str(cfg["steps"]),
        "--sweep-var", cfg["sweep_var"],
        "--out", out_path,
    ]
    if cfg["a_min"] != 0.0:
        argv += ["--a-min", repr(cfg["a_min"])]
    return argv


def _cli_operation(eur, cfg: dict, out_path: str) -> Operation:
    return Operation("cli", cfg["steps"], _run_cli(eur, cli_argv(cfg, out_path)),
                     _sweep_check(cfg, out_path), out_path)


def cli_small(eur, seed: int, out_path: str):
    """Short sweeps over random flags, one `main` call each.

    A drawn configuration whose grid reaches one of the two known defects
    of the acos mixing angle (oracle.reaches_known_defect) is redrawn, so
    no timed operation fails; `defect_probe` measures those defects
    instead. Grid sizes are drawn without replacement: every run of 31
    operations uses each size once, so a run's latency quantiles do not
    hinge on the luck of the draw.
    """
    rng = np.random.default_rng(seed)
    while True:
        for steps in rng.permutation(np.arange(CLI_STEPS[0], CLI_STEPS[1] + 1)):
            cfg = cli_config(rng, int(steps))
            while oracle.reaches_known_defect(cfg):
                cfg = cli_config(rng, int(steps))
            yield _cli_operation(eur, cfg, out_path)


def defect_probe(eur, seed: int, out_path: str):
    """Draw PROBE_DRAWS cli-small configurations over the whole flag
    domain, known defects included: a_max/omega reaches 1e18, past the
    ~3.8e16 where the acos form overshoots pi/4 and the sweep crashes.

    Returns (PROBE_DRAWS, operations) with one operation for each draw
    that oracle.reaches_known_defect flags; the other draws are the kind
    the timed workload runs. Run untimed, so the share of draws the
    defects break is measured without their failures entering the timed
    workload.
    """
    rng = np.random.default_rng([seed, PROBE_STREAM])
    sizes = rng.integers(CLI_STEPS[0], CLI_STEPS[1] + 1, size=PROBE_DRAWS)
    configs = [cli_config(rng, int(steps)) for steps in sizes]
    return PROBE_DRAWS, [_cli_operation(eur, cfg, out_path) for cfg in configs
                         if oracle.reaches_known_defect(cfg)]


def random_state(rng) -> np.ndarray:
    """Full-rank 4x4 density matrix: a random Wishart state mixed with 10% noise."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return 0.9 * rho / np.trace(rho).real + 0.1 * np.eye(4) / 4.0


def random_basis(rng) -> np.ndarray:
    """Haar-random 2x2 unitary, whose columns are an eigenbasis."""
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


REPORT_FIELDS = {
    "lhs": "lhs",
    "berta_bound": "berta",
    "holevo_bound": "holevo",
    "delta": "delta",
    "mu_bound": "mu_bound",
    "c": "c",
    "s_cond": "s_cond",
    "i_ab": "i_ab",
    "i_qb": "i_qb",
    "i_rb": "i_rb",
}


def _library_check(expected: dict):
    def check(report, error):
        if error is not None:
            return [(f"{type(error).__name__}: {error}", False)]
        got = {name: [getattr(report, field)] for field, name in REPORT_FIELDS.items()}
        problems = [(f"{name} off by more than {oracle.TOL}", False)
                    for name in oracle.mismatches(got, expected, REPORT_FIELDS.values())]
        if oracle.invariant_violations({k: np.asarray(v) for k, v in got.items()}).size:
            problems.append(("lhs >= holevo >= berta fails", False))
        return problems

    return check


def library_scalar(eur, seed: int, out_path: str = None):
    """One general (complex, non-X) state through the Choi route per call.

    Inputs are drawn in chunks so the oracle can evaluate a whole chunk
    at once; every operation gets a fresh input.
    """
    rng = np.random.default_rng(seed)
    while True:
        rho = np.stack([random_state(rng) for _ in range(LIBRARY_CHUNK)])
        r = rng.uniform(0.0, R_MAX, size=LIBRARY_CHUNK)
        bases = np.stack([[random_basis(rng), random_basis(rng)] for _ in range(LIBRARY_CHUNK)])
        expected = oracle.evaluate(oracle.evolve(rho, r), bases[:, 0], bases[:, 1])
        for k in range(LIBRARY_CHUNK):
            q = eur.ProjectiveObservable("q", bases[k, 0])
            o = eur.ProjectiveObservable("o", bases[k, 1])

            def call(state=rho[k], angle=float(r[k]), q=q, o=o):
                channel = eur.kraus_from_choi(eur.choi(eur.unruh_channel(angle)))
                return eur.evaluate_eur(q, o, eur.apply_to_memory(channel, state))

            yield Operation("library", 1, call, _library_check({n: v[k:k + 1] for n, v in expected.items()}))


WORKLOADS = {
    "sweep-presets": sweep_presets,
    "cli-small": cli_small,
    "library-scalar": library_scalar,
}

PROBES = {"cli-small": defect_probe}

PARAMETERS = {
    "sweep-presets": {"presets": ["fig1 (a sweep)", "fig2 (--sweep-var r)"], "steps": SWEEP_STEPS},
    "cli-small": {
        "steps": list(CLI_STEPS),
        "omega_log10": list(CLI_OMEGA_DECADES),
        "a_max_over_omega_log10": list(CLI_A_OVER_OMEGA_DECADES),
        "r_sweep_a_max": [0.0, R_MAX],
        "states": ["bell", "x"],
        "p": [0.0, 1.0],
        "obs": "any ordered pair of x, y, z",
        "redrawn": "a-sweeps past a_max/omega 1e16 or with a grid r in "
                   f"[{oracle.ACOS_LOSS_R[0]:g}, {oracle.ACOS_LOSS_R[1]:g}]",
        "defect_probe_draws": PROBE_DRAWS,
    },
    "library-scalar": {
        "state": "0.9 * Wishart(4x4 complex) + 0.1 * I/4",
        "r": [0.0, R_MAX],
        "observables": "two Haar-random eigenbases",
        "chunk": LIBRARY_CHUNK,
    },
}


def remove_output(op: Operation):
    """Delete the previous operation's CSV so a check never reads a stale file."""
    if op.out_path is not None and os.path.exists(op.out_path):
        os.remove(op.out_path)
