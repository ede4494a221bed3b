"""The `eur sweep` command: parsing, the sweep, CSV emission and exit codes.

Each contract of `eur.cli` has one table-driven test:

1. parsing: `test_parse_args_resolves_flags_preset_and_defaults`, a flag
   given explicitly wins on either side of --preset, no call keeps another
   call's preset, and each call parses once and reads the terminal at most
   once;
2. help: `test_help_names_each_default_at_the_terminal_width`, one text
   for both forms, wrapped at the terminal's width;
3. rejections: `test_cli_rejects_bad_input_by_name`, one table of (call,
   exact `eur: error: ...` line or `ValueError` text);
4. the sweep: `test_run_sweep_columns`, an ascending grid, the closed
   forms at its first row and bound columns that never step down;
5. the CSV: `test_emit_csv_writes_its_rows`, exact bytes over whatever the
   path held;
6. exit codes: `test_main_exit_codes`, 0 with the CSV, 3 and 4 with their
   stderr lines;
7. the module: `test_python_dash_m_eur_writes_the_bytes_main_writes`;
8. no traceback: `test_main_never_shows_a_traceback`, over `cli_flags`
   draws with hostile values.
"""

import argparse
import collections
import contextlib
import io
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eur.cli as cli
from eur.bounds import bound_violations
from eur.cli import (
    CSV_HEADER,
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    MAX_STEPS,
    Sweep,
    SweepConfig,
    emit_csv,
    main,
    parse_args,
    run_sweep,
)
from helpers import cli_flags, near, steps_down, sweep_argv_of

FIELDS = ("a", "r", "lhs", "berta", "holevo", "delta")

# emit_csv prints 12 significant digits, so a value read back from the CSV
# is off by up to half a unit in its 12th digit: 5e-12 of its magnitude.
CSV_RTOL = 0.5 * 10.0 ** -11


def sweep_of(*rows):
    """A Sweep from row tuples (a, r, lhs, berta, holevo, delta); a None `a` blanks the column."""
    columns = [np.array(column, dtype=float) for column in zip(*rows)]
    if rows[0][0] is None:
        columns[0] = None
    return Sweep(*columns)


def read_sweep(path):
    lines = path.read_text(encoding="ascii").split("\n")
    assert lines[-1] == ""  # trailing LF
    header, *body = lines[:-1]
    assert header == CSV_HEADER
    return sweep_of(*(
        [None if field == "" else float(field) for field in line.split(",")]
        for line in body
    ))


FIG1 = {"state": "bell", "p": 0.5, "obs": ("x", "y"), "omega": 0.1, "a_min": 0.0,
        "a_max": near(20 * 0.1 * 2 * math.pi), "steps": 101, "sweep_var": "a",
        "out_path": "eur_sweep.csv"}
FIG2 = {**FIG1, "state": "x", "p": 1.0}

# flags after `eur sweep`, and the config they give; each runs with its
# --preset pair where it stands and moved to the front
PARSED = {
    "no-flags": ([], FIG1),
    "fig1": (["--preset", "fig1"], FIG1),
    "fig2": (["--preset", "fig2"], FIG2),
    "fig1-with-flags": (["--a-max", "10", "--steps", "200", "--preset", "fig1"],
                        {**FIG1, "a_max": 10.0, "steps": 200}),
    # a flag at the base default wins only by being explicit
    "state-bell-over-fig2": (["--state", "bell", "--preset", "fig2"], {**FIG2, "state": "bell"}),
    "p-0.5-over-fig2": (["--p", "0.5", "--preset", "fig2"], {**FIG2, "p": 0.5}),
    "p-over-fig2": (["--p", "0.25", "--preset", "fig2"], {**FIG2, "p": 0.25}),
    "obs-over-fig2": (["--obs", "x,z", "--preset", "fig2"], {**FIG2, "obs": ("x", "z")}),
    # axes are stripped and lower-cased
    "obs-spelled": (["--obs", " Y , z", "--preset", "fig2"], {**FIG2, "obs": ("y", "z")}),
    "omega-over-fig2": (["--omega", "0.2", "--preset", "fig2"],
                        {**FIG2, "omega": 0.2, "a_max": near(20 * 0.2 * 2 * math.pi)}),
    "r-sweep-bounds": (["--sweep-var", "r", "--a-min", "0", "--a-max", "0.785398"],
                       {**FIG1, "sweep_var": "r", "a_max": 0.785398}),
    "r-sweep-default": (["--sweep-var", "r"],
                        {**FIG1, "sweep_var": "r", "a_max": near(math.pi / 4)}),
    "steps-at-the-cap": (["--steps", str(MAX_STEPS)], {**FIG1, "steps": MAX_STEPS}),
    "a-min-and-out": (["--a-min=1e-3", "--out", "x.csv"],
                      {**FIG1, "a_min": 0.001, "out_path": "x.csv"}),
}


@pytest.mark.parametrize("case", PARSED)
def test_parse_args_resolves_flags_preset_and_defaults(monkeypatch, case):
    flags, expected = PARSED[case]
    calls = collections.Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        counted("parse", argparse.ArgumentParser.parse_known_args))
    monkeypatch.setattr(shutil, "get_terminal_size", counted("terminal", shutil.get_terminal_size))
    orders = [flags]
    if "--preset" in flags:
        k = flags.index("--preset")
        orders.append(flags[k:k + 2] + flags[:k] + flags[k + 2:])
    for before in (["sweep"], ["sweep", "--preset", "fig2"]):
        for argv in orders:
            parse_args(before)
            calls.clear()
            cfg = parse_args(["sweep", *argv])
            assert vars(cfg) == expected, (before, argv)
            assert calls["parse"] == 1 and calls["terminal"] <= 1, (argv, calls)


@pytest.mark.parametrize("columns", ["60", "100"])
def test_help_names_each_default_at_the_terminal_width(monkeypatch, capsys, columns):
    monkeypatch.setenv("COLUMNS", columns)
    texts = []
    for argv in (["--help"], ["sweep", "--help"]):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert (max(map(len, texts[0].splitlines())) > 58) == (columns == "100")
    words = " ".join(texts[0].split())
    for default in ("bell", "0.5", "x,y", "0.1", "0.0", "101", "a", "eur_sweep.csv"):
        assert f"(default {default})" in words
    # argparse reads -1e-3 after a space as a flag; help names the = form
    assert "--a-min=-1e-3" in "".join(texts[0].split())


def usage(*flags):
    return lambda: parse_args(["sweep", *flags])


def config(**fields):
    valid = dict(state="bell", p=0.5, obs=("x", "y"), omega=0.1, a_min=0.0, a_max=1.0,
                 steps=5, sweep_var="a", out_path="out.csv")
    return lambda: SweepConfig(**{**valid, **fields})


R_A_MIN = "eur: error: r sweep bound must lie in [0, pi/4], got a-min 0.9"

# a call and its exact message: a usage error's last stderr line, or the
# text of the ValueError that SweepConfig or emit_csv raises
REJECTIONS = {
    "p-above-one": (usage("--state", "x", "--p", "1.5"),
                    "eur: error: p must lie in [0, 1], got 1.5"),
    "unknown-flag": (usage("--nope", "1"), "eur: error: unrecognized arguments: --nope 1"),
    "malformed-number": (usage("--omega", "abc"),
                         "eur: error: argument --omega: invalid float value: 'abc'"),
    "steps-1": (usage("--steps", "1"), "eur: error: steps must lie in [2, 10000000], got 1"),
    # a rejected config allocates nothing, so the extreme value is safe here
    "steps-above-the-cap": (usage("--steps", str(10**12)),
                            "eur: error: steps must lie in [2, 10000000], got 1000000000000"),
    "a-min-negative": (usage("--a-min", "-1"),
                       "eur: error: a-min must be finite and >= 0, got -1.0"),
    "a-max-below-a-min": (usage("--a-min", "5", "--a-max", "1"),
                          "eur: error: a-max must be finite and >= a-min, got 1.0"),
    "omega-zero": (usage("--omega", "0"), "eur: error: omega must be finite and > 0, got 0.0"),
    "obs-axis": (usage("--obs", "x,q"), "eur: error: obs must be two of x, y, z, got ('x', 'q')"),
    "r-a-max-above-pi/4": (usage("--sweep-var", "r", "--a-max", "1.0"),
                           "eur: error: r sweep bound must lie in [0, pi/4], got a-max 1.0"),
    # a default a-max that fails is blamed on the flag the user set
    "omega-overflows-the-default-a-max": (
        usage("--omega", "1e307"),
        "eur: error: omega 1e+307 overflows the default a-max 20*omega*2pi; set --a-max"),
    "a-min-above-the-default-a-max": (
        usage("--a-min", "200"),
        "eur: error: a-min 200.0 exceeds the default a-max 12.566370614359172; set --a-max"),
    # an r-sweep's a-min above pi/4 is named, whatever --a-max says
    "r-a-min-above-pi/4": (usage("--sweep-var", "r", "--a-min", "0.9"), R_A_MIN),
    "r-a-min-above-pi/4-and-a-max": (usage("--sweep-var", "r", "--a-min", "0.9", "--a-max", "1"),
                                     R_A_MIN),
    "r-a-min-above-a-max": (usage("--sweep-var", "r", "--a-min", "0.9", "--a-max", "0.5"), R_A_MIN),
    # argparse reads -1e-3 after a space as a flag; the = form reaches the check
    "negative-exponent-after-a-space": (usage("--a-min", "-1e-3"),
                                        "eur: error: argument --a-min: expected one argument"),
    "negative-exponent-in-=-form": (usage("--a-min=-1e-3"),
                                    "eur: error: a-min must be finite and >= 0, got -0.001"),
    "config-steps-1": (config(steps=1), "steps must lie in [2, 10000000], got 1"),
    "config-steps-above-the-cap": (config(steps=10**12),
                                   "steps must lie in [2, 10000000], got 1000000000000"),
    # the grid's np.linspace takes an integer
    "config-steps-not-integral": (config(steps=10.5), "steps must be an integer, got 10.5"),
    "config-state": (config(state="ghz"), "state must be 'bell' or 'x', got 'ghz'"),
    "config-sweep-var": (config(sweep_var="omega"), "sweep-var must be 'a' or 'r', got 'omega'"),
    "emit-no-rows": (lambda: emit_csv(Sweep(*(np.empty(0) for _ in FIELDS)), os.devnull),
                     "no rows to write"),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_cli_rejects_bad_input_by_name(capsys, case):
    call, message = REJECTIONS[case]
    if message.startswith("eur: error: "):  # exit 2, one error line, last
        with pytest.raises(SystemExit) as exc:
            call()
        err = capsys.readouterr().err
        assert (exc.value.code, err.splitlines()[-1], err.count("error:")) == (2, message, 1)
    else:
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message


# a sweep's flags after `eur sweep` or a thunk giving its SweepConfig,
# and its first row: a grid that starts at a = 0 or r = 0 exactly, and
# closed forms within the budget, berta = 1.5 and holevo = 1 + h(1/4) on
# the p = 1/2 Bell-diagonal state, and zero on fig2's |psi+>
FIG1_FIRST = {"r": 0.0, "berta": near(1.5), "holevo": near(1.8112781244591328)}
SWEEPS = {
    "fig1": (["--preset", "fig1", "--steps", "21"], {"a": 0.0, **FIG1_FIRST}),
    "fig2": (["--preset", "fig2", "--steps", "21"],
             {"a": 0.0, "r": 0.0, "lhs": near(0.0), "berta": near(0.0), "holevo": near(0.0)}),
    "r-sweep": (["--sweep-var", "r", "--a-min", "0", "--a-max", "0.785398", "--steps", "5"],
                FIG1_FIRST),
    "int64-steps": (config(steps=np.int64(5)), {"a": 0.0, **FIG1_FIRST}),
}


@pytest.mark.parametrize("case", SWEEPS)
def test_run_sweep_columns(case):
    given, first = SWEEPS[case]
    cfg = given() if callable(given) else parse_args(["sweep", *given])
    sweep = run_sweep(cfg)
    assert (sweep.a is None) == (cfg.sweep_var == "r")
    grid = sweep.r if sweep.a is None else sweep.a
    for field in FIELDS[1:]:
        assert getattr(sweep, field).shape == (cfg.steps,)
    assert grid[0] == cfg.a_min and grid[-1] == near(cfg.a_max) and np.all(np.diff(grid) > 0)
    assert {name: getattr(sweep, name)[0] for name in first} == first
    assert not steps_down(sweep.berta) and not steps_down(sweep.holevo)
    assert np.all(sweep.holevo >= sweep.berta)
    assert bound_violations(sweep.lhs, sweep.berta, sweep.holevo) == []


# a sweep, and the CSV body that emit_csv writes for it
EMITTED = {
    "rows": (sweep_of((0.0, 0.0, 1.0, 0.5, 0.75, 0.25), (1.5, 0.25, 1.25, 0.5, 0.8, 0.3)),
             "0,0,1,0.5,0.75,0.25\n1.5,0.25,1.25,0.5,0.8,0.3\n"),
    "twelve-digits": (sweep_of((1.2345678901234567,) * 6), ",".join(["1.23456789012"] * 6) + "\n"),
    "r-sweep": (sweep_of((None, 0.25, 1.0, 0.5, 0.75, -2.5e-13)), ",0.25,1,0.5,0.75,-2.5e-13\n"),
    # three chunks of at most 1024 rows
    "chunks": (sweep_of(*((k,) * 6 for k in range(2050))),
               "".join(",".join([str(k)] * 6) + "\n" for k in range(2050))),
}


@pytest.mark.parametrize("case", EMITTED)
def test_emit_csv_writes_its_rows(tmp_path, case):
    sweep, body = EMITTED[case]
    out = tmp_path / "sweep.csv"
    out.write_bytes(b"x\r\n" * 50_000)  # emit_csv replaces what the path held
    emit_csv(sweep, str(out))
    assert out.read_bytes() == (CSV_HEADER + "\n" + body).encode("ascii")


BAD_SWEEP = sweep_of(
    (0.0, 0.0, 0.0, 1.0, 1.0, 0.0),
    (0.0, 0.0, 1.0, 0.5, 0.6, 0.1),
    (1.0, 0.1, 0.5, 0.1, 0.9, 0.8),
)

# flags after `eur sweep` (or the Sweep that run_sweep is made to return),
# --out under tmp_path, the exit code, and then the last r of the CSV for
# exit 0 or the stderr lines, formatted with the --out value, otherwise
MAIN_CASES = {
    "fig2": (["--preset", "fig2"], "sweep.csv", EXIT_OK,
             math.acos((1.0 + math.exp(-2.0 * math.pi * 0.1 / (4.0 * math.pi))) ** -0.5)),
    # omega/a far below 1e-16: r must land on pi/4, never one ulp past it
    "extreme-a": (["--a-min", "1e-300", "--a-max", "1e300"], "sweep.csv", EXIT_OK, math.pi / 4),
    "invariant": (BAD_SWEEP, "never.csv", EXIT_INVARIANT,
                  ["error: row 0: lhs 0 below berta 1", "error: row 2: lhs 0.5 below holevo 0.9"]),
    "missing-parent": (["--preset", "fig2"], "missing/deep/sweep.csv", EXIT_IO,
                       ["error: cannot write {out}: [Errno 2] No such file or directory: {out!r}"]),
    "directory": (["--preset", "fig2"], ".", EXIT_IO,
                  ["error: cannot write {out}: [Errno 21] Is a directory: {out!r}"]),
    "empty": (["--preset", "fig2"], "", EXIT_IO,
              ["error: cannot write : [Errno 2] No such file or directory: ''"]),
    # /dev/full opens, and its ENOSPC is raised when emit_csv's file closes
    "dev-full": (["--preset", "fig2"], "/dev/full", EXIT_IO,
                 ["error: cannot write /dev/full: [Errno 28] No space left on device"]),
}


@pytest.mark.parametrize("case", MAIN_CASES)
def test_main_exit_codes(tmp_path, monkeypatch, capsys, case):
    flags, target, code, expected = MAIN_CASES[case]
    if target == "/dev/full" and not os.path.exists(target):
        pytest.skip("no /dev/full")
    if isinstance(flags, Sweep):
        monkeypatch.setattr(cli, "run_sweep", lambda cfg, bad=flags: bad)
        flags = []
    out = target and str(tmp_path / target)  # the empty path stays empty
    assert main(["sweep", *flags, "--steps", "5", f"--out={out}"]) == code
    err = capsys.readouterr().err.splitlines()
    if code != EXIT_OK:
        assert err == [line.format(out=out) for line in expected]
        assert code == EXIT_IO or not os.path.exists(out)
        return
    assert err == []
    sweep = read_sweep(Path(out))
    assert sweep.r.shape == (5,) and abs(sweep.r[-1] - expected) <= CSV_RTOL * expected
    assert bound_violations(sweep.lhs, sweep.berta, sweep.holevo) == []


def test_python_dash_m_eur_writes_the_bytes_main_writes(tmp_path):
    # a non-regular --out target gets the bytes that a file gets
    argv = ["sweep", "--preset", "fig1", "--steps", "5", "--out"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-m", "eur", *argv, "/dev/stdout"],
                            capture_output=True, env=env)
    assert (result.returncode, result.stderr) == (EXIT_OK, b"")
    out = tmp_path / "fig1.csv"
    assert main([*argv, str(out)]) == EXIT_OK
    assert result.stdout == out.read_bytes()


# edge values for the number flags: non-finite, signed zero, subnormal,
# overflowing to inf, and negative in exponent form, which reaches the
# checks because every flag is given as --flag=value (see the epilog);
# then values argparse itself rejects
HOSTILE_NUMBERS = ["nan", "inf", "-inf", "-0.0", "5e-324", "1e309", "-1e-3", "abc", "", "1e"]
HOSTILE = {**dict.fromkeys(["p", "omega", "a-min", "a-max"], HOSTILE_NUMBERS),
           "obs": ["", "x", "x,y,z"], "state": ["ghz"], "steps": ["1e3", "2.5"]}


@st.composite
def sweep_argv(draw):
    """(argv, steps): a `cli_flags` draw with each flag replaced by a
    hostile value a sixth of the time, and --a-max dropped a quarter."""
    flags = draw(cli_flags())
    steps = flags["steps"]
    # the top draw picks the overlay, so a failing example shrinks to the
    # valid flags, keeping only the overlays that it needs
    for flag, values in HOSTILE.items():
        if draw(st.integers(0, 5)) == 5:
            flags[flag] = draw(st.sampled_from(values))
    if draw(st.integers(0, 3)) == 3:
        del flags["a-max"]  # the default, which depends on omega and the sweep variable
    return sweep_argv_of(flags), steps


@pytest.fixture(scope="module")
def fuzz_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "sweep.csv"


@given(case=sweep_argv())
@settings(max_examples=300, deadline=None)
def test_main_never_shows_a_traceback(fuzz_csv, case):
    argv, steps = case
    fuzz_csv.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main([*argv, f"--out={fuzz_csv}"])
        except SystemExit as exc:  # argparse's exit; any other exception fails the test
            code = exc.code
    stderr = err.getvalue()
    assert code in (EXIT_OK, 2), stderr
    assert "Traceback" not in stderr
    if code == EXIT_OK:
        lines = fuzz_csv.read_text(encoding="ascii").split("\n")
        assert lines[0] == CSV_HEADER and lines[-1] == "" and len(lines) == steps + 2
    else:
        assert stderr.splitlines()[-1].startswith("eur: error:"), stderr
        assert stderr.count("error:") == 1, stderr
