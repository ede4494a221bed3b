"""Argument parsing, sweeps, CSV emission and exit codes."""

import argparse
import contextlib
import io
import math
import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
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
from helpers import cli_flags, steps_down, sweep_argv_of

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


def test_parse_preset_fig1_defaults():
    cfg = parse_args(["sweep", "--preset", "fig1"])
    assert cfg.state == "bell"
    assert cfg.p == 0.5
    assert cfg.obs == ("x", "y")
    assert cfg.omega == 0.1
    assert cfg.a_min == 0.0
    assert not reference.outside_budget(cfg.a_max, 20 * 0.1 * 2 * math.pi)
    assert cfg.steps == 101
    assert cfg.sweep_var == "a"


def test_parse_preset_fig2():
    cfg = parse_args(["sweep", "--preset", "fig2"])
    assert cfg.state == "x"
    assert cfg.p == 1.0
    assert cfg.obs == ("x", "y")


def test_explicit_flags_override_preset():
    cfg = parse_args(["sweep", "--preset", "fig1", "--a-max", "10", "--steps", "200"])
    assert cfg.state == "bell" and cfg.p == 0.5
    assert cfg.a_max == 10.0
    assert cfg.steps == 200
    # --p 0.5 equals the base default: only its being explicit keeps it over fig2's p = 1
    for argv in (["sweep", "--p", "0.5", "--preset", "fig2"],
                 ["sweep", "--preset", "fig2", "--p", "0.5"]):
        cfg = parse_args(argv)
        assert cfg.state == "x"
        assert cfg.p == 0.5


FIG2 = {"state": "x", "p": 1.0, "obs": ("x", "y"), "omega": 0.1}


@pytest.mark.parametrize("field, given, expected", [
    ("state", "bell", "bell"),  # the base default: only its being explicit beats fig2's x
    ("p", "0.25", 0.25),
    ("obs", "x,z", ("x", "z")),
    ("omega", "0.2", 0.2),
    pytest.param("obs", " Y , z", ("y", "z"), id="obs-spelled"),  # axes are stripped and lower-cased
])
def test_each_preset_flag_given_explicitly_wins(field, given, expected):
    # the given flag wins on either side of --preset; the three omitted take fig2's values
    for argv in (["sweep", f"--{field}", given, "--preset", "fig2"],
                 ["sweep", "--preset", "fig2", f"--{field}", given]):
        cfg = parse_args(argv)
        assert {name: getattr(cfg, name) for name in FIG2} == {**FIG2, field: expected}, argv


def test_parse_args_parses_once_and_reads_the_terminal_once(monkeypatch):
    calls = {"parse": 0, "terminal": 0}
    parse_known_args = argparse.ArgumentParser.parse_known_args
    get_terminal_size = shutil.get_terminal_size

    def counted_parse(self, *args, **kwargs):
        calls["parse"] += 1
        return parse_known_args(self, *args, **kwargs)

    def counted_terminal(*args, **kwargs):
        calls["terminal"] += 1
        return get_terminal_size(*args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted_parse)
    monkeypatch.setattr(shutil, "get_terminal_size", counted_terminal)
    for argv in (["sweep", "--preset", "fig2", "--steps", "3"],
                 ["sweep", "--p", "0.3", "--obs", "z,x", "--steps", "3"]):
        calls.update(parse=0, terminal=0)
        parse_args(argv)
        assert calls["parse"] == 1, argv
        assert calls["terminal"] <= 1, argv


def test_help_follows_the_terminal_width(monkeypatch, capsys):
    for columns, wide in (("60", False), ("100", True)):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in (["--help"], ["sweep", "--help"]):
            with pytest.raises(SystemExit) as exc:
                parse_args(argv)
            assert exc.value.code == 0
            widest = max(map(len, capsys.readouterr().out.splitlines()))
            assert (widest > 58) == wide, (columns, argv, widest)


def test_parse_args_keeps_no_preset_between_calls():
    fig1, fig2 = ("bell", 0.5, ("x", "y"), 0.1), ("x", 1.0, ("x", "y"), 0.1)
    for first, second, expected in ((["sweep", "--preset", "fig2"], ["sweep"], fig1),
                                    (["sweep"], ["sweep", "--preset", "fig2"], fig2)):
        parse_args(first)
        cfg = parse_args(second)
        assert (cfg.state, cfg.p, cfg.obs, cfg.omega) == expected, (first, second)


def test_parse_rejects_out_of_range_p(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_args(["sweep", "--state", "x", "--p", "1.5"])
    assert exc.value.code == 2
    assert "p must lie in [0, 1]" in capsys.readouterr().err


def test_parse_rejects_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        parse_args(["sweep", "--nope", "1"])
    assert exc.value.code == 2


def test_parse_rejects_malformed_number():
    with pytest.raises(SystemExit) as exc:
        parse_args(["sweep", "--omega", "abc"])
    assert exc.value.code == 2


def test_sweep_help_lists_each_default(capsys):
    texts = []
    for argv in (["--help"], ["sweep", "--help"]):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
        text = " ".join(texts[-1].split())
        for default in ("bell", "0.5", "x,y", "0.1", "0.0", "101", "a", "eur_sweep.csv"):
            assert f"(default {default})" in text, argv
    assert texts[0] == texts[1]


def test_parse_rejects_bad_ranges(capsys):
    for argv, start in (
        (["sweep", "--steps", "1"], "steps "),
        (["sweep", "--a-min", "-1"], "a-min "),
        (["sweep", "--a-min", "5", "--a-max", "1"], "a-max "),
        (["sweep", "--omega", "0"], "omega "),
        (["sweep", "--obs", "x,q"], "obs "),
        (["sweep", "--sweep-var", "r", "--a-max", "1.0"], "r "),
        # a default a-max that fails is blamed on the flag the user set
        (["sweep", "--omega", "1e307"],
         "omega 1e+307 overflows the default a-max 20*omega*2pi; set --a-max"),
        (["sweep", "--a-min", "200"],
         "a-min 200.0 exceeds the default a-max 12.566370614359172; set --a-max"),
        # an r-sweep's a-min above pi/4 is named, whatever --a-max says
        (["sweep", "--sweep-var", "r", "--a-min", "0.9"],
         "r sweep bound must lie in [0, pi/4], got a-min 0.9"),
        (["sweep", "--sweep-var", "r", "--a-min", "0.9", "--a-max", "1"],
         "r sweep bound must lie in [0, pi/4], got a-min 0.9"),
        (["sweep", "--sweep-var", "r", "--a-min", "0.9", "--a-max", "0.5"],
         "r sweep bound must lie in [0, pi/4], got a-min 0.9"),
    ):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert message.startswith(f"eur: error: {start}"), argv


def test_negative_exponent_form_exits_with_one_line_error(capsys):
    # argparse reads -1e-3 after a space as a flag; --help names the = form
    for argv, last in (
        (["sweep", "--a-min", "-1e-3"], "eur: error: argument --a-min: expected one argument"),
        (["sweep", "--a-min=-1e-3"], "eur: error: a-min must be finite and >= 0, got -0.001"),
    ):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == last
        assert err.count("error:") == 1
    with pytest.raises(SystemExit):
        parse_args(["sweep", "--help"])
    assert "--a-min=-1e-3" in "".join(capsys.readouterr().out.split())


def test_parse_rejects_steps_above_the_cap(capsys):
    # a rejected config allocates nothing, so the extreme value is safe here
    with pytest.raises(SystemExit) as exc:
        parse_args(["sweep", "--steps", str(10**12)])
    assert exc.value.code == 2
    assert "steps must lie in [2, 10000000]" in capsys.readouterr().err
    assert parse_args(["sweep", "--steps", str(MAX_STEPS)]).steps == MAX_STEPS


def test_r_sweep_mode_parses_bounds_as_angles():
    cfg = parse_args(["sweep", "--sweep-var", "r", "--a-min", "0", "--a-max", "0.785398"])
    assert cfg.sweep_var == "r"
    assert cfg.a_max == 0.785398


def test_r_sweep_mode_defaults_to_full_angle_range():
    cfg = parse_args(["sweep", "--sweep-var", "r"])
    assert cfg.a_min == 0.0
    assert not reference.outside_budget(cfg.a_max, math.pi / 4)


def test_run_sweep_row_grid():
    cfg = parse_args(["sweep", "--preset", "fig2", "--steps", "11"])
    sweep = run_sweep(cfg)
    for field in FIELDS:
        assert getattr(sweep, field).shape == (11,)
    assert np.all(np.diff(sweep.a) > 0)
    assert sweep.a[0] == 0.0
    assert not reference.outside_budget(sweep.a[-1], cfg.a_max)
    assert bound_violations(sweep.lhs, sweep.berta, sweep.holevo) == []


def test_run_sweep_fig2_anchor_is_zero():
    sweep = run_sweep(parse_args(["sweep", "--preset", "fig2", "--steps", "2"]))
    assert sweep.r[0] == 0.0
    assert not reference.outside_budget([sweep.lhs[0], sweep.berta[0], sweep.holevo[0]], [0.0] * 3)


def test_run_sweep_fig1_anchor_values():
    sweep = run_sweep(parse_args(["sweep", "--preset", "fig1", "--steps", "2"]))
    # berta = 1.5 and holevo = 1 + h(1/4) on the p = 1/2 Bell-diagonal state
    assert not reference.outside_budget([sweep.berta[0], sweep.holevo[0]], [1.5, 1.8112781244591328])


def test_run_sweep_r_mode_has_blank_acceleration():
    cfg = parse_args(
        ["sweep", "--sweep-var", "r", "--a-min", "0", "--a-max", "0.785398", "--steps", "5"]
    )
    sweep = run_sweep(cfg)
    assert sweep.a is None
    assert sweep.r.shape == (5,)
    assert not reference.outside_budget(sweep.r[-1], 0.785398)


@pytest.mark.parametrize("preset", ["fig1", "fig2"])
def test_bound_columns_are_monotone(preset):
    sweep = run_sweep(parse_args(["sweep", "--preset", preset, "--steps", "21"]))
    assert not steps_down(sweep.berta)
    assert not steps_down(sweep.holevo)
    assert np.all(sweep.holevo >= sweep.berta)


def test_emit_csv_layout(tmp_path):
    sweep = sweep_of(
        (0.0, 0.0, 1.0, 0.5, 0.75, 0.25),
        (1.5, 0.25, 1.25, 0.5, 0.8, 0.3),
    )
    out = tmp_path / "rows.csv"
    emit_csv(sweep, str(out))
    text = out.read_text(encoding="ascii")
    assert text.count("\n") == 3
    assert "\r" not in text
    assert text.split("\n")[0] == CSV_HEADER


def test_emit_csv_uses_twelve_significant_digits(tmp_path):
    value = 1.2345678901234567
    out = tmp_path / "digits.csv"
    emit_csv(sweep_of((value,) * 6), str(out))
    body = out.read_text(encoding="ascii").split("\n")[1]
    assert body == ",".join(["1.23456789012"] * 6)


def test_emit_csv_round_trips_within_tolerance(tmp_path):
    cfg = parse_args(["sweep", "--preset", "fig1", "--steps", "7"])
    sweep = run_sweep(cfg)
    out = tmp_path / "round.csv"
    emit_csv(sweep, str(out))
    parsed = read_sweep(out)
    for field in FIELDS:
        value = getattr(sweep, field)
        assert np.all(np.abs(getattr(parsed, field) - value) <= CSV_RTOL * np.abs(value)), field


def test_emit_csv_blank_field_when_sweeping_r(tmp_path):
    cfg = parse_args(
        ["sweep", "--sweep-var", "r", "--a-min", "0", "--a-max", "0.5", "--steps", "3"]
    )
    out = tmp_path / "rmode.csv"
    emit_csv(run_sweep(cfg), str(out))
    for line in out.read_text(encoding="ascii").split("\n")[1:-1]:
        assert line.startswith(",")


def test_emit_csv_rejects_empty_rows(tmp_path):
    empty = Sweep(*(np.empty(0) for _ in FIELDS))
    with pytest.raises(ValueError, match="no rows"):
        emit_csv(empty, str(tmp_path / "empty.csv"))


def test_emit_csv_overwrites_idempotently(tmp_path):
    sweep = run_sweep(parse_args(["sweep", "--preset", "fig2", "--steps", "3"]))
    out = tmp_path / "twice.csv"
    emit_csv(sweep, str(out))
    first = out.read_text(encoding="ascii")
    emit_csv(sweep, str(out))
    assert out.read_text(encoding="ascii") == first


@pytest.mark.parametrize("flags, last_r", [
    (["--preset", "fig2"], math.acos((1.0 + math.exp(-2.0 * math.pi * 0.1 / (4.0 * math.pi))) ** -0.5)),
    # omega/a far below 1e-16: r must land on pi/4, never one ulp past it
    (["--a-min", "1e-300", "--a-max", "1e300"], math.pi / 4),
], ids=["fig2", "extreme-a"])
def test_main_writes_file_and_returns_zero(tmp_path, flags, last_r):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", *flags, "--steps", "5", "--out", str(out)])
    assert code == EXIT_OK
    sweep = read_sweep(out)
    assert sweep.r.shape == (5,)
    assert abs(sweep.r[-1] - last_r) <= CSV_RTOL * last_r
    assert bound_violations(sweep.lhs, sweep.berta, sweep.holevo) == []


@pytest.mark.parametrize("target", ["missing/deep/sweep.csv", ".", "", "/dev/full"],
                         ids=["missing-parent", "directory", "empty", "dev-full"])
def test_main_returns_io_error_for_unwritable_path(tmp_path, capsys, target):
    # /dev/full opens, and its ENOSPC is raised when emit_csv's file closes
    if target == "/dev/full" and not os.path.exists(target):
        pytest.skip("no /dev/full")
    out = target and str(tmp_path / target)  # the empty path stays empty
    code = main(["sweep", "--preset", "fig2", "--steps", "3", f"--out={out}"])
    assert code == EXIT_IO
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}: "), err


def test_main_reports_invariant_violations(tmp_path, monkeypatch, capsys):
    import eur.cli as cli_module

    bad = sweep_of(
        (0.0, 0.0, 0.0, 1.0, 1.0, 0.0),
        (0.0, 0.0, 1.0, 0.5, 0.6, 0.1),
        (1.0, 0.1, 0.5, 0.1, 0.9, 0.8),
    )
    monkeypatch.setattr(cli_module, "run_sweep", lambda cfg: bad)
    out = tmp_path / "never.csv"
    code = cli_module.main(["sweep", "--preset", "fig2", "--out", str(out)])
    assert code == EXIT_INVARIANT
    assert capsys.readouterr().err.splitlines() == [
        "error: row 0: lhs 0 below berta 1",
        "error: row 2: lhs 0.5 below holevo 0.9",
    ]
    assert not out.exists()


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    out = tmp_path / "module.csv"
    result = subprocess.run(
        [sys.executable, "-m", "eur", "sweep", "--preset", "fig1", "--steps", "3",
         "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == EXIT_OK
    assert out.exists()
    assert read_sweep(out).berta[0] == pytest.approx(1.5, abs=reference.budget(1.5))


def test_module_writes_the_file_bytes_to_dev_stdout(tmp_path):
    # a non-regular --out target gets the bytes that a file gets
    import subprocess
    import sys
    from pathlib import Path

    argv = ["sweep", "--preset", "fig1", "--steps", "5", "--out"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-m", "eur", *argv, "/dev/stdout"],
                            capture_output=True, env=env)
    assert result.returncode == EXIT_OK, result.stderr
    out = tmp_path / "fig1.csv"
    assert main([*argv, str(out)]) == EXIT_OK
    assert result.stdout == out.read_bytes()


def test_sweep_config_validates_directly():
    valid = dict(state="bell", p=0.5, obs=("x", "y"), omega=0.1, a_min=0.0, a_max=1.0,
                 steps=5, sweep_var="a", out_path="out.csv")
    for field, value, match in (
        ("steps", 1, "steps"),
        ("steps", 10**12, "steps"),
        ("steps", 10.5, "steps"),  # the grid's np.linspace takes an integer
        ("state", "ghz", "state"),
        ("sweep_var", "omega", "sweep-var must be 'a' or 'r'"),
    ):
        with pytest.raises(ValueError, match=match):
            SweepConfig(**{**valid, field: value})
    assert SweepConfig(**{**valid, "steps": np.int64(5)}).steps == 5


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
