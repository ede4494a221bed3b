"""Argument parsing, sweeps, CSV emission and exit codes."""

import math

import numpy as np
import pytest

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

FIELDS = ("a", "r", "lhs", "berta", "holevo", "delta")


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
    assert cfg.a_max == pytest.approx(20 * 0.1 * 2 * math.pi)
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
    with pytest.raises(SystemExit) as exc:
        parse_args(["sweep", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for default in ("bell", "0.5", "x,y", "0.1", "0.0", "101", "a", "eur_sweep.csv"):
        assert f"(default {default})" in text


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
        (["sweep", "--sweep-var", "r", "--a-min", "0.9"],
         "a-min 0.9 exceeds the default a-max 0.7853981633974483; set --a-max"),
    ):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert message.startswith(f"eur: error: {start}"), argv


def test_negative_exponent_form_exits_with_one_line_error(capsys):
    # argparse reads -1e-3 after a space as a flag; --help names the = form
    for argv, last in (
        (["sweep", "--a-min", "-1e-3"], "eur sweep: error: argument --a-min: expected one argument"),
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
    assert cfg.a_max == pytest.approx(math.pi / 4)


def test_run_sweep_row_grid():
    cfg = parse_args(["sweep", "--preset", "fig2", "--steps", "11"])
    sweep = run_sweep(cfg)
    for field in FIELDS:
        assert getattr(sweep, field).shape == (11,)
    assert np.all(np.diff(sweep.a) > 0)
    assert sweep.a[0] == 0.0
    assert sweep.a[-1] == pytest.approx(cfg.a_max)
    assert bound_violations(sweep.lhs, sweep.berta, sweep.holevo) == []


def test_run_sweep_fig2_anchor_is_zero():
    sweep = run_sweep(parse_args(["sweep", "--preset", "fig2", "--steps", "2"]))
    assert sweep.r[0] == 0.0
    assert abs(sweep.lhs[0]) < 1e-9
    assert abs(sweep.berta[0]) < 1e-9
    assert abs(sweep.holevo[0]) < 1e-9


def test_run_sweep_fig1_anchor_values():
    sweep = run_sweep(parse_args(["sweep", "--preset", "fig1", "--steps", "2"]))
    assert sweep.berta[0] == pytest.approx(1.5, abs=1e-9)
    assert sweep.holevo[0] == pytest.approx(1.8112781244591328, abs=1e-9)


def test_run_sweep_r_mode_has_blank_acceleration():
    cfg = parse_args(
        ["sweep", "--sweep-var", "r", "--a-min", "0", "--a-max", "0.785398", "--steps", "5"]
    )
    sweep = run_sweep(cfg)
    assert sweep.a is None
    assert sweep.r.shape == (5,)
    assert sweep.r[-1] == pytest.approx(0.785398)


@pytest.mark.parametrize("preset", ["fig1", "fig2"])
def test_bound_columns_are_monotone(preset):
    sweep = run_sweep(parse_args(["sweep", "--preset", preset, "--steps", "21"]))
    assert np.all(sweep.berta[1:] >= sweep.berta[:-1] - 1e-9)
    assert np.all(sweep.holevo[1:] >= sweep.holevo[:-1] - 1e-9)
    assert np.all(sweep.holevo >= sweep.berta - 1e-12)


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
        assert getattr(parsed, field) == pytest.approx(getattr(sweep, field), abs=1e-10)


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
    assert sweep.r[-1] == pytest.approx(last_r, abs=1e-12)
    assert bound_violations(sweep.lhs, sweep.berta, sweep.holevo) == []


def test_main_returns_io_error_for_unwritable_path(tmp_path, capsys):
    out = tmp_path / "missing" / "deep" / "sweep.csv"
    code = main(["sweep", "--preset", "fig2", "--steps", "3", "--out", str(out)])
    assert code == EXIT_IO
    assert "cannot write" in capsys.readouterr().err


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
    assert read_sweep(out).berta[0] == pytest.approx(1.5, abs=1e-9)


def test_sweep_config_validates_directly():
    with pytest.raises(ValueError, match="steps"):
        SweepConfig(
            state="bell", p=0.5, obs=("x", "y"), omega=0.1,
            a_min=0.0, a_max=1.0, steps=1, sweep_var="a", out_path="out.csv",
        )
    with pytest.raises(ValueError, match="steps"):
        SweepConfig(
            state="bell", p=0.5, obs=("x", "y"), omega=0.1,
            a_min=0.0, a_max=1.0, steps=10**12, sweep_var="a", out_path="out.csv",
        )
    with pytest.raises(ValueError, match="state"):
        SweepConfig(
            state="ghz", p=0.5, obs=("x", "y"), omega=0.1,
            a_min=0.0, a_max=1.0, steps=5, sweep_var="a", out_path="out.csv",
        )
