"""Argument parsing, sweeps, CSV emission and exit codes."""

import math

import pytest

from eur.cli import (
    CSV_HEADER,
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    SweepConfig,
    SweepRow,
    emit_csv,
    main,
    parse_args,
    row_violation,
    run_sweep,
)


def read_rows(path):
    lines = path.read_text(encoding="ascii").split("\n")
    assert lines[-1] == ""  # trailing LF
    header, *body = lines[:-1]
    assert header == CSV_HEADER
    rows = []
    for line in body:
        fields = line.split(",")
        rows.append(
            SweepRow(
                a=None if fields[0] == "" else float(fields[0]),
                r=float(fields[1]),
                lhs=float(fields[2]),
                berta=float(fields[3]),
                holevo=float(fields[4]),
                delta=float(fields[5]),
            )
        )
    return rows


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


def test_parse_rejects_bad_ranges(capsys):
    for argv in (
        ["sweep", "--steps", "1"],
        ["sweep", "--a-min", "-1"],
        ["sweep", "--a-min", "5", "--a-max", "1"],
        ["sweep", "--omega", "0"],
        ["sweep", "--obs", "x,q"],
        ["sweep", "--sweep-var", "r", "--a-max", "1.0"],
    ):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2


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
    rows = run_sweep(cfg)
    assert len(rows) == 11
    accelerations = [row.a for row in rows]
    assert accelerations == sorted(accelerations)
    assert accelerations[0] == 0.0
    assert accelerations[-1] == pytest.approx(cfg.a_max)
    for row in rows:
        assert row_violation(row) is None


def test_run_sweep_fig2_anchor_is_zero():
    rows = run_sweep(parse_args(["sweep", "--preset", "fig2", "--steps", "2"]))
    first = rows[0]
    assert first.r == 0.0
    assert abs(first.lhs) < 1e-9
    assert abs(first.berta) < 1e-9
    assert abs(first.holevo) < 1e-9


def test_run_sweep_fig1_anchor_values():
    rows = run_sweep(parse_args(["sweep", "--preset", "fig1", "--steps", "2"]))
    first = rows[0]
    assert first.berta == pytest.approx(1.5, abs=1e-9)
    assert first.holevo == pytest.approx(1.8112781244591328, abs=1e-9)


def test_run_sweep_r_mode_has_blank_acceleration():
    cfg = parse_args(
        ["sweep", "--sweep-var", "r", "--a-min", "0", "--a-max", "0.785398", "--steps", "5"]
    )
    rows = run_sweep(cfg)
    assert all(row.a is None for row in rows)
    assert rows[-1].r == pytest.approx(0.785398)


@pytest.mark.parametrize("preset", ["fig1", "fig2"])
def test_bound_columns_are_monotone(preset):
    rows = run_sweep(parse_args(["sweep", "--preset", preset, "--steps", "21"]))
    for earlier, later in zip(rows, rows[1:]):
        assert later.berta >= earlier.berta - 1e-9
        assert later.holevo >= earlier.holevo - 1e-9
        assert later.holevo >= later.berta - 1e-12


def test_emit_csv_layout(tmp_path):
    rows = [
        SweepRow(a=0.0, r=0.0, lhs=1.0, berta=0.5, holevo=0.75, delta=0.25),
        SweepRow(a=1.5, r=0.25, lhs=1.25, berta=0.5, holevo=0.8, delta=0.3),
    ]
    out = tmp_path / "rows.csv"
    emit_csv(rows, str(out))
    text = out.read_text(encoding="ascii")
    assert text.count("\n") == 3
    assert "\r" not in text
    assert text.split("\n")[0] == CSV_HEADER


def test_emit_csv_uses_twelve_significant_digits(tmp_path):
    value = 1.2345678901234567
    rows = [SweepRow(a=value, r=value, lhs=value, berta=value, holevo=value, delta=value)]
    out = tmp_path / "digits.csv"
    emit_csv(rows, str(out))
    body = out.read_text(encoding="ascii").split("\n")[1]
    assert body == ",".join(["1.23456789012"] * 6)


def test_emit_csv_round_trips_within_tolerance(tmp_path):
    cfg = parse_args(["sweep", "--preset", "fig1", "--steps", "7"])
    rows = run_sweep(cfg)
    out = tmp_path / "round.csv"
    emit_csv(rows, str(out))
    parsed = read_rows(out)
    assert len(parsed) == len(rows)
    for original, reread in zip(rows, parsed):
        for field in ("a", "r", "lhs", "berta", "holevo", "delta"):
            assert getattr(reread, field) == pytest.approx(
                getattr(original, field), abs=1e-10
            )


def test_emit_csv_blank_field_when_sweeping_r(tmp_path):
    cfg = parse_args(
        ["sweep", "--sweep-var", "r", "--a-min", "0", "--a-max", "0.5", "--steps", "3"]
    )
    out = tmp_path / "rmode.csv"
    emit_csv(run_sweep(cfg), str(out))
    for line in out.read_text(encoding="ascii").split("\n")[1:-1]:
        assert line.startswith(",")


def test_emit_csv_rejects_empty_rows(tmp_path):
    with pytest.raises(ValueError, match="no rows"):
        emit_csv([], str(tmp_path / "empty.csv"))


def test_emit_csv_overwrites_idempotently(tmp_path):
    rows = run_sweep(parse_args(["sweep", "--preset", "fig2", "--steps", "3"]))
    out = tmp_path / "twice.csv"
    emit_csv(rows, str(out))
    first = out.read_text(encoding="ascii")
    emit_csv(rows, str(out))
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
    rows = read_rows(out)
    assert len(rows) == 5
    assert rows[-1].r == pytest.approx(last_r, abs=1e-12)
    for row in rows:
        assert row_violation(row) is None


def test_main_returns_io_error_for_unwritable_path(tmp_path, capsys):
    out = tmp_path / "missing" / "deep" / "sweep.csv"
    code = main(["sweep", "--preset", "fig2", "--steps", "3", "--out", str(out)])
    assert code == EXIT_IO
    assert "cannot write" in capsys.readouterr().err


def test_main_reports_invariant_violations(tmp_path, monkeypatch, capsys):
    import eur.cli as cli_module

    good = SweepRow(a=0.0, r=0.0, lhs=1.0, berta=0.5, holevo=0.6, delta=0.1)
    bad = [
        SweepRow(a=0.0, r=0.0, lhs=0.0, berta=1.0, holevo=1.0, delta=0.0),
        good,
        SweepRow(a=1.0, r=0.1, lhs=0.5, berta=0.1, holevo=0.9, delta=0.8),
    ]
    monkeypatch.setattr(cli_module, "run_sweep", lambda cfg: bad)
    out = tmp_path / "never.csv"
    code = cli_module.main(["sweep", "--preset", "fig2", "--out", str(out)])
    assert code == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "row 0" in err and "row 2" in err
    assert "row 1" not in err
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
    assert read_rows(out)[0].berta == pytest.approx(1.5, abs=1e-9)


def test_row_violation_detects_each_invariant():
    good = SweepRow(a=0.0, r=0.0, lhs=1.0, berta=0.5, holevo=0.6, delta=0.1)
    assert row_violation(good) is None
    assert "berta" in row_violation(
        SweepRow(a=0.0, r=0.0, lhs=0.1, berta=0.5, holevo=0.1, delta=0.0)
    )
    assert "holevo" in row_violation(
        SweepRow(a=0.0, r=0.0, lhs=0.5, berta=0.1, holevo=0.9, delta=0.8)
    )
    assert row_violation(
        SweepRow(a=0.0, r=0.0, lhs=1.0, berta=0.5, holevo=0.4, delta=0.0)
    ) is not None


def test_sweep_config_validates_directly():
    with pytest.raises(ValueError, match="steps"):
        SweepConfig(
            state="bell", p=0.5, obs=("x", "y"), omega=0.1,
            a_min=0.0, a_max=1.0, steps=1, sweep_var="a", out_path="out.csv",
        )
    with pytest.raises(ValueError, match="state"):
        SweepConfig(
            state="ghz", p=0.5, obs=("x", "y"), omega=0.1,
            a_min=0.0, a_max=1.0, steps=5, sweep_var="a", out_path="out.csv",
        )
