"""scripts/reproduce_figures.py: both preset CSVs, and its exit codes."""

import importlib.util
from pathlib import Path

import pytest

from eur.cli import EXIT_IO, EXIT_OK, main

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_figures.py"


@pytest.fixture(scope="module")
def reproduce_figures():
    spec = importlib.util.spec_from_file_location("reproduce_figures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_script_writes_both_preset_csvs(tmp_path, reproduce_figures, capsys):
    outdir = tmp_path / "figures" / "nested"
    assert reproduce_figures.main(["--outdir", str(outdir), "--steps", "7"]) == EXIT_OK
    for preset in ("fig1", "fig2"):
        expected = tmp_path / f"{preset}.csv"
        assert main(["sweep", "--preset", preset, "--steps", "7", "--out", str(expected)]) == EXIT_OK
        assert (outdir / f"{preset}.csv").read_bytes() == expected.read_bytes()
    assert capsys.readouterr().out.count("wrote ") == 2


def test_script_returns_io_error_when_outdir_is_a_file(tmp_path, reproduce_figures, capsys):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    assert reproduce_figures.main(["--outdir", str(blocker)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create") and err.count("\n") == 1


def test_script_rejects_bad_steps_before_creating_outdir(tmp_path, reproduce_figures, capsys):
    outdir = tmp_path / "fresh"
    with pytest.raises(SystemExit) as exc:
        reproduce_figures.main(["--outdir", str(outdir), "--steps", "1"])
    assert exc.value.code == 2
    assert not outdir.exists()
    err = capsys.readouterr().err
    assert "usage: eur" not in err
    assert "steps must lie in [2, " in err
