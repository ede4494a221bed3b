"""The scripts: reproduce_figures.py (both preset CSVs, its exit codes) and compare_csv.py
(CSV bytes, library report bits, and changed sweep values against the 40-digit
reference)."""

import importlib.util
import shutil
from pathlib import Path

import pytest

import reference
from eur.cli import EXIT_IO, EXIT_OK, main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
COLUMNS = ("a", "r", "lhs", "berta", "holevo", "delta")
# compare_csv's RULE lines for two trees whose sweeps have the same bits
RULE_HOLDS_UNCHANGED = "".join(
    f"{preset} {column}: 0 changed\n" for preset in ("fig1", "fig2") for column in COLUMNS
) + "all columns: 0 changed, summed |value - reference| 0 -> 0\nRULE holds\n"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def reproduce_figures():
    return load_script("reproduce_figures")


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


@pytest.fixture
def compare_csv(monkeypatch):
    """compare_csv.py, its RULE sweeps at 3 grid points."""
    module = load_script("compare_csv")
    monkeypatch.setattr(module, "STEPS", 3)
    return module


def test_compare_csv_names_the_first_differing_line(tmp_path, monkeypatch, capsys, compare_csv):
    monkeypatch.setattr(compare_csv, "CASES", [("--preset", "fig1", "--steps", "5")])
    assert compare_csv.main([str(compare_csv.SRC)]) == 0
    assert capsys.readouterr().out == (
        "same    --preset fig1 --steps 5\nsame    library reports\n" + RULE_HOLDS_UNCHANGED)

    changed = tmp_path / "src"
    shutil.copytree(compare_csv.SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "eur" / "cli.py"
    cli.write_text(cli.read_text().replace('CSV_HEADER = "a,r,', 'CSV_HEADER = "a,angle,'))
    assert compare_csv.main([str(changed)]) == 1
    assert capsys.readouterr().out == (
        "DIFFERS --preset fig1 --steps 5: line 1: "
        "a,angle,lhs,berta,holevo,delta != a,r,lhs,berta,holevo,delta; "
        "1 cells differ, largest |difference| 0\n"
        "same    library reports\n" + RULE_HOLDS_UNCHANGED
    )

    # shift the delta column by 2**-20 (exact in binary): five cells, one per row
    cli.write_text(cli.read_text().replace(
        'CSV_HEADER = "a,angle,', 'CSV_HEADER = "a,r,').replace(
        "report.holevo_bound, report.delta", "report.holevo_bound, report.delta - 2.0**-20"))
    assert compare_csv.main([str(changed)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("DIFFERS --preset fig1 --steps 5: line 2: ")
    assert "; 5 cells differ, largest |difference| 9.54e-07\nsame    library reports\n" in out
    # the base tree's delta is 2**-20 off the reference and this tree's is
    # not: the RULE holds, and the differing CSV alone gives exit 1
    assert out.count(": 3 changed, ") == 2 and "FAILS" not in out
    assert out.endswith("\nRULE holds\n")

    # a case that exits non-zero in one tree is named by its exit status and
    # last stderr line; one that exits 2 with the same message in both is the same
    cli.write_text((compare_csv.SRC / "eur" / "cli.py").read_text().replace(
        "MAX_STEPS = 10**7", "MAX_STEPS = 4"))
    monkeypatch.setattr(compare_csv, "CASES", [("--preset", "fig1", "--steps", "5"), ("--p", "2")])
    assert compare_csv.main([str(changed)]) == 1
    assert capsys.readouterr().out == (
        "DIFFERS --preset fig1 --steps 5: line 1: <exit 2: eur: error: steps must lie in "
        "[2, 4], got 5> != a,r,lhs,berta,holevo,delta; 36 cells differ, largest |difference| 0\n"
        "same    --p 2\nsame    library reports\n" + RULE_HOLDS_UNCHANGED)


@pytest.mark.parametrize("base, this, text", [
    (b"a,b\n1,2\n", b"a,b\n", "line 2: 1,2 != <end>; 2 cells differ, largest |difference| 0"),
    # a line that reads <end> is not taken for the padding of the shorter file
    (b"x\n<end>\n", b"x\n", "line 2: <end> != <end>; 1 cells differ, largest |difference| 0"),
    (b"a\n1.5\n", b"a\n1.25\n", "line 2: 1.5 != 1.25; 1 cells differ, largest |difference| 0.25"),
    (b"a,b\r\n1,2\r\n", b"a,b\n1,2\n", "line endings differ; 0 cells differ, largest |difference| 0"),
], ids=["shorter", "end-line", "number", "line-endings"])
def test_csv_difference_names_the_first_line_and_counts_the_cells(base, this, text, compare_csv):
    assert compare_csv.csv_difference(base, this) == text


def test_compare_csv_names_the_first_differing_report_field(tmp_path, monkeypatch, capsys,
                                                           compare_csv):
    monkeypatch.setattr(compare_csv, "CASES", [])
    changed = tmp_path / "src"
    shutil.copytree(compare_csv.SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    bounds = changed / "eur" / "bounds.py"
    original = bounds.read_text()
    assert original.count("        i_ab=i_ab,\n") == 1 and original.count("        c=c,\n") == 1

    # a field that no CSV column holds, shifted by 2**-20 at every input
    bounds.write_text(original.replace("        i_ab=i_ab,\n", "        i_ab=i_ab + 2.0**-20,\n"))
    assert compare_csv.main([str(changed)]) == 1
    assert capsys.readouterr().out == (
        "DIFFERS library reports: i_ab of input 0\n" + RULE_HOLDS_UNCHANGED)

    # the same value, of another type
    bounds.write_text(original.replace("        c=c,\n", "        c=np.float64(c),\n"))
    assert compare_csv.main([str(changed)]) == 1
    assert capsys.readouterr().out == (
        "DIFFERS library reports: c of input 0\n" + RULE_HOLDS_UNCHANGED)

    # a tree whose evaluation fails is named with its exit status, once: it
    # has no CSVs to compare and no sweeps to hold to the RULE
    monkeypatch.setattr(compare_csv, "CASES", [("--preset", "fig1", "--steps", "5")])
    bounds.write_text(original.replace("        c=c,\n", "        c=1 / 0,\n"))
    assert compare_csv.main([str(changed)]) == 1
    assert capsys.readouterr().out == (
        "DIFFERS library reports: <exit 1: ZeroDivisionError: division by zero>\n")


def test_compare_csv_runs_no_reference_for_an_unchanged_tree(monkeypatch, capsys, compare_csv):
    def refuse(cfg):
        raise AssertionError("the reference ran on an unchanged tree")

    monkeypatch.setattr(reference, "sweep", refuse)
    monkeypatch.setattr(compare_csv, "CASES", [])
    assert compare_csv.main([str(compare_csv.SRC)]) == 0
    assert capsys.readouterr().out == "same    library reports\n" + RULE_HOLDS_UNCHANGED


def test_compare_csv_measures_changed_values_against_the_reference(tmp_path, monkeypatch,
                                                                   capsys, compare_csv):
    monkeypatch.setattr(compare_csv, "CASES", [])
    assert compare_csv.main([str(compare_csv.SRC)]) == 0
    assert capsys.readouterr().out.splitlines() == ["same    library reports"] + [
        f"{preset} {column}: 0 changed" for preset in ("fig1", "fig2") for column in COLUMNS
    ] + ["all columns: 0 changed, summed |value - reference| 0 -> 0", "RULE holds"]

    def shifted(name, shift):
        """A copy of src whose delta column is moved by `shift`."""
        tree = tmp_path / name
        shutil.copytree(compare_csv.SRC, tree, ignore=shutil.ignore_patterns("__pycache__"))
        cli = tree / "eur" / "cli.py"
        original = cli.read_text()
        assert original.count("report.holevo_bound, report.delta") == 1
        cli.write_text(original.replace("report.holevo_bound, report.delta",
                                        f"report.holevo_bound, report.delta + {shift}"))
        return tree

    # 3 and 4 * 2**-47 are about 96 and 128 eps: inside the budget at every
    # delta, and far above roundoff, so the summed error goes as 3 to 4
    three, four = shifted("three", "3 * 2.0**-47"), shifted("four", "4 * 2.0**-47")
    for base, this, failures in (
        (four, three, ""),
        (three, four, "; FAILS: summed error grows"),
        (compare_csv.SRC, shifted("far", "1e-9"),
         "; FAILS: outside the budget; FAILS: summed error grows"),
    ):
        monkeypatch.setattr(compare_csv, "SRC", this)  # in place of this checkout's src
        assert compare_csv.main([str(base)]) == (1 if failures else 0)
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == ("RULE FAILS" if failures else "RULE holds")
        assert out[-2].startswith("all columns: 6 changed, summed |value - reference| ")
        assert out[0] == "same    library reports"
        for line in out[1:-2]:
            if line.split(":")[0] in ("fig1 delta", "fig2 delta"):
                assert ": 3 changed, summed |value - reference| " in line
                assert line.endswith(failures) and ("FAILS" in line) == bool(failures)
            else:
                assert line.endswith(": 0 changed")
