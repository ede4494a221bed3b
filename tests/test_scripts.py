"""The scripts: reproduce_figures.py (both preset CSVs, its exit codes) and compare_csv.py
(CSV bytes, library report bits, and changed sweep values against the 40-digit
reference).

Each contract has one table-driven test:

1. `test_reproduce_figures_writes_the_preset_csvs_or_one_error`: the bytes
   `eur sweep` writes for each preset, or an exit code and one error line,
   with nothing created for a rejected --steps;
2. `test_compare_csv_names_each_difference_and_holds_the_rule`: `same`, or
   the first difference of a CSV case or of the library case, a tree that
   fails named once, the 40-digit reference run only for a preset with a
   changed value, and the RULE's verdict, as exit 0 or 1;
3. `test_csv_difference_names_the_first_line_and_counts_the_cells`.

A compare_csv run of one tree under one CASES and STEPS starts one
`python`; every test of this module shares it (`tree_runs`).
"""

import hashlib
import importlib.util
import re
import shutil
import sys
from pathlib import Path

import pytest

import reference
from eur.cli import EXIT_IO, EXIT_OK, main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
COLUMNS = ("a", "r", "lhs", "berta", "holevo", "delta")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# whether a file stands at --outdir, the arguments after --outdir, the
# exit code, and the last stderr line with {outdir} formatted in
FIGURES = {
    "both-presets": (False, ["--steps", "7"], EXIT_OK, None),
    "outdir-is-a-file": (True, [], EXIT_IO,
                         "error: cannot create {outdir}: [Errno 17] File exists: {outdir!r}"),
    # the script's own parser rejects it, before --outdir is created
    "bad-steps": (False, ["--steps", "1"], 2,
                  "reproduce_figures.py: error: steps must lie in [2, 10000000], got 1"),
}


@pytest.mark.parametrize("case", FIGURES)
def test_reproduce_figures_writes_the_preset_csvs_or_one_error(tmp_path, monkeypatch, capsys,
                                                               case):
    blocked, argv, code, last = FIGURES[case]
    monkeypatch.setattr(sys, "argv", ["reproduce_figures.py"])  # argparse's prog
    outdir = tmp_path / "figures" / "nested"
    if blocked:
        outdir.parent.mkdir()
        outdir.write_text("")
    try:
        got = load_script("reproduce_figures").main(["--outdir", str(outdir), *argv])
    except SystemExit as exc:
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code
    if code != EXIT_OK:
        assert out == "" and err.count("error:") == 1
        assert err.splitlines()[-1] == last.format(outdir=str(outdir))
        assert outdir.is_file() if blocked else not outdir.exists()
        return
    assert (out, err) == ("".join(f"wrote {outdir / name}.csv\n" for name in ("fig1", "fig2")), "")
    for preset in ("fig1", "fig2"):
        expected = tmp_path / f"{preset}.csv"
        assert main(["sweep", "--preset", preset, "--steps", "7", f"--out={expected}"]) == EXIT_OK
        assert (outdir / f"{preset}.csv").read_bytes() == expected.read_bytes()


@pytest.fixture(scope="module")
def tree_runs():
    """{(digest of a tree's files, CASES, STEPS): `tree_results`}, for every test of this module."""
    return {}


@pytest.fixture
def compare_csv(monkeypatch, tree_runs):
    """compare_csv.py, its RULE sweeps at 3 grid points, running each
    (tree, CASES, STEPS) once in this module."""
    module = load_script("compare_csv")
    monkeypatch.setattr(module, "STEPS", 3)
    run = module.tree_results

    def shared(src):
        digest = hashlib.sha256()
        for path in sorted(src.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
        key = (digest.hexdigest(), repr(module.CASES), module.STEPS)
        if key not in tree_runs:
            tree_runs[key] = run(src)
        return tree_runs[key]

    monkeypatch.setattr(module, "tree_results", shared)
    return module


CSV_CASES = [("--preset", "fig1", "--steps", "5"), ("--p", "2")]
SAME_CASES = "same    --preset fig1 --steps 5\nsame    --p 2\n"
SAME = "same    library reports\n"
HEADER = "a,r,lhs,berta,holevo,delta"


def rule(changed=(), failures=""):
    """compare_csv's RULE lines when the `changed` columns of both presets
    move at all 3 grid points, each line with these `failures`."""
    measured = "summed |value - reference| ~ -> ~"
    lines = [f"{preset} {column}: 3 changed, {measured}, worst ~ of the budget{failures}\n"
             if column in changed else f"{preset} {column}: 0 changed\n"
             for preset in ("fig1", "fig2") for column in COLUMNS]
    total = f"6 changed, {measured}" if changed else "0 changed, summed |value - reference| 0 -> 0"
    return "".join(lines) + f"all columns: {total}\nRULE {'FAILS' if failures else 'holds'}\n"


def shift_delta(shift):
    """An edit that moves cli.py's delta column by `shift`."""
    delta = "report.holevo_bound, report.delta"
    return ("eur/cli.py", delta, f"{delta} + {shift}")


# CASES; the base tree's edit and this tree's, each (file under src, old
# text, new text), or None for this checkout's src; the exit code; and the
# output, ~ standing for any text within a line
COMPARED = {
    "unchanged": (CSV_CASES, None, None, 0, SAME_CASES + SAME + rule()),
    "csv-header": (
        CSV_CASES, ("eur/cli.py", 'CSV_HEADER = "a,r,', 'CSV_HEADER = "a,angle,'), None, 1,
        f"DIFFERS --preset fig1 --steps 5: line 1: a,angle,lhs,berta,holevo,delta != {HEADER}; "
        "1 cells differ, largest |difference| 0\nsame    --p 2\n" + SAME + rule()),
    # the base tree's delta is 2**-20 (exact in binary) off the reference,
    # and this tree's is not: the RULE holds, and the differing CSV alone
    # gives exit 1
    "csv-value": (CSV_CASES, shift_delta("-2.0**-20"), None, 1,
                  "DIFFERS --preset fig1 --steps 5: line 2: ~ != ~; 5 cells differ, "
                  "largest |difference| 9.54e-07\nsame    --p 2\n" + SAME + rule(["delta"])),
    # a case that exits non-zero in one tree is named by its exit status and
    # last stderr line; one that exits 2 with the same message in both is the same
    "csv-exit": (
        CSV_CASES, ("eur/cli.py", "MAX_STEPS = 10**7", "MAX_STEPS = 4"), None, 1,
        "DIFFERS --preset fig1 --steps 5: line 1: <exit 2: eur: error: steps must lie in [2, 4], "
        f"got 5> != {HEADER}; 36 cells differ, largest |difference| 0\nsame    --p 2\n"
        + SAME + rule()),
    # a field that no CSV column holds, shifted by 2**-20 at every input
    "report-value": (
        CSV_CASES, ("eur/bounds.py", "        i_ab=i_ab,\n", "        i_ab=i_ab + 2.0**-20,\n"),
        None, 1, SAME_CASES + "DIFFERS library reports: i_ab of input 0\n" + rule()),
    # the same value, of another type
    "report-type": (
        CSV_CASES, ("eur/bounds.py", "        c=c,\n", "        c=np.float64(c),\n"), None, 1,
        SAME_CASES + "DIFFERS library reports: c of input 0\n" + rule()),
    # a tree whose evaluation fails is named with its exit status, once: it
    # has no CSVs to compare and no sweeps to hold to the RULE
    "tree-fails": (CSV_CASES, ("eur/bounds.py", "        c=c,\n", "        c=1 / 0,\n"), None, 1,
                   "DIFFERS library reports: <exit 1: ZeroDivisionError: division by zero>\n"),
    # 3 and 4 * 2**-47 are about 96 and 128 eps: inside the budget at every
    # delta, and far above roundoff, so the summed error goes as 3 to 4
    "rule-holds": ([], shift_delta("4 * 2.0**-47"), shift_delta("3 * 2.0**-47"), 0,
                   SAME + rule(["delta"])),
    "rule-fails-as-the-error-grows": (
        [], shift_delta("3 * 2.0**-47"), shift_delta("4 * 2.0**-47"), 1,
        SAME + rule(["delta"], "; FAILS: summed error grows")),
    "rule-fails-outside-the-budget": (
        [], None, shift_delta("1e-9"), 1,
        SAME + rule(["delta"], "; FAILS: outside the budget; FAILS: summed error grows")),
}


@pytest.mark.parametrize("case", COMPARED)
def test_compare_csv_names_each_difference_and_holds_the_rule(tmp_path, monkeypatch, capsys,
                                                              compare_csv, case):
    cases, base_edit, this_edit, code, expected = COMPARED[case]
    monkeypatch.setattr(compare_csv, "CASES", cases)

    def tree(name, edit):
        if edit is None:
            return compare_csv.SRC
        path, old, new = edit
        shutil.copytree(compare_csv.SRC, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        source = tmp_path / name / path
        assert source.read_text().count(old) == 1
        source.write_text(source.read_text().replace(old, new))
        return tmp_path / name

    runs = []
    sweep = reference.sweep
    monkeypatch.setattr(reference, "sweep", lambda cfg: runs.append(cfg) or sweep(cfg))
    base = tree("base", base_edit)
    monkeypatch.setattr(compare_csv, "SRC", tree("this", this_edit))  # in place of this checkout's
    assert compare_csv.main([str(base)]) == code
    out = capsys.readouterr().out
    assert re.fullmatch(re.escape(expected).replace(re.escape("~"), "[^\n]*"), out), out
    # the reference runs once for each preset with a changed value, and never otherwise
    assert len(runs) == len({line.split()[0] for line in out.splitlines()
                             if re.fullmatch(r"fig[12] \w+: [1-9].*", line)})


@pytest.mark.parametrize("base, this, text", [
    (b"a,b\n1,2\n", b"a,b\n", "line 2: 1,2 != <end>; 2 cells differ, largest |difference| 0"),
    # a line that reads <end> is not taken for the padding of the shorter file
    (b"x\n<end>\n", b"x\n", "line 2: <end> != <end>; 1 cells differ, largest |difference| 0"),
    (b"a\n1.5\n", b"a\n1.25\n", "line 2: 1.5 != 1.25; 1 cells differ, largest |difference| 0.25"),
    (b"a,b\r\n1,2\r\n", b"a,b\n1,2\n", "line endings differ; 0 cells differ, largest |difference| 0"),
], ids=["shorter", "end-line", "number", "line-endings"])
def test_csv_difference_names_the_first_line_and_counts_the_cells(base, this, text, compare_csv):
    assert compare_csv.csv_difference(base, this) == text
