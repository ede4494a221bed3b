"""Tests for the raw-numpy oracle against the CLI's CSV output."""

import itertools
import math

import numpy as np

import eur
import eur.cli
import oracle
import workloads

FIG1 = dict(workloads.PRESETS["fig1"], sweep_var="a", a_min=0.0, a_max=20 * 0.1 * 2 * math.pi, steps=21)
FIG2 = dict(workloads.PRESETS["fig2"], sweep_var="r", a_min=0.0, a_max=math.pi / 4, steps=21)


def sweep_csv(tmp_path, argv):
    out = tmp_path / "sweep.csv"
    assert eur.cli.main(argv + ["--out", str(out)]) == 0
    return out.read_text()


def test_oracle_accepts_both_presets(tmp_path):
    text = sweep_csv(tmp_path, ["sweep", "--preset", "fig1", "--steps", "21"])
    assert oracle.check_sweep(text, FIG1, oracle.sweep_grid(FIG1)) == []
    text = sweep_csv(tmp_path, ["sweep", "--preset", "fig2", "--sweep-var", "r", "--steps", "21"])
    assert oracle.check_sweep(text, FIG2, oracle.sweep_grid(FIG2)) == []


def test_oracle_flags_a_row_perturbed_by_1e_6(tmp_path):
    text = sweep_csv(tmp_path, ["sweep", "--preset", "fig1", "--steps", "21"])
    lines = text.split("\n")
    fields = lines[7].split(",")
    fields[2] = format(float(fields[2]) + 1e-6, ".12g")  # lhs; upward keeps lhs >= holevo
    lines[7] = ",".join(fields)
    problems = oracle.check_sweep("\n".join(lines), FIG1, oracle.sweep_grid(FIG1))
    assert problems == [("column lhs off at 1 rows, first 6", False)]


def test_oracle_names_the_acos_precision_loss():
    # a/omega = 0.17 puts r near 1e-8, where the acos form is off by ~1e-9
    cfg = dict(FIG1, omega=1.0, a_min=0.17, a_max=0.18, steps=2)
    expected = oracle.sweep_grid(cfg)
    got = dict(expected)
    got["r"] = oracle.mixing_angle_acos(expected["a"], cfg["omega"])
    assert "r" in oracle.mismatches(got, expected, oracle.COLUMNS)
    text = oracle.CSV_HEADER + "\n" + "".join(
        ",".join(format(got[c][i], ".12g") for c in oracle.COLUMNS) + "\n" for i in range(2))
    assert oracle.check_sweep(text, cfg, expected) == [("acos precision loss in r", True)]


def test_oracle_agrees_with_the_library_on_general_states():
    rng = np.random.default_rng(7)
    rho = np.stack([workloads.random_state(rng) for _ in range(8)])
    r = rng.uniform(0.0, math.pi / 4, size=8)
    bases = np.stack([[workloads.random_basis(rng), workloads.random_basis(rng)] for _ in range(8)])
    expected = oracle.evaluate(oracle.evolve(rho, r), bases[:, 0], bases[:, 1])
    for k in range(8):
        q = eur.ProjectiveObservable("q", bases[k, 0])
        o = eur.ProjectiveObservable("o", bases[k, 1])
        channel = eur.kraus_from_choi(eur.choi(eur.unruh_channel(float(r[k]))))
        report = eur.evaluate_eur(q, o, eur.apply_to_memory(channel, rho[k]))
        check = workloads._library_check({n: v[k:k + 1] for n, v in expected.items()})
        assert check(report, None) == []
        bumped = eur.bounds.EurReport(**{**report.__dict__, "lhs": report.lhs + 1e-6})
        assert check(bumped, None) == [("lhs off by more than 1e-09", False)]


def test_large_a_crash_is_a_known_failure(tmp_path):
    cfg = dict(FIG1, a_max=1e17, steps=3)
    argv = workloads.cli_argv(cfg, str(tmp_path / "c.csv"))
    check = workloads._sweep_check(cfg, str(tmp_path / "c.csv"))
    try:
        code, error = eur.cli.main(argv), None
    except ValueError as exc:
        code, error = None, exc
    problems = check(code, error)
    if error is None:  # the crash has been fixed: the rows must then match
        assert problems == []
    else:
        assert len(problems) == 1 and problems[0][1] is True


def test_known_defect_prediction_covers_both_defects():
    base = dict(FIG1, omega=1.0, a_min=0.0, steps=2)
    assert oracle.reaches_known_defect(dict(base, a_max=1e17))
    assert oracle.reaches_known_defect(dict(base, a_min=0.17, a_max=0.18))
    assert not oracle.reaches_known_defect(dict(base, a_max=10.0))
    assert not oracle.reaches_known_defect(dict(FIG2, a_min=0.0, a_max=1e-8))


def test_cli_small_avoids_the_defects_the_probe_reaches(tmp_path):
    out = str(tmp_path / "c.csv")
    ops = list(itertools.islice(workloads.cli_small(eur, 5, out), 62))
    assert sorted(op.points for op in ops[:31]) == list(range(2, 33))
    for op in ops:
        workloads.remove_output(op)
        assert op.check(op.call(), None) == []
    draws, probe = workloads.defect_probe(eur, 5, out)
    assert draws == workloads.PROBE_DRAWS and 0 < len(probe) < draws / 4
