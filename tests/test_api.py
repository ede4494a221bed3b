"""Top-level package surface."""

import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import eur

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    for name in eur.__all__:
        assert getattr(eur, name) is not None


def test_version_string():
    major, minor, patch = eur.__version__.split(".")
    assert all(part.isdigit() for part in (major, minor, patch))


def _word_counts(paths) -> Counter:
    return Counter(word for path in paths for word in re.findall(r"\w+", path.read_text(encoding="utf-8")))


def test_every_exported_name_has_a_user():
    # an export stays only if the documentation, an acceptance test, a
    # script or the benchmark names it, or the package itself uses it
    # (a definition plus at least one more mention)
    documented = _word_counts([
        ROOT / "README.md",
        ROOT / "tests" / "test_acceptance.py",
        *ROOT.glob("scripts/**/*.py"),
        *ROOT.glob("perfbench/**/*.py"),
        *ROOT.glob("perfbench/**/*.md"),
    ])
    package = _word_counts(p for p in (ROOT / "src" / "eur").glob("*.py") if p.name != "__init__.py")
    unused = [name for name in eur.__all__ if not documented[name] and package[name] < 2]
    assert not unused, f"exported but used nowhere: {unused}"


def _bad_basis(x):
    basis = np.eye(2, dtype=complex)
    basis[0, 0] = x
    return basis


def _bad_state(x):
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 0] = x
    return rho


NON_FINITE_ENTRY_POINTS = {
    "ProjectiveObservable": lambda x: eur.ProjectiveObservable("q", _bad_basis(x)),
    "validate_kraus": lambda x: eur.validate_kraus(_bad_basis(x)[None]),
    "from_pure": lambda x: eur.from_pure([x, 0.0]),
    "bell_diagonal_state": lambda x: eur.bell_diagonal_state(x, 0.0, 0.0),
    "hermitian_eigensystem": lambda x: eur.hermitian_eigensystem(np.diag([x, 1.0])),
    "kraus_from_choi": lambda x: eur.kraus_from_choi(np.full((4, 4), x)),
    "evaluate_eur": lambda x: eur.evaluate_eur(
        eur.pauli_observable("x"), eur.pauli_observable("y"), _bad_state(x)),
}


# inf - inf inside a deviation is NaN, which the checks reject; numpy warns
# about that subtraction on the way, and only the ValueError is pinned here
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry_point", NON_FINITE_ENTRY_POINTS)
def test_checks_reject_non_finite_input(entry_point, value):
    with pytest.raises(ValueError) as raised:
        NON_FINITE_ENTRY_POINTS[entry_point](value)
    assert raised.type is ValueError  # not numpy's LinAlgError subclass
