"""Top-level package surface."""

import ast
import inspect
import re
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


def _code_references(sources) -> set:
    """Every name that the Python sources read: a `Name`, the attribute of
    an `Attribute`, or an imported name. Definitions, comments, docstrings
    and prose count for nothing."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def _public_methods(cls) -> list:
    return [name for name, value in vars(cls).items() if not name.startswith("_")
            and (inspect.isfunction(value) or isinstance(value, (staticmethod, classmethod, property)))]


def test_every_exported_name_has_a_user():
    # an export, or a public method of an exported class, stays only if
    # code reads it: another package module, a script, the benchmark (not
    # its tests), an acceptance test or a README example
    paths = [
        *(p for p in (ROOT / "src" / "eur").glob("*.py") if p.name != "__init__.py"),
        *ROOT.glob("scripts/**/*.py"),
        *ROOT.glob("perfbench/*.py"),
        ROOT / "tests" / "test_acceptance.py",
    ]
    readme = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
    used = _code_references([*(p.read_text(encoding="utf-8") for p in paths), *readme])
    classes = [name for name in eur.__all__ if inspect.isclass(getattr(eur, name))]
    methods = [f"{name}.{method}" for name in classes for method in _public_methods(getattr(eur, name))]
    unused = [name for name in [*eur.__all__, *methods] if name.rpartition(".")[2] not in used]
    assert not unused, f"exported but read by no code: {unused}"


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
    "kraus_from_choi": lambda x: eur.kraus_from_choi(np.full((4, 4), x)),
    "evaluate_eur": lambda x: eur.evaluate_eur(
        eur.pauli_observable("x"), eur.pauli_observable("y"), _bad_state(x)),
}

# from_pure names the non-finite norm; every other check names the input
NON_FINITE_MESSAGES = {"from_pure": r"state vector has norm (nan|inf), expected 1"}


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry_point", NON_FINITE_ENTRY_POINTS)
def test_checks_reject_non_finite_input(entry_point, value):
    with pytest.raises(ValueError, match=NON_FINITE_MESSAGES.get(entry_point, "is not finite")) as raised:
        NON_FINITE_ENTRY_POINTS[entry_point](value)
    assert raised.type is ValueError  # not numpy's LinAlgError subclass
