"""The package surface, and the rules the test sources keep.

Each contract has one test:

1. `test_every_exported_name_resolves_and_has_a_user`: `__version__` is
   three numbers, and every name in `eur.__all__`, and every public method
   of an exported class, resolves and is read by code;
2. `test_sources_keep_the_suite_rules`: one table of (rule, AST check,
   the sources it covers, an example and what the check finds in it);
3. `test_checks_reject_non_finite_input`: every entry point rejects NaN
   and inf with a `ValueError` of its exact message.
"""

import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import eur

ROOT = Path(__file__).resolve().parent.parent


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


def test_every_exported_name_resolves_and_has_a_user():
    assert re.fullmatch(r"\d+\.\d+\.\d+", eur.__version__)
    assert all(getattr(eur, name) is not None for name in eur.__all__)
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


def _bare_tolerances(source) -> list:
    """(line, keyword, value) for every atol, rtol, abs or rel keyword that
    is given a bare number of magnitude at most 1e-6."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.keyword) and node.arg in ("atol", "rtol", "abs", "rel"):
            value = node.value.operand if isinstance(node.value, ast.UnaryOp) else node.value
            if (isinstance(value, ast.Constant) and type(value.value) in (int, float)
                    and abs(value.value) <= 1e-6):
                found.append((node.value.lineno, node.arg, value.value))
    return sorted(found)


def _redefined_names(source) -> list:
    """(line, name) for every top-level function or class whose name an
    earlier one in the same module already took."""
    seen, found = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in seen:
                found.append((node.lineno, node.name))
            seen.add(node.name)
    return found


# roundoff is held to `reference.budget`, and any other tolerance has a
# named constant; the acceptance tests keep the spec's tolerances,
# reference.py states the budget and helpers.py restates the package's
TOLERANCE_EXEMPT = {"test_acceptance.py", "reference.py", "helpers.py"}

# a check, the sources it reads, an example source and what the check finds in it
RULES = {
    "no-bare-roundoff-tolerance": (
        _bare_tolerances,
        [path for path in ROOT.glob("tests/*.py") if path.name not in TOLERANCE_EXEMPT],
        "approx(x, abs=1e-9)\nisclose(x, y, rtol=-2e-7, atol=1)\n",
        [(1, "abs", 1e-9), (2, "rtol", 2e-7)]),
    # a second `def test_x` silently replaces the first, and pytest never runs it
    "no-top-level-name-defined-twice": (
        _redefined_names, [*ROOT.glob("tests/*.py"), *ROOT.glob("scripts/**/*.py")],
        "def f(): pass\nclass g: pass\ndef f(): pass\n", [(3, "f")]),
}


@pytest.mark.parametrize("rule", RULES)
def test_sources_keep_the_suite_rules(rule):
    check, paths, source, found = RULES[rule]
    assert check(source) == found
    offenders = [f"{path.relative_to(ROOT)}:{line}: {' '.join(map(str, detail))}"
                 for path in sorted(paths) for line, *detail in check(path.read_text(encoding="utf-8"))]
    assert not offenders, offenders


def _bad_basis(x):
    basis = np.eye(2, dtype=complex)
    basis[0, 0] = x
    return basis


def _bad_state(x):
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 0] = x
    return rho


# an entry point fed a NaN or inf, and its message, with {x} the value
NON_FINITE = {
    "ProjectiveObservable": (lambda x: eur.ProjectiveObservable("q", _bad_basis(x)),
                             "basis of 'q' is not finite: it holds NaN or inf"),
    "validate_kraus": (lambda x: eur.validate_kraus(_bad_basis(x)[None]),
                       "Kraus family is not finite: it holds NaN or inf"),
    # from_pure names the non-finite norm; every other check names the input
    "from_pure": (lambda x: eur.from_pure([x, 0.0]), "state vector has norm {x}, expected 1"),
    "bell_diagonal_state": (lambda x: eur.bell_diagonal_state(x, 0.0, 0.0),
                            "correlation vector ({x}, 0.0, 0.0) is not finite"),
    "kraus_from_choi": (lambda x: eur.kraus_from_choi(np.full((4, 4), x)),
                        "Choi matrix is not finite: it holds NaN or inf"),
    "evaluate_eur": (lambda x: eur.evaluate_eur(eur.pauli_observable("x"),
                                                eur.pauli_observable("y"), _bad_state(x)),
                     "matrix is not finite: it holds NaN or inf"),
}


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry_point", NON_FINITE)
def test_checks_reject_non_finite_input(entry_point, value):
    call, message = NON_FINITE[entry_point]
    with pytest.raises(ValueError) as raised:
        call(value)
    assert raised.type is ValueError  # not numpy's LinAlgError subclass
    assert str(raised.value) == message.format(x=value)
