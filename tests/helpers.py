"""Shared constants, random generators and checks for the test suite.

The constants, generators and reference checks are built with raw numpy,
never with package code, so the tests keep an independent route to the
objects they check; `random_observable` only wraps such a basis in the
package's type, and `perturbed` only reads the package's
HERMITICITY_ATOL. `check_eur_report` is the one exception: it states the
contract of `evaluate_eur`'s report, so it calls `evaluate_eur` by design.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import strategies as st

import reference
from eur.bounds import evaluate_eur
from eur.linalg import HERMITICITY_ATOL
from eur.measurement import ProjectiveObservable

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)

# Tomographically complete single-qubit inputs: identity plus the three
# states whose Bloch vectors point along z, x and y.
TOMO_INPUTS = [
    I2 / 2,
    np.array([[1, 0], [0, 0]], dtype=complex),
    np.array([[1, 1], [1, 1]], dtype=complex) / 2,
    np.array([[1, -1j], [1j, 1]], dtype=complex) / 2,
]


def assert_same_bits(got, expected):
    """Equal dtype, shape and bytes; equal bytes also mean an equal sign
    for every zero."""
    assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
    assert got.tobytes() == expected.tobytes()


def near(x):
    """A value within `reference.budget` of x, for `==`."""
    return pytest.approx(x, abs=reference.budget(x))


def proj(v):
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_density_matrix(rng, dim, rank=None, real=False):
    """A random state G G^dag / tr(G G^dag) of `dim` levels, for a Gaussian
    G of shape (dim, rank), complex, or float64 with `real`: rank-deficient
    below `dim`, which is the default rank."""
    shape = (dim, dim if rank is None else rank)
    g = rng.normal(size=shape) if real else random_complex(rng, shape)
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_states(rng, stack, rank=None, real=False):
    """Two-qubit `random_density_matrix` states in a stack, shape
    stack + (4, 4), drawn one at a time, in order."""
    states = [random_density_matrix(rng, 4, rank, real) for _ in range(math.prod(stack))]
    return np.array(states, dtype=float if real else complex).reshape(stack + (4, 4))


def random_pure_state(rng, dim):
    v = random_complex(rng, (dim,))
    return v / np.linalg.norm(v)


def random_unitary(rng, dim):
    q, r = np.linalg.qr(random_complex(rng, (dim, dim)))
    phases = np.diag(r) / np.abs(np.diag(r))
    return q @ np.diag(phases)


def random_observable(rng) -> ProjectiveObservable:
    return ProjectiveObservable("random", random_unitary(rng, 2))


def random_hermitian(rng, dim):
    """Hermitian matrix with real and imaginary parts drawn in [-1, 1]."""
    g = rng.uniform(-1.0, 1.0, size=(dim, dim)) + 1j * rng.uniform(-1.0, 1.0, size=(dim, dim))
    return (g + g.conj().T) / 2


def perturbed(rng, h, real):
    """`h` plus an anti-Hermitian part of about 1e-12, real for a real
    perturbation, and (that matrix, its Hermitian part (M + M^dag)/2),
    both as numpy forms it; the matrix is within HERMITICITY_ATOL of
    Hermitian but not Hermitian."""
    g = rng.normal(size=h.shape) if real else random_complex(rng, h.shape)
    m = h + 1e-12 * (g - np.conj(np.swapaxes(g, -1, -2))) / 2
    adjoint = np.conj(np.swapaxes(m, -1, -2))
    assert 0.0 < np.abs(m - adjoint).max() <= HERMITICITY_ATOL
    return m, (m + adjoint) / 2


def random_choi(rng):
    """Random CPTP Choi matrix (trace 2, input index most significant).

    A PSD sample is projected onto the trace-preserving affine subspace
    by the (M^{-1/2} (x) I) correction, M being its input marginal.
    """
    g = random_complex(rng, (4, 4))
    s = g @ g.conj().T
    marginal = s.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    w, v = np.linalg.eigh(marginal)
    correction = v @ np.diag(w ** -0.5) @ v.conj().T
    x = np.kron(correction, I2)
    return x @ s @ x.conj().T


def random_cptp_kraus(rng):
    """Random CPTP channel in Kraus form, extracted from `random_choi` by hand."""
    c = random_choi(rng)
    w, v = np.linalg.eigh(c)
    return [np.sqrt(lam) * vec.reshape(2, 2).T for lam, vec in zip(w, v.T) if lam > 1e-12]


def steps_down(values) -> list:
    """(k, step) for every step from values[k] to values[k + 1] that goes
    down by more than twice the budget of the larger of the two."""
    values = np.asarray(values).tolist()
    return [(k, b - a) for k, (a, b) in enumerate(zip(values, values[1:]))
            if b < a - 2.0 * max(reference.budget(a), reference.budget(b))]


def shannon_bits(p):
    """Reference -sum p log2 p of a probability vector in bits, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    nonzero = p[p > 0.0]
    return float(-(nonzero * np.log2(nonzero)).sum())


# Slack of a state's Hermiticity, trace and smallest eigenvalue, written
# out here so that a change of the package's values shows up as a failure.
STATE_ATOL = 1e-10


def is_density_matrix(rho):
    """Reference state check: Hermitian, unit trace and no eigenvalue below
    -STATE_ATOL, each within STATE_ATOL."""
    rho = np.asarray(rho, dtype=complex)
    return bool(
        np.abs(rho - rho.conj().T).max() <= STATE_ATOL
        and abs(np.trace(rho) - 1.0) <= STATE_ATOL
        and np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() >= -STATE_ATOL
    )


def apply_kraus(ops, rho):
    """Reference channel action, independent of the package implementation."""
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for k in ops:
        out += k @ rho @ k.conj().T
    return out


def apply_kraus_to_memory(ops, rho):
    """Reference action on the second (memory) qubit of a two-qubit state via kron(I, K)."""
    return apply_kraus([np.kron(I2, k) for k in ops], rho)


# Slack of lhs >= berta and lhs >= holevo, written out here so that a
# change of the package's value shows up as a failure; holevo >= berta has
# none.
BOUND_ORDER_ATOL = 1e-9


def row_violation(lhs, berta, holevo):
    """Reference check of one sweep row: the first violated inequality, or None."""
    if lhs < berta - BOUND_ORDER_ATOL:
        return f"lhs {lhs:.12g} below berta {berta:.12g}"
    if lhs < holevo - BOUND_ORDER_ATOL:
        return f"lhs {lhs:.12g} below holevo {holevo:.12g}"
    if holevo < berta:
        return f"holevo {holevo:.12g} below berta {berta:.12g}"
    return None


def reference_bound_violations(lhs, berta, holevo):
    """(index, message) for every row that `row_violation` rejects, row by row."""
    return [
        (i, message)
        for i, row in enumerate(zip(lhs, berta, holevo))
        if (message := row_violation(*row)) is not None
    ]


@st.composite
def cli_flags(draw) -> dict:
    """A valid `eur sweep` flag set, {flag: value}, over the domain that
    `perfbench/workloads.py::cli_config` draws the cli-small workload from:
    both states with p in [0, 1], the nine --obs pairs, --omega log-uniform
    in [1e-3, 1e3], an a-sweep with a_max/omega log-uniform in [1e-2, 1e18]
    or an r-sweep with a_max in [0, pi/4], --a-min 0 or drawn in
    [0, a_max], and 2-32 steps. Each --obs axis comes in either case, with
    or without a space on each side, as in " Y , z", which reads as y,z."""
    omega = 10.0 ** draw(st.floats(-3.0, 3.0))
    sweep_var = draw(st.sampled_from(["a", "r"]))
    if sweep_var == "a":
        a_max = omega * 10.0 ** draw(st.floats(-2.0, 18.0))
    else:
        a_max = draw(st.floats(0.0, np.pi / 4))
    pair = draw(st.sampled_from([f"{q},{r}" for q in "xyz" for r in "xyz"]))
    pad = st.sampled_from(["", " "])
    return {
        "state": draw(st.sampled_from(["bell", "x"])),
        "p": repr(draw(st.floats(0.0, 1.0))),
        "obs": ",".join(draw(pad) + draw(st.sampled_from([axis, axis.upper()])) + draw(pad)
                        for axis in pair.split(",")),
        "omega": repr(omega),
        "a-min": repr(draw(st.one_of(st.just(0.0), st.floats(0.0, a_max)))),
        "a-max": repr(a_max),
        "steps": draw(st.integers(2, 32)),
        "sweep-var": sweep_var,
    }


def sweep_argv_of(flags: dict) -> list:
    """`eur sweep` argv in the --flag=value form, which every value survives."""
    return ["sweep", *(f"--{flag}={value}" for flag, value in flags.items())]


def _other_forms(states) -> list:
    """`states` handed over in other memory layouts, types and dtypes:
    Fortran order, strided, with negative strides, read-only, broadcast
    from its first state, as a nested list and, for a real stack, the
    states that int64 and float32 hold exactly, in those dtypes."""
    forms = [
        np.asfortranarray(states),
        np.repeat(states, 2, axis=0)[::2],
        np.flip(np.flip(states).copy()),
        np.lib.stride_tricks.as_strided(states, writeable=False),
    ]
    if states.size:  # an empty stack has no first state, and its nested list loses its shape
        forms += [np.broadcast_to(states[(0,) * (states.ndim - 2)], states.shape), states.tolist()]
    if states.dtype == np.float64:
        for dtype in (np.int64, np.float32):
            held = (states.astype(dtype) == states).all(axis=(-2, -1))
            forms.append(states[held].astype(dtype))
    return forms


def check_eur_report(q, r, states):
    """Check the report of `evaluate_eur(q, r, states)` on a float64 or
    complex128 stack of states, shape (..., 4, 4) with at least one stack
    axis, empty and 2-D stacks included (a one-state report is checked as
    each stack element's own, in 2):

    1. the state-dependent fields are float64 arrays of the stack's shape,
       and `mu_bound` and `c` are floats;
    2. element k has the bits of state k's own report, each field of which
       is a Python float; and the stack in any of `_other_forms` gives the
       bits of its C-contiguous copy;
    3. holevo_bound is berta_bound + np.maximum(0.0, delta), bit for bit;
    4. i_qb and i_rb have the bits that q and r give, each paired with
       itself;
    5. every field lies within `reference.budget` of `reference.reports`,
       and is +0.0 where the reference is exactly 0.
    """
    stack = states.shape[:-2]
    assert stack, "a stack needs at least one axis"
    report = evaluate_eur(q, r, states)
    names = [field.name for field in dataclasses.fields(report)]

    def bits(rep, name):
        return np.broadcast_to(getattr(rep, name), stack)

    for name in names:
        value = getattr(report, name)
        if name in ("mu_bound", "c"):  # the observables' own
            assert type(value) is float, name
        else:
            assert isinstance(value, np.ndarray), name
            assert (value.dtype, value.shape) == (np.float64, stack), name
    for k in np.ndindex(stack):
        single = evaluate_eur(q, r, states[k])
        for name in names:
            value = getattr(single, name)
            assert type(value) is float, name
            assert_same_bits(bits(report, name)[k], np.float64(value))
    for form in _other_forms(states):
        given = evaluate_eur(q, r, form)
        copy = evaluate_eur(q, r, np.array(form, dtype=states.dtype))
        for name in names:
            assert_same_bits(np.asarray(getattr(given, name)), np.asarray(getattr(copy, name)))
    assert_same_bits(report.holevo_bound, report.berta_bound + np.maximum(0.0, report.delta))
    for name, o in (("i_qb", q), ("i_rb", r)):
        alone = evaluate_eur(o, o, states)
        assert_same_bits(alone.i_qb, getattr(report, name))
        assert_same_bits(alone.i_rb, getattr(report, name))
    expected = reference.reports(q.basis, r.basis, states)
    bad = reference.report_outside_budget(report, expected)
    assert not bad, bad
    for name in names:
        zeros = [v for v, rep in zip(np.ravel(bits(report, name)), expected) if rep[name] == 0]
        assert_same_bits(np.array(zeros), np.zeros(len(zeros)))
