"""Raw-numpy oracle for the benchmark's correctness checks.

Nothing here imports `eur`: every quantity is recomputed from its
definition with batched numpy, so a check does not share code with the
program it checks. All entropies are in bits. Two-qubit matrices use the
|00>, |01>, |10>, |11> order with the measured qubit A most significant
and the memory qubit B least significant.
"""

import math

import numpy as np

# Bound at import, so the eigen-solver counter on np.linalg sees only the
# program's decompositions, not the oracle's.
from numpy.linalg import eigvalsh

TOL = 1e-9
CSV_HEADER = "a,r,lhs,berta,holevo,delta"
COLUMNS = ("a", "r", "lhs", "berta", "holevo", "delta")

_S2 = math.sqrt(2.0)
PAULI_BASES = {
    "z": np.eye(2, dtype=complex),
    "x": np.array([[1, 1], [1, -1]], dtype=complex) / _S2,
    "y": np.array([[1, 1], [1j, -1j]], dtype=complex) / _S2,
}


def _projector(v):
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


_PHI_PLUS = _projector(np.array([1, 0, 0, 1]) / _S2)
_PSI_PLUS = _projector(np.array([0, 1, 1, 0]) / _S2)
_PSI_MINUS = _projector(np.array([0, 1, -1, 0]) / _S2)
_ONE_ONE = _projector(np.array([0, 0, 0, 1]))


def initial_state(family: str, p: float) -> np.ndarray:
    """The CLI's two state families, written as Bell/basis mixtures.

    bell: correlation vector (1-2p, -p, -p), i.e.
          p |psi-><psi-| + (1-p)/2 (|psi+><psi+| + |phi+><phi+|)
    x:    p |psi+><psi+| + (1-p) |11><11|
    """
    if family == "bell":
        return p * _PSI_MINUS + (1.0 - p) / 2.0 * (_PSI_PLUS + _PHI_PLUS)
    if family == "x":
        return p * _PSI_PLUS + (1.0 - p) * _ONE_ONE
    raise ValueError(f"unknown state family {family!r}")


def mixing_angle(a, omega: float) -> np.ndarray:
    """r = atan(exp(-pi omega / a)), with r = 0 at a = 0."""
    a = np.asarray(a, dtype=float)
    safe = np.where(a > 0.0, a, 1.0)
    return np.where(a > 0.0, np.arctan(np.exp(-math.pi * omega / safe)), 0.0)


def mixing_angle_acos(a, omega: float) -> np.ndarray:
    """The acos form acos((1 + exp(-2 pi omega / a))^(-1/2)).

    Algebraically equal to `mixing_angle`, but it loses precision for
    small r and can exceed pi/4 by an ulp for omega/a below ~2.65e-17.
    Used only to name the cause of a mismatch, never as the reference.
    """
    a = np.asarray(a, dtype=float)
    safe = np.where(a > 0.0, a, 1.0)
    x = 1.0 / np.sqrt(1.0 + np.exp(-2.0 * math.pi * omega / safe))
    return np.where(a > 0.0, np.arccos(x), 0.0)


def evolve(rho: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Apply the acceleration channel to the memory half of each state.

    Kraus pair K1 = [[cos r, 0], [0, 1]], K2 = [[0, 0], [sin r, 0]];
    `rho` is (4, 4) or (n, 4, 4), `r` is (n,). Returns (n, 4, 4).
    """
    r = np.asarray(r, dtype=float)
    n = r.shape[0]
    kraus = np.zeros((n, 2, 2, 2), dtype=complex)
    kraus[:, 0, 0, 0] = np.cos(r)
    kraus[:, 0, 1, 1] = 1.0
    kraus[:, 1, 1, 0] = np.sin(r)
    t = np.broadcast_to(rho, (n, 4, 4)).reshape(n, 2, 2, 2, 2)
    out = np.einsum("njbc,nacxd,njyd->nabxy", kraus, t, kraus.conj())
    return out.reshape(n, 4, 4)


def entropy_of(eigenvalues: np.ndarray) -> np.ndarray:
    """-sum w log2 w over the last axis, with negative roundoff clipped to 0."""
    w = np.clip(eigenvalues, 0.0, None)
    logs = np.log2(np.where(w > 0.0, w, 1.0))
    return -(w * logs).sum(axis=-1)


def _dephased(rho4: np.ndarray, basis: np.ndarray):
    """Entropy of the state with A dephased in `basis`, and the outcome law.

    `rho4` is (n, 2, 2, 2, 2) indexed [n, a, b, a', b']; `basis` is
    (n, 2, 2) with eigenstates as columns. The dephased state is block
    diagonal, so its spectrum is the union of the two unnormalized
    conditional memory blocks' spectra.
    """
    rotated = np.einsum("nia,nabcd,ncj->nibjd", basis.conj().transpose(0, 2, 1), rho4, basis)
    blocks = np.stack([rotated[:, 0, :, 0, :], rotated[:, 1, :, 1, :]], axis=1)
    blocks = (blocks + blocks.conj().transpose(0, 1, 3, 2)) / 2.0
    spectrum = eigvalsh(blocks).reshape(len(rho4), 4)
    probs = np.einsum("nkbb->nk", blocks).real
    return entropy_of(spectrum), entropy_of(probs)


def evaluate(rho: np.ndarray, basis_q: np.ndarray, basis_r: np.ndarray) -> dict:
    """Every uncertainty quantity for a stack of states and observable pairs.

    `rho` is (n, 4, 4); `basis_q`, `basis_r` are (2, 2) or (n, 2, 2).
    Returns arrays keyed like `eur.EurReport` fields plus the CSV names.
    """
    rho = np.asarray(rho, dtype=complex)
    n = rho.shape[0]
    rho = (rho + rho.conj().transpose(0, 2, 1)) / 2.0
    basis_q = np.broadcast_to(basis_q, (n, 2, 2))
    basis_r = np.broadcast_to(basis_r, (n, 2, 2))
    t = rho.reshape(n, 2, 2, 2, 2)
    s_ab = entropy_of(eigvalsh(rho))
    s_a = entropy_of(eigvalsh(np.einsum("nabcb->nac", t)))
    s_b = entropy_of(eigvalsh(np.einsum("nabad->nbd", t)))
    s_qb, h_q = _dephased(t, basis_q)
    s_rb, h_r = _dephased(t, basis_r)
    overlap = np.abs(np.einsum("nai,naj->nij", basis_q.conj(), basis_r)) ** 2
    c = overlap.reshape(n, 4).max(axis=1)
    mu = np.log2(1.0 / c)
    s_cond = s_ab - s_b
    i_ab = s_a + s_b - s_ab
    i_qb = s_b + h_q - s_qb
    i_rb = s_b + h_r - s_rb
    d = i_ab - i_qb - i_rb
    berta = mu + s_cond
    return {
        "lhs": s_qb + s_rb - 2.0 * s_b,
        "berta": berta,
        "holevo": berta + np.maximum(0.0, d),
        "delta": d,
        "mu_bound": mu,
        "c": c,
        "s_cond": s_cond,
        "i_ab": i_ab,
        "i_qb": i_qb,
        "i_rb": i_rb,
    }


def sweep_grid(cfg: dict) -> dict:
    """Expected CSV columns of `eur sweep` for a resolved config.

    `cfg` holds state, p, obs (two axes), omega, a_min, a_max, steps and
    sweep_var. The `a` column is NaN for an r sweep (blank in the CSV).
    """
    values = np.linspace(cfg["a_min"], cfg["a_max"], cfg["steps"])
    if cfg["sweep_var"] == "a":
        a, r = values, mixing_angle(values, cfg["omega"])
    else:
        a, r = np.full_like(values, np.nan), values
    rho = evolve(initial_state(cfg["state"], cfg["p"]), r)
    q, o = cfg["obs"]
    columns = evaluate(rho, PAULI_BASES[q], PAULI_BASES[o])
    columns.update(a=a, r=r)
    return columns


def parse_csv(text: str) -> dict:
    """Columns of an `eur sweep` CSV as float arrays; blank `a` reads as NaN."""
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        raise ValueError("CSV header or line ending does not match the format")
    rows = [line.split(",") for line in lines[1:-1]]
    if any(len(row) != len(COLUMNS) for row in rows):
        raise ValueError("CSV row with the wrong number of fields")
    cells = np.array([[float(x) if x else math.nan for x in row] for row in rows])
    cells = cells.reshape(len(rows), len(COLUMNS))
    return {name: cells[:, k] for k, name in enumerate(COLUMNS)}


def mismatches(got: dict, expected: dict, names) -> dict:
    """Indices where |got - expected| > TOL * max(1, |expected|), per name.

    NaN matches only NaN. Names without a mismatch are left out.
    """
    out = {}
    for name in names:
        g = np.asarray(got[name], dtype=float)
        e = np.asarray(expected[name], dtype=float)
        both_nan = np.isnan(g) & np.isnan(e)
        bad = ~both_nan & ~(np.abs(g - e) <= TOL * np.maximum(1.0, np.abs(e)))
        if bad.any():
            out[name] = np.flatnonzero(bad)
    return out


def invariant_violations(rows: dict) -> np.ndarray:
    """Indices of rows where lhs >= holevo >= berta fails by more than TOL."""
    bad = (rows["lhs"] < rows["holevo"] - TOL) | (rows["holevo"] < rows["berta"] - TOL)
    return np.flatnonzero(bad)


def check_sweep(text: str, cfg: dict, expected: dict) -> list:
    """Check a sweep CSV against the oracle grid.

    Returns a list of (cause, known) pairs, empty when every row matches.
    A mismatch confined to the `r` column, where the CSV follows the acos
    form, is the known acos precision loss; anything else is unexplained.
    """
    try:
        got = parse_csv(text)
    except ValueError as exc:
        return [(f"malformed CSV: {exc}", False)]
    if len(got["r"]) != cfg["steps"]:
        return [(f"CSV has {len(got['r'])} rows, expected {cfg['steps']}", False)]
    problems = []
    bad = mismatches(got, expected, COLUMNS)
    if set(bad) == {"r"} and cfg["sweep_var"] == "a":
        rows = bad["r"]
        acos_r = mixing_angle_acos(expected["a"][rows], cfg["omega"])
        if np.all(np.abs(got["r"][rows] - acos_r) <= 1e-11 * np.maximum(acos_r, 1e-300)):
            problems.append(("acos precision loss in r", True))
            bad = {}
    for name, rows in bad.items():
        problems.append((f"column {name} off at {len(rows)} rows, first {int(rows[0])}", False))
    violated = invariant_violations(got)
    if violated.size:
        problems.append((f"lhs >= holevo >= berta fails at row {int(violated[0])}", False))
    return problems


def large_a_crash(cfg: dict) -> bool:
    """True when some grid point has omega/a below 1e-16, where the acos
    form can exceed pi/4 and the channel constructor rejects it."""
    return cfg["sweep_var"] == "a" and cfg["a_max"] > 1e16 * cfg["omega"]


# The acos form is off from the closed form by more than TOL only for r
# in about [1e-9, 1.6e-7], and by more than TOL / 100 only for r in about
# [1e-11, 1.6e-5]; this window holds the second with room to spare.
ACOS_LOSS_R = (1e-11, 1e-4)


def reaches_known_defect(cfg: dict) -> bool:
    """True when the acos form of the mixing angle would fail some grid
    point of `cfg`: the large-`a` crash, or an `r` in ACOS_LOSS_R."""
    if large_a_crash(cfg):
        return True
    if cfg["sweep_var"] != "a":
        return False
    r = mixing_angle(np.linspace(cfg["a_min"], cfg["a_max"], cfg["steps"]), cfg["omega"])
    return bool(np.any((r >= ACOS_LOSS_R[0]) & (r <= ACOS_LOSS_R[1])))
