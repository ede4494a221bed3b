"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see both the pytest
verdicts and the per-criterion lines. Expected values are either trivial
identities or were confirmed against the brute-force oracles embedded
here (raw numpy only: explicit matrices, eigvalsh entropies, direct
formulas).
"""

import time

import numpy as np
import pytest

from eur.bounds import evaluate_eur, robertson_bound
from eur.channels import amplitude_damping, apply, apply_to_memory, choi, kraus_from_choi, unruh_channel
from eur.cli import parse_args, run_sweep
from eur.linalg import partial_trace
from eur.measurement import ProjectiveObservable
from eur.states import from_pure, rindler_tripartite_state
from helpers import (
    I2,
    PHI_PLUS,
    SX,
    SY,
    TOMO_INPUTS,
    apply_kraus,
    proj,
    random_cptp_kraus,
    random_density_matrix,
    random_pure_state,
    random_unitary,
)

R_GRID_10 = np.linspace(0.0, np.pi / 4, 10)


def report(number: int, label: str) -> None:
    print(f"acceptance criterion {number} ({label}): PASS")


# ---------------------------------------------------------------------------
# brute-force oracle: raw numpy evaluation of the bounds on a 4x4 state
# ---------------------------------------------------------------------------

def oracle_entropy(rho):
    w = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    w = w[w > 0]
    return float(-(w * np.log2(w)).sum())


def oracle_marginal(rho, keep_memory):
    t = rho.reshape(2, 2, 2, 2)
    if keep_memory:
        return np.trace(t, axis1=0, axis2=2)
    return np.trace(t, axis1=1, axis2=3)


def oracle_bounds(rho, basis_q, basis_r):
    """Directly evaluate (lhs, berta, holevo, delta) from the definitions."""
    s_ab = oracle_entropy(rho)
    s_b = oracle_entropy(oracle_marginal(rho, keep_memory=True))
    s_a = oracle_entropy(oracle_marginal(rho, keep_memory=False))
    c = max(abs(np.vdot(q, r)) ** 2 for q in basis_q for r in basis_r)

    def post_measurement(basis):
        out = np.zeros_like(rho)
        for v in basis:
            sandwich = np.kron(np.outer(v, v.conj()), I2)
            out += sandwich @ rho @ sandwich
        return out

    def holevo_information(basis):
        info = s_b
        for v in basis:
            sandwich = np.kron(np.outer(v, v.conj()), I2)
            sub = sandwich @ rho @ sandwich
            p = np.trace(sub).real
            if p > 1e-12:
                info -= p * oracle_entropy(oracle_marginal(sub, keep_memory=True) / p)
        return info

    lhs = (oracle_entropy(post_measurement(basis_q)) - s_b) + (
        oracle_entropy(post_measurement(basis_r)) - s_b
    )
    berta = np.log2(1.0 / c) + s_ab - s_b
    d = (s_a + s_b - s_ab) - holevo_information(basis_q) - holevo_information(basis_r)
    return lhs, berta, berta + max(0.0, d), d


BASIS_X = [np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)]
BASIS_Y = [np.array([1, 1j]) / np.sqrt(2), np.array([1, -1j]) / np.sqrt(2)]


def test_criterion_1_fig2_anchor_is_zero():
    start = time.perf_counter()
    sweep = run_sweep(parse_args(["sweep", "--preset", "fig2", "--a-max", "0", "--steps", "2"]))
    elapsed = time.perf_counter() - start
    assert sweep.a[0] == 0.0 and sweep.r[0] == 0.0
    assert abs(sweep.lhs[0]) < 1e-9
    assert abs(sweep.berta[0]) < 1e-9
    assert abs(sweep.holevo[0]) < 1e-9
    assert elapsed < 0.1
    report(1, "fig2 anchor lhs = berta = holevo = 0")


def test_criterion_2_fig2_tightness_and_monotonicity():
    start = time.perf_counter()
    sweep = run_sweep(parse_args(["sweep", "--preset", "fig2"]))
    elapsed = time.perf_counter() - start
    assert sweep.r.shape == (101,)
    assert sweep.holevo[-1] - sweep.berta[-1] > 1e-9
    assert np.all(sweep.berta[1:] >= sweep.berta[:-1] - 1e-12)
    assert np.all(sweep.holevo[1:] >= sweep.holevo[:-1] - 1e-12)
    assert elapsed < 1.0
    report(2, "fig2 tightness and monotone bounds over 101 rows")


def test_criterion_3_fig1_anchor_against_brute_force_oracle():
    # oracle state: explicit Bell-projector mixture, independent of the
    # package's Pauli-sum construction
    psi_minus = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    psi_plus = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
    phi_plus = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = 0.5 * proj(psi_minus) + 0.25 * (proj(psi_plus) + proj(phi_plus))
    _, oracle_berta, oracle_holevo, _ = oracle_bounds(rho, BASIS_X, BASIS_Y)
    assert oracle_berta == pytest.approx(1.5, abs=1e-9)
    assert oracle_holevo == pytest.approx(1.811278, abs=1e-6)

    start = time.perf_counter()
    sweep = run_sweep(parse_args(["sweep", "--preset", "fig1"]))
    elapsed = time.perf_counter() - start
    assert sweep.a[0] == 0.0
    assert sweep.berta[0] == pytest.approx(1.5, abs=1e-6)
    assert sweep.holevo[0] == pytest.approx(1.811278, abs=1e-6)
    assert sweep.berta[0] == pytest.approx(oracle_berta, abs=1e-9)
    assert sweep.holevo[0] == pytest.approx(oracle_holevo, abs=1e-9)
    assert np.all(sweep.berta[1:] >= sweep.berta[:-1] - 1e-12)
    assert np.all(sweep.holevo[1:] >= sweep.holevo[:-1] - 1e-12)
    assert elapsed < 1.0
    report(3, "fig1 anchor berta = 1.5, holevo = 1.811278, monotone in a")


@pytest.mark.parametrize("r", [0.0, np.pi / 8, np.pi / 4])
def test_criterion_4_choi_matches_closed_form(r):
    c, s = np.cos(r), np.sin(r)
    expected = np.array(
        [[c * c, 0, 0, c], [0, s * s, 0, 0], [0, 0, 0, 0], [c, 0, 0, 1]],
        dtype=complex,
    )
    assert np.max(np.abs(choi(unruh_channel(r)) - expected)) < 1e-12
    report(4, f"Choi matrix entrywise at r = {r:.6g}")


def test_criterion_5_kraus_round_trip():
    for r in R_GRID_10:
        original = unruh_channel(r)
        rebuilt = kraus_from_choi(choi(original))
        for rho in TOMO_INPUTS:
            assert np.max(np.abs(apply(rebuilt, rho) - apply(original, rho))) < 1e-10
    rng = np.random.default_rng(20260808)
    for _ in range(100):
        original = random_cptp_kraus(rng)
        rebuilt = kraus_from_choi(choi(original))
        for rho in TOMO_INPUTS:
            assert np.max(np.abs(apply(rebuilt, rho) - apply_kraus(original, rho))) < 1e-10
    report(5, "Choi round trip on 10 channel angles and 100 random channels")


def test_criterion_6_tripartite_and_channel_pictures_agree():
    for r in R_GRID_10:
        reduced = partial_trace(
            from_pure(rindler_tripartite_state(r)), keep=[0, 1], dims=[2, 2, 2]
        )
        channeled = apply_to_memory(unruh_channel(r), proj(PHI_PLUS))
        assert np.max(np.abs(reduced - channeled)) < 1e-10
    report(6, "tracing out region II equals the channel picture at 10 angles")


def test_criterion_7_bound_theorems_on_random_states():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    for _ in range(1000):
        rho = random_density_matrix(rng, 4)
        q = ProjectiveObservable("q", random_unitary(rng, 2))
        r = ProjectiveObservable("r", random_unitary(rng, 2))
        rep = evaluate_eur(q, r, rho)
        assert rep.lhs >= rep.berta_bound - 1e-9
        assert rep.lhs >= rep.holevo_bound - 1e-9
        assert rep.holevo_bound == rep.berta_bound + max(0.0, rep.delta)
        assert abs((rep.holevo_bound - rep.berta_bound) - max(0.0, rep.delta)) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(7, "both bounds and the max(0, delta) identity on 1000 random states")


def test_criterion_8_conjugated_amplitude_damping():
    rng = np.random.default_rng(7)
    for _ in range(100):
        r = rng.uniform(0.0, np.pi / 4)
        rho = random_density_matrix(rng, 2)
        via_unruh = apply(unruh_channel(r), rho)
        via_ad = SX @ apply(amplitude_damping(np.sin(r) ** 2), SX @ rho @ SX) @ SX
        assert np.max(np.abs(via_unruh - via_ad)) < 1e-10
    report(8, "acceleration channel equals sigma_x-conjugated damping, 100 pairs")


def test_criterion_9_robertson_suite():
    lhs, rhs = robertson_bound(SX, SY, np.array([1.0, 0.0]))
    assert abs(lhs - 1.0) < 1e-12
    assert abs(rhs - 1.0) < 1e-12
    rng = np.random.default_rng(11)
    for _ in range(1000):
        g1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        g2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lhs, rhs = robertson_bound(
            (g1 + g1.conj().T) / 2, (g2 + g2.conj().T) / 2, random_pure_state(rng, 2)
        )
        assert lhs >= rhs - 1e-10
    report(9, "standard-deviation bound on 1000 random triples plus equality case")
