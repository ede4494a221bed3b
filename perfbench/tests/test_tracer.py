"""Tests for the span tracer and the eigen-solver counter: self-time arithmetic, binding coverage, counts."""

import numpy as np
import pytest

import eur
import eur.bounds
import eur.cli
import eur.linalg
import eur.measurement
import eur.states
from tracer import LAYERS, EigenCounter, Tracer, self_times


def test_self_time_of_nested_spans():
    # root [0, 100) holds a [10, 40) and b [50, 90); a holds c [20, 30)
    start = [0, 10, 20, 50]
    end = [100, 40, 30, 90]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent).tolist() == [30, 20, 10, 40]


def test_self_time_of_reentrant_spans():
    # f [0, 60) calls f [5, 45), which calls f [10, 20) and g [25, 40)
    start = [0, 5, 10, 25]
    end = [60, 45, 20, 40]
    parent = [-1, 0, 1, 1]
    own = self_times(start, end, parent)
    assert own.tolist() == [20, 15, 10, 15]
    assert own.sum() == 60  # self times partition the root's duration


def test_recorded_spans_nest_and_partition_time():
    tracer = Tracer()
    leaf = tracer._wrap(lambda: 1, "linalg.leaf")

    def outer_impl(depth):
        return leaf() + (outer(depth - 1) if depth else 0)

    outer = tracer._wrap(outer_impl, "bounds.outer")

    assert outer(2) == 3
    assert [tracer.names[i] for i in tracer.name_id] == [
        "bounds.outer", "linalg.leaf", "bounds.outer", "linalg.leaf", "bounds.outer", "linalg.leaf"]
    assert tracer.parent.tolist() == [-1, 0, 0, 2, 2, 4]
    own = self_times(tracer.start, tracer.end, tracer.parent)
    assert (own >= 0).all()
    assert own.sum() == tracer.end[0] - tracer.start[0]


def test_install_wraps_every_binding_and_uninstall_restores():
    originals = {
        (eur.linalg, "hermitian_eigensystem"): eur.linalg.hermitian_eigensystem,
        (eur.states, "hermitian_eigensystem"): eur.states.hermitian_eigensystem,
        (eur, "hermitian_eigensystem"): eur.hermitian_eigensystem,
        (eur.bounds, "vn_entropy"): eur.bounds.vn_entropy,
        (eur.cli, "evaluate_eur"): eur.cli.evaluate_eur,
        (eur, "evaluate_eur"): eur.evaluate_eur,
    }
    method = eur.measurement.ProjectiveObservable.projector
    eigh = np.linalg.eigh
    tracer = Tracer()
    tracer.install("eur")
    try:
        for (owner, name), original in originals.items():
            assert getattr(owner, name) is not original, f"{owner.__name__}.{name} not wrapped"
        assert eur.states.hermitian_eigensystem is eur.linalg.hermitian_eigensystem
        assert eur.measurement.ProjectiveObservable.projector is not method

        rho = eur.apply_to_memory(eur.unruh_channel(0.3), eur.bell_diagonal_p(0.5))
        eur.evaluate_eur(eur.pauli_observable("x"), eur.pauli_observable("y"), rho)
        totals = tracer.layer_totals()
        assert totals["functions"]["linalg.hermitian_eigensystem"][0] == 25
        assert totals["functions"]["bounds.evaluate_eur"][0] == 1
        assert totals["functions"]["measurement.ProjectiveObservable.projector"][0] > 0
        assert set(LAYERS) - {"cli"} <= {layer for layer in LAYERS if totals[layer][0]}
        assert np.linalg.eigh is eigh  # eigen-solvers get no span
    finally:
        tracer.uninstall()
    for (owner, name), original in originals.items():
        assert getattr(owner, name) is original
    assert eur.measurement.ProjectiveObservable.projector is method


def test_eigen_counter_counts_stack_members_and_distinct_matrices():
    counter = EigenCounter()
    counted = counter._count(np.linalg.eigvalsh)
    a = np.diag([0.25, 0.75]).astype(complex)
    counter.start_operation()
    counted(np.stack([a, a + 1e-14, np.eye(2) / 2, a]))
    counted(-0.0 * a + a)
    assert counter.matrices == 5
    assert counter.distinct == 2  # a, a + 1e-14 and a again share a key
    counter.start_operation()
    counted(a)
    assert counter.distinct == 3  # distinct once per operation


def test_eigen_counter_sees_the_package_calls_and_uninstalls():
    original = np.linalg.eigh
    counter = EigenCounter()
    counter.install()
    try:
        assert np.linalg.eigh is not original
        counter.start_operation()
        rho = eur.apply_to_memory(eur.unruh_channel(0.3), eur.bell_diagonal_p(0.5))
        eur.evaluate_eur(eur.pauli_observable("x"), eur.pauli_observable("y"), rho)
        assert counter.matrices == 25
        assert 0 < counter.distinct < 25
    finally:
        counter.uninstall()
    assert np.linalg.eigh is original


@pytest.mark.parametrize("workload", ["sweep-presets", "cli-small", "library-scalar"])
def test_traced_run_reports_every_per_layer_metric(workload, tmp_path, monkeypatch):
    import run
    import workloads

    monkeypatch.setitem(run.TRACE_OPS, workload, 2)
    monkeypatch.setattr(workloads, "SWEEP_STEPS", 5)
    tally, metrics, repeatable, extra, spans = run.run_traced(eur, workload, 3, 0.01, str(tmp_path / "o.csv"))
    assert set(metrics) == set(run.per_layer_units())
    assert repeatable and extra["counts_repeat_exactly"]
    assert tally.unexplained == 0
    assert len(spans["name"]) == len(spans["start_ns"]) == len(spans["parent"])
    if workload == "sweep-presets":
        assert metrics["linalg.eig_matrices_per_point"]["value"] == 25
        assert {label: v["eig_matrices_per_point"] for label, v in extra["eig_by_preset"].items()} == {
            "fig1": 25, "fig2": 25}
