"""Stability certificates, optimum reports, convergence detection."""

import numpy as np
import pytest

from conftest import philox, regression_dataset

from dynlearn.diagnostics import (
    HorizonCertificate,
    convergence_detector,
    hessian_continuity_probe,
    spectral_radius_horizon,
    check_stability,
    local_optimum_report,
)
from dynlearn.dynamics import NonRecurrentRegression, RNNSystem
from dynlearn.records import TrialRecord
from dynlearn.schedules import sample_indices


def known_radius_matrix(rng, n=4, radius=0.8, coupling=1.5):
    """Triangular spectrum with radius exactly `radius`, operator norm > 1,
    conjugated by a random rotation (norm-preserving)."""
    D = np.diag(radius * np.array([1.0, -0.8, 0.6, -0.4][:n]))
    N = np.zeros((n, n))
    N[0, 1] = coupling
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Q @ (D + N) @ Q.T


def test_spectral_radius_constant_contraction():
    ops = [0.5 * np.eye(2)] * 10
    cert = spectral_radius_horizon(ops, k_max=5)
    assert cert.k == 1
    assert cert.alpha == pytest.approx(0.5, abs=1e-12)


def test_spectral_radius_nilpotent_needs_two():
    A = np.array([[0.0, 2.0], [0.0, 0.0]])
    cert = spectral_radius_horizon([A] * 10, k_max=5)
    assert cert.k == 2 and cert.max_product_norm == 0.0 and cert.alpha == 1.0


def test_spectral_radius_alternating_never_certifies():
    A1 = np.array([[0.0, 2.0], [0.0, 0.0]])
    A2 = np.array([[0.0, 0.0], [2.0, 0.0]])
    ops = [A1 if t % 2 == 0 else A2 for t in range(30)]
    # every length-2 window product has norm 4; longer windows keep growing
    assert spectral_radius_horizon(ops, k_max=10) is None


def test_spectral_radius_known_radius_gelfand():
    rng = philox(1)
    for radius in (0.5, 0.7, 0.95):
        A = known_radius_matrix(rng, radius=radius)
        assert np.linalg.norm(A, 2) > 1.0
        cert = spectral_radius_horizon([A] * 60, k_max=50)
        assert cert is not None and cert.k <= 50
        norms_50 = float(np.linalg.norm(np.linalg.matrix_power(A, 50), 2))
        assert abs(norms_50 ** (1.0 / 50) - radius) <= 0.05 * radius


def test_gelfand_consistency_random_matrices():
    # ||A^k||^(1/k) approaches the radius from above; it is non-increasing
    # along doublings k -> 2k (submultiplicativity) though not pointwise.
    rng = philox(2)
    for trial in range(10):
        radius = rng.uniform(0.5, 0.95)
        G = rng.normal(size=(4, 4))
        A = G * (radius / np.max(np.abs(np.linalg.eigvals(G))))
        powers = {k: np.linalg.matrix_power(A, k) for k in (1, 2, 4, 8, 16, 32, 50)}
        vals = {k: float(np.linalg.norm(P, 2)) ** (1.0 / k) for k, P in powers.items()}
        for k in vals:
            assert vals[k] >= radius * (1 - 1e-9)
        for k in (1, 2, 4, 8, 16):
            assert vals[2 * k] <= vals[k] * (1 + 1e-12)
        assert abs(vals[50] - radius) <= 0.05 * radius


def test_check_stability_nonrecurrent_trivial():
    xs, ys, theta_star = regression_dataset()
    sysm = NonRecurrentRegression(xs, ys, sample_indices("cycling", len(xs), 60))
    cert = check_stability(sysm, theta_star, np.zeros(1), T=50)
    assert cert.k == 1 and cert.alpha == 1.0 and cert.max_product_norm == 0.0


def test_check_stability_rnn_operator_norm_bound():
    # ||W||_op = 2 with a sigmoid cell: ||A_t|| <= 2/4, so k=1, alpha >= 1/2
    rng = philox(3)
    n, m = 3, 2
    W = rng.normal(size=(n, n))
    W *= 2.0 / np.linalg.norm(W, 2)
    Wx = 0.5 * rng.normal(size=(n, m))
    B = 0.1 * rng.normal(size=n)
    xs = rng.normal(size=(100, m))
    sysm = RNNSystem(n, m, inputs=lambda t: xs[t])
    cert = check_stability(sysm, RNNSystem.pack(W, Wx, B), 0.5 * np.ones(n), T=60)
    assert cert.k == 1 and cert.alpha >= 0.5


def test_local_optimum_report_at_optimum_and_off():
    xs, ys, theta_star = regression_dataset()
    N = len(xs)
    T = N * 30
    sysm = NonRecurrentRegression(xs, ys, sample_indices("cycling", N, T))
    report = local_optimum_report(sysm, None, theta_star, T, np.zeros(1))
    assert report.passed and report.positive_stable
    # cycling: averaged updates vanish exactly at epoch multiples
    assert report.avg_update_norms[-1] < 1e-10

    off = local_optimum_report(sysm, None, theta_star + 0.1, T, np.zeros(1))
    assert not off.passed
    # the averaged update plateaus at the exact average-gradient norm
    H_data = np.mean([2.0 * np.outer(x, x) for x in xs], axis=0)
    expected = np.linalg.norm(H_data @ (np.full(4, 0.1)))
    assert off.avg_update_norms[-1] == pytest.approx(expected, rel=1e-6)


def test_report_text_format():
    xs, ys, theta_star = regression_dataset()
    sysm = NonRecurrentRegression(xs, ys, sample_indices("cycling", len(xs), 160))
    report = local_optimum_report(sysm, None, theta_star, 160, np.zeros(1))
    text = report.to_text()
    assert "verdict: pass" in text and "positive_stable: True" in text
    assert "np." not in text  # plain floats, not numpy scalar reprs


def make_record(dists, abort_t=None):
    ts = np.arange(len(dists))
    return TrialRecord(
        t=ts, theta_dist=np.asarray(dists, dtype=float),
        loss=np.zeros(len(ts)), grad_norm=np.zeros(len(ts)), abort_t=abort_t,
    )


def test_convergence_detector_constant_at_optimum():
    rec = make_record(np.zeros(500))
    out = convergence_detector(rec, tol=1e-3, window=100)
    assert out.converged and out.t == 100


def test_convergence_detector_aborted():
    rec = make_record(np.ones(10), abort_t=9)
    out = convergence_detector(rec, tol=1e-3, window=5)
    assert out.diverged and out.t == 9


def test_convergence_detector_geometric_crossing():
    # 0.99^t <= 1e-3 from t = 688 on; declared after a full window
    dists = 0.99 ** np.arange(0, 1000)
    out = convergence_detector(make_record(dists), tol=1e-3, window=100)
    assert out.converged and out.t == 788


def test_convergence_detector_undecided():
    rec = make_record(np.ones(50))
    out = convergence_detector(rec, tol=1e-3, window=10)
    assert out.kind == "undecided" and out.t is None


def test_hessian_continuity_probe_runs():
    xs, ys, theta_star = regression_dataset()
    sysm = NonRecurrentRegression(xs, ys, sample_indices("cycling", len(xs), 200))
    rows = hessian_continuity_probe(sysm, None, theta_star, 120, np.zeros(1),
                                    radius=0.05, n_probes=3)
    assert len(rows) == 3
    # quadratic loss: update Jacobians are theta-independent
    assert all(v < 1e-6 for _, v in rows)
