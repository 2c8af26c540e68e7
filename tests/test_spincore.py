"""State-algebra primitives: Bloch maps, eigensystem, clamped log, validation."""

import math

import numpy as np
import pytest

from qubitdyn.spincore import (
    CLAMP_EPS,
    KET0,
    SIGMA0,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    adjoint,
    bloch_to_density,
    density_to_bloch,
    eigenvalues,
    eigh2,
    matrix_log_clamped,
    validate,
)


def random_bloch(rng, n):
    """Uniform directions, radii covering [0, 1]."""
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return v * rng.uniform(0.0, 1.0, size=n)[:, None]


def random_density(rng):
    return bloch_to_density(random_bloch(rng, 1)[0])


def random_hermitian(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return m + adjoint(m)


class TestBlochMaps:
    def test_maximally_mixed_maps_to_origin(self):
        assert np.allclose(density_to_bloch(0.5 * SIGMA0), [0.0, 0.0, 0.0], atol=1e-15)

    def test_round_trip_example(self):
        p = (0.2, 0.4, 0.8)
        assert np.allclose(density_to_bloch(bloch_to_density(p)), p, atol=1e-13)

    def test_ground_state_points_up(self):
        rho = np.outer(KET0, KET0.conj())
        assert np.allclose(density_to_bloch(rho), [0.0, 0.0, 1.0], atol=1e-15)

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        for p in random_bloch(rng, 500):
            assert np.allclose(density_to_bloch(bloch_to_density(p)), p, atol=1e-13)

    def test_outputs_are_valid_states(self):
        rng = np.random.default_rng(11)
        for p in random_bloch(rng, 10000):
            rho = bloch_to_density(p)
            report = validate(rho, herm_tol=1e-12, trace_tol=1e-12, positivity_floor=-1e-12)
            assert report.ok, p


class TestEigenvalues:
    def test_norm_0p943_state(self):
        # (1 +- 0.943)/2, cross-checked against the general eigensolver
        rho = bloch_to_density((0.0, 0.0, 0.943))
        lam = eigenvalues(rho)
        assert lam == pytest.approx((0.9715, 0.0285), abs=1e-12)
        general = np.linalg.eigvalsh(rho)
        assert lam == pytest.approx((general[1], general[0]), abs=1e-12)

    def test_maximally_mixed(self):
        assert eigenvalues(0.5 * SIGMA0) == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_nearly_mixed_state_keeps_precision(self):
        # tr^2 - 4 det cancels to roundoff here; the gap must not
        for p in ((1e-9, 0.0, 0.0), (0.0, 3e-10, 4e-10), (2e-12, -1e-12, 2e-12)):
            lam = eigenvalues(bloch_to_density(p))
            norm = float(np.linalg.norm(p))
            assert lam[0] - lam[1] == pytest.approx(norm, rel=1e-6)
            assert lam[1] == pytest.approx(0.5 * (1.0 - norm), abs=1e-16)

    def test_pure_state(self):
        rho = np.outer(KET0, KET0.conj())
        assert eigenvalues(rho) == pytest.approx((1.0, 0.0), abs=1e-15)

    def test_closed_form_matches_general_solver(self):
        rng = np.random.default_rng(3)
        for p in random_bloch(rng, 10000):
            rho = bloch_to_density(p)
            lam = eigenvalues(rho)
            norm = np.linalg.norm(p)
            assert lam[0] == pytest.approx(0.5 * (1.0 + norm), abs=1e-12)
            assert lam[1] == pytest.approx(0.5 * (1.0 - norm), abs=1e-12)
            general = np.linalg.eigvalsh(rho)
            assert abs(lam[0] - general[1]) < 1e-12
            assert abs(lam[1] - general[0]) < 1e-12
            assert lam[0] >= lam[1]


class TestEigh2:
    def test_reconstructs_random_hermitian(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            m = random_hermitian(rng)
            w, u = eigh2(m)
            assert w[0] <= w[1]
            assert np.allclose(u @ adjoint(u), SIGMA0, atol=1e-12)
            assert np.allclose(u @ np.diag(w) @ adjoint(u), m, atol=1e-12)

    def test_diagonal_input(self):
        w, u = eigh2(np.diag([2.0, -1.0]).astype(complex))
        assert np.allclose(w, [-1.0, 2.0])
        assert np.allclose(np.abs(u), [[0.0, 1.0], [1.0, 0.0]])

    def test_tiny_off_diagonal_keeps_unit_eigenvectors(self):
        # |b|^2 underflows for 1e-300 < |b| < 1e-154
        for b in (1e-160, 1e-200j, 1e-299):
            m = np.array([[0.3, b], [np.conj(b), -0.2]], dtype=complex)
            w, u = eigh2(m)
            assert np.all(np.isfinite(u))
            assert np.allclose(u @ adjoint(u), SIGMA0, atol=1e-15)
            assert np.allclose(u @ np.diag(w) @ adjoint(u), m, atol=1e-15)


class TestMatrixLogClamped:
    def test_isotropic_state(self):
        out = matrix_log_clamped(0.5 * SIGMA0)
        assert np.allclose(out, math.log(0.5) * SIGMA0, atol=1e-14)

    def test_diagonal_state(self):
        out = matrix_log_clamped(bloch_to_density((0.0, 0.0, 0.8)))
        assert np.allclose(out, np.diag([math.log(0.9), math.log(0.1)]), atol=1e-13)

    def test_clamp_engages_on_pure_state(self):
        rho = np.outer(KET0, KET0.conj())
        out = matrix_log_clamped(rho)
        assert np.allclose(out, np.diag([0.0, math.log(1e-12)]), atol=1e-10)

    def test_commutes_with_state_and_stays_hermitian(self):
        rng = np.random.default_rng(13)
        for p in random_bloch(rng, 2000):
            rho = bloch_to_density(p)
            out = matrix_log_clamped(rho)
            assert np.max(np.abs(out - adjoint(out))) < 1e-12
            assert np.max(np.abs(out @ rho - rho @ out)) < 1e-11


class TestValidate:
    def test_clean_state_passes(self):
        report = validate(0.5 * SIGMA0)
        assert report.ok
        assert report.hermiticity_defect < 1e-15
        assert report.trace_defect < 1e-15
        assert report.min_eigenvalue == pytest.approx(0.5)

    def test_trace_defect_reported(self):
        report = validate(np.diag([0.51, 0.5]).astype(complex), trace_tol=1e-9)
        assert not report.unit_trace
        assert report.trace_defect == pytest.approx(0.01, abs=1e-12)
        assert report.hermitian

    def test_negative_eigenvalue_fails_positivity(self):
        report = validate(np.diag([1.05, -0.05]).astype(complex))
        assert not report.positive
        assert report.min_eigenvalue == pytest.approx(-0.05, abs=1e-12)
        assert report.unit_trace

    def test_non_hermitian_flagged(self):
        m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        report = validate(m)
        assert not report.hermitian
        assert report.hermiticity_defect == pytest.approx(0.2, abs=1e-12)


class TestPauliConstants:
    def test_pauli_algebra(self):
        assert np.allclose(SIGMA1 @ SIGMA2, 1j * SIGMA3)
        assert np.allclose(SIGMA2 @ SIGMA3, 1j * SIGMA1)
        assert np.allclose(SIGMA3 @ SIGMA1, 1j * SIGMA2)
        for s in (SIGMA1, SIGMA2, SIGMA3):
            assert np.allclose(s @ s, SIGMA0)
            assert abs(np.trace(s)) == 0.0
