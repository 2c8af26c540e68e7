"""Two-level state primitives in the Pauli basis.

A qubit state is a 2x2 complex Hermitian matrix rho with unit trace and
non-negative eigenvalues.  The polarization vector P = Tr[sigma_vec rho]
fixes the state through rho = (sigma_0 + P . sigma_vec) / 2, so the
eigenvalues are (1 +- |P|)/2 and every spectral quantity has a closed
form.  This module supplies the basis matrices, the matrix/vector
conversions, and closed-form 2x2 Hermitian spectral helpers; nothing
here calls an iterative eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SIGMA0 = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA0, SIGMA1, SIGMA2, SIGMA3)

KET0 = np.array([1.0, 0.0], dtype=complex)

# floor for eigenvalues inside logs; keeps pure states finite
CLAMP_EPS = 1e-12

BLOCH_NORM_TOL = 1e-9


def adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def bloch_to_density(bloch, positivity_floor: float = -0.5 * BLOCH_NORM_TOL) -> np.ndarray:
    """Density matrix (sigma_0 + P . sigma_vec)/2 for a polarization vector P.

    Rejects P whose smallest eigenvalue (1 - |P|)/2 is below
    positivity_floor (by default |P| > 1 + BLOCH_NORM_TOL) or not finite.
    """
    p = np.asarray(bloch, dtype=float)
    if p.shape != (3,):
        raise ValueError(f"polarization vector must have 3 components, got shape {p.shape}")
    px, py, pz = p.tolist()
    norm = math.sqrt(px * px + py * py + pz * pz)
    if not 0.5 * (1.0 - norm) >= positivity_floor:
        raise ValueError(f"polarization norm {norm} exceeds 1")
    return np.array(
        [[0.5 * (1.0 + pz), 0.5 * (px - 1.0j * py)], [0.5 * (px + 1.0j * py), 0.5 * (1.0 - pz)]]
    )


def density_to_bloch(rho: np.ndarray) -> np.ndarray:
    """Polarization vector Tr[sigma_vec rho]; real parts of the Pauli traces."""
    return np.array(
        [
            (rho[0, 1] + rho[1, 0]).real,
            (1.0j * (rho[0, 1] - rho[1, 0])).real,
            (rho[0, 0] - rho[1, 1]).real,
        ]
    )


def eigh2(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigendecomposition of a 2x2 Hermitian matrix.

    Returns (w, u) with eigenvalues w ascending and unitary u such that
    m = u diag(w) u^dagger (columns of u are the eigenvectors).
    """
    a = m[0, 0].real
    d = m[1, 1].real
    b = m[0, 1]
    mean = 0.5 * (a + d)
    r = math.hypot(0.5 * (a - d), abs(b))
    w = np.array([mean - r, mean + r])
    if abs(b) < 1e-300:
        if a <= d:
            u = np.eye(2, dtype=complex)
        else:
            u = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        return w, u
    # eigenvector for the upper eigenvalue; (b, w1 - a) never degenerates since |b| > 0
    v = np.array([b, w[1] - a], dtype=complex)
    # hypot does not underflow where |b|^2 would (|b| below about 1e-154)
    v /= math.hypot(abs(v[0]), abs(v[1]))
    # the orthogonal complement is the lower eigenvector
    u = np.array([[-v[1].conjugate(), v[0]], [v[0].conjugate(), v[1]]])
    return w, u


def eigenvalues(rho: np.ndarray) -> tuple[float, float]:
    """Density-matrix eigenvalues, descending; equals ((1+|P|)/2, (1-|P|)/2).

    The half-gap comes from hypot, as in eigh2, so it keeps full relative
    precision near the maximally mixed state, where the discriminant
    tr^2 - 4 det cancels to roundoff.
    """
    a = rho[0, 0].real
    d = rho[1, 1].real
    mean = 0.5 * (a + d)
    r = math.hypot(0.5 * (a - d), abs(rho[0, 1]))
    return mean + r, mean - r


def matrix_log_clamped(rho: np.ndarray) -> np.ndarray:
    """Hermitian matrix log with eigenvalues clamped to at least CLAMP_EPS.

    Keeps log rho finite for pure and near-pure states; the result shares
    rho's eigenvectors, so it commutes with rho to roundoff.  Uses the
    spectral identity f(m) = c I + s (m - mean I) for 2x2 Hermitian m,
    c and s fixed by f at the two eigenvalues; no eigenvectors needed.
    """
    a = rho[0, 0].real
    d = rho[1, 1].real
    b = rho[0, 1]
    mean = 0.5 * (a + d)
    r = math.hypot(0.5 * (a - d), abs(b))
    lw0 = math.log(max(mean - r, CLAMP_EPS))
    lw1 = math.log(max(mean + r, CLAMP_EPS))
    c = 0.5 * (lw1 + lw0)
    if r < 1e-300:
        return np.array([[c, 0.0], [0.0, c]], dtype=complex)
    s = 0.5 * (lw1 - lw0) / r
    off = s * b
    return np.array(
        [[c + s * (a - mean), off], [off.conjugate(), c + s * (d - mean)]], dtype=complex
    )


@dataclass(frozen=True)
class ValidationReport:
    """Worst violations of the density-matrix invariants, with verdicts."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    hermitian: bool
    unit_trace: bool
    positive: bool

    @property
    def ok(self) -> bool:
        return self.hermitian and self.unit_trace and self.positive


def validate(
    rho: np.ndarray,
    herm_tol: float = 1e-9,
    trace_tol: float = 1e-9,
    positivity_floor: float = -1e-9,
) -> ValidationReport:
    """Check Hermiticity, unit trace, and positivity of a candidate state."""
    herm = float(np.max(np.abs(rho - adjoint(rho))))
    trace = abs((rho[0, 0] + rho[1, 1]).real - 1.0) + abs((rho[0, 0] + rho[1, 1]).imag)
    sym = 0.5 * (rho + adjoint(rho))
    w, _ = eigh2(sym)
    return ValidationReport(
        hermiticity_defect=herm,
        trace_defect=trace,
        min_eigenvalue=float(w[0]),
        hermitian=herm <= herm_tol,
        unit_trace=trace <= trace_tol,
        positive=float(w[0]) >= positivity_floor,
    )
