"""Scalar observables of a driven, dissipative qubit.

Unit system: time in nanoseconds, angular frequency in GHz (radians per
nanosecond), energy in micro-eV, temperature in Kelvin, entropy in bits.
HBAR and KBOLTZ below pin the conversions.

Temperatures carry sentinel values instead of exceptions: nan when the
definition does not apply (degenerate level splitting, undefined rate
ratio) and +-inf when the level occupations coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spincore import CLAMP_EPS, adjoint, density_to_bloch, eigenvalues, eigh2

# not called here; benchmarks/tracing.py looks it up by name in this namespace
from .spincore import matrix_log_clamped  # noqa: F401

HBAR = 0.6582  # micro-eV nanoseconds
KBOLTZ = 86.17  # micro-eV per Kelvin

# level splittings at or below this (micro-eV) count as degenerate
DEGENERACY_EPS = 1e-12


def purity(rho: np.ndarray) -> float:
    """Tr[rho^2]; 1 for pure states, 1/2 at the center of the Bloch ball."""
    return float(np.trace(rho @ rho).real)


def entropy_base2(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits, -sum lam log2 lam with clamped logs."""
    total = 0.0
    for lam in eigenvalues(rho):
        lam = max(lam, CLAMP_EPS)
        total -= lam * math.log2(lam)
    return total


def fidelity(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho_a) rho_b sqrt(rho_a)).

    Symmetric in its arguments; 1 iff the states coincide, 0 for
    orthogonal pure states.
    """
    wa, ua = eigh2(rho_a)
    sq = ua @ np.diag(np.sqrt(np.maximum(wa, 0.0))) @ adjoint(ua)
    m = sq @ rho_b @ sq
    w, _ = eigh2(0.5 * (m + adjoint(m)))
    return float(np.sum(np.sqrt(np.maximum(w, 0.0))))


def energy(rho: np.ndarray, h: np.ndarray) -> float:
    """Mean energy Tr[H rho] in micro-eV."""
    return float(np.trace(h @ rho).real)


def power(rho: np.ndarray, h_dot: np.ndarray) -> float:
    """Work rate Tr[rho dH/dt]; nonzero only while pulses reshape H."""
    return float(np.trace(rho @ h_dot).real)


def heat_rate(h: np.ndarray, rho_dot: np.ndarray) -> float:
    """Heat rate Tr[H drho/dt]; the non-unitary terms are its only source."""
    return float(np.trace(h @ rho_dot).real)


def temperature_occupation(rho: np.ndarray, h: np.ndarray) -> float:
    """Temperature from level occupations across the splitting of h.

    Diagonalizes h, reads the occupations n1 (lower level) and n2 (upper)
    of rho in that basis, and returns (e2 - e1) / (kB ln(n1/n2)).  Inverted
    populations give a negative value.  Sentinels: nan for a degenerate
    splitting, +inf for equal occupations.
    """
    w, u = eigh2(h)
    occ = adjoint(u) @ rho @ u
    return _level_temperature(float(w[1] - w[0]), occ[0, 0].real, occ[1, 1].real)


def _level_temperature(gap: float, n1: float, n2: float) -> float:
    """gap / (kB ln(n1/n2)) for lower and upper occupations n1 and n2, with
    the sentinels of temperature_occupation."""
    if gap <= DEGENERACY_EPS:
        return math.nan
    if n2 <= 0.0:
        return 0.0
    if n1 <= 0.0:
        return -0.0
    if n1 == n2:
        return math.inf
    return gap / (KBOLTZ * math.log(n1 / n2))


def temperature_rate_ratio(bloch, bloch_dot, omega_l: float) -> float:
    """Dynamic temperature from the ratio of the P_z and |P| rates.

    T = (hbar omega_L / kB) (dP_z/dt) / (d|P|/dt) / ln((1+P)/(1-P)).
    Returns nan when |P| is 0 or 1 or when |P| is momentarily stationary.
    """
    px, py, pz = (float(v) for v in bloch)
    dx, dy, dz = (float(v) for v in bloch_dot)
    p = math.sqrt(px * px + py * py + pz * pz)
    if p <= 0.0 or p >= 1.0:
        return math.nan
    p_rate = (px * dx + py * dy + pz * dz) / p
    if p_rate == 0.0:
        return math.nan
    # ln((1+P)/(1-P)) as 2 artanh(P), which stays nonzero for P down to the smallest float
    return (HBAR * omega_l / KBOLTZ) * (dz / p_rate) / (2.0 * math.atanh(p))


@dataclass(frozen=True)
class ObservableRow:
    """Every tracked observable at one sample time."""

    t: float
    bloch: tuple[float, float, float]
    lambda1: float
    lambda2: float
    entropy: float
    purity: float
    energy: float
    power: float
    heat_rate: float
    temp_occupation: float
    temp_rate_ratio: float


def observable_row(
    t: float,
    rho: np.ndarray,
    h: np.ndarray,
    h_dot: np.ndarray,
    rho_dot: np.ndarray,
    omega_l: float,
) -> ObservableRow:
    """Assemble the full observable record for one instant."""
    bloch = density_to_bloch(rho)
    bloch_dot = density_to_bloch(rho_dot)
    lam1, lam2 = eigenvalues(rho)
    return ObservableRow(
        t=t,
        bloch=(bloch[0], bloch[1], bloch[2]),
        lambda1=lam1,
        lambda2=lam2,
        entropy=entropy_base2(rho),
        purity=purity(rho),
        energy=energy(rho, h),
        power=power(rho, h_dot),
        heat_rate=heat_rate(h, rho_dot),
        temp_occupation=temperature_occupation(rho, h),
        temp_rate_ratio=temperature_rate_ratio(bloch, bloch_dot, omega_l),
    )


def bloch_row(t: float, p, p_dot, h_terms, omega_l: float) -> ObservableRow:
    """observable_row in closed form from the polarization P, its rate, and
    H and dH/dt as the Pauli components hamiltonian_terms returns.

    Eigenvalues (1 +- |P|)/2, purity (1 + |P|^2)/2, entropy the binary
    entropy of the eigenvalues (clamped at CLAMP_EPS inside the logs), energy
    h0 + P.h, power h0_dot + P.h_dot, heat rate h . dP/dt; the occupation
    temperature reads the occupations (1 -+ P.h/|h|)/2 of the two levels.
    """
    px, py, pz = p
    dx, dy, dz = p_dot
    h0, hx, hy, hz, e0, ex, ey, ez = h_terms
    p2 = px * px + py * py + pz * pz
    norm = math.sqrt(p2)
    lam1 = 0.5 * (1.0 + norm)
    lam2 = 0.5 * (1.0 - norm)
    entropy = 0.0
    for lam in (lam1, lam2):
        lam = max(lam, CLAMP_EPS)
        entropy -= lam * math.log2(lam)
    ph = px * hx + py * hy + pz * hz
    h_norm = math.sqrt(hx * hx + hy * hy + hz * hz)
    n_upper = 0.5 * ph / h_norm if h_norm > 0.0 else 0.0
    return ObservableRow(
        t=t,
        bloch=(px, py, pz),
        lambda1=lam1,
        lambda2=lam2,
        entropy=entropy,
        purity=0.5 * (1.0 + p2),
        energy=h0 + ph,
        power=e0 + px * ex + py * ey + pz * ez,
        heat_rate=hx * dx + hy * dy + hz * dz,
        temp_occupation=_level_temperature(2.0 * h_norm, 0.5 - n_upper, 0.5 + n_upper),
        temp_rate_ratio=temperature_rate_ratio(p, p_dot, omega_l),
    )
