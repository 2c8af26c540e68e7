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

from .spincore import CLAMP_EPS, adjoint, density_to_bloch, eigenvalues, eigh2, matrix_log_clamped

HBAR = 0.6582  # micro-eV nanoseconds
KBOLTZ = 86.17  # micro-eV per Kelvin

# level splittings at or below this (micro-eV) count as degenerate
DEGENERACY_EPS = 1e-12


def purity(rho: np.ndarray) -> float:
    """Tr[rho^2]; 1 for pure states, 1/2 at the center of the Bloch ball."""
    return float(np.trace(rho @ rho).real)


def entropy_base2(rho: np.ndarray, eps: float = CLAMP_EPS) -> float:
    """Von Neumann entropy in bits, -sum lam log2 lam with clamped logs."""
    total = 0.0
    for lam in eigenvalues(rho):
        lam = max(lam, eps)
        total -= lam * math.log2(lam)
    return total


def entropy_rate_base2(rho: np.ndarray, rho_dot: np.ndarray, eps: float = CLAMP_EPS) -> float:
    """Instantaneous entropy rate -Tr[rho_dot log2 rho] in bits per nsec."""
    return float(-np.trace(rho_dot @ matrix_log_clamped(rho, eps)).real / math.log(2.0))


def purity_rate(rho: np.ndarray, rho_dot: np.ndarray) -> float:
    """d Tr[rho^2]/dt = 2 Tr[rho rho_dot]."""
    return float(2.0 * np.trace(rho @ rho_dot).real)


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
    gap = float(w[1] - w[0])
    if gap <= DEGENERACY_EPS:
        return math.nan
    occ = adjoint(u) @ rho @ u
    n1 = occ[0, 0].real
    n2 = occ[1, 1].real
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
    p_vec = np.asarray(bloch, dtype=float)
    pd_vec = np.asarray(bloch_dot, dtype=float)
    p = float(np.linalg.norm(p_vec))
    if p <= 0.0 or p >= 1.0:
        return math.nan
    p_rate = float(np.dot(p_vec, pd_vec)) / p
    if p_rate == 0.0:
        return math.nan
    return (HBAR * omega_l / KBOLTZ) * (pd_vec[2] / p_rate) / math.log((1.0 + p) / (1.0 - p))


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
