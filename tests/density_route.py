"""Density-matrix route: the master equation stepped as a 2x2 matrix.

qubitdyn.engine.integrate steps the polarization with the Bloch-form
right-hand side generators.bloch_rhs.  This route steps rho itself with
the density-matrix right-hand side generators.rhs_given_h, through the
same segment plan (engine.segment_plan), and builds every row with the
matrix observable_row; beta_suppressed is the density form of the
integrator's beta-suppression watch.  The two share no right-hand-side code, so their
agreement sample by sample checks each against the other.

After every step the state is re-symmetrized and trace-renormalized.

The separate density-matrix terms of the right-hand side (lindblad_term,
beretta_term, bath_term, combined_23_term), the dissipator's eigenvalue
flow and the entropy and purity rates live here too: the tests check
rhs_given_h and each other against them, and no runtime code needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qubitdyn.engine import IntegratorConfig, segment_plan
from qubitdyn.generators import (
    BathSpec,
    BerettaSpec,
    _ascent_shape,
    ascent_betas,
    bath_beta,
    hamiltonian,
    hamiltonian_dot,
    rhs_given_h,
    trace_product,
)
from qubitdyn.observables import ObservableRow, observable_row
from qubitdyn.spincore import adjoint, eigh2, matrix_log_clamped


def lindblad_term(l: np.ndarray, rho: np.ndarray, gamma: float) -> np.ndarray:
    """Dissipator Gamma (L rho L+ - {L+ L, rho}/2); traceless for any L."""
    ld = adjoint(l)
    ll = ld @ l
    return gamma * (l @ rho @ ld - 0.5 * (ll @ rho + rho @ ll))


def beretta_term(rho: np.ndarray, h: np.ndarray, gamma2: float) -> np.ndarray:
    """Entropy-ascent contribution; transfers no heat by construction.

    At a degenerate energy variance the beta part is suppressed and only
    the entropy-raising part acts.
    """
    s = -matrix_log_clamped(rho)
    beta, _ = ascent_betas(rho, h, BerettaSpec(gamma2), None, s)
    return gamma2 * _ascent_shape(rho, h, s, 0.0 if math.isnan(beta) else beta)


def bath_term(rho: np.ndarray, h: np.ndarray, bath: BathSpec) -> np.ndarray:
    """Thermal-bath contribution with the variant's beta_3."""
    s = -matrix_log_clamped(rho)
    beta = bath_beta(rho, h, bath, s)
    return bath.gamma3 * _ascent_shape(rho, h, s, 0.0 if math.isnan(beta) else beta)


def combined_23_term(
    rho: np.ndarray, h: np.ndarray, beretta: BerettaSpec, bath: BathSpec
) -> np.ndarray:
    """Merged ascent-plus-bath form with gamma_23 = gamma2 + gamma3 and
    beta_23 the rate-weighted mean of beta2 and beta3.

    Algebraically equal to the sum of the separate terms.
    """
    s = -matrix_log_clamped(rho)
    b2, b3 = (0.0 if math.isnan(b) else b for b in ascent_betas(rho, h, beretta, bath, s))
    gamma_23 = beretta.gamma2 + bath.gamma3
    if gamma_23 == 0.0:
        return np.zeros((2, 2), dtype=complex)
    beta_23 = (beretta.gamma2 * b2 + bath.gamma3 * b3) / gamma_23
    return gamma_23 * _ascent_shape(rho, h, s, beta_23)


def eigenvalue_flow(rho: np.ndarray, l: np.ndarray, gamma: float) -> tuple[float, float]:
    """Eigenvalue rates of one dissipator in the state's own eigenbasis.

    With V = U+ L U (U diagonalizing rho), dlambda_i/dt =
    Gamma sum_{s != i} (|V_is|^2 lambda_s - |V_si|^2 lambda_i).  The pair
    is ordered like eigh2 (ascending) and sums to zero.
    """
    w, u = eigh2(rho)
    v = adjoint(u) @ l @ u
    g12 = abs(v[0, 1]) ** 2
    g21 = abs(v[1, 0]) ** 2
    d1 = gamma * (g12 * w[1] - g21 * w[0])
    return float(d1), float(-d1)


def entropy_rate_base2(rho: np.ndarray, rho_dot: np.ndarray) -> float:
    """Instantaneous entropy rate -Tr[rho_dot log2 rho] in bits per nsec."""
    return float(-np.trace(rho_dot @ matrix_log_clamped(rho)).real / math.log(2.0))


def purity_rate(rho: np.ndarray, rho_dot: np.ndarray) -> float:
    """d Tr[rho^2]/dt = 2 Tr[rho rho_dot]."""
    return float(2.0 * np.trace(rho @ rho_dot).real)


def beta_suppressed(t: float, rho: np.ndarray, gens) -> bool:
    """Density form of generators.bloch_beta_suppressed: True when the
    ascent/bath beta coefficient is degenerate at rho."""
    b2, b3 = ascent_betas(rho, hamiltonian(gens.hamiltonian, t), gens.beretta, gens.bath)
    return gens.beretta is not None and math.isnan(b2) or gens.bath is not None and math.isnan(b3)


@dataclass
class DensityRun:
    """Rows, states and work and heat tallies at every sample knot."""

    rows: list[ObservableRow]
    states: list[np.ndarray]
    work: np.ndarray
    heat: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.rows])

    @property
    def bloch(self) -> np.ndarray:
        return np.array([r.bloch for r in self.rows])

    @property
    def final_bloch(self) -> np.ndarray:
        return self.bloch[-1]


def integrate_density(
    gens, rho0, t_span, cfg: IntegratorConfig | None = None, sample_times=None
) -> DensityRun:
    """RK4 on drho/dt over the knots and steps integrate uses."""
    cfg = cfg or IntegratorConfig()
    hspec = gens.hamiltonian
    plan = segment_plan(gens, t_span, cfg, sample_times)

    def stage(t: float, rho: np.ndarray):
        """(drho/dt, power, heat rate, H, dH/dt) at (t, rho)."""
        h = hamiltonian(hspec, t)
        hd = hamiltonian_dot(hspec, t)
        k = rhs_given_h(t, rho, gens, h)
        return k, trace_product(rho, hd).real, trace_product(h, k).real, h, hd

    rho = np.asarray(rho0, dtype=complex)
    rho = 0.5 * (rho + adjoint(rho))
    work = 0.0
    heat = 0.0
    rows, states, work_samples, heat_samples = [], [], [], []

    def record(t: float, rho: np.ndarray, knot_stage):
        rho_dot, _, _, h, hd = knot_stage
        rows.append(observable_row(t, rho, h, hd, rho_dot, hspec.omega_l))
        states.append(rho)
        work_samples.append(work)
        heat_samples.append(heat)

    cur = stage(float(t_span[0]), rho)
    record(float(t_span[0]), rho, cur)
    for a, b, n, _, _ in plan:
        h_step = (b - a) / n
        half = 0.5 * h_step
        t = a
        for i in range(n):
            k1, w1, q1, _, _ = cur
            k2, w2, q2, _, _ = stage(t + half, rho + half * k1)
            k3, w3, q3, _, _ = stage(t + half, rho + half * k2)
            k4, w4, q4, _, _ = stage(t + h_step, rho + h_step * k3)
            rho = rho + (h_step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            work += (h_step / 6.0) * (w1 + 2.0 * w2 + 2.0 * w3 + w4)
            heat += (h_step / 6.0) * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
            t = a + (i + 1) * h_step
            rho = 0.5 * (rho + adjoint(rho))
            rho = rho / (rho[0, 0] + rho[1, 1]).real
            cur = stage(b if i == n - 1 else t, rho)
        record(b, rho, cur)
    return DensityRun(
        rows=rows, states=states, work=np.array(work_samples), heat=np.array(heat_samples)
    )
