"""Density-matrix route: the master equation stepped as a 2x2 matrix.

qubitdyn.engine.integrate steps the polarization with the Bloch-form
right-hand side generators.bloch_rhs.  This route steps rho itself with
the density-matrix right-hand side generators.rhs_given_h, through the
same segment plan (engine.segment_plan), and builds every row with the
matrix observable_row; beta_suppressed is the density form of the
integrator's beta-suppression watch.  The two share no right-hand-side code, so their
agreement sample by sample checks each against the other.

After every step the state is re-symmetrized and trace-renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qubitdyn.engine import IntegratorConfig, segment_plan
from qubitdyn.generators import (
    ascent_betas,
    hamiltonian,
    hamiltonian_dot,
    rhs_given_h,
    trace_product,
)
from qubitdyn.observables import ObservableRow, observable_row
from qubitdyn.spincore import CLAMP_EPS, adjoint


def beta_suppressed(t: float, rho: np.ndarray, gens, eps: float = CLAMP_EPS) -> bool:
    """Density form of generators.bloch_beta_suppressed: True when the
    ascent/bath beta coefficient is degenerate at rho."""
    b2, b3 = ascent_betas(rho, hamiltonian(gens.hamiltonian, t), gens.beretta, gens.bath, eps)
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
    gens, rho0, t_span, cfg: IntegratorConfig | None = None, sample_times=None, eps=CLAMP_EPS
) -> DensityRun:
    """RK4 on drho/dt over the knots and steps integrate uses."""
    cfg = cfg or IntegratorConfig()
    hspec = gens.hamiltonian
    plan = segment_plan(gens, t_span, cfg, sample_times)

    def stage(t: float, rho: np.ndarray):
        """(drho/dt, power, heat rate, H, dH/dt) at (t, rho)."""
        h = hamiltonian(hspec, t)
        hd = hamiltonian_dot(hspec, t)
        k = rhs_given_h(t, rho, gens, h, eps)
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
    for a, b, n, _ in plan:
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
