"""Right-hand-side builders for the hybrid qubit master equation.

The evolution law combines a time-dependent Hamiltonian commutator with
three non-unitary contributions:

    drho/dt = -(i/hbar)[H(t), rho]
              + sum_k Gamma_k ( L_k rho L_k+ - {L_k+ L_k, rho}/2 )   Lindblad
              + gamma_2 ( rho(S - <S>) - beta_2 ({rho,H}/2 - rho<H>) )  entropy ascent
              + gamma_3 ( rho(S - <S>) - beta_3 ({rho,H}/2 - rho<H>) )  thermal bath

with S = -ln rho the surprisal operator.  beta_2 is the state-dependent
covariance ratio <dE dS>/<dE dE>, which makes the entropy-ascent term
heatless by construction; beta_3 is either the constant 1/(kB T)
(Korsch variant, Gibbs fixed point) or the covariance form that pins the
heat-to-entropy rate ratio at kB T (Beretta variant).

The Hamiltonian combines free precession -(hbar omega_L/2) sigma_3 with
scheduled gate events: within a gate the bias pulse scales the splitting
by (1 - theta_B) while the Gaussian drive adds hbar theta_G(t) times the
gate generator.  An optional axis rotation crossfades the precession
axis through a smooth step.

Every function here is pure; the integrator composes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .observables import HBAR, KBOLTZ
from .pulses import GateEvent, SmoothStep
from .spincore import (
    CLAMP_EPS,
    PAULI,
    SIGMA0,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    adjoint,
    eigh2,
    matrix_log_clamped,
)

# variances at or below this floor (micro-eV^2) suppress the beta term
VAR_FLOOR = 1e-18


def _pauli_combo(coeff0: complex, coeffs) -> np.ndarray:
    return (
        coeff0 * SIGMA0 + coeffs[0] * SIGMA1 + coeffs[1] * SIGMA2 + coeffs[2] * SIGMA3
    )


@dataclass(frozen=True)
class AxisRotation:
    """Crossfade of the precession axis from axis_from to axis_to.

    The instantaneous axis matrix is step(t0-t)*sigma.axis_from +
    step(t-t0)*sigma.axis_to, i.e. the from-axis fades out as the to-axis
    fades in around the step midpoint.
    """

    step: SmoothStep
    axis_from: tuple[float, float, float]
    axis_to: tuple[float, float, float]

    def matrix_pair(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            _pauli_combo(0.0, self.axis_from),
            _pauli_combo(0.0, self.axis_to),
        )

    def axis_matrix(self, t: float) -> np.ndarray:
        m_from, m_to = self.matrix_pair()
        t0 = self.step.t0
        return self.step.value(t0 - (t - t0)) * m_from + self.step.value(t) * m_to

    def axis_matrix_dot(self, t: float) -> np.ndarray:
        m_from, m_to = self.matrix_pair()
        t0 = self.step.t0
        return -self.step.derivative(t0 - (t - t0)) * m_from + self.step.derivative(t) * m_to


@dataclass(frozen=True)
class HamiltonianSpec:
    """Level splitting plus scheduled gate drives.

    bias_holds are standalone bias pulses with no drive attached; they
    flatten the level splitting to hold off precession, e.g. while a
    measurement window is open.
    """

    omega_l: float
    gates: tuple[GateEvent, ...] = ()
    axis_rotation: AxisRotation | None = None
    bias_holds: tuple = ()


def _axis_matrix(spec: HamiltonianSpec, t: float) -> np.ndarray:
    if spec.axis_rotation is None:
        return SIGMA3
    return spec.axis_rotation.axis_matrix(t)


def hamiltonian(spec: HamiltonianSpec, t: float) -> np.ndarray:
    """H(t) = -(hbar omega_L/2)(1 - theta_B) axis + hbar theta_G Omega per gate."""
    bias = 0.0
    drive = None
    for g in spec.gates:
        lo, hi = g.bias.support()
        if lo <= t <= hi:
            bias += g.bias.value(t)
        lo, hi = g.pulse.support()
        if lo <= t <= hi:
            term = (HBAR * g.pulse.value(t)) * g.generator
            drive = term if drive is None else drive + term
    for b in spec.bias_holds:
        lo, hi = b.support()
        if lo <= t <= hi:
            bias += b.value(t)
    h = (-0.5 * HBAR * spec.omega_l * (1.0 - bias)) * _axis_matrix(spec, t)
    if drive is not None:
        h = h + drive
    return h


def hamiltonian_dot(spec: HamiltonianSpec, t: float) -> np.ndarray:
    """Analytic dH/dt matching hamiltonian()."""
    bias = 0.0
    bias_dot = 0.0
    drive_dot = None
    for g in spec.gates:
        lo, hi = g.bias.support()
        if lo <= t <= hi:
            bias += g.bias.value(t)
            bias_dot += g.bias.derivative(t)
        lo, hi = g.pulse.support()
        if lo <= t <= hi:
            term = (HBAR * g.pulse.derivative(t)) * g.generator
            drive_dot = term if drive_dot is None else drive_dot + term
    for b in spec.bias_holds:
        lo, hi = b.support()
        if lo <= t <= hi:
            bias += b.value(t)
            bias_dot += b.derivative(t)
    scale = -0.5 * HBAR * spec.omega_l
    out = (scale * -bias_dot) * _axis_matrix(spec, t)
    if spec.axis_rotation is not None:
        out = out + (scale * (1.0 - bias)) * spec.axis_rotation.axis_matrix_dot(t)
    if drive_dot is not None:
        out = out + drive_dot
    return out


@dataclass(frozen=True)
class LindbladOp:
    """Lindblad operator L = alpha_0 sigma_0 + alpha . sigma_vec, rate Gamma.

    An optional envelope theta(t) multiplies L, so the dissipator scales
    by theta^2.  Negative rates model feedback and must be opted into.
    """

    alpha0: complex
    alpha: tuple[complex, complex, complex]
    gamma: float
    envelope: object | None = None
    label: str = ""
    feedback: bool = False
    _matrix: np.ndarray = field(init=False, repr=False, compare=False)
    _mdag: np.ndarray = field(init=False, repr=False, compare=False)
    _mdm: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.gamma < 0.0 and not self.feedback:
            raise ValueError("negative Lindblad rate requires feedback=True")
        m = _pauli_combo(self.alpha0, self.alpha)
        object.__setattr__(self, "_matrix", m)
        object.__setattr__(self, "_mdag", adjoint(m))
        object.__setattr__(self, "_mdm", adjoint(m) @ m)

    def matrix(self) -> np.ndarray:
        """Constant operator part, envelope excluded."""
        return self._matrix

    def envelope_value(self, t: float) -> float:
        return 1.0 if self.envelope is None else self.envelope.value(t)

    def active(self, t: float) -> bool:
        if self.envelope is None:
            return True
        lo, hi = self.envelope.support()
        return lo <= t <= hi


def lindblad_term(l: np.ndarray, rho: np.ndarray, gamma: float) -> np.ndarray:
    """Dissipator Gamma (L rho L+ - {L+ L, rho}/2); traceless for any L."""
    ld = adjoint(l)
    ll = ld @ l
    return gamma * (l @ rho @ ld - 0.5 * (ll @ rho + rho @ ll))


def _op_term(op: LindbladOp, rho: np.ndarray, t: float) -> np.ndarray | None:
    if not op.active(t):
        return None
    scale = op.envelope_value(t)
    rate = op.gamma * scale * scale
    if rate == 0.0:
        return None
    l = op._matrix
    ll = op._mdm
    return rate * (l @ rho @ op._mdag - 0.5 * (ll @ rho + rho @ ll))


def trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """Tr(a @ b) for 2x2 matrices without forming the product."""
    return a[0, 0] * b[0, 0] + a[0, 1] * b[1, 0] + a[1, 0] * b[0, 1] + a[1, 1] * b[1, 1]


def state_covariances(
    rho: np.ndarray, h: np.ndarray, eps: float = CLAMP_EPS, s: np.ndarray | None = None
) -> tuple[float, float, float]:
    """Covariances (<dE dE>, <dE dS>, <dS dS>) of energy and surprisal.

    The surprisal S = -ln rho commutes with rho, so rho S and rho S^2 are
    Hermitian and all three covariances are real.  Pass s to reuse an
    already-computed surprisal matrix.
    """
    if s is None:
        s = -matrix_log_clamped(rho, eps)
    rh = rho @ h
    rs = rho @ s
    e_mean = (rh[0, 0] + rh[1, 1]).real
    s_mean = (rs[0, 0] + rs[1, 1]).real
    var_e = trace_product(rh, h).real - e_mean * e_mean
    cov_es = trace_product(rs, h).real - e_mean * s_mean
    var_s = trace_product(rs, s).real - s_mean * s_mean
    return float(var_e), float(cov_es), float(var_s)


def beta2(rho: np.ndarray, h: np.ndarray, eps: float = CLAMP_EPS) -> float:
    """State-dependent inverse temperature <dE dS>/<dE dE> of the ascent term.

    nan sentinel when the energy variance is degenerate (below VAR_FLOOR).
    """
    return ascent_betas(rho, h, BerettaSpec(0.0), None, eps)[0]


def beta2_closed_form(bloch, omega_l: float) -> float:
    """One-qubit closed form of beta2 for H = -(hbar omega_L/2) sigma_3.

    beta2 = 2 (1-P^2)/(1-P_z^2) (P_z/P) artanh(P) / (hbar omega_L).
    """
    p_vec = np.asarray(bloch, dtype=float)
    p = float(np.linalg.norm(p_vec))
    pz = float(p_vec[2])
    if p < 1e-15:
        return 0.0
    if p >= 1.0:
        return math.copysign(math.inf, pz)
    return (
        2.0
        * ((1.0 - p * p) / (1.0 - pz * pz))
        * (pz / p)
        * math.atanh(p)
        / (HBAR * omega_l)
    )


def _ascent_shape(rho: np.ndarray, h: np.ndarray, s: np.ndarray, beta: float) -> np.ndarray:
    """Common shape rho(S - <S>) - beta ({rho,H}/2 - rho <H>); traceless."""
    rs = rho @ s
    s_mean = (rs[0, 0] + rs[1, 1]).real
    out = rs - s_mean * rho
    if beta != 0.0:
        rh = rho @ h
        e_mean = (rh[0, 0] + rh[1, 1]).real
        out = out - beta * (0.5 * (rh + h @ rho) - e_mean * rho)
    return out


def beretta_term(
    rho: np.ndarray, h: np.ndarray, gamma2: float, eps: float = CLAMP_EPS
) -> np.ndarray:
    """Entropy-ascent contribution; transfers no heat by construction.

    At a degenerate energy variance the beta part is suppressed and only
    the entropy-raising part acts.
    """
    s = -matrix_log_clamped(rho, eps)
    beta, _ = ascent_betas(rho, h, BerettaSpec(gamma2), None, eps, s)
    return gamma2 * _ascent_shape(rho, h, s, 0.0 if math.isnan(beta) else beta)


@dataclass(frozen=True)
class BerettaSpec:
    """Strength of the closed-system entropy-ascent term."""

    gamma2: float


BATH_VARIANTS = ("korsch", "beretta")


@dataclass(frozen=True)
class BathSpec:
    """Thermal bath contact: strength, variant, and temperature in Kelvin.

    korsch:  beta_3 = 1/(kB T), Gibbs state is the exact fixed point.
    beretta: state-dependent beta_3 that enforces heat/entropy rate = kB T.
    """

    gamma3: float
    temperature: float
    variant: str = "korsch"

    def __post_init__(self):
        if self.variant not in BATH_VARIANTS:
            raise ValueError(f"unknown bath variant {self.variant!r}")
        if self.temperature <= 0.0:
            raise ValueError("bath temperature must be positive")


def bath_beta(
    rho: np.ndarray,
    h: np.ndarray,
    bath: BathSpec,
    eps: float = CLAMP_EPS,
    s: np.ndarray | None = None,
) -> float:
    """Inverse-temperature coefficient of the bath term for the current state."""
    return ascent_betas(rho, h, None, bath, eps, s)[1]


def ascent_betas(
    rho: np.ndarray, h: np.ndarray, beretta, bath, eps: float = CLAMP_EPS, s=None
) -> tuple[float, float]:
    """(beta_2, beta_3) of the ascent and bath terms, from one surprisal s
    (computed when None) and one covariance evaluation, made only when a
    state-dependent beta needs it.  nan marks an absent term, a degenerate
    energy variance (beta_2) and a degenerate Beretta-variant denominator.
    """
    b2 = b3 = math.nan
    if beretta is not None or (bath is not None and bath.variant == "beretta"):
        var_e, cov_es, var_s = state_covariances(rho, h, eps, s=s)
        if beretta is not None and var_e > VAR_FLOOR:
            b2 = cov_es / var_e
    if bath is not None:
        kt = KBOLTZ * bath.temperature
        if bath.variant == "korsch":
            b3 = 1.0 / kt
        elif abs(denom := var_e - kt * cov_es) > VAR_FLOOR:
            b3 = (cov_es - kt * var_s) / denom
    return b2, b3


def bath_term(
    rho: np.ndarray, h: np.ndarray, bath: BathSpec, eps: float = CLAMP_EPS
) -> np.ndarray:
    """Thermal-bath contribution with the variant's beta_3."""
    s = -matrix_log_clamped(rho, eps)
    beta = bath_beta(rho, h, bath, eps, s)
    return bath.gamma3 * _ascent_shape(rho, h, s, 0.0 if math.isnan(beta) else beta)


def combined_23_term(
    rho: np.ndarray,
    h: np.ndarray,
    beretta: BerettaSpec,
    bath: BathSpec,
    eps: float = CLAMP_EPS,
) -> np.ndarray:
    """Merged ascent-plus-bath form with gamma_23 = gamma2 + gamma3 and
    beta_23 the rate-weighted mean of beta2 and beta3.

    Algebraically equal to the sum of the separate terms.
    """
    s = -matrix_log_clamped(rho, eps)
    b2, b3 = (0.0 if math.isnan(b) else b for b in ascent_betas(rho, h, beretta, bath, eps, s))
    gamma_23 = beretta.gamma2 + bath.gamma3
    if gamma_23 == 0.0:
        return np.zeros((2, 2), dtype=complex)
    beta_23 = (beretta.gamma2 * b2 + bath.gamma3 * b3) / gamma_23
    return gamma_23 * _ascent_shape(rho, h, s, beta_23)


@dataclass(frozen=True)
class GeneratorSet:
    """Everything the integrator needs to evaluate drho/dt."""

    hamiltonian: HamiltonianSpec
    lindblads: tuple[LindbladOp, ...] = ()
    beretta: BerettaSpec | None = None
    bath: BathSpec | None = None


def rhs(t: float, rho: np.ndarray, gens: GeneratorSet, eps: float = CLAMP_EPS) -> np.ndarray:
    """Full master-equation right-hand side at time t."""
    return rhs_given_h(t, rho, gens, hamiltonian(gens.hamiltonian, t), eps)


def rhs_given_h(
    t: float, rho: np.ndarray, gens: GeneratorSet, h: np.ndarray, eps: float = CLAMP_EPS
) -> np.ndarray:
    """rhs with the Hamiltonian already evaluated (integrator fast path)."""
    out = (-1.0j / HBAR) * (h @ rho - rho @ h)
    for op in gens.lindblads:
        term = _op_term(op, rho, t)
        if term is not None:
            out = out + term
    if gens.beretta is not None or gens.bath is not None:
        # both terms share the ascent shape, which is affine in beta, so
        # one evaluation at the rate-weighted beta equals the sum
        s = -matrix_log_clamped(rho, eps)
        b2, b3 = ascent_betas(rho, h, gens.beretta, gens.bath, eps, s)
        g2 = gens.beretta.gamma2 if gens.beretta is not None else 0.0
        g3 = gens.bath.gamma3 if gens.bath is not None else 0.0
        weighted = 0.0
        if g2 != 0.0:
            weighted += g2 * (0.0 if math.isnan(b2) else b2)
        if g3 != 0.0:
            weighted += 0.0 if math.isnan(b3) else g3 * b3
        g23 = g2 + g3
        if g23 != 0.0:
            out = out + g23 * _ascent_shape(rho, h, s, weighted / g23)
    return out


def beta_suppressed(t: float, rho: np.ndarray, gens: GeneratorSet, eps: float = CLAMP_EPS) -> bool:
    """True when the ascent/bath beta coefficient is degenerate at this state."""
    b2, b3 = ascent_betas(rho, hamiltonian(gens.hamiltonian, t), gens.beretta, gens.bath, eps)
    return gens.beretta is not None and math.isnan(b2) or gens.bath is not None and math.isnan(b3)


def delta_p(alpha0: complex, alpha, bloch) -> np.ndarray:
    """Polarization drift of one Lindblad operator in Bloch form.

    For L = alpha_0 sigma_0 + alpha . sigma_vec with alpha_j = a_j + i b_j,
    the dissipator moves the polarization at 2 Gamma delta_p where

    delta_p = -a^2 [P - (a.P)a/a^2] - b^2 [P - (b.P)b/b^2]
              + P x (a0 b - b0 a) + 2 (a x b).
    """
    p = np.asarray(bloch, dtype=float)
    a_vec = np.array([complex(c).real for c in alpha])
    b_vec = np.array([complex(c).imag for c in alpha])
    a0 = complex(alpha0).real
    b0 = complex(alpha0).imag
    out = (
        -np.dot(a_vec, a_vec) * p
        + np.dot(a_vec, p) * a_vec
        - np.dot(b_vec, b_vec) * p
        + np.dot(b_vec, p) * b_vec
    )
    out = out + np.cross(p, a0 * b_vec - b0 * a_vec)
    out = out + 2.0 * np.cross(a_vec, b_vec)
    return out


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


STEADY_KINDS = ("sx", "sy", "sz", "s+", "s-")


def steady_op(kind: str, gamma: float) -> LindbladOp:
    """Constant Lindblad operator for the five named steady cases.

    The raising/lowering cases use the unit-element operators
    (sigma_1 +- i sigma_2)/2, whose decay constants match the closed
    forms in steady_analytic.
    """
    if kind == "sx":
        alpha = (1.0 + 0.0j, 0.0j, 0.0j)
    elif kind == "sy":
        alpha = (0.0j, 1.0 + 0.0j, 0.0j)
    elif kind == "sz":
        alpha = (0.0j, 0.0j, 1.0 + 0.0j)
    elif kind == "s+":
        alpha = (0.5 + 0.0j, 0.5j, 0.0j)
    elif kind == "s-":
        alpha = (0.5 + 0.0j, -0.5j, 0.0j)
    else:
        raise ValueError(f"unknown steady case {kind!r}; expected one of {STEADY_KINDS}")
    return LindbladOp(alpha0=0.0j, alpha=alpha, gamma=gamma, label=f"steady-{kind}")


def measurement_op(window, gamma: float) -> LindbladOp:
    """Pulsed measurement operator (sigma . m) theta_M(t) along the window direction."""
    d = window.direction
    return LindbladOp(
        alpha0=0.0j,
        alpha=(complex(d[0]), complex(d[1]), complex(d[2])),
        gamma=gamma,
        envelope=window.envelope(),
        label="measurement",
    )
