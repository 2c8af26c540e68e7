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
axis through a smooth step.  hamiltonian_terms evaluates H and dH/dt
once, as Pauli components; hamiltonian and hamiltonian_dot are matrix
views of it.

Two forms of the right-hand side live here and do not call each other.
bloch_rhs is the Bloch form the integrator steps: with
rho = (sigma_0 + P . sigma_vec)/2 and H = h0 sigma_0 + h . sigma_vec every
term is a closed-form drift of the three reals P.  rhs and rhs_given_h
are the density-matrix form, kept as the independent reference.

Every function here is pure; the integrator composes them.
"""

from __future__ import annotations

import math
import sys
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
    matrix_log_clamped,
)

# an energy variance at or below VAR_FLOOR (micro-eV^2) plus VAR_ROUNDOFF
# times Tr(H^2)/2 = h0^2 + |h|^2 is degenerate and suppresses the beta
# term: <H^2> - <H>^2 cancels to a few ulps of that scale, so below it the
# computed variance is roundoff and reads differently in the Bloch and
# density forms of the same state (0 or 1.5 ulps for P one ulp short of
# a pure state along the field)
VAR_FLOOR = 1e-18
VAR_ROUNDOFF = 16.0 * sys.float_info.epsilon

# largest |P| artanh sees in the Bloch form: matrix_log_clamped's eigenvalue
# floor CLAMP_EPS as a bound on (1 - |P|)/2
P_CLAMP = 1.0 - 2.0 * CLAMP_EPS


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
    # (pulse, lo, hi, g0, g1, g2, g3) per gate drive, generator as Pauli components
    _drives: tuple = field(init=False, repr=False, compare=False)
    # (pulse, lo, hi) per bias pulse: gate biases in gate order, then the holds
    _biases: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        drives = tuple(
            (g.pulse, *g.pulse.support(), *pauli_components(g.generator)) for g in self.gates
        )
        pulses = [g.bias for g in self.gates] + list(self.bias_holds)
        object.__setattr__(self, "_drives", drives)
        object.__setattr__(self, "_biases", tuple((b, *b.support()) for b in pulses))


def pauli_components(m: np.ndarray) -> tuple[float, float, float, float]:
    """(m0, m1, m2, m3) of a Hermitian 2x2 matrix m = m0 sigma_0 + m_vec . sigma_vec."""
    return (
        float(0.5 * (m[0, 0] + m[1, 1]).real),
        float(0.5 * (m[0, 1] + m[1, 0]).real),
        float(0.5 * (m[1, 0] - m[0, 1]).imag),
        float(0.5 * (m[0, 0] - m[1, 1]).real),
    )


def hamiltonian_terms(spec: HamiltonianSpec, t: float) -> tuple[float, ...]:
    """H(t) and dH/dt as Pauli components, in one pass over the gates, the
    bias pulses and the axis rotation.

    H(t) = -(hbar omega_L/2)(1 - theta_B) axis + hbar theta_G Omega per gate.
    Returns (h0, hx, hy, hz, h0_dot, hx_dot, hy_dot, hz_dot) with
    H = h0 sigma_0 + h . sigma_vec and dH/dt likewise.
    """
    h0 = hx = hy = hz = 0.0
    d0 = dx = dy = dz = 0.0
    for pulse, lo, hi, g0, g1, g2, g3 in spec._drives:
        if lo <= t <= hi:
            a = HBAR * pulse.value(t)
            ad = HBAR * pulse.derivative(t)
            h0 += a * g0
            hx += a * g1
            hy += a * g2
            hz += a * g3
            d0 += ad * g0
            dx += ad * g1
            dy += ad * g2
            dz += ad * g3
    bias = bias_dot = 0.0
    for pulse, lo, hi in spec._biases:
        if lo <= t <= hi:
            bias += pulse.value(t)
            bias_dot += pulse.derivative(t)
    scale = -0.5 * HBAR * spec.omega_l
    c = scale * (1.0 - bias)
    cd = scale * -bias_dot
    rot = spec.axis_rotation
    if rot is None:
        return h0, hx, hy, c + hz, d0, dx, dy, cd + dz
    step, t0 = rot.step, rot.step.t0
    s_from, s_to = step.value(t0 - (t - t0)), step.value(t)
    r_from, r_to = -step.derivative(t0 - (t - t0)), step.derivative(t)
    (fx, fy, fz), (tx, ty, tz) = rot.axis_from, rot.axis_to
    ax, ay, az = s_from * fx + s_to * tx, s_from * fy + s_to * ty, s_from * fz + s_to * tz
    bx, by, bz = r_from * fx + r_to * tx, r_from * fy + r_to * ty, r_from * fz + r_to * tz
    return (
        h0,
        c * ax + hx,
        c * ay + hy,
        c * az + hz,
        d0,
        cd * ax + c * bx + dx,
        cd * ay + c * by + dy,
        cd * az + c * bz + dz,
    )


def hamiltonian(spec: HamiltonianSpec, t: float) -> np.ndarray:
    """H(t) as a matrix: the first half of hamiltonian_terms."""
    h0, hx, hy, hz = hamiltonian_terms(spec, t)[:4]
    return _pauli_combo(h0, (hx, hy, hz))


def hamiltonian_dot(spec: HamiltonianSpec, t: float) -> np.ndarray:
    """Analytic dH/dt as a matrix: the second half of hamiltonian_terms."""
    d0, dx, dy, dz = hamiltonian_terms(spec, t)[4:]
    return _pauli_combo(d0, (dx, dy, dz))


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
    rho: np.ndarray, h: np.ndarray, s: np.ndarray | None = None
) -> tuple[float, float, float]:
    """Covariances (<dE dE>, <dE dS>, <dS dS>) of energy and surprisal.

    The surprisal S = -ln rho commutes with rho, so rho S and rho S^2 are
    Hermitian and all three covariances are real.  <dE dS> and <dS dS>
    are Tr[rho dS H] and Tr[rho dS dS] with the centred surprisal
    dS = S - <S>, which keeps their digits near the maximally mixed state,
    where <S^2> - <S>^2 cancels to roundoff.  Pass s to reuse an
    already-computed surprisal matrix.
    """
    if s is None:
        s = -matrix_log_clamped(rho)
    rh = rho @ h
    rs = rho @ s
    e_mean = (rh[0, 0] + rh[1, 1]).real
    ds = s - (rs[0, 0] + rs[1, 1]).real * SIGMA0
    rds = rho @ ds
    var_e = trace_product(rh, h).real - e_mean * e_mean
    cov_es = trace_product(rds, h).real
    var_s = trace_product(rds, ds).real
    return float(var_e), float(cov_es), float(var_s)


def beta2(rho: np.ndarray, h: np.ndarray) -> float:
    """State-dependent inverse temperature <dE dS>/<dE dE> of the ascent term.

    nan sentinel when the energy variance is degenerate (see VAR_FLOOR).
    """
    return ascent_betas(rho, h, BerettaSpec(0.0), None)[0]


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


def bath_beta(rho: np.ndarray, h: np.ndarray, bath: BathSpec, s=None) -> float:
    """Inverse-temperature coefficient of the bath term for the current state."""
    return ascent_betas(rho, h, None, bath, s)[1]


def ascent_betas(rho: np.ndarray, h: np.ndarray, beretta, bath, s=None) -> tuple[float, float]:
    """(beta_2, beta_3) of the ascent and bath terms, from one surprisal s
    (computed when None) and one covariance evaluation, made only when a
    state-dependent beta needs it.  nan marks an absent term, a degenerate
    energy variance (beta_2) and a degenerate Beretta-variant denominator.
    """
    b2 = b3 = math.nan
    if beretta is not None or (bath is not None and bath.variant == "beretta"):
        var_e, cov_es, var_s = state_covariances(rho, h, s)
        floor = VAR_FLOOR + VAR_ROUNDOFF * 0.5 * trace_product(h, h).real
        if beretta is not None and var_e > floor:
            b2 = cov_es / var_e
    if bath is not None:
        kt = KBOLTZ * bath.temperature
        if bath.variant == "korsch":
            b3 = 1.0 / kt
        elif abs(denom := var_e - kt * cov_es) > floor:
            b3 = (cov_es - kt * var_s) / denom
    return b2, b3


@dataclass(frozen=True)
class GeneratorSet:
    """Everything the integrator needs to evaluate drho/dt."""

    hamiltonian: HamiltonianSpec
    lindblads: tuple[LindbladOp, ...] = ()
    beretta: BerettaSpec | None = None
    bath: BathSpec | None = None


def rhs(t: float, rho: np.ndarray, gens: GeneratorSet) -> np.ndarray:
    """Full master-equation right-hand side at time t."""
    return rhs_given_h(t, rho, gens, hamiltonian(gens.hamiltonian, t))


def rhs_given_h(t: float, rho: np.ndarray, gens: GeneratorSet, h: np.ndarray) -> np.ndarray:
    """rhs with the Hamiltonian already evaluated (integrator fast path)."""
    out = (-1.0j / HBAR) * (h @ rho - rho @ h)
    for op in gens.lindblads:
        term = _op_term(op, rho, t)
        if term is not None:
            out = out + term
    if gens.beretta is not None or gens.bath is not None:
        # both terms share the ascent shape, which is affine in beta, so
        # one evaluation at the rate-weighted beta equals the sum
        s = -matrix_log_clamped(rho)
        b2, b3 = ascent_betas(rho, h, gens.beretta, gens.bath, s)
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


def bloch_betas(px, py, pz, h0, hx, hy, hz, beretta, bath):
    """(s, beta_2, beta_3) in Bloch form, for the state P and H = h0 + h . sigma.

    rho (S - <S>) has the Bloch vector -s P with s = (1 - p^2) artanh(p)/p,
    and the covariances are var_E = |h|^2 - (P.h)^2, cov_ES = -s (P.h) and
    var_S = (1 - p^2) artanh(p)^2.  The betas follow from them as in
    ascent_betas, nan sentinels included.  artanh sees p clamped to
    P_CLAMP.
    """
    p2 = px * px + py * py + pz * pz
    p = math.sqrt(p2)
    if p > 0.0:
        b = math.atanh(min(p, P_CLAMP))
        s = (1.0 - p2) * b / p
    else:
        b, s = 0.0, 1.0
    b2 = b3 = math.nan
    if beretta is not None or (bath is not None and bath.variant == "beretta"):
        ph = px * hx + py * hy + pz * hz
        var_e = hx * hx + hy * hy + hz * hz - ph * ph
        cov_es = -s * ph
        var_s = (1.0 - p2) * b * b
        floor = VAR_FLOOR + VAR_ROUNDOFF * (h0 * h0 + hx * hx + hy * hy + hz * hz)
        if beretta is not None and var_e > floor:
            b2 = cov_es / var_e
    if bath is not None:
        kt = KBOLTZ * bath.temperature
        if bath.variant == "korsch":
            b3 = 1.0 / kt
        elif abs(denom := var_e - kt * cov_es) > floor:
            b3 = (cov_es - kt * var_s) / denom
    return s, b2, b3


def bloch_beta_suppressed(t: float, p, gens: GeneratorSet) -> bool:
    """True when the ascent/bath beta coefficient is degenerate at the
    polarization p at time t."""
    h0, hx, hy, hz = hamiltonian_terms(gens.hamiltonian, t)[:4]
    _, b2, b3 = bloch_betas(*p, h0, hx, hy, hz, gens.beretta, gens.bath)
    return gens.beretta is not None and math.isnan(b2) or gens.bath is not None and math.isnan(b3)


def bloch_rhs(gens: GeneratorSet):
    """The master equation in Bloch form, as a function of (t, Px, Py, Pz).

    With rho = (sigma_0 + P . sigma_vec)/2, H = h0 sigma_0 + h . sigma_vec,
    p = |P| and n = P/p, the terms of dP/dt are

        commutator        (2/hbar) h x P
        Lindblad k        Gamma_k theta_k(t)^2 (M_k P + v_k)
        ascent and bath   gamma [-(1 - p^2) artanh(p) n - beta (h - (P.h) P)]

    where (M_k, v_k) is linear_bloch_drift's split of 2 delta_p; the
    constant operators are summed into one affine drift here, once.  The
    returned function gives (dPx, dPy, dPz, power, heat rate, H terms):
    power Tr[rho dH/dt] = h0_dot + P . h_dot, heat rate Tr[H drho/dt] =
    h . dP/dt, and the H terms as hamiltonian_terms returns them.
    """
    hspec = gens.hamiltonian
    steady = [(op.alpha0, op.alpha, op.gamma) for op in gens.lindblads if op.envelope is None]
    m, v = linear_bloch_drift(0.0, steady)
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m.tolist()
    v0, v1, v2 = v.tolist()
    pulsed = []
    for op in gens.lindblads:
        if op.envelope is not None:
            mk, vk = linear_bloch_drift(0.0, [(op.alpha0, op.alpha, 1.0)])
            lo, hi = op.envelope.support()
            pulsed.append((op.envelope, lo, hi, op.gamma, *mk.ravel().tolist(), *vk.tolist()))
    beretta, bath = gens.beretta, gens.bath
    g2 = beretta.gamma2 if beretta is not None else 0.0
    g3 = bath.gamma3 if bath is not None else 0.0
    g23 = g2 + g3
    c = 2.0 / HBAR

    def f(t, px, py, pz):
        hterms = hamiltonian_terms(hspec, t)
        h0, hx, hy, hz, e0, ex, ey, ez = hterms
        dx = c * (hy * pz - hz * py) + (m00 * px + m01 * py + m02 * pz + v0)
        dy = c * (hz * px - hx * pz) + (m10 * px + m11 * py + m12 * pz + v1)
        dz = c * (hx * py - hy * px) + (m20 * px + m21 * py + m22 * pz + v2)
        for env, lo, hi, gamma, a00, a01, a02, a10, a11, a12, a20, a21, a22, w0, w1, w2 in pulsed:
            if lo <= t <= hi:
                theta = env.value(t)
                r = gamma * theta * theta
                dx += r * (a00 * px + a01 * py + a02 * pz + w0)
                dy += r * (a10 * px + a11 * py + a12 * pz + w1)
                dz += r * (a20 * px + a21 * py + a22 * pz + w2)
        if g23 != 0.0:
            # one shape at the rate-weighted beta equals the sum of both terms
            s, b2, b3 = bloch_betas(px, py, pz, h0, hx, hy, hz, beretta, bath)
            weighted = 0.0
            if g2 != 0.0:
                weighted += g2 * (0.0 if math.isnan(b2) else b2)
            if g3 != 0.0:
                weighted += 0.0 if math.isnan(b3) else g3 * b3
            beta = weighted / g23
            ph = px * hx + py * hy + pz * hz
            dx += g23 * (-s * px - beta * (hx - ph * px))
            dy += g23 * (-s * py - beta * (hy - ph * py))
            dz += g23 * (-s * pz - beta * (hz - ph * pz))
        return dx, dy, dz, e0 + px * ex + py * ey + pz * ez, hx * dx + hy * dy + hz * dz, hterms

    return f


def linear_bloch_drift(omega_l: float, ops) -> tuple[np.ndarray, np.ndarray]:
    """(M, v) of dP/dt = M P + v for precession plus constant Lindblad
    operators, given as (alpha0, alpha, gamma) triples; each adds
    2 Gamma delta_p(P), split into its linear part and delta_p(0)."""
    m = np.array([[0.0, omega_l, 0.0], [-omega_l, 0.0, 0.0], [0.0, 0.0, 0.0]])
    v = np.zeros(3)
    for alpha0, alpha, gamma in ops:
        d0 = delta_p(alpha0, alpha, np.zeros(3))
        cols = [delta_p(alpha0, alpha, e) - d0 for e in np.eye(3)]
        m += 2.0 * gamma * np.column_stack(cols)
        v += 2.0 * gamma * d0
    return m, v


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
