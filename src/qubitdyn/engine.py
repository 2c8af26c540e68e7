"""Fixed-step density-matrix integrator and its analytic cross-checks.

Integration uses the classic fourth-order Runge-Kutta rule on a segment
grid.  Segment boundaries are the union of the run endpoints, every
pulse support edge, and every requested sample time, so pulses are never
straddled and samples land exactly on grid points.  Segments that fall
inside a pulse support march at base_step/pulse_refinement; everything
else marches at base_step (default: one two-thousandth of the Larmor
period).

Work and heat are accumulated through the same Runge-Kutta stages as
the state, using the stage rates Tr[rho dH/dt] (power) and Tr[H drho/dt]
(heat flow), so the thermodynamic tallies carry the integrator's order.

After every step the state is re-symmetrized and trace-renormalized.
At a configurable cadence the state is validated; an eigenvalue below
the positivity floor aborts with PositivityError.

The module also carries the independent oracle routes used to pin the
integrator down in tests: closed-form polarization solutions for the
five constant-Lindblad cases, and a polarization-space integrator that
steps the affine drift dP/dt = M P + v of precession plus constant
Lindblad operators, built once per call by linear_bloch_drift from the
drift form of the dissipator.  The two routes share no code with the
density-matrix path.

Measurement runs wrap integrate() with a pulsed
measurement operator, watching the conserved component along the
measurement direction.  Gate-sequence fidelity is scored on the Larmor
grid: sample times one Larmor period apart, shifted by the widths of
all completed gate windows so the comparison always happens at a
multiple of 2 pi of accumulated free phase.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .generators import (
    STEADY_KINDS,
    GeneratorSet,
    HamiltonianSpec,
    beta_suppressed,
    delta_p,
    hamiltonian,
    hamiltonian_dot,
    measurement_op,
    rhs_given_h,
    trace_product,
)
from .observables import ObservableRow, fidelity, observable_row
from .pulses import MeasurementWindow
from .spincore import (
    CLAMP_EPS,
    adjoint,
    bloch_to_density,
    density_to_bloch,
    eigenvalues,
    validate,
)

WEAK_MEASUREMENT_RATIO = 20.0
MEASUREMENT_DRIFT_TOL = 5e-3


class PositivityError(RuntimeError):
    """State left the physical region beyond the configured floor."""

    def __init__(self, t: float, min_eigenvalue: float):
        super().__init__(
            f"density matrix eigenvalue {min_eigenvalue:.3e} below floor at t={t:.6f}"
        )
        self.t = t
        self.min_eigenvalue = min_eigenvalue


@dataclass(frozen=True)
class IntegratorConfig:
    """Step sizes, hygiene cadence, and sampling policy."""

    base_step: float | None = None
    pulse_refinement: int = 50
    validate_every: int = 100
    positivity_floor: float = -1e-9
    samples: int = 500
    include_larmor_grid: bool = True

    def resolved_base_step(self, omega_l: float) -> float:
        """base_step, or one two-thousandth of the Larmor period when unset."""
        if self.base_step is not None:
            return self.base_step
        return 2.0 * math.pi / omega_l / 2000.0


@dataclass
class Trajectory:
    """Sampled run: observable rows, states, tallies, and event log."""

    rows: list[ObservableRow]
    states: list[np.ndarray]
    work: np.ndarray
    heat: np.ndarray
    events: list[dict]
    meta: dict

    @property
    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.rows])

    @property
    def bloch(self) -> np.ndarray:
        return np.array([r.bloch for r in self.rows])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_bloch(self) -> np.ndarray:
        return np.asarray(self.rows[-1].bloch, dtype=float)

    def row_index(self, t: float, tol: float = 1e-9) -> int:
        times = self.times
        i = bisect_left(times.tolist(), t - tol)
        if i < len(times) and abs(times[i] - t) <= tol:
            return i
        raise KeyError(f"no sample at t={t!r}")


def _spans(gens: GeneratorSet) -> list[tuple[float, float, bool]]:
    """Support (lo, hi, moves_h) of every time-dependent part; gates, bias
    holds and the axis-rotation step move H, Lindblad envelopes do not."""
    hspec = gens.hamiltonian
    out = [g.support() for g in hspec.gates] + [b.support() for b in hspec.bias_holds]
    if hspec.axis_rotation is not None:
        out.append(hspec.axis_rotation.step.support())
    out = [(lo, hi, True) for lo, hi in out]
    out += [(*op.envelope.support(), False) for op in gens.lindblads if op.envelope is not None]
    return out


def _build_knots(t0: float, t1: float, spans, sample_times) -> np.ndarray:
    pts = [t0, t1]
    for lo, hi, _ in spans:
        if t0 < lo < t1:
            pts.append(lo)
        if t0 < hi < t1:
            pts.append(hi)
    for t in np.asarray(sample_times, dtype=float):
        if t0 <= t <= t1:
            pts.append(float(t))
    pts = np.unique(np.array(pts, dtype=float))
    # collapse near-coincident knots so segment widths stay meaningful
    merged = [pts[0]]
    for x in pts[1:]:
        if x - merged[-1] > 1e-12:
            merged.append(x)
        else:
            merged[-1] = max(merged[-1], x)
    merged[0] = t0
    merged[-1] = t1
    return np.array(merged)


def integrate(
    gens: GeneratorSet,
    rho0: np.ndarray,
    t_span: tuple[float, float],
    cfg: IntegratorConfig | None = None,
    sample_times=None,
    eps: float = CLAMP_EPS,
) -> Trajectory:
    """Evolve rho0 over t_span and sample every grid knot.

    sample_times adds explicit sample points on top of the uniform set;
    pulse support edges are always sampled as well.
    """
    cfg = cfg or IntegratorConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must satisfy t_end > t_start")
    report = validate(rho0)
    if not report.ok:
        raise ValueError(f"initial state rejected: {report}")

    hspec = gens.hamiltonian
    omega_l = hspec.omega_l
    base = cfg.resolved_base_step(omega_l)
    fine = base / cfg.pulse_refinement

    extra = [] if sample_times is None else list(np.asarray(sample_times, float))
    if cfg.samples and cfg.samples > 1:
        extra.extend(np.linspace(t0, t1, cfg.samples))
    if cfg.include_larmor_grid:
        extra.extend(larmor_grid_times(t1, omega_l, hspec.gates, t_start=t0))
    spans = _spans(gens)
    knots = _build_knots(t0, t1, spans, extra)

    # outside the supports of the parts that move H, H is exactly the
    # static term, so the rebuild (and dH/dt, identically zero there) can
    # be skipped; with an axis rotation present H is treated as
    # time-dependent throughout
    h_always = hspec.axis_rotation is not None
    h_spans = [(lo, hi) for lo, hi, moves_h in spans if moves_h]
    h_static = hamiltonian(HamiltonianSpec(omega_l=omega_l), t0) if not h_always else None
    zero_h = np.zeros((2, 2), dtype=complex)

    def h_varies(t: float) -> bool:
        return h_always or any(lo <= t <= hi for lo, hi in h_spans)

    def stage(t: float, rho: np.ndarray):
        """(drho/dt, power, heat rate, H, dH/dt) at (t, rho)."""
        if h_varies(t):
            h = hamiltonian(hspec, t)
            hd = hamiltonian_dot(hspec, t)
            w = trace_product(rho, hd).real
        else:
            h, hd, w = h_static, zero_h, 0.0
        k = rhs_given_h(t, rho, gens, h, eps)
        return k, w, trace_product(h, k).real, h, hd

    rho = np.asarray(rho0, dtype=complex)
    rho = 0.5 * (rho + adjoint(rho))
    work = 0.0
    heat = 0.0
    steps = 0
    min_eig_seen = 1.0
    events: list[dict] = []
    suppressed_prev = False
    watch_beta = gens.beretta is not None or gens.bath is not None

    rows: list[ObservableRow] = []
    states: list[np.ndarray] = []
    work_samples: list[float] = []
    heat_samples: list[float] = []

    def record(t: float, knot_stage):
        # the stage at the knot is also the next step's first stage
        rho_dot, _, _, h, hd = knot_stage
        rows.append(observable_row(t, rho, h, hd, rho_dot, omega_l))
        states.append(rho)
        work_samples.append(work)
        heat_samples.append(heat)

    cur = stage(t0, rho)
    record(t0, cur)
    for a, b in zip(knots[:-1], knots[1:]):
        mid = 0.5 * (a + b)
        target = fine if any(lo <= mid <= hi for lo, hi, _ in spans) else base
        n = max(1, math.ceil((b - a) / target))
        h_step = (b - a) / n
        t = a
        for i in range(n):
            k1, w1, q1, _, _ = cur
            half = 0.5 * h_step
            r2 = rho + half * k1
            k2, w2, q2, _, _ = stage(t + half, r2)
            r3 = rho + half * k2
            k3, w3, q3, _, _ = stage(t + half, r3)
            r4 = rho + h_step * k3
            k4, w4, q4, _, _ = stage(t + h_step, r4)
            rho = rho + (h_step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            work += (h_step / 6.0) * (w1 + 2.0 * w2 + 2.0 * w3 + w4)
            heat += (h_step / 6.0) * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
            t = a + (i + 1) * h_step
            rho = 0.5 * (rho + adjoint(rho))
            rho = rho / (rho[0, 0] + rho[1, 1]).real
            steps += 1
            if steps % cfg.validate_every == 0:
                lam = eigenvalues(rho)
                if lam[1] < min_eig_seen:
                    min_eig_seen = lam[1]
                if lam[1] < cfg.positivity_floor:
                    raise PositivityError(t, lam[1])
                if watch_beta:
                    sup = beta_suppressed(t, rho, gens, eps)
                    if sup and not suppressed_prev:
                        events.append({"kind": "beta_suppressed", "t": float(t)})
                    suppressed_prev = sup
            # the knot itself, not a + n h_step, which can miss b in the last bit
            cur = stage(b if i == n - 1 else t, rho)
        record(b, cur)

    lam = eigenvalues(rho)
    if lam[1] < min_eig_seen:
        min_eig_seen = lam[1]
    if lam[1] < cfg.positivity_floor:
        raise PositivityError(t1, lam[1])

    meta = {
        "t_start": t0,
        "t_end": t1,
        "omega_l": omega_l,
        "base_step": base,
        "refined_step": fine,
        "steps": steps,
        "knots": len(knots),
        "min_eigenvalue_seen": float(min_eig_seen),
    }
    return Trajectory(
        rows=rows,
        states=states,
        work=np.array(work_samples),
        heat=np.array(heat_samples),
        events=events,
        meta=meta,
    )


def steady_analytic(kind: str, p0, gamma: float, omega_l: float, t: float) -> np.ndarray:
    """Closed-form polarization for free precession plus one constant
    Lindblad operator.

    Cases: sx, sy, sz (unit Pauli operators) and s+, s- (the raising and
    lowering elements (sigma_1 +- i sigma_2)/2).  The transverse pair in
    the sx and sy cases is the underdamped oscillator at
    omega = sqrt(omega_L^2 - Gamma^2), so these two require
    Gamma < omega_L.
    """
    px0, py0, pz0 = (float(v) for v in p0)
    if kind in ("sx", "sy"):
        if gamma >= omega_l:
            raise ValueError("closed form requires gamma < omega_l for sx and sy")
        w = math.sqrt(omega_l * omega_l - gamma * gamma)
        e = math.exp(-gamma * t)
        c = math.cos(w * t)
        s = math.sin(w * t)
        if kind == "sx":
            px = e * (px0 * c + (px0 * gamma / w + py0 * omega_l / w) * s)
            py = e * (py0 * c - (py0 * gamma / w + px0 * omega_l / w) * s)
        else:
            px = e * (px0 * c + (-px0 * gamma / w + py0 * omega_l / w) * s)
            py = e * (py0 * c + (py0 * gamma / w - px0 * omega_l / w) * s)
        pz = math.exp(-2.0 * gamma * t) * pz0
    elif kind == "sz":
        e = math.exp(-2.0 * gamma * t)
        c = math.cos(omega_l * t)
        s = math.sin(omega_l * t)
        px = e * (px0 * c + py0 * s)
        py = e * (py0 * c - px0 * s)
        pz = pz0
    elif kind in ("s+", "s-"):
        e = math.exp(-0.5 * gamma * t)
        c = math.cos(omega_l * t)
        s = math.sin(omega_l * t)
        px = e * (px0 * c + py0 * s)
        py = e * (py0 * c - px0 * s)
        pole = 1.0 if kind == "s+" else -1.0
        pz = pole + math.exp(-gamma * t) * (pz0 - pole)
    else:
        raise ValueError(f"unknown steady case {kind!r}; expected one of {STEADY_KINDS}")
    return np.array([px, py, pz])


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


def integrate_bloch_oracle(
    p0, omega_l: float, ops, t_span: tuple[float, float], n_steps: int = 20000
) -> np.ndarray:
    """Independent check route: integrate the three polarization
    components directly.

    ops is a sequence of (alpha0, alpha, gamma) triples for constant
    Lindblad operators.  Precession plus these operators is the affine
    drift (M, v) of linear_bloch_drift, built once per call; RK4 then
    steps dP/dt = M P + v.  Gates, entropy-ascent, and bath terms are
    outside this route on purpose: it exists to cross-check the
    density-matrix path where both apply.
    """
    m, v = linear_bloch_drift(omega_l, ops)
    p = np.asarray(p0, dtype=float)
    t0, t1 = float(t_span[0]), float(t_span[1])
    h = (t1 - t0) / n_steps
    for _ in range(n_steps):
        k1 = m @ p + v
        k2 = m @ (p + 0.5 * h * k1) + v
        k3 = m @ (p + 0.5 * h * k2) + v
        k4 = m @ (p + h * k3) + v
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return p


def measure(
    rho_in: np.ndarray,
    direction,
    gamma: float,
    omega_l: float,
    t1: float = 0.0,
    cfg: IntegratorConfig | None = None,
) -> tuple[Trajectory, np.ndarray]:
    """Run one pulsed measurement window and return the trajectory and
    the post-measurement state.

    The window length is pi/gamma, which drives the components
    perpendicular to the measurement direction down by about exp(-2 pi)
    while the parallel component rides through nearly unchanged.  The
    window's hold keeps precession off throughout, as in a scenario run;
    larmor_grid_times does not shift by it, since ideal_reference ignores
    measurements anyway.  The run is flagged when the rate is weak against
    precession (gamma < 20 omega_L) and when the parallel component
    drifts by more than 5e-3.
    """
    window = MeasurementWindow.for_rate(t1, gamma, direction)
    lo, hi = window.support()
    gens = GeneratorSet(
        hamiltonian=HamiltonianSpec(omega_l=omega_l, bias_holds=(window.hold(),)),
        lindblads=(measurement_op(window, gamma),),
    )
    traj = integrate(gens, rho_in, (lo, hi), cfg)
    m = np.asarray(window.direction, dtype=float)
    if gamma < WEAK_MEASUREMENT_RATIO * omega_l:
        traj.events.insert(
            0,
            {
                "kind": "weak_measurement",
                "t": float(lo),
                "rate_ratio": float(gamma / omega_l),
            },
        )
    p_in = density_to_bloch(rho_in)
    p_out = traj.final_bloch
    drift = abs(float(m @ p_out) - float(m @ p_in))
    if drift > MEASUREMENT_DRIFT_TOL:
        traj.events.append(
            {"kind": "measurement_drift", "t": float(hi), "drift": drift}
        )
    traj.meta["measurement_drift"] = drift
    return traj, traj.final_state


def projective_collapse(rho: np.ndarray, direction) -> np.ndarray:
    """Idealized limit of a long measurement: keep only the polarization
    component along the measurement direction."""
    m = np.asarray(direction, dtype=float)
    m = m / np.linalg.norm(m)
    p = density_to_bloch(rho)
    return bloch_to_density(float(m @ p) * m)


def gate_unitary(generator: np.ndarray) -> np.ndarray:
    """exp(-i pi/2 G) = -i G for an involutory generator."""
    return -1.0j * generator


def ideal_reference(rho0: np.ndarray, gates, t: float) -> np.ndarray:
    """State after applying, in schedule order, the unitary of every
    gate whose window has closed by time t."""
    rho = np.asarray(rho0, dtype=complex)
    for g in sorted(gates, key=lambda g: g.t_complete):
        if g.t_complete <= t:
            u = gate_unitary(g.generator)
            rho = u @ rho @ adjoint(u)
    return rho


def larmor_grid_times(
    t_final: float, omega_l: float, gates=(), t_start: float = 0.0
) -> np.ndarray:
    """Sample times spaced one Larmor period apart, each shifted by the
    frozen spans of all gate events completed before it.

    The shift keeps the accumulated free-precession phase at a multiple
    of 2 pi, so on this grid an ideal run returns to its initial
    polarization (up to the scheduled gate actions).  The shift depends
    on which gates have completed, so each time is resolved by a short
    fixed-point iteration.
    """
    period = 2.0 * math.pi / omega_l
    gates = tuple(gates)
    times = []
    k = 0
    while True:
        t = t_start + k * period
        for _ in range(len(gates) + 2):
            offset = sum(g.frozen_span for g in gates if g.t_complete <= t)
            t_new = t_start + k * period + offset
            if t_new == t:
                break
            t = t_new
        if t > t_final + 1e-9:
            break
        times.append(t)
        k += 1
    return np.array(times)


def fidelity_on_larmor_grid(
    traj: Trajectory, gates=(), rho0: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Score a run against its ideal gate sequence on the Larmor grid.

    Returns (times, fidelities); each fidelity compares the sampled
    state with the ideal reference (completed gate unitaries applied to
    the initial state).
    """
    if rho0 is None:
        rho0 = traj.states[0]
    t_final = traj.rows[-1].t
    t_start = traj.rows[0].t
    omega_l = traj.meta.get("omega_l")
    if omega_l is None:
        raise ValueError("trajectory meta lacks omega_l; pass it through integrate")
    grid = larmor_grid_times(t_final, omega_l, gates, t_start=t_start)
    fids = []
    for t in grid:
        i = traj.row_index(t)
        fids.append(fidelity(traj.states[i], ideal_reference(rho0, gates, t)))
    return grid, np.array(fids)
