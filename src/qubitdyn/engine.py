"""Fixed-step Bloch-form integrator and its analytic cross-checks.

The state is stepped as its polarization P, three reals, with
rho = (sigma_0 + P . sigma_vec)/2: generators.bloch_rhs gives every term
of the master equation as a closed-form drift of P, and the classic
fourth-order Runge-Kutta rule advances (Px, Py, Pz) as Python floats.
Trace and Hermiticity hold by construction, so there is no re-symmetrise
or renormalise step; the density matrices in Trajectory.states are built
from P at each sample knot.

Integration runs on a segment grid.  Segment boundaries are the union of
the run endpoints, every pulse support edge, and every requested sample
time, so pulses are never straddled and samples land exactly on grid
points.  Segments that fall inside a pulse support march at
base_step/pulse_refinement; everything else marches at base_step
(default: one two-thousandth of the Larmor period).

Each segment steps the drift restricted to the time-dependent parts
active there (BlochDrift.restrict), built once per distinct active set.
A gate (drive and bias), a bias hold or a pulsed envelope is active when
its support meets the segment widened by ROW_TIME_TOL on both sides, so
a knot on a support edge and a last stage time a few ulps past the knot
see the same parts as the full drift; the axis rotation is never
dropped.  Within a segment the H terms are computed once when no gate or
hold is active and there is no axis rotation, and the coefficients (H
terms, envelope rates) once per distinct stage time: k2 and k3 share
t + h/2, and the next step's k1 reuses k4's when the two times are equal.
The states stepped are the same, to the last bit, as with the full drift.

Work and heat are accumulated through the same Runge-Kutta stages as
the state, using the stage rates Tr[rho dH/dt] (power) and Tr[H drho/dt]
(heat flow), so the thermodynamic tallies carry the integrator's order.

Health is checked at the start and on every step: a non-finite P, or a
smallest eigenvalue (1 - |P|)/2 below the positivity floor, aborts with
PositivityError.  Every validate_every steps the state is also watched
for a degenerate ascent/bath beta, which is logged as an event.

The module also carries the independent oracle routes used to pin the
integrator down in tests: closed-form polarization solutions for the
five constant-Lindblad cases, and a polarization-space integrator that
steps the affine drift dP/dt = M P + v of precession plus constant
Lindblad operators, built once per call by linear_bloch_drift from the
drift form of the dissipator.  The density-matrix form of the right-hand
side (generators.rhs) is the other reference; tests step it with the
same segment plan.

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

# rhs_given_h, hamiltonian, hamiltonian_dot, delta_p and observable_row are not
# called here; they stay importable from this module because
# benchmarks/tracing.py looks each of them up by name in this namespace.
from .generators import (  # noqa: F401
    STEADY_KINDS,
    GeneratorSet,
    HamiltonianSpec,
    bloch_beta_suppressed,
    bloch_rhs,
    delta_p,
    hamiltonian,
    hamiltonian_dot,
    linear_bloch_drift,
    measurement_op,
    part_supports,
    rhs_given_h,
)
from .observables import ObservableRow, bloch_row, fidelity, observable_row  # noqa: F401
from .pulses import MeasurementWindow
from .spincore import adjoint, bloch_to_density, density_to_bloch, validate

WEAK_MEASUREMENT_RATIO = 20.0
MEASUREMENT_DRIFT_TOL = 5e-3
# a sample time within this of a requested time is that sample (ns)
ROW_TIME_TOL = 1e-9


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
    """Step sizes, health checks, and sampling policy.

    positivity_floor bounds the smallest eigenvalue on every step;
    validate_every is the step cadence of the beta-suppression watch.
    """

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

    def row_index(self, t: float) -> int:
        """Index of the row sampled within ROW_TIME_TOL of t; KeyError if none."""
        i = bisect_left(self.rows, t - ROW_TIME_TOL, key=lambda r: r.t)
        if i < len(self.rows) and abs(self.rows[i].t - t) <= ROW_TIME_TOL:
            return i
        raise KeyError(f"no sample at t={t!r}")


def _build_knots(t0: float, t1: float, spans, sample_times) -> np.ndarray:
    pts = [t0, t1]
    for lo, hi in spans:
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


def segment_plan(
    gens: GeneratorSet, t_span: tuple[float, float], cfg: IntegratorConfig, sample_times=None
) -> list[tuple[float, float, int, bool, tuple[int, ...]]]:
    """(a, b, n, refined, active) for each segment between consecutive
    sample knots: n equal RK4 steps from a to b, refined inside a pulse
    support, and the part_supports indices of the time-dependent parts
    whose supports meet [a - ROW_TIME_TOL, b + ROW_TIME_TOL].

    The tolerance keeps a part whose support edge is the knot a or b, and
    covers a last stage time that rounds a few ulps past b, so the parts
    left out of active are switched off at every stage time of the
    segment.  sample_times adds explicit knots on top of cfg's uniform
    samples and Larmor grid; pulse support edges are always knots as well.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    omega_l = gens.hamiltonian.omega_l
    base = cfg.resolved_base_step(omega_l)
    fine = base / cfg.pulse_refinement
    extra = [] if sample_times is None else list(np.asarray(sample_times, float))
    if cfg.samples and cfg.samples > 1:
        extra.extend(np.linspace(t0, t1, cfg.samples))
    if cfg.include_larmor_grid:
        extra.extend(larmor_grid_times(t1, omega_l, gens.hamiltonian.gates, t_start=t0))
    spans = part_supports(gens)
    knots = _build_knots(t0, t1, spans, extra)
    plan = []
    for a, b in zip(knots[:-1].tolist(), knots[1:].tolist()):
        mid = 0.5 * (a + b)
        lo_w, hi_w = a - ROW_TIME_TOL, b + ROW_TIME_TOL
        active = tuple(i for i, (lo, hi) in enumerate(spans) if lo <= hi_w and hi >= lo_w)
        refined = any(lo <= mid <= hi for lo, hi in spans)
        n = max(1, math.ceil((b - a) / (fine if refined else base)))
        plan.append((a, b, n, refined, active))
    return plan


def integrate(
    gens: GeneratorSet,
    rho0: np.ndarray,
    t_span: tuple[float, float],
    cfg: IntegratorConfig | None = None,
    sample_times=None,
) -> Trajectory:
    """Evolve rho0 over t_span and sample every grid knot.

    sample_times adds explicit sample points on top of the uniform set;
    pulse support edges are always sampled as well.  Each segment steps
    the drift restricted to its active parts (one per distinct active
    set).  meta counts the steps by kind (steps_base, steps_refined), the
    right-hand-side evaluations (4 per step plus 1: the stage evaluated
    at a knot gives its row and is the next step's first stage) and the
    coefficient evaluations (one per distinct stage time in a segment with
    time-dependent coefficients), and reports first_law_residual, the
    largest |E(t) - E(t0) - W(t) - Q(t)| over the recorded rows.
    """
    cfg = cfg or IntegratorConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must satisfy t_end > t_start")
    report = validate(rho0)
    if not report.ok:
        raise ValueError(f"initial state rejected: {report}")

    omega_l = gens.hamiltonian.omega_l
    plan = segment_plan(gens, (t0, t1), cfg, sample_times)
    drift = bloch_rhs(gens)
    drifts = {}
    for *_, active in plan:
        if active not in drifts:
            drifts[active] = drift.restrict(active)

    px, py, pz = density_to_bloch(np.asarray(rho0, dtype=complex)).tolist()
    work = 0.0
    heat = 0.0
    steps = 0
    floor = cfg.positivity_floor
    every = cfg.validate_every
    min_eig_seen = 0.5 * (1.0 - math.sqrt(px * px + py * py + pz * pz))
    if not min_eig_seen >= floor:
        raise PositivityError(t0, min_eig_seen)
    events: list[dict] = []
    suppressed_prev = False
    watch_beta = gens.beretta is not None or gens.bath is not None

    rows: list[ObservableRow] = []
    states: list[np.ndarray] = []
    work_samples: list[float] = []
    heat_samples: list[float] = []
    first_law_residual = 0.0

    def record(t: float, p, knot_stage):
        nonlocal first_law_residual
        # the stage at the knot is also the next step's first stage
        dx, dy, dz, _, _, hterms = knot_stage
        row = bloch_row(t, p, (dx, dy, dz), hterms, omega_l)
        rows.append(row)
        # every recorded P has passed the health check against this floor
        states.append(bloch_to_density(p, floor))
        work_samples.append(work)
        heat_samples.append(heat)
        residual = abs(row.energy - rows[0].energy - work - heat)
        if residual > first_law_residual:
            first_law_residual = residual

    cur = drifts[plan[0][4]](t0, px, py, pz)
    evaluations = 1
    record(t0, (px, py, pz), cur)
    for a, b, n, _, active in plan:
        stage = drifts[active]
        evaluations += 4 * n
        h_step = (b - a) / n
        half = 0.5 * h_step
        sixth = h_step / 6.0
        t = a
        for i in range(n):
            k1x, k1y, k1z, w1, q1, _ = cur
            k2x, k2y, k2z, w2, q2, _ = stage(
                t + half, px + half * k1x, py + half * k1y, pz + half * k1z
            )
            k3x, k3y, k3z, w3, q3, _ = stage(
                t + half, px + half * k2x, py + half * k2y, pz + half * k2z
            )
            k4x, k4y, k4z, w4, q4, _ = stage(
                t + h_step, px + h_step * k3x, py + h_step * k3y, pz + h_step * k3z
            )
            px += sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            py += sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            pz += sixth * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
            work += sixth * (w1 + 2.0 * w2 + 2.0 * w3 + w4)
            heat += sixth * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
            t = a + (i + 1) * h_step
            steps += 1
            # smallest eigenvalue (1 - |P|)/2; nan and inf fail the comparison
            lam = 0.5 * (1.0 - math.sqrt(px * px + py * py + pz * pz))
            if not lam >= floor:
                raise PositivityError(t, lam)
            if lam < min_eig_seen:
                min_eig_seen = lam
            if watch_beta and steps % every == 0:
                sup = bloch_beta_suppressed(t, (px, py, pz), gens)
                if sup and not suppressed_prev:
                    events.append({"kind": "beta_suppressed", "t": float(t)})
                suppressed_prev = sup
            # the knot itself, not a + n h_step, which can miss b in the last bit
            cur = stage(b if i == n - 1 else t, px, py, pz)
        record(b, (px, py, pz), cur)

    refined = sum(n for _, _, n, fine, _ in plan if fine)
    base = cfg.resolved_base_step(omega_l)
    meta = {
        "t_start": t0,
        "t_end": t1,
        "omega_l": omega_l,
        "base_step": base,
        "refined_step": base / cfg.pulse_refinement,
        "steps": steps,
        "steps_base": steps - refined,
        "steps_refined": refined,
        "rhs_evaluations": evaluations,
        "coefficient_evaluations": drift.coefficient_evaluations,
        "knots": len(plan) + 1,
        "min_eigenvalue_seen": min_eig_seen,
        "first_law_residual": first_law_residual,
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
