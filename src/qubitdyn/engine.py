"""Bloch-form integrator and its analytic cross-checks.

The state is stepped as its polarization P, three reals, with
rho = (sigma_0 + P . sigma_vec)/2: generators.bloch_rhs gives every term
of the master equation as a closed-form drift of P, advanced as Python
floats.  Trace and Hermiticity hold by construction, so there is no
re-symmetrise or renormalise step; Trajectory builds the density matrix
of a sample from its P only when asked for one.

Integration runs on a segment grid.  Segment boundaries are the union of
the run endpoints, every pulse support edge, and every requested sample
time, so pulses are never straddled and samples land exactly on grid
points.  A base segment, outside every gate, hold and pulse support,
takes equal classic fourth-order Runge-Kutta steps no longer than
base_step (default: one two-thousandth of the Larmor period).

A refined segment, one that a support covers, is stepped by the
Dormand-Prince 5(4) pair (J. Comput. Appl. Math. 6:19, 1980) under the
step control of Hairer, Norsett & Wanner (Solving ODEs I, II.4).  The
error of a step is the largest |difference| between the fifth- and
embedded fourth-order increments of (Px, Py, Pz, W, Q); the step is
accepted when it is at most tol = (omega_L base_step)^5/120, the local
RK4 error of one free-precession base step at |P| = 1, and the state
advances by the fifth-order solution.  Steps are at most base_step, and
at least base_step/pulse_refinement: a step at that floor is always
accepted, so pulse_refinement is the finest step inside a pulse support.
The rest of a segment is split into equal parts no longer than the
proposed step, so the last step lands exactly on the knot, and the
proposal carries over to the next refined segment.  The seventh stage is
evaluated at the step's end, so it is the next step's first (FSAL).
The step control depends on nothing but the floats of the run, so reruns
take the same steps.  base_step and pulse_refinement keep their
schema-v1 names and defaults; the tolerance is derived, not a setting.

Each segment steps the drift restricted to the time-dependent parts
active there (BlochDrift.restrict), built once per distinct active set.
A gate (drive and bias), a bias hold or a pulsed envelope is active when
its support meets the segment widened by ROW_TIME_TOL on both sides, so
a knot on a support edge and a last stage time a few ulps past the knot
see the same parts as the full drift; the axis rotation is never
dropped.  Within a segment the H terms are computed once when no gate or
hold is active and there is no axis rotation, and the coefficients (H
terms, envelope rates) once per distinct stage time: an RK4 step's k2
and k3 share t + h/2, a Dormand-Prince step's sixth and seventh stages
share its end, and the next step's first stage reuses the last one's
time when the two are equal.  The states stepped are the same, to the
last bit, as with the full drift.

Work and heat are accumulated through the same Runge-Kutta stages as
the state, using the stage rates Tr[rho dH/dt] (power) and Tr[H drho/dt]
(heat flow), so the thermodynamic tallies carry the integrator's order.

Health is checked at the start and on every accepted step: a non-finite
P, or a smallest eigenvalue (1 - |P|)/2 below the positivity floor,
aborts with PositivityError.  When a Beretta term or Beretta-variant
bath is present, every validate_every accepted steps the state is also
watched for a degenerate beta, which is logged as an event.  Floor
steps too coarse for the step control are logged as one WARNING on the
qubitdyn logger.

The module also carries the independent oracle routes used to pin the
integrator down in tests: closed-form polarization solutions for the
five constant-Lindblad cases, and a polarization-space integrator that
steps the affine drift dP/dt = M P + v of precession plus constant
Lindblad operators, built once per call by linear_bloch_drift from the
drift form of the dissipator.  The density-matrix form of the right-hand
side (generators.rhs) is the other reference; tests step it with the
same segment plan and their own copy of the tableau and step control.

Measurement runs wrap integrate() with a pulsed
measurement operator, watching the conserved component along the
measurement direction.  Gate-sequence fidelity is scored on the Larmor
grid: sample times one Larmor period apart, shifted by the widths of
all completed gate windows so the comparison always happens at a
multiple of 2 pi of accumulated free phase.
"""

from __future__ import annotations

import logging
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

    base_step is the RK4 step outside pulse supports and the longest
    Dormand-Prince step inside them; base_step/pulse_refinement is the
    finest step inside them, always accepted.  The error tolerance is not
    a setting: step_tolerance derives it from base_step.  positivity_floor
    bounds the smallest eigenvalue on every accepted step; validate_every
    is the step cadence of the beta-suppression watch.
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

    def step_tolerance(self, omega_l: float) -> float:
        """(omega_L base_step)^5/120: the local RK4 error of one
        free-precession base step at |P| = 1."""
        return (omega_l * self.resolved_base_step(omega_l)) ** 5 / 120.0


@dataclass
class Trajectory:
    """Sampled run: observable rows, tallies, and event log; a row's density
    matrix is built from its P on demand, checked against positivity_floor."""

    rows: list[ObservableRow]
    work: np.ndarray
    heat: np.ndarray
    events: list[dict]
    meta: dict
    positivity_floor: float

    def state(self, i: int) -> np.ndarray:
        """Density matrix of row i."""
        return bloch_to_density(self.rows[i].bloch, self.positivity_floor)

    @property
    def states(self) -> list[np.ndarray]:
        return [self.state(i) for i in range(len(self.rows))]

    @property
    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.rows])

    @property
    def bloch(self) -> np.ndarray:
        return np.array([r.bloch for r in self.rows])

    @property
    def final_state(self) -> np.ndarray:
        return self.state(-1)

    @property
    def final_bloch(self) -> np.ndarray:
        return np.asarray(self.rows[-1].bloch, dtype=float)

    def row_index(self, t: float) -> int:
        """Index of the row sampled within ROW_TIME_TOL of t; KeyError if none."""
        i = bisect_left(self.rows, t - ROW_TIME_TOL, key=lambda r: r.t)
        if i < len(self.rows) and abs(self.rows[i].t - t) <= ROW_TIME_TOL:
            return i
        raise KeyError(f"no sample at t={t!r}")


# step control of Hairer, Norsett & Wanner, Solving ODEs I, II.4: the next
# step is SAFETY (tol/err)^(1/5) times this one, and grows by at most FAC_MAX
# (not at all right after a rejection) and shrinks by at most FAC_MIN
SAFETY = 0.9
FAC_MAX = 5.0
FAC_MIN = 0.2


def dormand_prince_step(stage, t, h, t_new, px, py, pz, k1):
    """One Dormand-Prince 5(4) step (J. Comput. Appl. Math. 6:19, 1980) of
    (P, W, Q) from t to t_new = t + h, with k1 the stage at (t, P).

    Returns the fifth-order (P, dW, dQ), the largest |difference| between
    the fifth-order and the embedded fourth-order increments over the five
    components, and the seventh stage, which is the stage at (t_new, P_new)
    and so the next step's first (FSAL).  The sixth and seventh stages are
    evaluated at t_new itself.
    """
    k1x, k1y, k1z, w1, q1, _ = k1
    k2x, k2y, k2z, w2, q2, _ = stage(
        t + h / 5, px + h * (k1x / 5), py + h * (k1y / 5), pz + h * (k1z / 5)
    )
    k3x, k3y, k3z, w3, q3, _ = stage(
        t + 3 / 10 * h,
        px + h * (3 / 40 * k1x + 9 / 40 * k2x),
        py + h * (3 / 40 * k1y + 9 / 40 * k2y),
        pz + h * (3 / 40 * k1z + 9 / 40 * k2z),
    )
    k4x, k4y, k4z, w4, q4, _ = stage(
        t + 4 / 5 * h,
        px + h * (44 / 45 * k1x - 56 / 15 * k2x + 32 / 9 * k3x),
        py + h * (44 / 45 * k1y - 56 / 15 * k2y + 32 / 9 * k3y),
        pz + h * (44 / 45 * k1z - 56 / 15 * k2z + 32 / 9 * k3z),
    )
    k5x, k5y, k5z, w5, q5, _ = stage(
        t + 8 / 9 * h,
        px + h * (19372 / 6561 * k1x - 25360 / 2187 * k2x + 64448 / 6561 * k3x - 212 / 729 * k4x),
        py + h * (19372 / 6561 * k1y - 25360 / 2187 * k2y + 64448 / 6561 * k3y - 212 / 729 * k4y),
        pz + h * (19372 / 6561 * k1z - 25360 / 2187 * k2z + 64448 / 6561 * k3z - 212 / 729 * k4z),
    )
    k6x, k6y, k6z, w6, q6, _ = stage(
        t_new,
        px + h * (9017 / 3168 * k1x - 355 / 33 * k2x + 46732 / 5247 * k3x
                  + 49 / 176 * k4x - 5103 / 18656 * k5x),
        py + h * (9017 / 3168 * k1y - 355 / 33 * k2y + 46732 / 5247 * k3y
                  + 49 / 176 * k4y - 5103 / 18656 * k5y),
        pz + h * (9017 / 3168 * k1z - 355 / 33 * k2z + 46732 / 5247 * k3z
                  + 49 / 176 * k4z - 5103 / 18656 * k5z),
    )
    x = px + h * (35 / 384 * k1x + 500 / 1113 * k3x + 125 / 192 * k4x
                  - 2187 / 6784 * k5x + 11 / 84 * k6x)
    y = py + h * (35 / 384 * k1y + 500 / 1113 * k3y + 125 / 192 * k4y
                  - 2187 / 6784 * k5y + 11 / 84 * k6y)
    z = pz + h * (35 / 384 * k1z + 500 / 1113 * k3z + 125 / 192 * k4z
                  - 2187 / 6784 * k5z + 11 / 84 * k6z)
    dw = h * (35 / 384 * w1 + 500 / 1113 * w3 + 125 / 192 * w4 - 2187 / 6784 * w5 + 11 / 84 * w6)
    dq = h * (35 / 384 * q1 + 500 / 1113 * q3 + 125 / 192 * q4 - 2187 / 6784 * q5 + 11 / 84 * q6)
    k7 = stage(t_new, x, y, z)
    k7x, k7y, k7z, w7, q7, _ = k7
    # fifth- minus fourth-order weights; the second is zero in both
    err = max(
        abs(h * (71 / 57600 * k1x - 71 / 16695 * k3x + 71 / 1920 * k4x
                 - 17253 / 339200 * k5x + 22 / 525 * k6x - 1 / 40 * k7x)),
        abs(h * (71 / 57600 * k1y - 71 / 16695 * k3y + 71 / 1920 * k4y
                 - 17253 / 339200 * k5y + 22 / 525 * k6y - 1 / 40 * k7y)),
        abs(h * (71 / 57600 * k1z - 71 / 16695 * k3z + 71 / 1920 * k4z
                 - 17253 / 339200 * k5z + 22 / 525 * k6z - 1 / 40 * k7z)),
        abs(h * (71 / 57600 * w1 - 71 / 16695 * w3 + 71 / 1920 * w4
                 - 17253 / 339200 * w5 + 22 / 525 * w6 - 1 / 40 * w7)),
        abs(h * (71 / 57600 * q1 - 71 / 16695 * q3 + 71 / 1920 * q4
                 - 17253 / 339200 * q5 + 22 / 525 * q6 - 1 / 40 * q7)),
    )
    return x, y, z, dw, dq, err, k7


def segment_plan(
    gens: GeneratorSet, t_span: tuple[float, float], cfg: IntegratorConfig, sample_times=None
) -> list[tuple[float, float, int, bool, tuple[int, ...]]]:
    """(a, b, n, refined, active) for each segment between consecutive
    sample knots: refined when a pulse, gate or hold support covers it
    (stepped by Dormand-Prince, n = 0), else n equal RK4 steps from a to
    b; and the part_supports indices of the time-dependent parts whose
    supports meet [a - ROW_TIME_TOL, b + ROW_TIME_TOL].

    The tolerance keeps a part whose support edge is the knot a or b, and
    covers a last stage time that rounds a few ulps past b, so the parts
    left out of active are switched off at every stage time of the
    segment.  sample_times adds explicit knots on top of cfg's uniform
    samples and Larmor grid; pulse support edges are always knots as well.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    omega_l = gens.hamiltonian.omega_l
    base = cfg.resolved_base_step(omega_l)
    spans = part_supports(gens)
    pts = [[t0, t1], [x for span in spans for x in span]]
    if sample_times is not None:
        pts.append(np.asarray(sample_times, float))
    if cfg.samples and cfg.samples > 1:
        pts.append(np.linspace(t0, t1, cfg.samples))
    if cfg.include_larmor_grid:
        pts.append(larmor_grid_times(t1, omega_l, gens.hamiltonian.gates, t_start=t0))
    pts = np.concatenate(pts)
    pts = np.unique(pts[(t0 <= pts) & (pts <= t1)]).tolist()
    # collapse near-coincident knots so segment widths stay meaningful
    knots = pts[:1]
    for x in pts[1:]:
        if x - knots[-1] > 1e-12:
            knots.append(x)
        else:
            knots[-1] = max(knots[-1], x)
    knots[0], knots[-1] = t0, t1
    plan = []
    for a, b in zip(knots[:-1], knots[1:]):
        mid = 0.5 * (a + b)
        lo_w, hi_w = a - ROW_TIME_TOL, b + ROW_TIME_TOL
        active = tuple(i for i, (lo, hi) in enumerate(spans) if lo <= hi_w and hi >= lo_w)
        refined = any(lo <= mid <= hi for lo, hi in spans)
        n = 0 if refined else max(1, math.ceil((b - a) / base))
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
    set).  meta counts the accepted steps by kind (steps_base RK4,
    steps_refined Dormand-Prince), the rejected Dormand-Prince steps
    (steps_rejected), the accepted ones at the floor refined_step with an
    error above step_tolerance (steps_at_floor), the right-hand-side
    evaluations (4 per base step, 6 per attempted refined step, plus 1:
    the stage evaluated at a knot gives its row and is the next step's
    first stage) and the coefficient evaluations (one per distinct stage
    time in a segment with time-dependent coefficients), and reports
    first_law_residual, the largest |E(t) - E(t0) - W(t) - Q(t)| over the
    recorded rows.
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
    # a korsch beta_3 = 1/kT is never nan, so only a Beretta term or bath can suppress
    watch_beta = gens.beretta is not None or (
        gens.bath is not None and gens.bath.variant == "beretta"
    )

    rows: list[ObservableRow] = []
    work_samples: list[float] = []
    heat_samples: list[float] = []
    first_law_residual = 0.0

    def record(t: float, p, knot_stage):
        nonlocal first_law_residual
        # the stage at the knot is also the next step's first stage
        dx, dy, dz, _, _, hterms = knot_stage
        row = bloch_row(t, p, (dx, dy, dz), hterms, omega_l)
        rows.append(row)
        work_samples.append(work)
        heat_samples.append(heat)
        residual = abs(row.energy - rows[0].energy - work - heat)
        if residual > first_law_residual:
            first_law_residual = residual

    def accepted(t: float, px: float, py: float, pz: float):
        """Count one accepted step ending at t and check the state there."""
        nonlocal steps, min_eig_seen, suppressed_prev
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

    base = cfg.resolved_base_step(omega_l)
    finest = base / cfg.pulse_refinement
    tol = cfg.step_tolerance(omega_l)
    # the controller's proposed step, carried from one refined segment to the next
    h_next = base
    refined_steps = rejected = at_floor = 0
    worst_floor_err = 0.0
    cur = drifts[plan[0][4]](t0, px, py, pz)
    evaluations = 1
    record(t0, (px, py, pz), cur)
    for a, b, n, refined, active in plan:
        stage = drifts[active]
        if refined:
            t = a
            grow_max = FAC_MAX
            while t < b:
                # the rest of the segment in equal parts no longer than h_next
                parts = math.ceil((b - t) / h_next)
                t_new = b if parts == 1 else t + (b - t) / parts
                # the step the times advance by, so rounding of t never accumulates
                h = t_new - t
                x, y, z, dw, dq, err, k7 = dormand_prince_step(stage, t, h, t_new, px, py, pz, cur)
                evaluations += 6
                # at the floor: h, or the proposal it was split from, since the
                # split can round h a few ulps past a proposal at the floor
                if err <= tol or min(h, h_next) <= finest:
                    if not err <= tol:
                        at_floor += 1
                        worst_floor_err = max(worst_floor_err, err)
                    px, py, pz, t, cur = x, y, z, t_new, k7
                    work += dw
                    heat += dq
                    refined_steps += 1
                    accepted(t, px, py, pz)
                    grow = SAFETY * (tol / err) ** 0.2 if err > 0.0 else grow_max
                    h_next = min(base, max(finest, h * min(grow_max, grow)))
                    grow_max = FAC_MAX
                else:
                    rejected += 1
                    # nan and inf fail err < inf and shrink by the most
                    shrink = SAFETY * (tol / err) ** 0.2 if err < math.inf else FAC_MIN
                    h_next = max(finest, h * max(FAC_MIN, shrink))
                    grow_max = 1.0
            record(b, (px, py, pz), cur)
            continue
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
            accepted(t, px, py, pz)
            # the knot itself, not a + n h_step, which can miss b in the last bit
            cur = stage(b if i == n - 1 else t, px, py, pz)
        record(b, (px, py, pz), cur)

    # past this error the controller would cut a step by more than FAC_MIN
    if worst_floor_err > tol * (SAFETY / FAC_MIN) ** 5:
        logging.getLogger("qubitdyn").warning(
            "%d steps accepted at the floor %.6g ns with an error above the tolerance, "
            "up to %.3g times it; raise pulse_refinement", at_floor, finest, worst_floor_err / tol
        )
    meta = {
        "t_start": t0,
        "t_end": t1,
        "omega_l": omega_l,
        "base_step": base,
        "refined_step": finest,
        "step_tolerance": tol,
        "steps": steps,
        "steps_base": steps - refined_steps,
        "steps_refined": refined_steps,
        "steps_rejected": rejected,
        "steps_at_floor": at_floor,
        "rhs_evaluations": evaluations,
        "coefficient_evaluations": drift.coefficient_evaluations,
        "knots": len(plan) + 1,
        "min_eigenvalue_seen": min_eig_seen,
        "first_law_residual": first_law_residual,
    }
    return Trajectory(
        rows=rows,
        work=np.array(work_samples),
        heat=np.array(heat_samples),
        events=events,
        meta=meta,
        # every recorded P has passed the health check against this floor
        positivity_floor=floor,
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
    window = MeasurementWindow(t1, gamma, direction)
    lo, hi = window.support()
    gens = GeneratorSet(
        hamiltonian=HamiltonianSpec(omega_l=omega_l, bias_holds=(window.hold(),)),
        lindblads=(measurement_op(window),),
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


def fidelity_on_larmor_grid(traj: Trajectory, gates=()) -> tuple[np.ndarray, np.ndarray]:
    """Score a run against its ideal gate sequence on the Larmor grid.

    Returns (times, fidelities); each fidelity compares the sampled
    state with the ideal reference (completed gate unitaries applied to
    the initial state).  Only the grid rows' density matrices are built.
    """
    rho0 = traj.state(0)
    t_final = traj.rows[-1].t
    t_start = traj.rows[0].t
    grid = larmor_grid_times(t_final, traj.meta["omega_l"], gates, t_start=t_start)
    fids = []
    for t in grid:
        i = traj.row_index(t)
        fids.append(fidelity(traj.state(i), ideal_reference(rho0, gates, t)))
    return grid, np.array(fids)
