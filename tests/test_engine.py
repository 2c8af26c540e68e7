"""Integration engine: accuracy, gates, analytic oracles, measurement."""

import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from density_route import integrate_density
from qubitdyn.engine import (
    IntegratorConfig,
    PositivityError,
    fidelity_on_larmor_grid,
    gate_unitary,
    ideal_reference,
    integrate,
    integrate_bloch_oracle,
    larmor_grid_times,
    linear_bloch_drift,
    measure,
    projective_collapse,
    segment_plan,
    steady_analytic,
)
from qubitdyn.generators import (
    AxisRotation,
    BathSpec,
    BerettaSpec,
    GeneratorSet,
    HamiltonianSpec,
    LindbladOp,
    bloch_rhs,
    delta_p,
    measurement_op,
    steady_op,
)
from qubitdyn.observables import HBAR, bloch_row, fidelity
from qubitdyn.pulses import MeasurementWindow, SmoothStep, SoftSquarePulse, build_schedule
from qubitdyn.spincore import SIGMA0, adjoint, bloch_to_density, density_to_bloch

OMEGA_L = 0.2675
T_LARMOR = 2.0 * math.pi / OMEGA_L
WINDOW = 0.1 * T_LARMOR
GENS_FREE = GeneratorSet(hamiltonian=HamiltonianSpec(omega_l=OMEGA_L))


def run_gates(kinds, p0, n_delay=2):
    schedule = build_schedule(kinds, n_delay=n_delay, omega_l=OMEGA_L, window=WINDOW)
    gens = GeneratorSet(
        hamiltonian=HamiltonianSpec(omega_l=OMEGA_L, gates=schedule.gates)
    )
    traj = integrate(
        gens,
        bloch_to_density(p0),
        (0.0, schedule.t_final),
        IntegratorConfig(samples=50),
    )
    return schedule, traj


class TestFreePrecession:
    def test_state_returns_after_whole_periods(self):
        rho0 = bloch_to_density((0.5, 0.0, 0.8))
        traj = integrate(
            GENS_FREE, rho0, (0.0, 10.0 * T_LARMOR), IntegratorConfig(samples=100)
        )
        assert np.max(np.abs(traj.final_bloch - np.array([0.5, 0.0, 0.8]))) < 1e-8

    def test_invariants_constant(self):
        rho0 = bloch_to_density((0.5, 0.0, 0.8))
        traj = integrate(
            GENS_FREE, rho0, (0.0, 10.0 * T_LARMOR), IntegratorConfig(samples=200)
        )
        rows = traj.rows
        for key in ("entropy", "purity", "energy", "lambda1", "lambda2"):
            vals = np.array([getattr(r, key) for r in rows])
            assert np.max(np.abs(vals - vals[0])) < 1e-9, key

    def test_z_component_pinned(self):
        traj = integrate(
            GENS_FREE,
            bloch_to_density((0.5, 0.0, 0.8)),
            (0.0, 3.7 * T_LARMOR),
            IntegratorConfig(samples=100),
        )
        pz = traj.bloch[:, 2]
        assert np.max(np.abs(pz - 0.8)) < 1e-9

    def test_step_halving_converges(self):
        rho0 = bloch_to_density((0.5, 0.0, 0.8))
        base = T_LARMOR / 500.0
        coarse = integrate(
            GENS_FREE,
            rho0,
            (0.0, 2.0 * T_LARMOR),
            IntegratorConfig(base_step=base, samples=2),
        )
        fine = integrate(
            GENS_FREE,
            rho0,
            (0.0, 2.0 * T_LARMOR),
            IntegratorConfig(base_step=base / 2.0, samples=2),
        )
        assert np.max(np.abs(coarse.final_bloch - fine.final_bloch)) < 1e-8


class TestGates:
    def test_not_gate(self):
        _, traj = run_gates(["not"], (0.5, 0.0, 0.8))
        assert np.max(np.abs(traj.final_bloch - np.array([0.5, 0.0, -0.8]))) < 1e-3

    def test_hadamard_gate(self):
        _, traj = run_gates(["hadamard"], (0.5, 0.1, 0.8))
        assert np.max(np.abs(traj.final_bloch - np.array([0.8, -0.1, 0.5]))) < 1e-3

    def test_echo_sequence(self):
        _, traj = run_gates(["hadamard", "not", "hadamard"], (0.5, 0.1, 0.8))
        assert np.max(np.abs(traj.final_bloch - np.array([-0.5, -0.1, 0.8]))) < 1e-3

    def test_grid_fidelity_stays_unity(self):
        schedule, traj = run_gates(["not"], (0.5, 0.0, 0.8))
        times, fids = fidelity_on_larmor_grid(traj, gates=schedule.gates)
        assert len(times) > 2
        assert np.min(fids) > 1.0 - 1e-6

    def test_gate_unitary_is_unitary(self):
        schedule, _ = run_gates(["hadamard"], (0.5, 0.0, 0.8))
        u = gate_unitary(schedule.gates[0].generator)
        assert np.max(np.abs(u @ adjoint(u) - SIGMA0)) < 1e-12

    def test_ideal_reference_echo(self):
        schedule = build_schedule(
            ["hadamard", "not", "hadamard"], n_delay=2, omega_l=OMEGA_L, window=WINDOW
        )
        rho0 = bloch_to_density((0.5, 0.1, 0.8))
        ref = ideal_reference(rho0, schedule.gates, schedule.t_final)
        assert np.max(
            np.abs(density_to_bloch(ref) - np.array([-0.5, -0.1, 0.8]))
        ) < 1e-12

    def test_ideal_reference_before_first_gate(self):
        schedule = build_schedule(
            ["not"], n_delay=2, omega_l=OMEGA_L, window=WINDOW
        )
        rho0 = bloch_to_density((0.5, 0.0, 0.8))
        ref = ideal_reference(rho0, schedule.gates, 0.0)
        assert np.max(np.abs(ref - rho0)) < 1e-15


class TestSteadyAnalytic:
    def test_dephasing_closed_form(self):
        p0 = (0.5, 0.2, 0.8)
        gamma = 0.01
        t = 37.0
        p = steady_analytic("sz", p0, gamma, OMEGA_L, t)
        decay = math.exp(-2.0 * gamma * t)
        phase = OMEGA_L * t
        rot_x = p0[0] * math.cos(phase) + p0[1] * math.sin(phase)
        rot_y = -p0[0] * math.sin(phase) + p0[1] * math.cos(phase)
        assert p == pytest.approx([decay * rot_x, decay * rot_y, 0.8], abs=1e-12)

    def test_raising_closed_form(self):
        # relaxation toward the +z pole at rate gamma
        p = steady_analytic("s+", (0.0, 0.0, -0.2), 0.00213, OMEGA_L, 200.0)
        expected_z = 1.0 + math.exp(-0.00213 * 200.0) * (-0.2 - 1.0)
        assert p[2] == pytest.approx(expected_z, abs=1e-12)
        assert p[0] == pytest.approx(0.0, abs=1e-12)

    def test_transverse_kinds_require_slow_rates(self):
        for kind in ("sx", "sy"):
            with pytest.raises(ValueError):
                steady_analytic(kind, (0.0, 0.0, 0.8), 2.0 * OMEGA_L, OMEGA_L, 10.0)

    def test_matches_integrator(self):
        p0 = (0.3, 0.1, 0.6)
        gamma = 0.005
        gens = GeneratorSet(
            hamiltonian=HamiltonianSpec(omega_l=OMEGA_L),
            lindblads=(steady_op("s-", gamma),),
        )
        traj = integrate(
            gens, bloch_to_density(p0), (0.0, 150.0), IntegratorConfig(samples=4)
        )
        expected = steady_analytic("s-", p0, gamma, OMEGA_L, 150.0)
        assert np.max(np.abs(traj.final_bloch - expected)) < 1e-8


class TestBlochOracle:
    def test_precession_keeps_z(self):
        p = integrate_bloch_oracle((0.5, 0.0, 0.8), OMEGA_L, (), (0.0, 3.0 * T_LARMOR))
        assert p[2] == pytest.approx(0.8, abs=1e-10)
        assert np.linalg.norm(p) == pytest.approx(np.linalg.norm([0.5, 0, 0.8]), abs=1e-10)

    def test_dephasing_decay(self):
        gamma = 0.02
        t_end = 40.0
        ops = ((0j, (0j, 0j, 1 + 0j), gamma),)
        p = integrate_bloch_oracle((0.5, 0.0, 0.3), OMEGA_L, ops, (0.0, t_end))
        r_perp = math.hypot(p[0], p[1])
        assert r_perp == pytest.approx(0.5 * math.exp(-2.0 * gamma * t_end), abs=1e-8)
        assert p[2] == pytest.approx(0.3, abs=1e-10)

    def test_matches_density_integrator(self):
        rng = np.random.default_rng(127)
        for _ in range(3):
            c = rng.normal(size=8) * 0.3
            op = LindbladOp(
                alpha0=complex(c[0], c[1]),
                alpha=(
                    complex(c[2], c[3]),
                    complex(c[4], c[5]),
                    complex(c[6], c[7]),
                ),
                gamma=0.05,
            )
            p0 = rng.uniform(-0.5, 0.5, size=3)
            gens = GeneratorSet(
                hamiltonian=HamiltonianSpec(omega_l=OMEGA_L), lindblads=(op,)
            )
            cfg = IntegratorConfig(samples=2)
            oracle = integrate_bloch_oracle(
                p0, OMEGA_L, ((op.alpha0, op.alpha, op.gamma),), (0.0, 30.0)
            )
            density = integrate_density(gens, bloch_to_density(p0), (0.0, 30.0), cfg)
            assert np.max(np.abs(density.final_bloch - oracle)) < 1e-8
            traj = integrate(gens, bloch_to_density(p0), (0.0, 30.0), cfg)
            assert np.max(np.abs(traj.final_bloch - oracle)) < 1e-8


def random_op(rng, gamma):
    c = rng.normal(size=8) * 0.3
    return LindbladOp(
        alpha0=complex(c[0], c[1]),
        alpha=(complex(c[2], c[3]), complex(c[4], c[5]), complex(c[6], c[7])),
        gamma=gamma,
    )


class TestLinearBlochDrift:
    def test_matches_precession_plus_drifts(self):
        rng = np.random.default_rng(131)
        for n_ops in range(4):
            ops = [random_op(rng, float(rng.uniform(0.005, 0.08))) for _ in range(n_ops)]
            triples = [(op.alpha0, op.alpha, op.gamma) for op in ops]
            m, v = linear_bloch_drift(OMEGA_L, triples)
            for _ in range(20):
                p = rng.uniform(-0.6, 0.6, size=3)
                expected = np.array([OMEGA_L * p[1], -OMEGA_L * p[0], 0.0])
                for alpha0, alpha, gamma in triples:
                    expected = expected + 2.0 * gamma * delta_p(alpha0, alpha, p)
                assert np.max(np.abs(m @ p + v - expected)) <= 1e-15

    def test_steady_sz_spectrum(self):
        gamma = 0.03
        op = steady_op("sz", gamma)
        m, v = linear_bloch_drift(OMEGA_L, [(op.alpha0, op.alpha, op.gamma)])
        lam = sorted(np.linalg.eigvals(m), key=lambda z: (z.real, z.imag))
        expected = [complex(-2.0 * gamma, -OMEGA_L), complex(-2.0 * gamma, OMEGA_L), 0j]
        assert np.max(np.abs(np.array(lam) - expected)) < 1e-12
        assert np.all(v == 0.0)


def pulsed_set():
    """One gate, a measurement window (hold and envelope), a steady op, a
    noise pulse and a korsch bath: the set TestKnotStageReuse runs."""
    schedule = build_schedule(["not"], n_delay=1, omega_l=OMEGA_L, window=WINDOW)
    window = MeasurementWindow.for_rate(0.4 * T_LARMOR, 1.0, (1.0, 0.0, 0.0))
    noise = LindbladOp(
        alpha0=0.1 + 0.2j,
        alpha=(0.3 - 0.1j, -0.2 + 0.4j, 0.1 + 0.1j),
        gamma=0.107,
        envelope=SoftSquarePulse(0.7 * T_LARMOR, 0.9 * T_LARMOR, 0.5),
    )
    gens = GeneratorSet(
        hamiltonian=HamiltonianSpec(
            omega_l=OMEGA_L, gates=schedule.gates, bias_holds=(window.hold(),)
        ),
        lindblads=(steady_op("sz", 0.00213), measurement_op(window, 1.0), noise),
        bath=BathSpec(gamma3=0.0013375, temperature=27.3, variant="korsch"),
    )
    return gens, schedule.t_final


class TestKnotStageReuse:
    """The stage evaluated at a sample knot gives the row and is the next
    step's first stage, so integrate evaluates the right-hand side
    4 steps + 1 times, as its own counter reports."""

    CFG = IntegratorConfig(base_step=T_LARMOR / 200.0, pulse_refinement=10, samples=40)

    def test_one_rhs_per_knot_and_rows_exact(self):
        gens, t_final = pulsed_set()
        traj = integrate(gens, bloch_to_density((0.5, 0.0, 0.8)), (0.0, t_final), self.CFG)
        meta = traj.meta
        assert meta["rhs_evaluations"] == 4 * meta["steps"] + 1
        assert meta["steps"] == meta["steps_base"] + meta["steps_refined"]
        assert meta["steps_base"] > 0 and meta["steps_refined"] > 0
        assert len(traj.rows) == meta["knots"]

        drift = bloch_rhs(gens)
        for row, rho in zip(traj.rows, traj.states):
            t, p = row.t, row.bloch
            dx, dy, dz, _, _, h_terms = drift(t, *p)
            again = bloch_row(t, p, (dx, dy, dz), h_terms, OMEGA_L)
            # equal to the last bit; nan sentinels match nan
            np.testing.assert_array_equal(np.hstack(astuple(row)), np.hstack(astuple(again)))
            np.testing.assert_array_equal(rho, bloch_to_density(p))

    def test_coefficients_once_per_stage_time(self):
        # k2 and k3 share t + h/2 and the next k1 reuses k4's time, so a
        # pulsed run evaluates its coefficients less often than its drift
        gens, t_final = pulsed_set()
        rho0 = bloch_to_density((0.5, 0.0, 0.8))
        meta = integrate(gens, rho0, (0.0, t_final), self.CFG).meta
        assert 0 < meta["coefficient_evaluations"] < meta["rhs_evaluations"]
        again = integrate(gens, rho0, (0.0, t_final), self.CFG).meta
        assert again["coefficient_evaluations"] == meta["coefficient_evaluations"]
        # steady operators alone: H and the rates are constant, evaluated never
        steady = GeneratorSet(
            hamiltonian=HamiltonianSpec(omega_l=OMEGA_L), lindblads=(steady_op("sx", 0.01),)
        )
        meta = integrate(steady, rho0, (0.0, T_LARMOR), self.CFG).meta
        assert meta["coefficient_evaluations"] == 0

    def test_first_law_residual(self):
        # refinement 25, as the benchmark's reference runs: at this class's 10
        # the refined step is 0.37 of the measurement hold's 0.031 ns edge
        # width and RK4's truncation there leaves 8.4e-7 of max |W|, falling
        # at fourth order (2.5e-8 at 25, 1.5e-9 at 50)
        gens, t_final = pulsed_set()
        cfg = IntegratorConfig(base_step=T_LARMOR / 200.0, pulse_refinement=25, samples=40)
        traj = integrate(gens, bloch_to_density((0.5, 0.0, 0.8)), (0.0, t_final), cfg)
        e0 = traj.rows[0].energy
        residual = max(
            abs(row.energy - e0 - w - q) for row, w, q in zip(traj.rows, traj.work, traj.heat)
        )
        assert traj.meta["first_law_residual"] == residual
        assert residual <= 1e-7 * float(np.max(np.abs(traj.work)))


def step_unrestricted(gens, rho0, t_span, cfg, sample_times):
    """integrate's RK4 loop on the unrestricted drift bloch_rhs(gens), its
    expressions copied; (P, W, Q) at every knot."""
    drift = bloch_rhs(gens)
    px, py, pz = density_to_bloch(rho0).tolist()
    work = heat = 0.0
    cur = drift(t_span[0], px, py, pz)
    out = [(px, py, pz, work, heat)]
    for a, b, n, _, _ in segment_plan(gens, t_span, cfg, sample_times):
        h_step = (b - a) / n
        half = 0.5 * h_step
        sixth = h_step / 6.0
        t = a
        for i in range(n):
            k1x, k1y, k1z, w1, q1, _ = cur
            k2x, k2y, k2z, w2, q2, _ = drift(
                t + half, px + half * k1x, py + half * k1y, pz + half * k1z
            )
            k3x, k3y, k3z, w3, q3, _ = drift(
                t + half, px + half * k2x, py + half * k2y, pz + half * k2z
            )
            k4x, k4y, k4z, w4, q4, _ = drift(
                t + h_step, px + h_step * k3x, py + h_step * k3y, pz + h_step * k3z
            )
            px += sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            py += sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            pz += sixth * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
            work += sixth * (w1 + 2.0 * w2 + 2.0 * w3 + w4)
            heat += sixth * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
            t = a + (i + 1) * h_step
            cur = drift(b if i == n - 1 else t, px, py, pz)
        out.append((px, py, pz, work, heat))
    return out


class TestSegmentDrift:
    """integrate steps each segment with the drift restricted to the parts
    active there; stepping the unrestricted drift instead gives the same
    bits at every knot."""

    def generator_set(self, beretta, bath):
        schedule = build_schedule(["not", "hadamard"], n_delay=1, omega_l=OMEGA_L, window=WINDOW)
        t_final = schedule.t_final
        window = MeasurementWindow.for_rate(0.3 * t_final, 1.0, (0.0, 1.0, 0.0))
        rotation = AxisRotation(
            SmoothStep(0.6 * t_final, 0.2), (0.0, 0.0, 1.0), (0.6, 0.0, 0.8)
        )
        noise = LindbladOp(
            alpha0=0.1 + 0.2j,
            alpha=(0.3 - 0.1j, -0.2 + 0.4j, 0.1 + 0.1j),
            gamma=0.107,
            envelope=SoftSquarePulse(0.8 * t_final, 0.85 * t_final, 0.3),
        )
        gens = GeneratorSet(
            hamiltonian=HamiltonianSpec(
                omega_l=OMEGA_L,
                gates=schedule.gates,
                axis_rotation=rotation,
                bias_holds=(window.hold(),),
            ),
            lindblads=(steady_op("s-", 0.00213), measurement_op(window, 1.0), noise),
            beretta=beretta,
            bath=bath,
        )
        # the noise pulse's rising support edge is also a requested sample
        return gens, t_final, [noise.envelope.support()[0]]

    @pytest.mark.parametrize(
        "beretta, bath",
        [
            (None, BathSpec(gamma3=0.0013375, temperature=27.3, variant="korsch")),
            (BerettaSpec(0.004), BathSpec(gamma3=0.0013375, temperature=27.3, variant="beretta")),
        ],
    )
    def test_same_bits_as_unrestricted_drift(self, beretta, bath):
        gens, t_final, extra = self.generator_set(beretta, bath)
        cfg = IntegratorConfig(base_step=T_LARMOR / 200.0, pulse_refinement=10, samples=40)
        rho0 = bloch_to_density((0.5, 0.1, 0.7))
        plan = segment_plan(gens, (0.0, t_final), cfg, extra)
        # segments with nothing active, with one part, and with several
        assert {len(active) for *_, active in plan} >= {0, 1, 2}
        assert any(b == extra[0] for _, b, _, _, _ in plan)
        traj = integrate(gens, rho0, (0.0, t_final), cfg, sample_times=extra)
        expected = step_unrestricted(gens, rho0, (0.0, t_final), cfg, extra)
        got = [(*row.bloch, w, q) for row, w, q in zip(traj.rows, traj.work, traj.heat)]
        assert got == expected


class TestMeasurement:
    def test_strong_measurement_collapses(self):
        direction = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
        traj, rho_out = measure(
            bloch_to_density((0.2, 0.4, 0.8)), direction, 100.0 * OMEGA_L, OMEGA_L
        )
        assert np.max(np.abs(density_to_bloch(rho_out) - np.array([0.5, 0.0, 0.5]))) < 2e-3

    def test_aligned_state_unchanged(self):
        direction = np.array([0.0, 0.0, 1.0])
        traj, rho_out = measure(
            bloch_to_density((0.0, 0.0, 0.7)), direction, 100.0 * OMEGA_L, OMEGA_L
        )
        assert np.max(np.abs(density_to_bloch(rho_out) - np.array([0.0, 0.0, 0.7]))) < 1e-6

    def test_perpendicular_state_depolarizes(self):
        direction = np.array([0.0, 0.0, 1.0])
        traj, rho_out = measure(
            bloch_to_density((0.8, 0.0, 0.0)), direction, 100.0 * OMEGA_L, OMEGA_L
        )
        p = density_to_bloch(rho_out)
        assert np.linalg.norm(p) < 0.8 * (math.exp(-2.0 * math.pi) + 1e-4)
        assert traj.rows[-1].entropy > 0.99

    def test_matches_projective_collapse_residual(self):
        direction = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
        rho_in = bloch_to_density((0.2, 0.4, 0.8))
        traj, rho_out = measure(rho_in, direction, 100.0 * OMEGA_L, OMEGA_L)
        ideal = projective_collapse(rho_in, direction)
        assert np.max(np.abs(rho_out - ideal)) <= math.exp(-2.0 * math.pi) + 1e-4

    def test_weak_rate_flagged(self):
        direction = np.array([0.0, 0.0, 1.0])
        traj, _ = measure(
            bloch_to_density((0.2, 0.0, 0.4)), direction, 5.0 * OMEGA_L, OMEGA_L
        )
        kinds = [e.get("kind") for e in traj.events]
        assert "weak_measurement" in kinds

    def test_projective_collapse_examples(self):
        rho = bloch_to_density((0.2, 0.4, 0.8))
        m = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
        out = projective_collapse(rho, m)
        assert np.allclose(density_to_bloch(out), [0.5, 0.0, 0.5], atol=1e-12)
        m2 = np.array([0.0, 0.0, 1.0])
        out2 = projective_collapse(bloch_to_density((0.6, 0.0, 0.0)), m2)
        assert np.allclose(density_to_bloch(out2), [0.0, 0.0, 0.0], atol=1e-12)


class TestPositivityGuard:
    def test_feedback_rate_trips_guard(self):
        op = LindbladOp(
            alpha0=0j, alpha=(0j, 0j, 1 + 0j), gamma=-0.05, feedback=True
        )
        gens = GeneratorSet(
            hamiltonian=HamiltonianSpec(omega_l=OMEGA_L), lindblads=(op,)
        )
        rho0 = bloch_to_density((0.9, 0.0, 0.3))
        with pytest.raises(PositivityError):
            integrate(
                gens,
                rho0,
                (0.0, 80.0),
                IntegratorConfig(samples=10, validate_every=1),
            )

    def test_stiff_dephasing_raises_at_first_step_outside_ball(self):
        # sz at gamma 150 decays transverse P at 2 gamma; RK4 at the default
        # step amplifies that mode instead, so the first step leaves the ball
        gamma = 150.0
        gens = GeneratorSet(
            hamiltonian=HamiltonianSpec(omega_l=OMEGA_L), lindblads=(steady_op("sz", gamma),)
        )
        cfg = IntegratorConfig(samples=50)
        a, b, n, _, _ = segment_plan(gens, (0.0, 2.0), cfg)[0]
        h = (b - a) / n
        z = h * complex(-2.0 * gamma, -OMEGA_L)
        growth = abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24)
        p_after = math.hypot(0.5 * growth, 0.8)
        assert p_after > 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PositivityError) as info:
                integrate(gens, bloch_to_density((0.5, 0.0, 0.8)), (0.0, 2.0), cfg)
        assert info.value.t == a + h
        assert info.value.min_eigenvalue == pytest.approx(0.5 * (1.0 - p_after), rel=1e-9)

    def test_non_finite_state_raises(self):
        gens = GeneratorSet(
            hamiltonian=HamiltonianSpec(omega_l=OMEGA_L), lindblads=(steady_op("sz", 1e150),)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PositivityError) as info:
                integrate(gens, bloch_to_density((0.5, 0.0, 0.8)), (0.0, 2.0))
        assert not math.isfinite(info.value.min_eigenvalue)

    def test_min_eigenvalue_seen_covers_every_step(self):
        gens = GeneratorSet(
            hamiltonian=HamiltonianSpec(omega_l=OMEGA_L), lindblads=(steady_op("s+", 0.05),)
        )
        traj = integrate(
            gens, bloch_to_density((0.0, 0.0, -0.2)), (0.0, 60.0), IntegratorConfig(samples=7)
        )
        p_max = max(float(np.linalg.norm(p)) for p in traj.bloch)
        # the last row sits at the end of the most polarized step
        assert traj.meta["min_eigenvalue_seen"] == pytest.approx(0.5 * (1.0 - p_max), abs=1e-15)


class TestLarmorGrid:
    def test_plain_grid(self):
        times = larmor_grid_times(5.0 * T_LARMOR, OMEGA_L)
        assert np.allclose(times, T_LARMOR * np.arange(6))

    def test_grid_shifts_by_frozen_span(self):
        schedule = build_schedule(
            ["not"], n_delay=2, omega_l=OMEGA_L, window=WINDOW
        )
        times = larmor_grid_times(
            schedule.t_final, OMEGA_L, gates=schedule.gates
        )
        g = schedule.gates[0]
        span = g.frozen_span
        after = times[times > g.t_complete]
        for t in after:
            phase = (t - span) / T_LARMOR
            assert phase == pytest.approx(round(phase), abs=1e-9)


class TestRowIndex:
    def test_knots_found_and_gaps_rejected(self):
        traj = integrate(
            GENS_FREE,
            bloch_to_density((0.5, 0.0, 0.8)),
            (0.0, T_LARMOR),
            IntegratorConfig(samples=7, include_larmor_grid=False),
        )
        times = [r.t for r in traj.rows]
        assert len(times) == 7
        for i in (0, 3, len(times) - 1):
            assert traj.row_index(times[i]) == i
            # a time within the tolerance of a knot is that knot
            assert traj.row_index(times[i] + 5e-10) == i
        with pytest.raises(KeyError):
            traj.row_index(0.5 * (times[2] + times[3]))
        with pytest.raises(KeyError):
            traj.row_index(times[-1] + 1e-6)


class TestWorkAccounting:
    def test_gate_work_matches_energy_change(self):
        schedule, traj = run_gates(["not"], (0.5, 0.0, 0.8))
        total_work = traj.work[-1]
        delta_e = traj.rows[-1].energy - traj.rows[0].energy
        assert total_work == pytest.approx(delta_e, abs=1e-6)
        assert abs(traj.heat[-1]) < 1e-9

    def test_free_precession_exchanges_nothing(self):
        traj = integrate(
            GENS_FREE,
            bloch_to_density((0.5, 0.0, 0.8)),
            (0.0, 4.0 * T_LARMOR),
            IntegratorConfig(samples=20),
        )
        assert abs(traj.work[-1]) < 1e-12
        assert abs(traj.heat[-1]) < 1e-12

    def test_dephasing_run_balances(self):
        gens = GeneratorSet(
            hamiltonian=HamiltonianSpec(omega_l=OMEGA_L),
            lindblads=(steady_op("s-", 0.01),),
        )
        traj = integrate(
            gens,
            bloch_to_density((0.5, 0.0, 0.8)),
            (0.0, 60.0),
            IntegratorConfig(samples=20),
        )
        delta_e = traj.rows[-1].energy - traj.rows[0].energy
        assert traj.work[-1] + traj.heat[-1] == pytest.approx(delta_e, abs=1e-6)
        assert abs(traj.work[-1]) < 1e-12


class TestNoiseResilienceOrdering:
    def test_fidelity_drops_with_noise_strength(self):
        schedule = build_schedule(
            ["not"], n_delay=2, omega_l=OMEGA_L, window=WINDOW
        )
        rho0 = bloch_to_density((0.5, 0.0, 0.8))
        target = ideal_reference(rho0, schedule.gates, schedule.t_final)
        fids = []
        for gamma in (0.0, 0.1 * OMEGA_L, 0.2 * OMEGA_L, 0.4 * OMEGA_L):
            lindblads = (steady_op("sz", gamma),) if gamma > 0.0 else ()
            gens = GeneratorSet(
                hamiltonian=HamiltonianSpec(omega_l=OMEGA_L, gates=schedule.gates),
                lindblads=lindblads,
            )
            traj = integrate(
                gens, rho0, (0.0, schedule.t_final), IntegratorConfig(samples=4)
            )
            fids.append(fidelity(traj.final_state, target))
        assert all(b <= a + 1e-12 for a, b in zip(fids, fids[1:]))
        assert fids[0] > 1.0 - 1e-6
