"""Equation-of-motion building blocks.

Covers the Hamiltonian assembly, Lindblad dissipators and their Bloch-vector
dual, the entropy-ascent term and its inverse-temperature weights, the bath
couplings, and the assembled right-hand side.
"""

import math

import numpy as np
import pytest

from density_route import (
    bath_term,
    beretta_term,
    beta_suppressed,
    combined_23_term,
    eigenvalue_flow,
    entropy_rate_base2,
    lindblad_term,
)
from qubitdyn.generators import (
    AxisRotation,
    BathSpec,
    BerettaSpec,
    GeneratorSet,
    HamiltonianSpec,
    LindbladOp,
    bath_beta,
    beta2,
    beta2_closed_form,
    bloch_beta_suppressed,
    delta_p,
    hamiltonian,
    hamiltonian_dot,
    measurement_op,
    rhs,
    state_covariances,
    steady_op,
)
from qubitdyn.observables import HBAR, KBOLTZ, heat_rate
from qubitdyn.pulses import MeasurementWindow, SmoothStep, build_schedule
from qubitdyn.spincore import (
    SIGMA0,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    adjoint,
    bloch_to_density,
    density_to_bloch,
    eigh2,
    matrix_log_clamped,
)

OMEGA_L = 0.2675
T_LARMOR = 2.0 * math.pi / OMEGA_L
WINDOW = 0.1 * T_LARMOR
H_STATIC = -0.5 * HBAR * OMEGA_L * SIGMA3


def random_bloch(rng, n, r_max=1.0):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return v * rng.uniform(0.0, r_max, size=n)[:, None]


def random_lindblad(rng, gamma):
    c = rng.normal(size=8)
    return LindbladOp(
        alpha0=complex(c[0], c[1]),
        alpha=(complex(c[2], c[3]), complex(c[4], c[5]), complex(c[6], c[7])),
        gamma=gamma,
    )


class TestHamiltonian:
    def test_static_form(self):
        spec = HamiltonianSpec(omega_l=OMEGA_L)
        assert np.array_equal(hamiltonian(spec, 0.0), H_STATIC)
        assert np.array_equal(hamiltonian(spec, 123.4), H_STATIC)

    def test_static_between_gates(self):
        schedule = build_schedule(
            ["not"], n_delay=2, omega_l=OMEGA_L, window=WINDOW
        )
        spec = HamiltonianSpec(omega_l=OMEGA_L, gates=schedule.gates)
        g = schedule.gates[0]
        lo, hi = g.support()
        assert np.array_equal(hamiltonian(spec, 0.5 * lo), H_STATIC)
        assert np.array_equal(hamiltonian(spec, hi + 1.0), H_STATIC)

    def test_gate_center_drive(self):
        schedule = build_schedule(
            ["not"], n_delay=2, omega_l=OMEGA_L, window=WINDOW
        )
        spec = HamiltonianSpec(omega_l=OMEGA_L, gates=schedule.gates)
        g = schedule.gates[0]
        h = hamiltonian(spec, g.pulse.t0)
        # bias saturated: precession term suppressed, drive at Gaussian peak
        expected = HBAR * g.pulse.value(g.pulse.t0) * g.generator
        assert np.max(np.abs(h - expected)) < 1e-6 * HBAR * OMEGA_L

    def test_axis_rotation_limits(self):
        rot = AxisRotation(
            step=SmoothStep(50.0, 2.0), axis_from=(0, 0, 1), axis_to=(1, 0, 0)
        )
        spec = HamiltonianSpec(omega_l=OMEGA_L, axis_rotation=rot)
        assert np.allclose(
            hamiltonian(spec, -500.0), -0.5 * HBAR * OMEGA_L * SIGMA3, atol=1e-15
        )
        assert np.allclose(
            hamiltonian(spec, 500.0), -0.5 * HBAR * OMEGA_L * SIGMA1, atol=1e-15
        )

    def test_time_derivative_matches_finite_difference(self):
        schedule = build_schedule(
            ["hadamard"], n_delay=2, omega_l=OMEGA_L, window=WINDOW
        )
        spec = HamiltonianSpec(omega_l=OMEGA_L, gates=schedule.gates)
        g = schedule.gates[0]
        dt = 1e-7
        for t in np.linspace(g.bias.t1 - 0.5, g.bias.t2 + 0.5, 60):
            fd = (hamiltonian(spec, t + dt) - hamiltonian(spec, t - dt)) / (2.0 * dt)
            assert np.max(np.abs(hamiltonian_dot(spec, t) - fd)) < 1e-6

    def test_hermitian_everywhere(self):
        schedule = build_schedule(
            ["not", "hadamard"], n_delay=2, omega_l=OMEGA_L, window=WINDOW
        )
        spec = HamiltonianSpec(omega_l=OMEGA_L, gates=schedule.gates)
        for t in np.linspace(0.0, schedule.t_final, 200):
            h = hamiltonian(spec, t)
            assert np.max(np.abs(h - adjoint(h))) < 1e-14


class TestLindbladTerm:
    def test_traceless_and_hermitian(self):
        rng = np.random.default_rng(53)
        for p in random_bloch(rng, 300):
            rho = bloch_to_density(p)
            op = random_lindblad(rng, 0.1)
            out = lindblad_term(op._matrix, rho, 0.1)
            assert abs(np.trace(out)) < 1e-13
            assert np.max(np.abs(out - adjoint(out))) < 1e-13

    def test_identity_operator_is_silent(self):
        rho = bloch_to_density((0.2, 0.4, 0.8))
        out = lindblad_term(SIGMA0, rho, 0.5)
        assert np.max(np.abs(out)) < 1e-15

    def test_dephasing_bloch_action(self):
        rho = bloch_to_density((0.2, 0.4, 0.8))
        gamma = 0.01
        out = lindblad_term(SIGMA3, rho, gamma)
        dbloch = density_to_bloch(rho + out) - np.array([0.2, 0.4, 0.8])
        assert dbloch == pytest.approx(
            [-2.0 * gamma * 0.2, -2.0 * gamma * 0.4, 0.0], abs=1e-14
        )

    def test_raising_operator_pumps_up(self):
        op = steady_op("s+", 1.0)
        gamma = 0.01
        out = lindblad_term(op._matrix, 0.5 * SIGMA0, gamma)
        dbloch = density_to_bloch(0.5 * SIGMA0 + out)
        assert dbloch == pytest.approx([0.0, 0.0, gamma], abs=1e-14)

    def test_operator_decomposition(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            op = random_lindblad(rng, 0.3)
            rebuilt = op.alpha0 * SIGMA0 + sum(
                a * s for a, s in zip(op.alpha, (SIGMA1, SIGMA2, SIGMA3))
            )
            assert np.max(np.abs(op._matrix - rebuilt)) < 1e-14

    def test_negative_rate_needs_feedback_flag(self):
        with pytest.raises(ValueError):
            steady_op("sz", -0.1)
        op = LindbladOp(alpha0=0j, alpha=(0j, 0j, 1 + 0j), gamma=-0.1, feedback=True)
        assert op.gamma == -0.1


class TestBlochDual:
    def test_dephasing_dual(self):
        out = delta_p(0.0, (1.0, 0.0, 0.0), (0.3, 0.5, 0.7))
        assert out == pytest.approx([0.0, -0.5, -0.7], abs=1e-14)

    def test_identity_dual_is_zero(self):
        out = delta_p(1.0, (0.0, 0.0, 0.0), (0.3, 0.5, 0.7))
        assert out == pytest.approx([0.0, 0.0, 0.0], abs=1e-14)

    def test_cross_product_drive(self):
        # a = x/sqrt2, b = y/sqrt2 gives a constant +z pump at the origin
        s = 1.0 / math.sqrt(2.0)
        out = delta_p(0.0, (s, 1j * s, 0.0), (0.0, 0.0, 0.0))
        assert out == pytest.approx([0.0, 0.0, 1.0], abs=1e-14)

    def test_cross_product_drive_norm_flow_flips_sign(self):
        # P . delta = pz (1 - pz) for this pump: shrinking below the
        # equator, growing between equator and the +z fixed point
        s = 1.0 / math.sqrt(2.0)
        alpha = (s, 1j * s, 0.0)
        for pz, sign in ((-0.5, -1.0), (0.5, 1.0)):
            p = np.array([0.0, 0.0, pz])
            d = delta_p(0.0, alpha, p)
            assert sign * float(p @ d) > 0.0

    def test_matches_matrix_route(self):
        rng = np.random.default_rng(61)
        gamma = 0.07
        for _ in range(10000):
            op = random_lindblad(rng, gamma)
            p = random_bloch(rng, 1)[0]
            rho = bloch_to_density(p)
            out = lindblad_term(op._matrix, rho, gamma)
            dual = 2.0 * gamma * delta_p(op.alpha0, op.alpha, p)
            matrix_route = density_to_bloch(rho + out) - p
            assert np.max(np.abs(matrix_route - dual)) < 1e-11


class TestEigenvalueFlow:
    def test_flows_sum_to_zero(self):
        rng = np.random.default_rng(67)
        for _ in range(500):
            op = random_lindblad(rng, 0.2)
            rho = bloch_to_density(random_bloch(rng, 1)[0])
            f1, f2 = eigenvalue_flow(rho, op._matrix, 0.2)
            assert f1 + f2 == pytest.approx(0.0, abs=1e-12)

    def test_pure_state_cannot_exceed_unit_eigenvalue(self):
        rng = np.random.default_rng(71)
        for _ in range(500):
            op = random_lindblad(rng, 0.2)
            v = random_bloch(rng, 1)[0]
            v /= np.linalg.norm(v)
            rho = bloch_to_density(v)
            _, f_top = eigenvalue_flow(rho, op._matrix, 0.2)
            assert f_top <= 1e-12

    def test_dephasing_fixed_point(self):
        f1, f2 = eigenvalue_flow(0.5 * SIGMA0, SIGMA3, 0.3)
        assert f1 == pytest.approx(0.0, abs=1e-14)
        assert f2 == pytest.approx(0.0, abs=1e-14)

    def test_matches_eigenbasis_transform(self):
        rng = np.random.default_rng(73)
        gamma = 0.11
        for _ in range(2000):
            op = random_lindblad(rng, gamma)
            rho = bloch_to_density(random_bloch(rng, 1)[0])
            flows = eigenvalue_flow(rho, op._matrix, gamma)
            w, u = eigh2(rho)
            transformed = adjoint(u) @ lindblad_term(op._matrix, rho, gamma) @ u
            assert flows[0] == pytest.approx(transformed[0, 0].real, abs=1e-11)
            assert flows[1] == pytest.approx(transformed[1, 1].real, abs=1e-11)


class TestBeta2:
    def test_z_aligned_closed_form(self):
        rho = bloch_to_density((0.0, 0.0, 0.8))
        expected = 2.0 * math.atanh(0.8) / (HBAR * OMEGA_L)
        assert beta2(rho, H_STATIC) == pytest.approx(expected, rel=1e-12)

    def test_dual_route(self):
        value = beta2(bloch_to_density((0.5, 0.0, 0.8)), H_STATIC)
        closed = beta2_closed_form((0.5, 0.0, 0.8), OMEGA_L)
        assert value == pytest.approx(closed, rel=1e-9)

    def test_dual_route_random(self):
        rng = np.random.default_rng(79)
        for p in random_bloch(rng, 500, r_max=0.99):
            if np.linalg.norm(p) < 0.01:
                continue
            value = beta2(bloch_to_density(p), H_STATIC)
            closed = beta2_closed_form(p, OMEGA_L)
            assert value == pytest.approx(closed, rel=1e-9, abs=1e-12)

    def test_maximally_mixed_state(self):
        assert beta2(0.5 * SIGMA0, H_STATIC) == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_hamiltonian_undefined(self):
        rho = bloch_to_density((0.0, 0.0, 0.8))
        assert math.isnan(beta2(rho, np.zeros((2, 2), dtype=complex)))


class TestBerettaTerm:
    def test_silent_at_maximally_mixed(self):
        out = beretta_term(0.5 * SIGMA0, H_STATIC, 0.0426)
        assert np.max(np.abs(out)) < 1e-12

    def test_nearly_silent_on_z_axis_pure(self):
        out = beretta_term(bloch_to_density((0.0, 0.0, 1.0 - 1e-13)), H_STATIC, 0.0426)
        assert np.max(np.abs(out)) < 1e-9

    def test_traceless_and_hermitian(self):
        rng = np.random.default_rng(83)
        for p in random_bloch(rng, 300, r_max=0.99):
            out = beretta_term(bloch_to_density(p), H_STATIC, 0.0426)
            assert abs(np.trace(out)) < 1e-12
            assert np.max(np.abs(out - adjoint(out))) < 1e-12

    def test_no_heat_flow(self):
        # the ascent term redistributes entropy at constant mean energy
        rng = np.random.default_rng(89)
        for p in random_bloch(rng, 10000, r_max=0.995):
            out = beretta_term(bloch_to_density(p), H_STATIC, 0.0426)
            assert abs(heat_rate(H_STATIC, out)) < 1e-10

    def test_silent_on_states_diagonal_in_h(self):
        # with one conserved quantity the two-level diagonal manifold has
        # no entropy-increasing direction left, so the term vanishes
        rho = bloch_to_density((0.0, 0.0, 0.943))
        out = beretta_term(rho, H_STATIC, 0.0426)
        assert np.max(np.abs(out)) < 1e-12

    def test_coherent_state_heat_and_entropy(self):
        rho = bloch_to_density((0.5, 0.0, 0.8))
        out = beretta_term(rho, H_STATIC, 0.0426)
        assert abs(heat_rate(H_STATIC, out)) < 1e-10
        assert entropy_rate_base2(rho, out) > 0.0

    def test_entropy_never_decreases(self):
        rng = np.random.default_rng(97)
        for p in random_bloch(rng, 2000, r_max=0.99):
            rho = bloch_to_density(p)
            out = beretta_term(rho, H_STATIC, 0.0426)
            assert entropy_rate_base2(rho, out) > -1e-12

    def test_variance_inequality(self):
        # var S - cov^2/var E >= 0 guarantees the ascent direction
        rng = np.random.default_rng(101)
        for p in random_bloch(rng, 2000, r_max=0.99):
            var_e, cov_es, var_s = state_covariances(bloch_to_density(p), H_STATIC)
            if var_e <= 1e-18:
                continue
            assert var_s - cov_es * cov_es / var_e >= -1e-12

    def test_surprisal_variance_near_mixed_state(self):
        # <dS dS> = (1 - p^2) artanh(p)^2 keeps its digits down to |P| = 1e-14,
        # where <S^2> - <S>^2 cancels to 0.  Along sigma_3 the state's own
        # |P| is rho_11 - rho_22, exact in floats, and the surprisal matrix
        # is diagonal, so only the covariance itself can lose digits.
        for mag in (1e-14, 1e-8, 1e-4):
            for sign in (1.0, -1.0):
                rho = bloch_to_density((0.0, 0.0, sign * mag))
                p = abs((rho[0, 0] - rho[1, 1]).real)
                _, cov_es, var_s = state_covariances(rho, H_STATIC)
                assert var_s == pytest.approx((1.0 - p * p) * math.atanh(p) ** 2, rel=1e-6)
                # cov_ES = -s (P.h) with s = (1 - p^2) artanh(p)/p and P.h = h_3 P_z
                s = (1.0 - p * p) * math.atanh(p) / p
                ph = 0.5 * HBAR * OMEGA_L * -sign * p
                assert cov_es == pytest.approx(-s * ph, rel=1e-6)

    def test_surprisal_variance_off_axis(self):
        # off sigma_3 the surprisal's off-diagonal s b carries var_S; s from
        # the difference of the two eigenvalue logs lost 1e-8 relative at
        # |P| = 1e-8 and 1.6e-3 at P = (1e-14, 0, 0).  q = r/mean is the
        # state's own |P|, read from rho as matrix_log_clamped reads it.
        def rel_error(p):
            rho = bloch_to_density(p)
            a, d = rho[0, 0].real, rho[1, 1].real
            mean = 0.5 * (a + d)
            q = math.hypot(0.5 * (a - d), abs(rho[0, 1])) / mean
            expected = (1.0 - q * q) * math.atanh(q) ** 2
            return abs(state_covariances(rho, H_STATIC)[2] - expected) / expected

        assert rel_error((1e-14, 0.0, 0.0)) <= 1e-12
        rng = np.random.default_rng(149)
        for _ in range(200):
            v = rng.normal(size=3)
            assert rel_error(1e-8 * v / np.linalg.norm(v)) <= 1e-12


class TestBathTerms:
    def test_korsch_gibbs_fixed_point(self):
        bath = BathSpec(gamma3=0.0852, temperature=0.273, variant="korsch")
        pz_eq = math.tanh(HBAR * OMEGA_L / (2.0 * KBOLTZ * bath.temperature))
        rho = bloch_to_density((0.0, 0.0, pz_eq))
        out = bath_term(rho, H_STATIC, bath)
        assert np.max(np.abs(out)) < 1e-10

    def test_korsch_beta_is_state_independent(self):
        bath = BathSpec(gamma3=0.0852, temperature=27.3, variant="korsch")
        rng = np.random.default_rng(103)
        expected = 1.0 / (KBOLTZ * 27.3)
        for p in random_bloch(rng, 50, r_max=0.99):
            assert bath_beta(bloch_to_density(p), H_STATIC, bath) == pytest.approx(
                expected, rel=1e-12
            )

    def test_beretta_variant_beta(self):
        # beta_3 = (cov - k T var_S) / (var_E - k T cov) from the covariances
        bath = BathSpec(gamma3=0.0852, temperature=27.3, variant="beretta")
        rng = np.random.default_rng(107)
        kt = KBOLTZ * 27.3
        for p in random_bloch(rng, 200, r_max=0.99):
            rho = bloch_to_density(p)
            var_e, cov_es, var_s = state_covariances(rho, H_STATIC)
            expected = (cov_es - kt * var_s) / (var_e - kt * cov_es)
            assert bath_beta(rho, H_STATIC, bath) == pytest.approx(
                expected, rel=1e-10, abs=1e-15
            )

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            BathSpec(gamma3=0.1, temperature=1.0, variant="exotic")

    def test_combined_reduces_to_each_part(self):
        rng = np.random.default_rng(109)
        beretta = BerettaSpec(gamma2=0.0426)
        bath = BathSpec(gamma3=0.0852, temperature=27.3, variant="korsch")
        silent_beretta = BerettaSpec(gamma2=0.0)
        silent_bath = BathSpec(gamma3=0.0, temperature=27.3, variant="korsch")
        for p in random_bloch(rng, 200, r_max=0.99):
            rho = bloch_to_density(p)
            only2 = combined_23_term(rho, H_STATIC, beretta, silent_bath)
            assert np.max(np.abs(only2 - beretta_term(rho, H_STATIC, 0.0426))) < 1e-14
            only3 = combined_23_term(rho, H_STATIC, silent_beretta, bath)
            assert np.max(np.abs(only3 - bath_term(rho, H_STATIC, bath))) < 1e-14
            both = combined_23_term(rho, H_STATIC, beretta, bath)
            split = beretta_term(rho, H_STATIC, 0.0426) + bath_term(rho, H_STATIC, bath)
            assert np.max(np.abs(both - split)) < 1e-12


class TestAssembledRhs:
    def test_pure_precession(self):
        gens = GeneratorSet(hamiltonian=HamiltonianSpec(omega_l=OMEGA_L))
        p = np.array([0.2, 0.4, 0.8])
        rho = bloch_to_density(p)
        out = rhs(0.0, rho, gens)
        dt = 1e-6
        dbloch = (density_to_bloch(rho + dt * out) - p) / dt
        assert dbloch == pytest.approx(
            [OMEGA_L * 0.4, -OMEGA_L * 0.2, 0.0], abs=1e-8
        )

    def test_gibbs_state_is_stationary_with_korsch_bath(self):
        bath = BathSpec(gamma3=0.0852, temperature=0.273, variant="korsch")
        gens = GeneratorSet(hamiltonian=HamiltonianSpec(omega_l=OMEGA_L), bath=bath)
        pz_eq = math.tanh(HBAR * OMEGA_L / (2.0 * KBOLTZ * 0.273))
        rho = bloch_to_density((0.0, 0.0, pz_eq))
        assert np.max(np.abs(rhs(0.0, rho, gens))) < 1e-10

    def test_traceless_and_hermitian(self):
        rng = np.random.default_rng(113)
        gens = GeneratorSet(
            hamiltonian=HamiltonianSpec(omega_l=OMEGA_L),
            lindblads=(steady_op("sz", 0.00213),),
            beretta=BerettaSpec(gamma2=0.0426),
            bath=BathSpec(gamma3=0.0852, temperature=27.3, variant="korsch"),
        )
        for p in random_bloch(rng, 300, r_max=0.99):
            out = rhs(0.0, bloch_to_density(p), gens)
            assert abs(np.trace(out)) < 1e-12
            assert np.max(np.abs(out - adjoint(out))) < 1e-12

    def test_golden_regression(self):
        # full-strength configuration on two reference states; values frozen
        # from the initial verified implementation to pin refactors
        gens = GeneratorSet(
            hamiltonian=HamiltonianSpec(omega_l=OMEGA_L),
            lindblads=(steady_op("sz", 0.00213),),
            beretta=BerettaSpec(gamma2=0.0426),
            bath=BathSpec(gamma3=0.0852, temperature=27.3, variant="korsch"),
        )
        out = rhs(0.0, bloch_to_density((0.0, 0.0, 0.943)), gens)
        expected = np.array(
            [
                [-0.00832457319506054, 0.0],
                [0.0, 0.00832457319506054],
            ],
            dtype=complex,
        )
        assert np.max(np.abs(out - expected)) < 1e-12
        out2 = rhs(0.0, bloch_to_density((0.2, 0.4, 0.8)), gens)
        expected2 = np.array(
            [
                [
                    -0.00932108649079779,
                    0.04750664218782155 + 0.038736715624356904j,
                ],
                [
                    0.04750664218782155 - 0.038736715624356911j,
                    0.00932108649079779,
                ],
            ],
            dtype=complex,
        )
        assert np.max(np.abs(out2 - expected2)) < 1e-12

    def test_ascent_plus_beretta_bath_is_sum_of_terms(self):
        # one covariance evaluation feeds both betas; the assembled rhs
        # must still equal the separately built terms
        beretta = BerettaSpec(gamma2=0.0426)
        bath = BathSpec(gamma3=0.0852, temperature=27.3, variant="beretta")
        gens = GeneratorSet(
            hamiltonian=HamiltonianSpec(omega_l=OMEGA_L), beretta=beretta, bath=bath
        )
        rng = np.random.default_rng(137)
        for p in random_bloch(rng, 300, r_max=0.99):
            rho = bloch_to_density(p)
            expected = (
                (-1.0j / HBAR) * (H_STATIC @ rho - rho @ H_STATIC)
                + beretta_term(rho, H_STATIC, beretta.gamma2)
                + bath_term(rho, H_STATIC, bath)
            )
            assert np.max(np.abs(rhs(0.0, rho, gens) - expected)) < 1e-12

    def test_suppression_flag(self):
        gens = GeneratorSet(
            hamiltonian=HamiltonianSpec(omega_l=OMEGA_L),
            beretta=BerettaSpec(gamma2=0.01),
        )
        assert bloch_beta_suppressed(0.0, (0.0, 0.0, 1.0 - 1e-16), gens)
        assert not bloch_beta_suppressed(0.0, (0.2, 0.4, 0.8), gens)

    def test_suppression_flag_matches_density_form(self):
        # random states, states within a few ulps of a pure state along the
        # field, whose computed energy variance is roundoff in both forms,
        # and states just clear of that
        rng = np.random.default_rng(41)
        ulp = np.finfo(float).eps / 2.0
        baths = (None, BathSpec(0.01, 2.0, "beretta"), BathSpec(0.01, 2.0, "korsch"))
        n_flagged = n_clear = 0
        for bath in baths:
            for _ in range(60):
                axis = rng.normal(size=3)
                axis /= np.linalg.norm(axis)
                if rng.uniform() < 0.3:
                    axis = np.eye(3)[rng.integers(3)] * rng.choice((-1.0, 1.0))
                rotation = AxisRotation(SmoothStep(1.0, 0.1), (0.0, 0.0, 1.0), tuple(axis))
                gens = GeneratorSet(
                    hamiltonian=HamiltonianSpec(omega_l=OMEGA_L, axis_rotation=rotation),
                    beretta=BerettaSpec(gamma2=0.01),
                    bath=bath,
                )
                t = 2.0  # the rotation is complete: H = -(hbar omega_L/2) axis . sigma
                field = -axis
                states = [random_bloch(rng, 1, r_max=0.999)[0]]
                states += [field * (1.0 - k * ulp) for k in (0, 1, 2)]
                states += [-field * (1.0 - k * ulp) for k in (0, 1, 2)]
                # clear of the floor: 1e-13 short of pure, or pure and 1e-6 off the field
                tilt = np.cross(field, rng.normal(size=3))
                tilt /= np.linalg.norm(tilt)
                states += [field * (1.0 - 1e-13), math.cos(1e-6) * field + math.sin(1e-6) * tilt]
                for p in states:
                    flag = bloch_beta_suppressed(t, tuple(p), gens)
                    assert flag == beta_suppressed(t, bloch_to_density(p), gens), (p, bath)
                    n_flagged += flag
                    n_clear += not flag
        assert n_flagged == len(baths) * 60 * 6
        assert n_clear == len(baths) * 60 * 3

    def test_envelope_gates_dissipator(self):
        # a measurement operator only acts inside its window
        window = MeasurementWindow.for_rate(100.0, 0.2, (0.0, 0.0, 1.0))
        gens = GeneratorSet(
            hamiltonian=HamiltonianSpec(omega_l=OMEGA_L),
            lindblads=(measurement_op(window, 0.2),),
        )
        rho = bloch_to_density((0.5, 0.0, 0.5))
        before = rhs(window.t1 - 5.0, rho, gens)
        during = rhs(0.5 * (window.t1 + window.t2), rho, gens)
        unitary_only = rhs(
            window.t1 - 5.0, rho, GeneratorSet(hamiltonian=HamiltonianSpec(omega_l=OMEGA_L))
        )
        assert np.max(np.abs(before - unitary_only)) < 1e-12
        assert np.max(np.abs(during - unitary_only)) > 1e-3
