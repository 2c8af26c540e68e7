"""Scalar observables: purity, entropy, fidelity, energy flows, temperatures."""

import math

import numpy as np
import pytest
from scipy import stats

from density_route import entropy_rate_base2, purity_rate
from qubitdyn.observables import (
    HBAR,
    KBOLTZ,
    energy,
    entropy_base2,
    fidelity,
    heat_rate,
    observable_row,
    power,
    purity,
    temperature_occupation,
    temperature_rate_ratio,
)
from qubitdyn.generators import (
    BerettaSpec,
    GeneratorSet,
    HamiltonianSpec,
    hamiltonian,
    hamiltonian_dot,
    rhs,
    steady_op,
)
from qubitdyn.spincore import SIGMA0, SIGMA1, SIGMA3, bloch_to_density

OMEGA_L = 0.2675


def fidelity_closed_form(rho_a, rho_b):
    """Independent route: F = sqrt(Tr(ab) + 2 sqrt(det a det b)) for 2x2 states."""
    cross = np.trace(rho_a @ rho_b).real
    geo = math.sqrt(max(np.linalg.det(rho_a).real, 0.0) * max(np.linalg.det(rho_b).real, 0.0))
    return math.sqrt(max(cross + 2.0 * geo, 0.0))


def random_bloch(rng, n):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return v * rng.uniform(0.0, 1.0, size=n)[:, None]


class TestConstants:
    def test_level_splitting_scale(self):
        # hbar * omega_L for the reference level spacing
        assert HBAR * OMEGA_L == pytest.approx(0.1761, rel=1e-3)
        assert HBAR * OMEGA_L == pytest.approx(0.17606850, abs=1e-8)

    def test_boltzmann_constant_units(self):
        assert KBOLTZ == pytest.approx(86.17)


class TestPurity:
    def test_table_state(self):
        rho = bloch_to_density((0.0, 0.0, 0.943))
        value = purity(rho)
        assert value == pytest.approx(0.9446245, abs=1e-10)
        assert value == pytest.approx(0.945, abs=5e-4)

    def test_extremes(self):
        assert purity(0.5 * SIGMA0) == pytest.approx(0.5, abs=1e-15)
        assert purity(bloch_to_density((0.0, 0.0, 1.0))) == pytest.approx(1.0, abs=1e-14)

    def test_matches_bloch_norm_route(self):
        rng = np.random.default_rng(17)
        for p in random_bloch(rng, 5000):
            rho = bloch_to_density(p)
            assert purity(rho) == pytest.approx(
                0.5 * (1.0 + float(p @ p)), abs=1e-12
            )


class TestEntropy:
    def test_table_state(self):
        rho = bloch_to_density((0.0, 0.0, 0.943))
        assert entropy_base2(rho) == pytest.approx(0.186, abs=1e-3)

    def test_extremes(self):
        assert entropy_base2(0.5 * SIGMA0) == pytest.approx(1.0, abs=1e-12)
        assert entropy_base2(bloch_to_density((0.0, 0.0, 1.0))) == pytest.approx(0.0, abs=1e-9)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(19)
        for p in random_bloch(rng, 2000):
            rho = bloch_to_density(p)
            lam = np.linalg.eigvalsh(rho)
            expected = stats.entropy(np.clip(lam, 0.0, None), base=2)
            assert entropy_base2(rho) == pytest.approx(expected, abs=1e-10)

    def test_range(self):
        rng = np.random.default_rng(23)
        for p in random_bloch(rng, 2000):
            s = entropy_base2(bloch_to_density(p))
            assert -1e-12 <= s <= 1.0 + 1e-12


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(29)
        for p in random_bloch(rng, 200):
            rho = bloch_to_density(p)
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure_states(self):
        up = bloch_to_density((0.0, 0.0, 1.0))
        down = bloch_to_density((0.0, 0.0, -1.0))
        assert fidelity(up, down) == pytest.approx(0.0, abs=1e-7)

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        pts = random_bloch(rng, 200)
        for pa, pb in zip(pts[::2], pts[1::2]):
            a, b = bloch_to_density(pa), bloch_to_density(pb)
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-10)

    def test_against_closed_form(self):
        rng = np.random.default_rng(37)
        pts = random_bloch(rng, 2000)
        for pa, pb in zip(pts[::2], pts[1::2]):
            a, b = bloch_to_density(pa), bloch_to_density(pb)
            assert fidelity(a, b) == pytest.approx(fidelity_closed_form(a, b), abs=1e-10)

    def test_mirror_pair_value(self):
        # F^2 = Tr(ab) + 2 sqrt(det a det b) = 0.305 + 0.055 = 0.36 exactly
        a = bloch_to_density((0.5, 0.0, 0.8))
        b = bloch_to_density((0.5, 0.0, -0.8))
        assert fidelity(a, b) == pytest.approx(0.6, abs=1e-12)


class TestEnergyFlows:
    def test_static_level_energy(self):
        h = hamiltonian(HamiltonianSpec(omega_l=OMEGA_L), 0.0)
        rho = bloch_to_density((0.0, 0.0, 0.8))
        assert energy(rho, h) == pytest.approx(-0.0704274, abs=1e-7)
        assert energy(rho, h) == pytest.approx(-0.0704, abs=5e-5)
        assert energy(rho, h) == pytest.approx(-0.5 * HBAR * OMEGA_L * 0.8, abs=1e-14)

    def test_zero_hamiltonian(self):
        rho = bloch_to_density((0.3, 0.1, 0.5))
        assert energy(rho, np.zeros((2, 2), dtype=complex)) == 0.0

    def test_traceless_h_on_mixed_state(self):
        h = hamiltonian(HamiltonianSpec(omega_l=OMEGA_L), 0.0)
        assert energy(0.5 * SIGMA0, h) == pytest.approx(0.0, abs=1e-15)

    def test_power_vanishes_for_static_h(self):
        rho = bloch_to_density((0.2, 0.4, 0.8))
        assert power(rho, np.zeros((2, 2), dtype=complex)) == 0.0
        hdot = hamiltonian_dot(HamiltonianSpec(omega_l=OMEGA_L), 5.0)
        assert power(rho, hdot) == pytest.approx(0.0, abs=1e-15)

    def test_heat_rate_zero_for_unitary_motion(self):
        spec = HamiltonianSpec(omega_l=OMEGA_L)
        h = hamiltonian(spec, 0.0)
        rho = bloch_to_density((0.2, 0.4, 0.8))
        rho_dot = rhs(0.0, rho, GeneratorSet(hamiltonian=spec))
        assert heat_rate(h, rho_dot) == pytest.approx(0.0, abs=1e-12)

    def test_heat_rate_zero_at_dephasing_fixed_point(self):
        spec = HamiltonianSpec(omega_l=OMEGA_L)
        gens = GeneratorSet(
            hamiltonian=spec, lindblads=[steady_op("sz", 0.01)]
        )
        rho = bloch_to_density((0.0, 0.0, 0.6))
        rho_dot = rhs(0.0, rho, gens)
        assert heat_rate(hamiltonian(spec, 0.0), rho_dot) == pytest.approx(0.0, abs=1e-12)

    def test_energy_balance_identity(self):
        # dE/dt = power + heat_rate, checked by finite difference on a run
        # with an explicitly time-dependent Hamiltonian
        from qubitdyn.pulses import build_schedule

        schedule = build_schedule(
            ["not"], n_delay=2, omega_l=OMEGA_L, window=2.3488542267
        )
        spec = HamiltonianSpec(omega_l=OMEGA_L, gates=schedule.gates)
        gens = GeneratorSet(
            hamiltonian=spec, beretta=BerettaSpec(gamma2=0.01)
        )
        rho = bloch_to_density((0.5, 0.0, 0.8))
        t = schedule.gates[0].pulse.t0
        h = hamiltonian(spec, t)
        rho_dot = rhs(t, rho, gens)
        direct = power(rho, hamiltonian_dot(spec, t)) + heat_rate(h, rho_dot)
        dt = 1e-6
        e_plus = energy(rho + 0.5 * dt * rho_dot, hamiltonian(spec, t + 0.5 * dt))
        e_minus = energy(rho - 0.5 * dt * rho_dot, hamiltonian(spec, t - 0.5 * dt))
        assert direct == pytest.approx((e_plus - e_minus) / dt, abs=1e-9)


class TestTemperatures:
    def test_occupation_table_state(self):
        h = hamiltonian(HamiltonianSpec(omega_l=OMEGA_L), 0.0)
        rho = bloch_to_density((0.0, 0.0, 0.8))
        t_occ = temperature_occupation(rho, h)
        # hbar omega_L / (k_B ln 9): population ratio 9 across the splitting
        assert t_occ == pytest.approx(HBAR * OMEGA_L / (KBOLTZ * math.log(9.0)), rel=1e-12)
        assert t_occ == pytest.approx(9.2993e-4, rel=1e-4)
        assert t_occ * 1000.0 == pytest.approx(0.93, abs=5e-3)

    def test_inverted_population_is_negative(self):
        h = hamiltonian(HamiltonianSpec(omega_l=OMEGA_L), 0.0)
        rho = bloch_to_density((0.0, 0.0, -0.8))
        assert temperature_occupation(rho, h) < 0.0

    def test_equal_population_diverges(self):
        h = hamiltonian(HamiltonianSpec(omega_l=OMEGA_L), 0.0)
        t_occ = temperature_occupation(0.5 * SIGMA0, h)
        assert math.isinf(t_occ)

    def test_degenerate_hamiltonian_undefined(self):
        rho = bloch_to_density((0.0, 0.0, 0.8))
        t_occ = temperature_occupation(rho, np.zeros((2, 2), dtype=complex))
        assert math.isnan(t_occ)

    def test_rate_ratio_matches_occupation_along_z(self):
        bloch = np.array([0.0, 0.0, 0.8])
        bloch_dot = np.array([0.0, 0.0, -0.01])
        t_ratio = temperature_rate_ratio(bloch, bloch_dot, OMEGA_L)
        h = hamiltonian(HamiltonianSpec(omega_l=OMEGA_L), 0.0)
        t_occ = temperature_occupation(bloch_to_density(bloch), h)
        assert t_ratio == pytest.approx(t_occ, rel=1e-6)

    def test_rate_ratio_z_sweep(self):
        h = hamiltonian(HamiltonianSpec(omega_l=OMEGA_L), 0.0)
        for pz in np.linspace(0.05, 0.95, 19):
            bloch = np.array([0.0, 0.0, pz])
            t_ratio = temperature_rate_ratio(bloch, np.array([0.0, 0.0, 0.02]), OMEGA_L)
            t_occ = temperature_occupation(bloch_to_density(bloch), h)
            assert t_ratio == pytest.approx(t_occ, rel=1e-9)

    def test_rate_ratio_stationary_state_undefined(self):
        t_ratio = temperature_rate_ratio(
            np.array([0.0, 0.0, 0.8]), np.zeros(3), OMEGA_L
        )
        assert math.isnan(t_ratio)


class TestRates:
    def test_purity_rate_dual_route(self):
        rng = np.random.default_rng(41)
        spec = HamiltonianSpec(omega_l=OMEGA_L)
        gens = GeneratorSet(
            hamiltonian=spec, lindblads=[steady_op("sx", 0.02)]
        )
        for p in random_bloch(rng, 200):
            rho = bloch_to_density(p)
            rho_dot = rhs(0.0, rho, gens)
            direct = purity_rate(rho, rho_dot)
            assert direct == pytest.approx(
                2.0 * np.trace(rho @ rho_dot).real, abs=1e-14
            )
            dt = 1e-6
            fd = (purity(rho + 0.5 * dt * rho_dot) - purity(rho - 0.5 * dt * rho_dot)) / dt
            assert direct == pytest.approx(fd, abs=1e-8)

    def test_entropy_rate_against_finite_difference(self):
        rng = np.random.default_rng(43)
        spec = HamiltonianSpec(omega_l=OMEGA_L)
        gens = GeneratorSet(
            hamiltonian=spec, lindblads=[steady_op("sz", 0.05)]
        )
        for p in random_bloch(rng, 100):
            if np.linalg.norm(p) > 0.98:
                continue
            rho = bloch_to_density(p)
            rho_dot = rhs(0.0, rho, gens)
            rate = entropy_rate_base2(rho, rho_dot)
            dt = 1e-7
            fd = (
                entropy_base2(rho + 0.5 * dt * rho_dot)
                - entropy_base2(rho - 0.5 * dt * rho_dot)
            ) / dt
            assert rate == pytest.approx(fd, abs=max(1e-6, 1e-3 * abs(rate)))


class TestObservableRow:
    def test_row_invariants(self):
        rng = np.random.default_rng(47)
        spec = HamiltonianSpec(omega_l=OMEGA_L)
        gens = GeneratorSet(hamiltonian=spec)
        for p in random_bloch(rng, 300):
            rho = bloch_to_density(p)
            rho_dot = rhs(0.0, rho, gens)
            row = observable_row(
                0.0,
                rho,
                hamiltonian(spec, 0.0),
                hamiltonian_dot(spec, 0.0),
                rho_dot,
                OMEGA_L,
            )
            assert row.lambda1 + row.lambda2 == pytest.approx(1.0, abs=1e-10)
            assert row.lambda1 >= row.lambda2
            assert 0.5 - 1e-12 <= row.purity <= 1.0 + 1e-12
            assert -1e-12 <= row.entropy <= 1.0 + 1e-12
            assert np.allclose(row.bloch, p, atol=1e-12)
