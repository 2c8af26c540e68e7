"""Acceptance gate: twelve end-to-end checks at fixed tolerances.

Each test prints one PASS line when its criterion holds; a failed
assertion marks the criterion FAIL in the pytest report.
"""

import math
import subprocess
import sys

import numpy as np
import yaml

from density_route import entropy_rate_base2, integrate_density, purity_rate
from qubitdyn.engine import (
    IntegratorConfig,
    ideal_reference,
    integrate,
    measure,
    projective_collapse,
    steady_analytic,
)
from qubitdyn.generators import (
    BathSpec,
    BerettaSpec,
    GeneratorSet,
    HamiltonianSpec,
    LindbladOp,
    beta2,
    beta2_closed_form,
    hamiltonian,
    rhs,
    steady_op,
)
from qubitdyn.observables import HBAR, KBOLTZ, fidelity, heat_rate
from qubitdyn.pulses import build_schedule
from qubitdyn.spincore import bloch_to_density, density_to_bloch

OMEGA_L = 0.2675
T_LARMOR = 2.0 * math.pi / OMEGA_L
WINDOW = 0.1 * T_LARMOR
GAMMA_TABLE = 0.00213
H_STATIC = hamiltonian(HamiltonianSpec(omega_l=OMEGA_L), 0.0)
P_TABLE = (0.5, 0.0, 0.8)


def report(n, label):
    print(f"criterion {n} ({label}): PASS")


class TestAcceptance:
    def test_01_closed_system_conservation(self):
        rho0 = bloch_to_density(P_TABLE)
        traj = integrate(
            GeneratorSet(hamiltonian=HamiltonianSpec(omega_l=OMEGA_L)),
            rho0,
            (0.0, 10.0 * T_LARMOR),
            IntegratorConfig(samples=200, include_larmor_grid=False),
        )
        entropies = np.array([r.entropy for r in traj.rows])
        assert np.max(np.abs(entropies - 0.186)) <= 1e-3
        assert np.max(np.abs(entropies - entropies[0])) <= 1e-9
        assert np.max(np.abs(traj.final_bloch - np.array(P_TABLE))) <= 1e-8
        norm = math.sqrt(0.5**2 + 0.8**2)
        lam = np.array([[r.lambda1, r.lambda2] for r in traj.rows])
        assert np.max(np.abs(lam[:, 0] - 0.5 * (1.0 + norm))) <= 1e-6
        assert np.max(np.abs(lam[:, 1] - 0.5 * (1.0 - norm))) <= 1e-6
        # the rounded two-figure values quoted for this state
        assert np.max(np.abs(lam[:, 0] - 0.9715)) <= 2.5e-4
        assert np.max(np.abs(lam[:, 1] - 0.0285)) <= 2.5e-4
        report(1, "closed-system conservation")

    def test_02_steady_lindblad_oracles(self):
        times = np.linspace(0.0, 200.0, 200)
        p0 = (0.5, 0.2, 0.8)
        for kind in ("sx", "sy", "sz", "s+", "s-"):
            gens = GeneratorSet(
                hamiltonian=HamiltonianSpec(omega_l=OMEGA_L),
                lindblads=(steady_op(kind, GAMMA_TABLE),),
            )
            traj = integrate(
                gens,
                bloch_to_density(p0),
                (0.0, 200.0),
                IntegratorConfig(samples=2, include_larmor_grid=False),
                sample_times=times,
            )
            worst = 0.0
            for t, p in zip(traj.times, traj.bloch):
                ref = steady_analytic(kind, p0, GAMMA_TABLE, OMEGA_L, t)
                worst = max(worst, float(np.max(np.abs(p - ref))))
            assert worst <= 1e-6, (kind, worst)
        report(2, "steady-Lindblad oracles")

    def test_03_entropy_purity_bounds(self):
        p0 = (0.5, 0.2, 0.6)
        for kind in ("sx", "sy", "sz"):
            gens = GeneratorSet(
                hamiltonian=HamiltonianSpec(omega_l=OMEGA_L),
                lindblads=(steady_op(kind, GAMMA_TABLE),),
            )
            traj = integrate(
                gens,
                bloch_to_density(p0),
                (0.0, 200.0),
                IntegratorConfig(samples=200, include_larmor_grid=False),
            )
            for row, state in zip(traj.rows, traj.states):
                rho_dot = rhs(row.t, state, gens)
                assert entropy_rate_base2(state, rho_dot) >= -1e-10, kind
                assert purity_rate(state, rho_dot) <= 1e-10, kind
        # the lowering operator instead drives through a mixed interior:
        # entropy rises, peaks strictly inside the run, then falls as the
        # polarization swings through zero toward the opposite pole
        gens = GeneratorSet(
            hamiltonian=HamiltonianSpec(omega_l=OMEGA_L),
            lindblads=(steady_op("s-", GAMMA_TABLE),),
        )
        traj = integrate(
            gens,
            bloch_to_density(P_TABLE),
            (0.0, 800.0),
            IntegratorConfig(samples=400, include_larmor_grid=False),
        )
        entropies = np.array([r.entropy for r in traj.rows])
        peak = int(np.argmax(entropies))
        assert 0 < peak < len(entropies) - 1
        assert entropies[peak] > entropies[0] + 0.05
        assert entropies[peak] > entropies[-1] + 0.05
        pz = traj.bloch[:, 2]
        assert pz[0] > 0.0 > pz[-1]
        report(3, "entropy/purity bounds")

    def test_04_gate_correctness(self):
        cases = [
            (["not"], (0.5, 0.0, 0.8), (0.5, 0.0, -0.8)),
            (["hadamard"], (0.5, 0.1, 0.8), (0.8, -0.1, 0.5)),
            (["hadamard", "not", "hadamard"], (0.5, 0.1, 0.8), (-0.5, -0.1, 0.8)),
        ]
        for kinds, p0, expected in cases:
            schedule = build_schedule(
                kinds, n_delay=2, omega_l=OMEGA_L, window=WINDOW
            )
            gens = GeneratorSet(
                hamiltonian=HamiltonianSpec(omega_l=OMEGA_L, gates=schedule.gates)
            )
            traj = integrate(
                gens,
                bloch_to_density(p0),
                (0.0, schedule.t_final),
                IntegratorConfig(samples=4, include_larmor_grid=False),
            )
            assert np.max(np.abs(traj.final_bloch - np.array(expected))) <= 1e-3, kinds
        report(4, "gate correctness on the Larmor grid")

    def test_05_beretta_closed_system(self):
        gens = GeneratorSet(
            hamiltonian=HamiltonianSpec(omega_l=OMEGA_L),
            beretta=BerettaSpec(gamma2=0.0426),
        )
        traj = integrate(
            gens,
            bloch_to_density(P_TABLE),
            (0.0, 200.0),
            IntegratorConfig(samples=200, include_larmor_grid=False),
        )
        assert max(abs(r.heat_rate) for r in traj.rows) <= 1e-10
        entropies = np.array([r.entropy for r in traj.rows])
        assert np.min(np.diff(entropies)) >= -1e-12
        assert np.max(np.abs(traj.bloch[:, 2] - 0.8)) <= 1e-6
        assert math.hypot(traj.final_bloch[0], traj.final_bloch[1]) < 1e-3
        temps = np.array([r.temp_occupation for r in traj.rows])
        assert np.max(np.abs(temps / temps[0] - 1.0)) <= 1e-6
        report(5, "Beretta closed system")

    def test_06_korsch_bath_equilibrium(self):
        bath = BathSpec(gamma3=0.05, temperature=0.273, variant="korsch")
        gens = GeneratorSet(hamiltonian=HamiltonianSpec(omega_l=OMEGA_L), bath=bath)
        traj = integrate(
            gens,
            bloch_to_density((0.0, 0.0, 0.8)),
            (0.0, 400.0),
            IntegratorConfig(samples=4, include_larmor_grid=False),
        )
        assert np.max(np.abs(traj.final_bloch - np.array([0.0, 0.0, 0.0037]))) <= 5e-4
        pz_eq = math.tanh(HBAR * OMEGA_L / (2.0 * KBOLTZ * 0.273))
        rho_gibbs = bloch_to_density((0.0, 0.0, pz_eq))
        assert np.max(np.abs(traj.final_state - rho_gibbs)) <= 1e-4
        # colder bath than the occupation temperature pushes heat out of
        # the qubit, raising the polarization above its initial value
        cold = BathSpec(gamma3=0.05, temperature=0.0005, variant="korsch")
        gens_cold = GeneratorSet(
            hamiltonian=HamiltonianSpec(omega_l=OMEGA_L), bath=cold
        )
        traj_cold = integrate(
            gens_cold,
            bloch_to_density((0.0, 0.0, 0.8)),
            (0.0, 400.0),
            IntegratorConfig(samples=4, include_larmor_grid=False),
        )
        assert traj_cold.final_bloch[2] > 0.8 + 1e-3
        report(6, "Korsch bath equilibrium")

    def test_07_beretta_bath_ratio(self):
        t_q = 27.3
        bath = BathSpec(gamma3=0.0852, temperature=t_q, variant="beretta")
        gens = GeneratorSet(hamiltonian=HamiltonianSpec(omega_l=OMEGA_L), bath=bath)
        traj = integrate(
            gens,
            bloch_to_density(P_TABLE),
            (0.0, 100.0),
            IntegratorConfig(samples=200, include_larmor_grid=False),
        )
        kt = KBOLTZ * t_q
        rates = []
        for row, state in zip(traj.rows, traj.states):
            rho_dot = rhs(row.t, state, gens)
            q_dot = heat_rate(hamiltonian(gens.hamiltonian, row.t), rho_dot)
            s_dot = entropy_rate_base2(state, rho_dot) * math.log(2.0)
            rates.append((q_dot, s_dot))
        peak = max(abs(s) for _, s in rates)
        assert peak > 0.0
        for q_dot, s_dot in rates:
            if abs(s_dot) > 1e-3 * peak:
                assert abs(q_dot / s_dot - kt) / kt <= 0.01
        report(7, "Beretta bath energy/entropy rate ratio")

    def test_08_measurement_collapse(self):
        direction = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
        rho_in = bloch_to_density((0.2, 0.4, 0.8))
        _, rho_out = measure(rho_in, direction, 100.0 * OMEGA_L, OMEGA_L)
        p_out = density_to_bloch(rho_out)
        assert np.max(np.abs(p_out - np.array([0.5, 0.0, 0.5]))) <= 2e-3
        ideal = projective_collapse(rho_in, direction)
        assert np.max(np.abs(rho_out - ideal)) <= math.exp(-2.0 * math.pi) + 1e-4
        report(8, "measurement collapse")

    def test_09_cross_engine_equivalence(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            c = rng.normal(size=8) * 0.3
            op = LindbladOp(
                alpha0=complex(c[0], c[1]),
                alpha=(
                    complex(c[2], c[3]),
                    complex(c[4], c[5]),
                    complex(c[6], c[7]),
                ),
                gamma=float(rng.uniform(0.0, 0.08)),
            )
            p0 = rng.uniform(-0.55, 0.55, size=3)
            gens = GeneratorSet(
                hamiltonian=HamiltonianSpec(omega_l=OMEGA_L), lindblads=(op,)
            )
            cfg = IntegratorConfig(samples=2, include_larmor_grid=False)
            traj = integrate(gens, bloch_to_density(p0), (0.0, 30.0), cfg)
            density = integrate_density(gens, bloch_to_density(p0), (0.0, 30.0), cfg)
            worst = max(worst, float(np.max(np.abs(traj.final_bloch - density.final_bloch))))
        assert worst <= 1e-8, worst
        report(9, "cross-engine equivalence")

    def test_10_dual_route_beta2(self):
        rng = np.random.default_rng(515)
        v = rng.normal(size=(10000, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        v *= rng.uniform(0.01, 0.99, size=10000)[:, None]
        worst = 0.0
        for p in v:
            direct = beta2(bloch_to_density(p), H_STATIC)
            closed = beta2_closed_form(p, OMEGA_L)
            scale = max(abs(closed), 1e-12)
            worst = max(worst, abs(direct - closed) / scale)
        assert worst <= 1e-9, worst
        report(10, "dual-route beta_2")

    def test_11_noise_fidelity_monotonicity(self):
        schedule = build_schedule(["not"], n_delay=2, omega_l=OMEGA_L, window=WINDOW)
        rho0 = bloch_to_density(P_TABLE)
        target = ideal_reference(rho0, schedule.gates, schedule.t_final)
        fids = []
        for gamma in (0.0, 0.1 * OMEGA_L, 0.2 * OMEGA_L, 0.4 * OMEGA_L):
            lindblads = (steady_op("sz", gamma),) if gamma > 0.0 else ()
            gens = GeneratorSet(
                hamiltonian=HamiltonianSpec(omega_l=OMEGA_L, gates=schedule.gates),
                lindblads=lindblads,
            )
            traj = integrate(
                gens,
                rho0,
                (0.0, schedule.t_final),
                IntegratorConfig(samples=2, include_larmor_grid=False),
            )
            fids.append(fidelity(traj.final_state, target))
        assert all(b <= a + 1e-12 for a, b in zip(fids, fids[1:])), fids
        report(11, "noise-fidelity monotonicity")

    def test_12_determinism(self, tmp_path):
        scenario = {
            "schema_version": 1,
            "name": "gate-noise-bath",
            "seed": 42,
            "level": {"omega_l": OMEGA_L},
            "initial": {"bloch": [0.2, 0.4, 0.8]},
            "time": {"t_final": 560.0},
            "gates": {"sequence": ["not"], "n_delay": 2},
            "noise": {
                "count": 8,
                "start": 46.977084535,
                "end": 531.0,
                "width": 0.47,
                "gamma": 0.107,
            },
            "beretta": {"gamma2": 0.002675},
            "bath": {"gamma3": 0.0013375, "temperature": 27.3, "variant": "korsch"},
            "outputs": {"samples": 500, "grid_report": True},
        }
        path = tmp_path / "full.yaml"
        path.write_text(yaml.safe_dump(scenario))
        outs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / tag
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "qubitdyn.cli",
                    "run",
                    str(path),
                    "--out",
                    str(out_dir),
                ],
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out_dir)
        for name in ("timeseries.csv", "events.json"):
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b, name
        report(12, "same-seed determinism")
