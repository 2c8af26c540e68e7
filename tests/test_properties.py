"""Property tests: the Bloch-form integrator against the density-matrix route.

Each example draws a generator set (gates, a bias hold, an axis rotation,
constant and pulsed Lindblad operators, entropy ascent, either bath
variant) and an initial state, integrates it with engine.integrate and
with the density-matrix route of density_route.py, and compares them at
every sample.  Draws are derandomized, so every run sees the same examples;
each test counts the examples it compared and requires at least
MIN_COMPARED of them.

Initial states keep |P| >= 0.05: near the maximally mixed state the
density route's surprisal matrix (matrix_log_clamped) loses digits off
the sigma_3 axis, because the difference of its two eigenvalue logs
cancels (about 1e-3 relative at |P| = 1e-14), while the Bloch form's
closed forms do not, so there the reference is the weaker route.
"""

import math
from collections import Counter

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from density_route import integrate_density
from qubitdyn.engine import IntegratorConfig, PositivityError, integrate
from qubitdyn.generators import (
    AxisRotation,
    BathSpec,
    BerettaSpec,
    GeneratorSet,
    HamiltonianSpec,
    LindbladOp,
    hamiltonian,
    hamiltonian_dot,
    hamiltonian_terms,
    rhs,
)
from qubitdyn.observables import HBAR, KBOLTZ, observable_row
from qubitdyn.pulses import SmoothStep, SoftSquarePulse, build_schedule
from qubitdyn.spincore import bloch_to_density

OMEGA_L = 0.2675
T_LARMOR = 2.0 * math.pi / OMEGA_L
CONFIG = IntegratorConfig(base_step=T_LARMOR / 100.0, pulse_refinement=5, samples=30)
ROUTE_TOL = 1e-10
ROW_TOL = 1e-12
ROW_FIELDS = ("lambda1", "lambda2", "entropy", "purity", "energy", "power", "heat_rate")
# the matrix route reads occupations through eigh2's eigenvectors of H,
# whose error grows as |h| shrinks against the terms that cancel in it
# under a bias pulse, so occupations are compared to ROW_TOL times
# H_FREE/|h| there (5e-12 was seen at |h| = 4e-4)
H_FREE = 0.5 * HBAR * OMEGA_L
# examples that leave the ball end in PositivityError and compare nothing;
# 56 of the 60 derandomized examples are compared
MIN_COMPARED = 54

unit = st.floats(-1.0, 1.0)
coefficient = st.floats(-0.5, 0.5)


@st.composite
def directions(draw):
    v = np.array([draw(unit), draw(unit), draw(unit)])
    norm = float(np.linalg.norm(v))
    v = np.array([0.0, 0.0, 1.0]) if norm < 1e-3 else v / norm
    return tuple(float(x) for x in v)


@st.composite
def polarizations(draw):
    r = draw(st.floats(0.05, 0.95))
    return tuple(r * x for x in draw(directions()))


@st.composite
def lindblad_ops(draw, t_final, pulsed):
    c = [draw(coefficient) for _ in range(8)]
    envelope = None
    if pulsed:
        start = draw(st.floats(0.0, 0.8)) * t_final
        width = draw(st.floats(0.02, 0.2)) * T_LARMOR
        envelope = SoftSquarePulse(start, start + width, width / 10.0)
    return LindbladOp(
        alpha0=complex(c[0], c[1]),
        alpha=(complex(c[2], c[3]), complex(c[4], c[5]), complex(c[6], c[7])),
        gamma=draw(st.floats(0.0, 0.2 if pulsed else 0.05)),
        envelope=envelope,
    )


@st.composite
def generator_sets(draw):
    kinds = draw(st.sampled_from([(), ("not",), ("hadamard",), ("not", "hadamard")]))
    schedule = build_schedule(kinds, n_delay=1, omega_l=OMEGA_L, window=0.1 * T_LARMOR)
    t_final = schedule.t_final if kinds else 1.5 * T_LARMOR
    holds = ()
    if draw(st.booleans()):
        start = draw(st.floats(0.05, 0.6)) * t_final
        holds = (SoftSquarePulse(start, start + 0.1 * T_LARMOR, 0.02 * T_LARMOR),)
    rotation = None
    if draw(st.booleans()):
        t0 = draw(st.floats(0.2, 0.8)) * t_final
        step = SmoothStep(t0, draw(st.floats(0.02, 0.2)) * T_LARMOR)
        rotation = AxisRotation(step, (0.0, 0.0, 1.0), draw(directions()))
    ops = draw(st.lists(lindblad_ops(t_final, False), max_size=2))
    ops += draw(st.lists(lindblad_ops(t_final, True), max_size=2))
    beretta = draw(st.none() | st.builds(BerettaSpec, st.floats(0.001, 0.05)))
    bath = draw(
        st.none()
        | st.builds(
            BathSpec,
            st.floats(0.001, 0.05),
            st.floats(0.2, 30.0),
            st.sampled_from(("korsch", "beretta")),
        )
    )
    gens = GeneratorSet(
        hamiltonian=HamiltonianSpec(
            omega_l=OMEGA_L, gates=schedule.gates, axis_rotation=rotation, bias_holds=holds
        ),
        lindblads=tuple(ops),
        beretta=beretta,
        bath=bath,
    )
    return gens, t_final


property_settings = settings(
    derandomize=True,
    database=None,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_examples(check) -> Counter:
    """Run check(drawn, p0) on every derandomized example; count what it returns."""
    outcomes = Counter()

    @property_settings
    @given(generator_sets(), polarizations())
    def examples(drawn, p0):
        outcomes[check(drawn, p0)] += 1

    examples()
    return outcomes


def upper_occupation(t_occ: float, h_norm: float) -> float:
    """Upper-level occupation 1/(1 + exp(2|h|/(kB T))) implied by the
    occupation temperature T.  Unlike T it is well conditioned where the
    occupations are nearly equal (T near +-inf), and it maps the sentinels
    0, -0 and inf to 0, 1 and 1/2; nan (degenerate splitting) stays nan."""
    if t_occ == 0.0:
        return 0.0 if math.copysign(1.0, t_occ) > 0.0 else 1.0
    return 1.0 / (1.0 + math.exp(min(2.0 * h_norm / (KBOLTZ * t_occ), 700.0)))


class TestBlochAgainstDensityRoute:
    def test_routes_agree_at_every_sample(self):
        def check(drawn, p0):
            gens, t_final = drawn
            rho0 = bloch_to_density(p0)
            density = integrate_density(gens, rho0, (0.0, t_final), CONFIG)
            try:
                traj = integrate(gens, rho0, (0.0, t_final), CONFIG)
            except PositivityError as err:
                # the density route does not check; it must have left the ball too
                after = [r for r in density.rows if r.t >= err.t]
                assert any(not r.lambda2 >= CONFIG.positivity_floor for r in after)
                return "left the ball"
            np.testing.assert_array_equal(traj.times, density.times)
            assert np.max(np.abs(traj.bloch - density.bloch)) <= ROUTE_TOL
            assert np.max(np.abs(traj.work - density.work)) <= ROUTE_TOL
            assert np.max(np.abs(traj.heat - density.heat)) <= ROUTE_TOL
            assert np.max(np.linalg.norm(traj.bloch, axis=1)) <= 1.0
            return "compared"

        outcomes = run_examples(check)
        assert outcomes["compared"] >= MIN_COMPARED, outcomes

    def test_rows_match_density_observables(self):
        def check(drawn, p0):
            gens, t_final = drawn
            try:
                traj = integrate(gens, bloch_to_density(p0), (0.0, t_final), CONFIG)
            except PositivityError:
                return "left the ball"
            hspec = gens.hamiltonian
            for row, rho in zip(traj.rows, traj.states):
                t = row.t
                h, hd = hamiltonian(hspec, t), hamiltonian_dot(hspec, t)
                ref = observable_row(t, rho, h, hd, rhs(t, rho, gens), OMEGA_L)
                for name in ROW_FIELDS:
                    assert abs(getattr(row, name) - getattr(ref, name)) <= ROW_TOL, (name, t)
                hx, hy, hz = hamiltonian_terms(hspec, t)[1:4]
                h_norm = math.sqrt(hx * hx + hy * hy + hz * hz)
                np.testing.assert_allclose(
                    upper_occupation(row.temp_occupation, h_norm),
                    upper_occupation(ref.temp_occupation, h_norm),
                    rtol=0.0,
                    atol=ROW_TOL * max(1.0, H_FREE / h_norm) if h_norm > 0.0 else 0.0,
                    equal_nan=True,
                    err_msg=f"temp_occupation at t={t}",
                )
            return "compared"

        outcomes = run_examples(check)
        assert outcomes["compared"] >= MIN_COMPARED, outcomes
