"""One-qubit open-system dynamics with gates, noise, and thermal contact.

The state is a 2x2 density matrix evolved by a hybrid master equation:
coherent precession and shaped gate pulses, Lindblad dissipators for
noise and continuous measurement, an entropy-ascent term that steers the
closed system toward the maximum-entropy state on its constant-energy
shell, and a thermal-bath term with a fixed-temperature variant (Gibbs
fixed point) and a fixed heat-to-entropy-ratio variant.  Everything a
run tracks — polarization, eigenvalues, entropy, purity, energy, power,
heat rate, two temperature diagnostics — lands in one CSV row per
sample, with closed-form solutions built in as accuracy oracles.
"""

from .engine import (
    IntegratorConfig,
    PositivityError,
    Trajectory,
    fidelity_on_larmor_grid,
    gate_unitary,
    ideal_reference,
    integrate,
    integrate_bloch_oracle,
    larmor_grid_times,
    measure,
    projective_collapse,
    steady_analytic,
)
from .generators import (
    AxisRotation,
    BathSpec,
    BerettaSpec,
    GeneratorSet,
    HamiltonianSpec,
    LindbladOp,
    bath_beta,
    beta2,
    beta2_closed_form,
    hamiltonian,
    measurement_op,
    rhs,
    steady_op,
)
from .observables import (
    HBAR,
    KBOLTZ,
    ObservableRow,
    energy,
    entropy_base2,
    fidelity,
    heat_rate,
    power,
    purity,
    temperature_occupation,
    temperature_rate_ratio,
)
from .pulses import (
    GateEvent,
    GateSchedule,
    GaussianPulse,
    MeasurementWindow,
    SmoothStep,
    SoftSquarePulse,
    build_schedule,
    make_gate,
)
from .scenario import (
    LIBRARY_VERSION,
    Scenario,
    ScenarioError,
    draw_noise_pulses,
    load_scenario,
    run_scenario,
    scenario_from_dict,
    write_timeseries,
)
from .spincore import (
    PAULI,
    SIGMA0,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    bloch_to_density,
    density_to_bloch,
    eigenvalues,
    validate,
)

__version__ = LIBRARY_VERSION
