"""Scenario files, seeded noise draws, and run artifact writers.

A scenario is one YAML document (schema version 1) describing a run:

    schema_version: 1
    name: optional label
    seed: 42                      # noise draw seed (CLI --seed overrides)
    level:
      omega_l: 0.2675             # level splitting, rad/nsec
      axis_rotation:              # optional slow reorientation of the axis
        t0: 100.0
        a: 10.0
        from: [0.0, 0.0, 1.0]
        to: [1.0, 0.0, 0.0]
    initial:
      bloch: [0.5, 0.0, 0.8]
    time:
      t_final: 500.0              # required when no gates are scheduled
    gates:
      sequence: [not, hadamard]
      n_delay: 2                  # Larmor periods between gates
      window: 2.3488542267        # Gaussian window width, nsec
      tau: null                   # Gaussian width; default window/16
      n_tail: 1                   # trailing Larmor periods after last gate
    lindblads:
      - kind: sz                  # named constant operator
        gamma: 0.00213
      - alpha0: [0.0, 0.0]        # or a general operator, [re, im] pairs
        alpha: [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
        gamma: 0.001
        feedback: false
    noise:
      count: 8
      start: 46.977084535
      end: 531.0
      width: 0.47
      edge_tau: 0.047             # default width/10
      gamma: 0.107
      coincide_gate: false        # true: center pulses on gate windows
    measurements:
      - t1: 120.0
        direction: [1.0, 0.0, 1.0]
        gamma: 26.752             # rate; the window is [t1, t1 + pi/gamma]
    beretta:
      gamma2: 0.002675
    bath:
      gamma3: 0.0013375
      temperature: 27.3
      variant: korsch
    integrator:
      base_step: null             # RK4 step outside pulse supports and the
                                  # longest step inside; null: T_L/2000
      pulse_refinement: 50        # finest step inside a pulse support is
                                  # base_step/pulse_refinement
      validate_every: 100
      positivity_floor: -1.0e-9
    outputs:
      samples: 500
      grid_report: true
      svg: false

Units are fixed: nanoseconds, rad/nsec (GHz), micro-eV, Kelvin.  Unknown
keys are errors at every level, so typos never silently change a run.

Inside gate, hold and pulse supports the integrator takes error-controlled
Dormand-Prince 5(4) steps between those two sizes; their tolerance,
(omega_l base_step)^5/120, is derived from the keys above, not a key of
its own.  Schema version 1 still holds: the two keys keep their names,
types and defaults.

A run writes three artifacts into its output directory:

    timeseries.csv   fixed header, one row per sample, floats as
                     shortest round-trip decimals
    events.json      pulse boundaries, measurement markers, integrator
                     events, and Larmor-grid fidelity rows, sorted
    manifest.json    seed, RNG algorithm name, the scenario echo
                     (resolved_echo: every effective value, defaults and
                     derived times included), drawn noise coefficients,
                     resolved schedule times, artifact hashes, versions,
                     wall time

Identical scenario plus identical seed reproduces timeseries.csv and
events.json byte for byte; the manifest differs only in wall_seconds.
Noise coefficients come from one uniform(-1, 1) draw of shape
(count, 8) on numpy's seeded PCG64 generator, rows ordered
[a0 a1 a2 a3 b0 b1 b2 b3] for L = (a0+ib0) sigma_0 + sum (aj+ibj) sigma_j.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import yaml

from .engine import (
    WEAK_MEASUREMENT_RATIO,
    IntegratorConfig,
    Trajectory,
    fidelity_on_larmor_grid,
    integrate,
)
from .generators import (
    STEADY_KINDS,
    AxisRotation,
    BathSpec,
    BerettaSpec,
    GeneratorSet,
    HamiltonianSpec,
    LindbladOp,
    linear_bloch_drift,
    measurement_op,
    steady_op,
)
from .pulses import (
    GateSchedule,
    MeasurementWindow,
    SmoothStep,
    SoftSquarePulse,
    build_schedule,
)
from .spincore import bloch_to_density

SCHEMA_VERSION = 1
RNG_ALGORITHM = "numpy-pcg64"
LIBRARY_VERSION = "0.1.0"
CSV_HEADER = "t,Px,Py,Pz,lambda1,lambda2,entropy,purity,energy,power,heat_rate,T_occ,T_ratio"
DEFAULT_NOISE_WIDTH = 0.47
TIMESERIES_NAME = "timeseries.csv"
EVENTS_NAME = "events.json"
MANIFEST_NAME = "manifest.json"


class ScenarioError(ValueError):
    """Scenario file missing, malformed, or physically invalid."""


@dataclass(frozen=True)
class NoiseSpec:
    """Random Lindblad pulse train drawn from the seeded generator."""

    count: int
    start: float
    end: float
    width: float
    edge_tau: float
    gamma: float
    coincide_gate: bool = False


@dataclass(frozen=True)
class Scenario:
    """Fully validated run description with defaults resolved.  Each value
    is stored once: outputs.samples and outputs.grid_report live in
    integrator, a measurement's rate on its window."""

    name: str
    seed: int
    omega_l: float
    initial_bloch: tuple[float, float, float]
    t_final: float
    schedule: GateSchedule
    axis_rotation: AxisRotation | None
    lindblads: tuple[LindbladOp, ...]
    noise: NoiseSpec | None
    measurements: tuple[MeasurementWindow, ...]
    beretta: BerettaSpec | None
    bath: BathSpec | None
    integrator: IntegratorConfig
    svg: bool


def _as_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _check_keys(section: dict, path: str, required: tuple, optional: tuple = ()):
    unknown = sorted(set(section) - set(required) - set(optional))
    if unknown:
        raise ScenarioError(f"{path}: unknown keys {unknown}")
    missing = [k for k in required if k not in section]
    if missing:
        raise ScenarioError(f"{path}: missing required keys {missing}")


def _number(section: dict, path: str, key: str, default=None):
    if key not in section or section[key] is None:
        if default is None and key not in section:
            raise ScenarioError(f"{path}.{key}: required number missing")
        return default
    v = section[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{path}.{key}: expected a number, got {v!r}")
    return float(v)


def _integer(section: dict, path: str, key: str, default=None, minimum=None):
    if key not in section or section[key] is None:
        if default is None and key not in section:
            raise ScenarioError(f"{path}.{key}: required integer missing")
        v = default
    else:
        v = section[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioError(f"{path}.{key}: expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ScenarioError(f"{path}.{key}: must be >= {minimum}, got {v}")
    return v


def _boolean(section: dict, path: str, key: str, default: bool) -> bool:
    v = section.get(key, default)
    if not isinstance(v, bool):
        raise ScenarioError(f"{path}.{key}: expected true/false, got {v!r}")
    return v


def _vector3(value, path: str) -> tuple[float, float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ScenarioError(f"{path}: expected a 3-vector")
    out = []
    for i, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ScenarioError(f"{path}[{i}]: expected a number, got {v!r}")
        out.append(float(v))
    return (out[0], out[1], out[2])


def _complex_pair(value, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(float(value), 0.0)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        re, im = value
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (re, im)):
            return complex(float(re), float(im))
    raise ScenarioError(f"{path}: expected a number or [re, im] pair, got {value!r}")


def _parse_lindblad(entry, path: str) -> LindbladOp:
    entry = _as_dict(entry, path)
    if "kind" in entry:
        _check_keys(entry, path, ("kind", "gamma"))
        kind = entry["kind"]
        if kind not in STEADY_KINDS:
            raise ScenarioError(f"{path}.kind: unknown operator {kind!r}, expected one of {STEADY_KINDS}")
        gamma = _number(entry, path, "gamma")
        try:
            return steady_op(kind, gamma)
        except ValueError as e:
            raise ScenarioError(f"{path}: {e}") from e
    _check_keys(entry, path, ("alpha0", "alpha", "gamma"), ("label", "feedback"))
    alpha0 = _complex_pair(entry["alpha0"], f"{path}.alpha0")
    alpha_raw = entry["alpha"]
    if not isinstance(alpha_raw, (list, tuple)) or len(alpha_raw) != 3:
        raise ScenarioError(f"{path}.alpha: expected three entries")
    alpha = tuple(_complex_pair(v, f"{path}.alpha[{i}]") for i, v in enumerate(alpha_raw))
    label = entry.get("label", "")
    if not isinstance(label, str):
        raise ScenarioError(f"{path}.label: expected a string")
    feedback = _boolean(entry, path, "feedback", False)
    try:
        return LindbladOp(
            alpha0=alpha0,
            alpha=alpha,
            gamma=_number(entry, path, "gamma"),
            label=label,
            feedback=feedback,
        )
    except ValueError as e:
        raise ScenarioError(f"{path}: {e}") from e


def load_scenario(path) -> Scenario:
    """Parse and fully validate one scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ScenarioError(f"cannot read scenario file {path}: {e}") from e
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        where = f" (line {mark.line + 1})" if mark is not None else ""
        raise ScenarioError(f"scenario parse error{where}: {e}") from e
    return scenario_from_dict(data, default_name=path.stem)


def scenario_from_dict(data, default_name: str = "scenario") -> Scenario:
    """Validate an already-parsed scenario document."""
    data = _as_dict(data, "scenario")
    _check_keys(
        data,
        "scenario",
        ("schema_version", "level", "initial"),
        (
            "name",
            "seed",
            "time",
            "gates",
            "lindblads",
            "noise",
            "measurements",
            "beretta",
            "bath",
            "integrator",
            "outputs",
        ),
    )
    version = _integer(data, "scenario", "schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"schema_version: expected {SCHEMA_VERSION}, got {version}")
    name = data.get("name", default_name)
    if not isinstance(name, str):
        raise ScenarioError("name: expected a string")
    seed = _integer(data, "scenario", "seed", default=0)

    level = _as_dict(data["level"], "level")
    _check_keys(level, "level", ("omega_l",), ("axis_rotation",))
    omega_l = _number(level, "level", "omega_l")
    if omega_l <= 0.0:
        raise ScenarioError("level.omega_l: must be positive")
    t_larmor = 2.0 * math.pi / omega_l

    axis_rotation = None
    if level.get("axis_rotation") is not None:
        ar = _as_dict(level["axis_rotation"], "level.axis_rotation")
        _check_keys(ar, "level.axis_rotation", ("t0", "a", "from", "to"))
        a = _number(ar, "level.axis_rotation", "a")
        if a <= 0.0:
            raise ScenarioError("level.axis_rotation.a: must be positive")
        axis_rotation = AxisRotation(
            step=SmoothStep(t0=_number(ar, "level.axis_rotation", "t0"), a=a),
            axis_from=_vector3(ar["from"], "level.axis_rotation.from"),
            axis_to=_vector3(ar["to"], "level.axis_rotation.to"),
        )

    initial = _as_dict(data["initial"], "initial")
    _check_keys(initial, "initial", ("bloch",))
    bloch = _vector3(initial["bloch"], "initial.bloch")
    norm = math.sqrt(sum(v * v for v in bloch))
    if norm > 1.0 + 1e-9:
        raise ScenarioError(f"initial.bloch: |P| = {norm:.6f} exceeds 1 (unphysical)")

    if data.get("gates") is not None:
        g = _as_dict(data["gates"], "gates")
        _check_keys(g, "gates", ("sequence",), ("n_delay", "window", "tau", "n_tail"))
        sequence = g["sequence"]
        if not isinstance(sequence, list) or not sequence:
            raise ScenarioError("gates.sequence: expected a non-empty list")
        for i, kind in enumerate(sequence):
            if not isinstance(kind, str):
                raise ScenarioError(f"gates.sequence[{i}]: expected a gate name")
        window = _number(g, "gates", "window", default=0.1 * t_larmor)
        tau = _number(g, "gates", "tau", default=0.0) if g.get("tau") is not None else None
        try:
            schedule = build_schedule(
                kinds=sequence,
                n_delay=_integer(g, "gates", "n_delay", default=2, minimum=1),
                omega_l=omega_l,
                window=window,
                tau=tau,
                n_tail=_integer(g, "gates", "n_tail", default=1),
            )
        except ValueError as e:
            raise ScenarioError(f"gates: {e}") from e
    else:
        schedule = GateSchedule(gates=(), t_final=0.0, t_delay=0.0, larmor_period=t_larmor)

    t_final = None
    if data.get("time") is not None:
        tsec = _as_dict(data["time"], "time")
        _check_keys(tsec, "time", (), ("t_final",))
        t_final = _number(tsec, "time", "t_final", default=None)
    if schedule.gates:
        if t_final is None:
            t_final = schedule.t_final
        elif t_final < schedule.t_final - 1e-9:
            raise ScenarioError(
                f"time.t_final: {t_final} ends before the gate schedule completes "
                f"at {schedule.t_final:.6f}"
            )
    elif t_final is None:
        raise ScenarioError("time.t_final: required when no gates are scheduled")
    if t_final <= 0.0:
        raise ScenarioError("time.t_final: must be positive")

    lindblads = []
    if data.get("lindblads") is not None:
        entries = data["lindblads"]
        if not isinstance(entries, list):
            raise ScenarioError("lindblads: expected a list")
        for i, entry in enumerate(entries):
            lindblads.append(_parse_lindblad(entry, f"lindblads[{i}]"))

    noise = None
    if data.get("noise") is not None:
        n = _as_dict(data["noise"], "noise")
        _check_keys(
            n, "noise", ("count", "gamma"), ("start", "end", "width", "edge_tau", "coincide_gate")
        )
        count = _integer(n, "noise", "count", minimum=1)
        width = _number(n, "noise", "width", default=DEFAULT_NOISE_WIDTH)
        if width <= 0.0:
            raise ScenarioError("noise.width: must be positive")
        edge_tau = _number(n, "noise", "edge_tau", default=width / 10.0)
        if edge_tau <= 0.0:
            raise ScenarioError("noise.edge_tau: must be positive")
        gamma = _number(n, "noise", "gamma")
        if gamma < 0.0:
            raise ScenarioError("noise.gamma: must be non-negative")
        coincide = _boolean(n, "noise", "coincide_gate", False)
        if coincide:
            if count > len(schedule.gates):
                raise ScenarioError(
                    "noise.coincide_gate: needs at least as many gates as noise pulses"
                )
            start = end = 0.0
        else:
            start = _number(n, "noise", "start", default=None)
            end = _number(n, "noise", "end", default=None)
            if start is None or end is None:
                raise ScenarioError("noise: start and end required unless coincide_gate")
            if end - start < count * width:
                raise ScenarioError(
                    f"noise: window [{start}, {end}] shorter than count*width = {count * width}"
                )
        noise = NoiseSpec(
            count=count,
            start=start,
            end=end,
            width=width,
            edge_tau=edge_tau,
            gamma=gamma,
            coincide_gate=coincide,
        )

    measurements = []
    if data.get("measurements") is not None:
        entries = data["measurements"]
        if not isinstance(entries, list):
            raise ScenarioError("measurements: expected a list")
        for i, entry in enumerate(entries):
            m = _as_dict(entry, f"measurements[{i}]")
            _check_keys(m, f"measurements[{i}]", ("t1", "direction", "gamma"))
            gamma = _number(m, f"measurements[{i}]", "gamma")
            if gamma <= 0.0:
                raise ScenarioError(f"measurements[{i}].gamma: must be positive")
            direction = _vector3(m["direction"], f"measurements[{i}].direction")
            if math.sqrt(sum(v * v for v in direction)) <= 0.0:
                raise ScenarioError(f"measurements[{i}].direction: must be non-zero")
            try:
                window = MeasurementWindow(
                    t1=_number(m, f"measurements[{i}]", "t1"), gamma=gamma, direction=direction
                )
            except ValueError as e:
                # what the checks above let through: a nan rate, a non-finite direction
                raise ScenarioError(f"measurements[{i}]: {e}") from e
            if window.t2 > t_final:
                raise ScenarioError(
                    f"measurements[{i}]: window ends at {window.t2:.6f}, past t_final"
                )
            measurements.append(window)

    beretta = None
    if data.get("beretta") is not None:
        b = _as_dict(data["beretta"], "beretta")
        _check_keys(b, "beretta", ("gamma2",))
        gamma2 = _number(b, "beretta", "gamma2")
        if gamma2 < 0.0:
            raise ScenarioError("beretta.gamma2: must be non-negative")
        beretta = BerettaSpec(gamma2=gamma2)

    bath = None
    if data.get("bath") is not None:
        b = _as_dict(data["bath"], "bath")
        _check_keys(b, "bath", ("gamma3", "temperature"), ("variant",))
        gamma3 = _number(b, "bath", "gamma3")
        if gamma3 < 0.0:
            raise ScenarioError("bath.gamma3: must be non-negative")
        variant = b.get("variant", "korsch")
        try:
            bath = BathSpec(
                gamma3=gamma3,
                temperature=_number(b, "bath", "temperature"),
                variant=variant,
            )
        except ValueError as e:
            raise ScenarioError(f"bath: {e}") from e

    integ = _as_dict(data.get("integrator") or {}, "integrator")
    _check_keys(
        integ,
        "integrator",
        (),
        ("base_step", "pulse_refinement", "validate_every", "positivity_floor"),
    )
    base_step = None
    if integ.get("base_step") is not None:
        base_step = _number(integ, "integrator", "base_step")
        if base_step <= 0.0:
            raise ScenarioError("integrator.base_step: must be positive or null")

    out = _as_dict(data.get("outputs") or {}, "outputs")
    _check_keys(out, "outputs", (), ("samples", "grid_report", "svg"))
    samples = _integer(out, "outputs", "samples", default=500, minimum=2)
    grid_report = _boolean(out, "outputs", "grid_report", True)
    svg = _boolean(out, "outputs", "svg", False)

    integrator = IntegratorConfig(
        base_step=base_step,
        pulse_refinement=_integer(integ, "integrator", "pulse_refinement", default=50, minimum=1),
        validate_every=_integer(integ, "integrator", "validate_every", default=100, minimum=1),
        positivity_floor=_number(integ, "integrator", "positivity_floor", default=-1e-9),
        samples=samples,
        include_larmor_grid=grid_report,
    )
    _check_step_stability(omega_l, lindblads, integrator.resolved_base_step(omega_l))
    # the run checks rho(0) against its own floor, not only the |P| <= 1 + 1e-9 above
    lam0 = 0.5 * (1.0 - norm)
    if not lam0 >= integrator.positivity_floor:
        raise ScenarioError(
            f"initial.bloch: smallest eigenvalue (1 - |P|)/2 = {lam0:.3e} is below "
            f"integrator.positivity_floor = {integrator.positivity_floor:.3e}"
        )

    return Scenario(
        name=name,
        seed=seed,
        omega_l=omega_l,
        initial_bloch=bloch,
        t_final=float(t_final),
        schedule=schedule,
        axis_rotation=axis_rotation,
        lindblads=tuple(lindblads),
        noise=noise,
        measurements=tuple(measurements),
        beretta=beretta,
        bath=bath,
        integrator=integrator,
        svg=svg,
    )


def _check_step_stability(omega_l: float, ops, base_step: float) -> None:
    """Reject a base step at which RK4 amplifies a decaying mode of the
    linear Bloch drift of precession plus the constant Lindblad operators.

    Growing modes (feedback rates), pulsed operators and the nonlinear
    terms are not checked.
    """
    drift, _ = linear_bloch_drift(omega_l, [(op.alpha0, op.alpha, op.gamma) for op in ops])
    decaying = [lam for lam in np.linalg.eigvals(drift) if lam.real < 0.0]

    def stable(h: float) -> bool:
        # |R(z)| <= 1 for R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, z = h lambda;
        # the 1e-12 slack absorbs roundoff on lightly damped precession modes
        zs = [h * lam for lam in decaying]
        return all(abs(1 + z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4)))) <= 1 + 1e-12 for z in zs)

    if not stable(base_step):
        lo, hi = 0.0, base_step
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if stable(mid) else (lo, mid)
        raise ScenarioError(
            f"integrator.base_step: RK4 at {base_step:.6g} amplifies a decaying mode of the "
            f"constant lindblads; the largest stable base_step is {lo:.6g}"
        )


def resolved_echo(s: Scenario) -> dict:
    """Plain-data echo of every effective value, defaults and derived
    values included, keyed by the schema."""
    echo = {
        "schema_version": SCHEMA_VERSION,
        "name": s.name,
        "seed": s.seed,
        "level": {"omega_l": s.omega_l},
        "initial": {"bloch": list(s.initial_bloch)},
        "time": {"t_final": s.t_final},
        "integrator": {
            "base_step": s.integrator.base_step,
            "pulse_refinement": s.integrator.pulse_refinement,
            "validate_every": s.integrator.validate_every,
            "positivity_floor": s.integrator.positivity_floor,
        },
        "outputs": {
            "samples": s.integrator.samples,
            "grid_report": s.integrator.include_larmor_grid,
            "svg": s.svg,
        },
    }
    if s.axis_rotation is not None:
        echo["level"]["axis_rotation"] = {
            "t0": s.axis_rotation.step.t0,
            "a": s.axis_rotation.step.a,
            "from": list(s.axis_rotation.axis_from),
            "to": list(s.axis_rotation.axis_to),
        }
    if s.schedule.gates:
        first = s.schedule.gates[0]
        echo["gates"] = {
            "sequence": [g.kind for g in s.schedule.gates],
            "n_delay": int(round(s.schedule.t_delay / s.schedule.larmor_period)),
            "window": first.t2 - first.t1,
            "tau": first.pulse.tau,
            "t_final": s.schedule.t_final,
        }
    if s.lindblads:
        echo["lindblads"] = [
            {
                "label": op.label,
                "alpha0": [op.alpha0.real, op.alpha0.imag],
                "alpha": [[a.real, a.imag] for a in op.alpha],
                "gamma": op.gamma,
                "feedback": op.feedback,
            }
            for op in s.lindblads
        ]
    if s.measurements:
        echo["measurements"] = [
            {"t1": w.t1, "t2": w.t2, "direction": list(w.direction), "gamma": w.gamma}
            for w in s.measurements
        ]
    # these sections' field names are their schema keys
    for key in ("noise", "beretta", "bath"):
        if getattr(s, key) is not None:
            echo[key] = asdict(getattr(s, key))
    return echo


def noise_pulse_starts(scenario: Scenario) -> list[float]:
    """Deterministic pulse start times from the configured timing rule.

    Equi-spaced rule: first pulse starts at noise.start, last pulse ends
    exactly at noise.end.  The coincide_gate rule centers pulse i on
    gate i's Gaussian window instead.
    """
    n = scenario.noise
    if n is None:
        return []
    if n.coincide_gate:
        gates = scenario.schedule.gates[: n.count]
        return [g.pulse.t0 - 0.5 * n.width for g in gates]
    if n.count == 1:
        return [n.start]
    step = (n.end - n.width - n.start) / (n.count - 1)
    return [n.start + i * step for i in range(n.count)]


def draw_noise_pulses(scenario: Scenario, rng: np.random.Generator) -> list[LindbladOp]:
    """Draw the random noise operators for a run.

    One generator call of shape (count, 8) fixes all coefficients, so
    the draw is reproducible from the seed alone regardless of how the
    operators are later evaluated.
    """
    if scenario.noise is None:
        return []
    n = scenario.noise
    coeffs = rng.uniform(-1.0, 1.0, size=(n.count, 8))
    ops = []
    for i, (row, t_start) in enumerate(zip(coeffs, noise_pulse_starts(scenario))):
        a0, a1, a2, a3, b0, b1, b2, b3 = (float(v) for v in row)
        envelope = SoftSquarePulse(t_start, t_start + n.width, n.edge_tau)
        ops.append(
            LindbladOp(
                alpha0=complex(a0, b0),
                alpha=(complex(a1, b1), complex(a2, b2), complex(a3, b3)),
                gamma=n.gamma,
                envelope=envelope,
                label=f"noise-{i}",
            )
        )
    return ops


def build_generators(scenario: Scenario, noise_ops=()) -> GeneratorSet:
    """Assemble the full right-hand side for a scenario run."""
    ops = list(scenario.lindblads) + list(noise_ops)
    ops += [measurement_op(window) for window in scenario.measurements]
    return GeneratorSet(
        hamiltonian=HamiltonianSpec(
            omega_l=scenario.omega_l,
            gates=scenario.schedule.gates,
            axis_rotation=scenario.axis_rotation,
            bias_holds=tuple(w.hold() for w in scenario.measurements),
        ),
        lindblads=tuple(ops),
        beretta=scenario.beretta,
        bath=scenario.bath,
    )


def write_timeseries(traj, path) -> None:
    """CSV with the fixed header; floats as shortest round-trip decimals.

    Accepts a Trajectory or a bare list of rows; an empty run still gets
    the header line so readers can tell "no samples" from "no file".
    """
    rows = traj.rows if isinstance(traj, Trajectory) else list(traj)
    lines = [CSV_HEADER]
    for r in rows:
        values = (
            r.t,
            r.bloch[0],
            r.bloch[1],
            r.bloch[2],
            r.lambda1,
            r.lambda2,
            r.entropy,
            r.purity,
            r.energy,
            r.power,
            r.heat_rate,
            r.temp_occupation,
            r.temp_rate_ratio,
        )
        # float's own repr: numpy 2's repr of a float64 names its type
        lines.append(",".join(map(float.__repr__, values)))
    Path(path).write_text("\n".join(lines) + "\n")


def read_timeseries(path) -> dict:
    """Reload a timeseries CSV into named float arrays."""
    text = Path(path).read_text().strip().split("\n")
    if not text or text[0] != CSV_HEADER:
        raise ScenarioError(f"{path}: missing or unexpected timeseries header")
    names = CSV_HEADER.split(",")
    columns = {name: [] for name in names}
    for line in text[1:]:
        parts = line.split(",")
        if len(parts) != len(names):
            raise ScenarioError(f"{path}: malformed row {line!r}")
        for name, part in zip(names, parts):
            columns[name].append(float(part))
    return {name: np.array(vals) for name, vals in columns.items()}


def _json_default(value):
    # numpy scalars leak in from trajectory metadata; coerce, never guess
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def _event_order(e: dict):
    return (e.get("t", 0.0), e.get("kind", ""), json.dumps(e, sort_keys=True, default=_json_default))


def assemble_events(scenario: Scenario, traj: Trajectory, noise_ops) -> list[dict]:
    """Pulse boundaries, measurement markers, integrator events, and
    Larmor-grid fidelity rows, in deterministic order."""
    events: list[dict] = []
    for g in scenario.schedule.gates:
        events.append(
            {
                "kind": "gate",
                "gate": g.kind,
                "t": g.t_anchor,
                "t1": g.t1,
                "t2": g.t2,
                "frozen_span": g.frozen_span,
            }
        )
    for op in noise_ops:
        events.append(
            {
                "kind": "noise_pulse",
                "label": op.label,
                "t": op.envelope.t1,
                "t1": op.envelope.t1,
                "t2": op.envelope.t2,
                "gamma": op.gamma,
            }
        )
    for window in scenario.measurements:
        marker = {
            "kind": "measurement",
            "t": window.t1,
            "t1": window.t1,
            "t2": window.t2,
            "direction": list(window.direction),
            "gamma": window.gamma,
        }
        lo, hi = window.support()
        try:
            i_lo = traj.row_index(max(lo, traj.rows[0].t))
            i_hi = traj.row_index(min(hi, traj.rows[-1].t))
            m = np.asarray(window.direction)
            drift = float(
                abs(m @ np.asarray(traj.rows[i_hi].bloch) - m @ np.asarray(traj.rows[i_lo].bloch))
            )
            marker["parallel_drift"] = drift
        except KeyError:
            pass
        if window.gamma < WEAK_MEASUREMENT_RATIO * scenario.omega_l:
            marker["weak_rate_warning"] = True
        events.append(marker)
    events.extend(dict(e) for e in traj.events)
    if scenario.integrator.include_larmor_grid:
        grid, fids = fidelity_on_larmor_grid(traj, scenario.schedule.gates)
        for t, f in zip(grid, fids):
            i = traj.row_index(float(t))
            events.append(
                {
                    "kind": "grid_sample",
                    "t": float(t),
                    "fidelity": float(f),
                    "entropy": traj.rows[i].entropy,
                    "impurity": 1.0 - traj.rows[i].purity,
                }
            )
    events.sort(key=_event_order)
    return events


def _sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class RunResult:
    trajectory: Trajectory
    events: list[dict]
    manifest: dict
    out_dir: Path


def run_scenario(scenario: Scenario, out_dir, seed: int | None = None) -> RunResult:
    """Run a scenario end to end and persist all artifacts.

    seed overrides the scenario's own; everything else comes from the
    validated scenario.  Artifacts land in out_dir (created if needed).
    """
    t_begin = time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    effective_seed = scenario.seed if seed is None else int(seed)
    rng = np.random.default_rng(effective_seed)
    noise_ops = draw_noise_pulses(scenario, rng)
    gens = build_generators(scenario, noise_ops)
    rho0 = bloch_to_density(scenario.initial_bloch)
    traj = integrate(gens, rho0, (0.0, scenario.t_final), scenario.integrator)
    events = assemble_events(scenario, traj, noise_ops)

    csv_path = out_dir / TIMESERIES_NAME
    write_timeseries(traj, csv_path)
    events_path = out_dir / EVENTS_NAME
    events_doc = {"schema_version": SCHEMA_VERSION, "events": events}
    events_path.write_text(
        json.dumps(events_doc, indent=2, sort_keys=True, default=_json_default) + "\n"
    )

    echo = resolved_echo(scenario)
    scenario_blob = json.dumps(echo, sort_keys=True, separators=(",", ":"))
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "library_version": LIBRARY_VERSION,
        "rng_algorithm": RNG_ALGORITHM,
        "seed": effective_seed,
        "scenario": echo,
        "scenario_sha256": hashlib.sha256(scenario_blob.encode()).hexdigest(),
        "noise": {
            "starts": noise_pulse_starts(scenario),
            "coefficients": [
                [
                    op.alpha0.real,
                    op.alpha[0].real,
                    op.alpha[1].real,
                    op.alpha[2].real,
                    op.alpha0.imag,
                    op.alpha[0].imag,
                    op.alpha[1].imag,
                    op.alpha[2].imag,
                ]
                for op in noise_ops
            ],
        },
        "gates": [
            {
                "kind": g.kind,
                "t_anchor": g.t_anchor,
                "t1": g.t1,
                "t2": g.t2,
                "frozen_span": g.frozen_span,
                "bias": [g.bias.t1, g.bias.t2],
            }
            for g in scenario.schedule.gates
        ],
        "integrator": dict(traj.meta),
        "outputs": {
            "timeseries_sha256": _sha256_file(csv_path),
            "events_sha256": _sha256_file(events_path),
        },
        "wall_seconds": round(time.perf_counter() - t_begin, 3),
    }
    manifest_path = out_dir / MANIFEST_NAME
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=_json_default) + "\n"
    )

    if scenario.svg:
        bloch = traj.bloch
        svg_line_chart(
            out_dir / "bloch.svg",
            "polarization components",
            traj.times,
            [("Px", bloch[:, 0]), ("Py", bloch[:, 1]), ("Pz", bloch[:, 2])],
            y_label="P",
        )
    return RunResult(trajectory=traj, events=events, manifest=manifest, out_dir=out_dir)


SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def svg_line_chart(path, title: str, x, series, y_label: str = "") -> None:
    """Write a fixed-size standalone SVG line chart.

    series is a list of (label, values) pairs sharing the x axis, which is
    time in nanoseconds.  The
    output is deterministic for identical inputs: fixed 800x500 viewBox,
    fixed palette, %.6g coordinate formatting, no timestamps.
    """
    width, height = 800, 500
    left, right, top, bottom = 70.0, 20.0, 40.0, 50.0
    plot_w = width - left - right
    plot_h = height - top - bottom
    x = np.asarray(x, dtype=float)

    finite_vals = []
    for _, ys in series:
        ys = np.asarray(ys, dtype=float)
        finite_vals.extend(ys[np.isfinite(ys)].tolist())
    if len(x) == 0 or not finite_vals:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    else:
        x_lo, x_hi = float(np.min(x)), float(np.max(x))
        y_lo, y_hi = min(finite_vals), max(finite_vals)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def sx(v: float) -> float:
        return left + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return top + (1.0 - (v - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.6g}" y="24" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{title}</text>',
        f'<rect x="{_fmt(left)}" y="{_fmt(top)}" width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" '
        f'fill="none" stroke="#888888"/>',
    ]
    for i in range(5):
        frac = i / 4.0
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        xpix = sx(xv)
        ypix = sy(yv)
        parts.append(
            f'<line x1="{_fmt(xpix)}" y1="{_fmt(top + plot_h)}" x2="{_fmt(xpix)}" '
            f'y2="{_fmt(top + plot_h + 5)}" stroke="#888888"/>'
        )
        parts.append(
            f'<text x="{_fmt(xpix)}" y="{_fmt(top + plot_h + 20)}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{_fmt(xv)}</text>'
        )
        parts.append(
            f'<line x1="{_fmt(left - 5)}" y1="{_fmt(ypix)}" x2="{_fmt(left)}" '
            f'y2="{_fmt(ypix)}" stroke="#888888"/>'
        )
        parts.append(
            f'<text x="{_fmt(left - 8)}" y="{_fmt(ypix + 4)}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{_fmt(yv)}</text>'
        )
    parts.append(
        f'<text x="{_fmt(left + plot_w / 2)}" y="{_fmt(height - 10)}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">t (nsec)</text>'
    )
    if y_label:
        parts.append(
            f'<text x="18" y="{_fmt(top + plot_h / 2)}" text-anchor="middle" font-size="13" '
            f'font-family="sans-serif" transform="rotate(-90 18 {_fmt(top + plot_h / 2)})">'
            f"{y_label}</text>"
        )
    # sx and sy act elementwise on arrays, with the same roundings as on floats
    x_pix = sx(x).tolist()
    for i, (label, ys) in enumerate(series):
        ys = np.asarray(ys, dtype=float)
        color = SVG_PALETTE[i % len(SVG_PALETTE)]
        points = [
            f"{xp:.6g},{yp:.6g}"
            for xp, yp, finite in zip(x_pix, sy(ys).tolist(), np.isfinite(ys).tolist())
            if finite
        ]
        if points:
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{" ".join(points)}"/>'
            )
        parts.append(
            f'<text x="{_fmt(left + plot_w - 8)}" y="{_fmt(top + 18 + 16 * i)}" '
            f'text-anchor="end" font-size="12" font-family="sans-serif" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
