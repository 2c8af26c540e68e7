"""The three workloads: their inputs, drawn from the seed, and their timed unit.

Each workload object writes its inputs under its run directory when it is
built, and its ``unit()`` is the operation the benchmark times.  Units call
qubitdyn only through module attributes (``scenario.run_scenario``, not a
name imported from it), so the traced run sees every call by swapping the
attribute.

This module imports numpy and qubitdyn only: the peak-memory probe runs a
unit from it in a fresh interpreter, and the checks' own dependencies
(scipy.linalg among them) must not be loaded there.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from qubitdyn import cli, engine, generators, scenario, spincore

OMEGA_L = 0.2675
T_LARMOR = 2.0 * math.pi / OMEGA_L
STEADY_KINDS = ("sx", "sy", "sz", "s+", "s-")

# reference: the ROADMAP reference composition over its full 123 ns span,
# with the base step ten times coarser than the default (T_L/2000) and half
# the default pulse refinement, so one unit takes under a second instead
# of 19 s and a run holds enough units for a steady median; two thirds of
# the steps still fall inside pulse supports
REFERENCE_BASE_STEP = T_LARMOR / 200.0
REFERENCE_PULSE_REFINEMENT = 25
REFERENCE_SAMPLES = 500
NOISE_COUNT = 4

# linear_crosscheck: an eighth of a Larmor period at the default base step
# (T_L/2000), with the oracle stepping at the same size
LINEAR_T_FINAL = 0.125 * T_LARMOR
LINEAR_SAMPLES = 25
LINEAR_ORACLE_STEPS = 250
LINEAR_RANDOM_OPS = 3

# dense_ascent: two Larmor periods, more sample knots than base steps, so
# every segment is a single RK4 step followed by an observable row
DENSE_T_FINAL = 2.0 * T_LARMOR
DENSE_BASE_STEP = T_LARMOR / 800.0
DENSE_SAMPLES = 2000
DENSE_GAMMA2 = 0.02675


def _write_scenario(path: Path, doc: dict) -> Path:
    # JSON is a subset of YAML, so load_scenario reads it unchanged
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _random_bloch(rng: np.random.Generator, lo: float, hi: float) -> list[float]:
    v = rng.normal(size=3)
    v *= rng.uniform(lo, hi) / float(np.linalg.norm(v))
    return [float(x) for x in v]


class Reference:
    """Gates, a steady sz operator, seeded noise pulses and a korsch bath."""

    name = "reference"
    noise_count = NOISE_COUNT

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.scenario_path = _write_scenario(run_dir / "reference.yaml", {
            "schema_version": 1,
            "name": "reference",
            "seed": seed,
            "level": {"omega_l": OMEGA_L},
            "initial": {"bloch": [0.5, 0.0, 0.8]},
            "gates": {"sequence": ["not", "hadamard"], "n_delay": 2},
            "lindblads": [{"kind": "sz", "gamma": 0.00213}],
            "noise": {"count": NOISE_COUNT, "start": 10.0, "end": 60.0, "gamma": 0.107},
            "bath": {"gamma3": 0.0013375, "temperature": 27.3, "variant": "korsch"},
            "integrator": {
                "base_step": REFERENCE_BASE_STEP,
                "pulse_refinement": REFERENCE_PULSE_REFINEMENT,
            },
            "outputs": {"samples": REFERENCE_SAMPLES, "grid_report": True},
        })
        self.out_dir = run_dir / "out"

    def unit(self):
        s = scenario.load_scenario(self.scenario_path)
        return scenario.run_scenario(s, self.out_dir)


class LinearCrosscheck:
    """Time-invariant linear generators, each integrated by both routes.

    Set A is precession plus the five steady operators at seeded rates;
    set B is precession plus seeded random constant operators, drawn as
    acceptance criterion 9 draws them.
    """

    name = "linear_crosscheck"
    omega_l = OMEGA_L

    def __init__(self, seed: int, run_dir: Path):
        rng = np.random.default_rng(seed)
        rates = [float(g) for g in rng.uniform(0.001, 0.02, size=len(STEADY_KINDS))]
        ops_a = tuple(generators.steady_op(k, g) for k, g in zip(STEADY_KINDS, rates))
        ops_b = []
        for i in range(LINEAR_RANDOM_OPS):
            c = rng.normal(size=8) * 0.3
            ops_b.append(generators.LindbladOp(
                alpha0=complex(c[0], c[1]),
                alpha=(complex(c[2], c[3]), complex(c[4], c[5]), complex(c[6], c[7])),
                gamma=float(rng.uniform(0.005, 0.08)),
                label=f"random-{i}",
            ))
        self.cases = []
        for ops in (ops_a, tuple(ops_b)):
            p0 = _random_bloch(rng, 0.3, 0.95)
            gens = generators.GeneratorSet(
                hamiltonian=generators.HamiltonianSpec(omega_l=OMEGA_L), lindblads=ops
            )
            self.cases.append((p0, gens))
        # set A as a scenario file: what a user would write, and what setup_s loads
        self.scenario_path = _write_scenario(run_dir / "linear_crosscheck.yaml", {
            "schema_version": 1,
            "name": "linear_crosscheck",
            "seed": seed,
            "level": {"omega_l": OMEGA_L},
            "initial": {"bloch": self.cases[0][0]},
            "time": {"t_final": LINEAR_T_FINAL},
            "lindblads": [{"kind": k, "gamma": g} for k, g in zip(STEADY_KINDS, rates)],
            "outputs": {"samples": LINEAR_SAMPLES, "grid_report": False},
        })
        self.config = engine.IntegratorConfig(samples=LINEAR_SAMPLES, include_larmor_grid=False)

    def unit(self):
        out = []
        for p0, gens in self.cases:
            traj = engine.integrate(
                gens, spincore.bloch_to_density(p0), (0.0, LINEAR_T_FINAL), self.config
            )
            oracle = engine.integrate_bloch_oracle(
                p0,
                OMEGA_L,
                [(op.alpha0, op.alpha, op.gamma) for op in gens.lindblads],
                (0.0, LINEAR_T_FINAL),
                n_steps=LINEAR_ORACLE_STEPS,
            )
            out.append((traj, oracle))
        return out


class DenseAscent:
    """Precession plus entropy ascent, densely sampled, then `qubitdyn report`."""

    name = "dense_ascent"
    omega_l = OMEGA_L
    t_final = DENSE_T_FINAL

    def __init__(self, seed: int, run_dir: Path):
        rng = np.random.default_rng(seed)
        self.p0 = _random_bloch(rng, 0.5, 0.9)
        self.scenario_path = _write_scenario(run_dir / "dense_ascent.yaml", {
            "schema_version": 1,
            "name": "dense_ascent",
            "seed": seed,
            "level": {"omega_l": OMEGA_L},
            "initial": {"bloch": self.p0},
            "time": {"t_final": DENSE_T_FINAL},
            "beretta": {"gamma2": DENSE_GAMMA2},
            "integrator": {"base_step": DENSE_BASE_STEP},
            "outputs": {"samples": DENSE_SAMPLES, "grid_report": True, "svg": True},
        })
        self.out_dir = run_dir / "out"

    def unit(self):
        s = scenario.load_scenario(self.scenario_path)
        result = scenario.run_scenario(s, self.out_dir)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["report", str(self.out_dir)])
        if code != 0:
            raise RuntimeError(f"qubitdyn report exited with {code}")
        return result


WORKLOADS = {w.name: w for w in (Reference, LinearCrosscheck, DenseAscent)}
