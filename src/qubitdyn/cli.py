"""Command-line front end.

Subcommands:

    run <scenario.yaml> --out <dir> [--seed N]
    sweep <scenario.yaml> --param <dotted.path> --values v1,v2,... --out <dir> [--seed N]
    oracle --case sx|sy|sz|s+|s- --gamma G --omega W --p0 x,y,z --tmax T
    report <run_dir>
    validate <scenario.yaml>

Exit codes: 0 success, 1 oracle disagreement, 2 validation or argument
error, 3 integration failure (positivity abort).  Summary numbers print
with 6 significant digits.  QUBITDYN_LOG sets the log level (e.g.
DEBUG); nothing else is configured through the environment.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import yaml

from .engine import (
    IntegratorConfig,
    PositivityError,
    ideal_reference,
    integrate,
    steady_analytic,
)
from .generators import GeneratorSet, HamiltonianSpec, STEADY_KINDS, steady_op
from .observables import fidelity
from .scenario import (
    EVENTS_NAME,
    TIMESERIES_NAME,
    RunResult,
    ScenarioError,
    load_scenario,
    run_scenario,
    scenario_from_dict,
    svg_line_chart,
)
from .spincore import bloch_to_density

ORACLE_TOL = 1e-6
ORACLE_SAMPLES = 201


def _g(v: float) -> str:
    return f"{v:.6g}"


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    result = run_scenario(scenario, args.out, seed=args.seed)
    _print_run_summary(scenario, result)
    return 0


def _final_fidelity(scenario, traj) -> float:
    """Fidelity of the final state against the ideal gate sequence at its time."""
    rho0 = bloch_to_density(scenario.initial_bloch)
    rho_ref = ideal_reference(rho0, scenario.schedule.gates, traj.rows[-1].t)
    return fidelity(traj.final_state, rho_ref)


def _print_run_summary(scenario, result: RunResult) -> None:
    traj = result.trajectory
    last = traj.rows[-1]
    px, py, pz = last.bloch
    print(f"scenario {scenario.name}: seed {result.manifest['seed']}, "
          f"{len(traj.rows)} rows to t = {_g(last.t)} nsec")
    print(f"final P = ({_g(px)}, {_g(py)}, {_g(pz)})  S = {_g(last.entropy)} bits  "
          f"F vs reference = {_g(_final_fidelity(scenario, traj))}")
    print(f"artifacts in {result.out_dir}")


def _set_by_path(data: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = data
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node or node[key] is None:
            raise ScenarioError(f"sweep: parameter path {dotted!r} not present in scenario")
        node = node[key]
    if not isinstance(node, dict):
        raise ScenarioError(f"sweep: parameter path {dotted!r} does not address a mapping")
    node[keys[-1]] = value


def _sweep_one(packed):
    """Worker for one sweep point; runs in a separate process."""
    scenario_path, dotted, value, out_dir, seed = packed
    data = yaml.safe_load(Path(scenario_path).read_text())
    _set_by_path(data, dotted, value)
    scenario = scenario_from_dict(data, default_name=Path(scenario_path).stem)
    result = run_scenario(scenario, out_dir, seed=seed)
    traj = result.trajectory
    return {
        "value": value,
        "fidelity": _final_fidelity(scenario, traj),
        "bloch": traj.rows[-1].bloch,
        "out_dir": str(out_dir),
    }


def _cmd_sweep(args) -> int:
    tokens = [tok.strip() for tok in args.values.split(",") if tok.strip()]
    if not tokens:
        raise ScenarioError("sweep: --values is empty")
    values = [yaml.safe_load(tok) for tok in tokens]
    load_scenario(args.scenario)  # fail fast before spawning workers
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    param_slug = args.param.replace(".", "_")
    jobs = [
        (args.scenario, args.param, value, out_root / f"{param_slug}={tok}", args.seed)
        for tok, value in zip(tokens, values)
    ]
    # dry-run the override on the first value so a bad --param exits 2
    # in this process instead of surfacing as a pool traceback
    probe = yaml.safe_load(Path(args.scenario).read_text())
    _set_by_path(probe, args.param, values[0])
    scenario_from_dict(probe)

    workers = min(len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_one, jobs))
    else:
        results = [_sweep_one(job) for job in jobs]

    summary_path = out_root / "sweep_summary.csv"
    lines = ["param,value,final_fidelity,final_Px,final_Py,final_Pz"]
    for r in results:
        px, py, pz = (float(v) for v in r["bloch"])
        lines.append(
            f"{args.param},{r['value']!r},{float(r['fidelity'])!r},"
            f"{px!r},{py!r},{pz!r}"
        )
    summary_path.write_text("\n".join(lines) + "\n")
    print(f"sweep {args.param} over {len(results)} values")
    for r in results:
        print(f"  {args.param} = {r['value']}: F = {_g(r['fidelity'])}, "
              f"Pz = {_g(r['bloch'][2])}  ({r['out_dir']})")
    print(f"summary in {summary_path}")
    return 0


def _parse_p0(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ScenarioError(f"--p0: expected three comma-separated numbers, got {text!r}")
    try:
        x, y, z = (float(p) for p in parts)
    except ValueError as e:
        raise ScenarioError(f"--p0: {e}") from e
    return (x, y, z)


def _cmd_oracle(args) -> int:
    p0 = _parse_p0(args.p0)
    if args.omega <= 0.0:
        raise ScenarioError("--omega: must be positive")
    if args.gamma < 0.0:
        raise ScenarioError("--gamma: must be non-negative")
    if args.tmax <= 0.0:
        raise ScenarioError("--tmax: must be positive")
    times = np.linspace(0.0, args.tmax, ORACLE_SAMPLES)
    try:
        expected = [steady_analytic(args.case, p0, args.gamma, args.omega, t) for t in times]
    except ValueError as e:
        raise ScenarioError(str(e)) from e

    gens = GeneratorSet(
        hamiltonian=HamiltonianSpec(omega_l=args.omega),
        lindblads=(steady_op(args.case, args.gamma),),
    )
    cfg = IntegratorConfig(samples=2, include_larmor_grid=False)
    traj = integrate(gens, bloch_to_density(p0), (0.0, args.tmax), cfg, sample_times=times)

    worst = 0.0
    t_worst = 0.0
    for t, ref in zip(times, expected):
        row = traj.rows[traj.row_index(float(t))]
        err = max(abs(a - b) for a, b in zip(row.bloch, ref))
        if err > worst:
            worst, t_worst = err, float(t)
    px, py, pz = traj.final_bloch
    print(f"case {args.case}: max |P_numeric - P_closed| = {worst:.3e} "
          f"at t = {_g(t_worst)} over {ORACLE_SAMPLES} samples")
    print(f"final P = ({_g(px)}, {_g(py)}, {_g(pz)}) at t = {_g(args.tmax)}")
    if worst <= ORACLE_TOL:
        print(f"PASS (tolerance {ORACLE_TOL:g})")
        return 0
    print(f"FAIL (tolerance {ORACLE_TOL:g})")
    return 1


def _cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    csv_path = run_dir / TIMESERIES_NAME
    events_path = run_dir / EVENTS_NAME
    for p in (csv_path, events_path):
        if not p.exists():
            raise ScenarioError(f"report: missing run artifact {p}")
    doc = json.loads(events_path.read_text())
    rows = [e for e in doc.get("events", []) if e.get("kind") == "grid_sample"]
    if not rows:
        raise ScenarioError(
            "report: run has no Larmor-grid samples (outputs.grid_report was off)"
        )
    rows.sort(key=lambda e: e["t"])

    grid_path = run_dir / "larmor_grid.csv"
    lines = ["t,fidelity,entropy,impurity"]
    for e in rows:
        lines.append(f"{e['t']!r},{e['fidelity']!r},{e['entropy']!r},{e['impurity']!r}")
    grid_path.write_text("\n".join(lines) + "\n")

    t = [e["t"] for e in rows]
    for quantity, label in (("fidelity", "F"), ("entropy", "S (bits)"), ("impurity", "1 - purity")):
        svg_line_chart(
            run_dir / f"{quantity}.svg",
            f"{quantity} on the Larmor grid",
            t,
            [(label, [e[quantity] for e in rows])],
            y_label=label,
        )
    first, last = rows[0], rows[-1]
    print(f"report: {len(rows)} grid points from t = {_g(first['t'])} to {_g(last['t'])}")
    print(f"fidelity {_g(first['fidelity'])} -> {_g(last['fidelity'])}, "
          f"entropy {_g(first['entropy'])} -> {_g(last['entropy'])} bits")
    print(f"wrote {grid_path} and fidelity/entropy/impurity SVG charts")
    return 0


def _cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    print(f"ok: {scenario.name}")
    print(f"t_final = {_g(scenario.t_final)} nsec, "
          f"{len(scenario.schedule.gates)} gates, "
          f"{scenario.noise.count if scenario.noise else 0} noise pulses, "
          f"{len(scenario.measurements)} measurements")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubitdyn", description="one-qubit open-system dynamics runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write artifacts")
    p_run.add_argument("scenario", help="scenario YAML file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run one scenario per parameter value")
    p_sweep.add_argument("scenario", help="scenario YAML file")
    p_sweep.add_argument("--param", required=True, help="dotted path, e.g. noise.gamma")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", required=True, help="output directory root")
    p_sweep.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="compare the integrator with a closed form")
    p_oracle.add_argument("--case", required=True, choices=STEADY_KINDS)
    p_oracle.add_argument("--gamma", required=True, type=float, help="Lindblad rate, GHz")
    p_oracle.add_argument("--omega", required=True, type=float, help="level splitting, GHz")
    p_oracle.add_argument("--p0", required=True, help="initial polarization x,y,z")
    p_oracle.add_argument("--tmax", required=True, type=float, help="end time, nsec")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_report = sub.add_parser("report", help="emit Larmor-grid table and charts for a run")
    p_report.add_argument("run_dir", help="directory written by `run`")
    p_report.set_defaults(func=_cmd_report)

    p_validate = sub.add_parser("validate", help="check a scenario file without running it")
    p_validate.add_argument("scenario", help="scenario YAML file")
    p_validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("QUBITDYN_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except PositivityError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
