#!/usr/bin/env python3
"""Show that every output check can fail.

Run from the repository root:

    python3 benchmarks/selftest.py

Runs one unit of each workload, confirms that its checks pass on the real
output, then feeds each check a deliberately wrong copy of that output and
confirms that the check rejects it.  Exits 1 if any check accepts a wrong
input or rejects the real one.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    from workloads import WORKLOADS

    base = ROOT / ".bench_runs" / "selftest"
    w = {}
    for name, cls in WORKLOADS.items():
        (base / name).mkdir(parents=True, exist_ok=True)
        w[name] = cls(1, base / name)

    ref = w["reference"]
    result = ref.unit()
    traj = result.trajectory
    energy = [r.energy for r in traj.rows]
    artifacts = {n: (ref.out_dir / n).read_bytes() for n in ("timeseries.csv", "events.json")}

    lin = w["linear_crosscheck"]
    lin_out = lin.unit()
    (p0, gens), (ltraj, oracle) = lin.cases[1], lin_out[1]
    ops = [(op.alpha0, op.alpha, op.gamma) for op in gens.lindblads]

    def linear(bloch=ltraj.bloch, final=ltraj.final_bloch, orc=oracle):
        return checks.check_linear(lin.omega_l, ops, p0, ltraj.times, bloch, final, orc)

    dense = w["dense_ascent"]
    dense.unit()
    cols = checks.read_csv(dense.out_dir / "timeseries.csv")

    def altered(column: str, row: int, delta: float) -> dict:
        out = {k: v.copy() for k, v in cols.items()}
        out[column][row] += delta
        return out

    bad_states = list(traj.states)
    bad_states[len(bad_states) // 2] = np.diag([1.1, -0.1]).astype(complex)
    offset = np.zeros(len(traj.work))
    offset[len(offset) // 2:] = 1e-6 * float(np.max(np.abs(traj.work)))
    bad_manifest = copy.deepcopy(result.manifest)
    coeff = bad_manifest["noise"]["coefficients"][1]
    coeff[3] = float(np.nextafter(coeff[3], 2.0))
    bad_artifacts = dict(artifacts, **{"events.json": artifacts["events.json"] + b" "})
    shifted_oracle = np.asarray(oracle) + np.array([1e-7, 0.0, 0.0])
    bad_bloch = np.array(ltraj.bloch)
    bad_bloch[len(bad_bloch) // 2, 2] += 2e-6
    swapped = {k: v.copy() for k, v in cols.items()}
    swapped["entropy"][[10, 11]] = swapped["entropy"][[11, 10]]
    grid = checks.check_grid
    t_final, omega = dense.t_final, dense.omega_l
    n_grid = int(np.floor(t_final * omega / (2 * np.pi) + 1e-9)) + 1

    cases = [
        # (what, check on the real output, check on the wrong input)
        ("a state with a negative eigenvalue",
         lambda: checks.check_states(traj.states), lambda: checks.check_states(bad_states)),
        ("a work tally offset",
         lambda: checks.check_first_law(energy, traj.work, traj.heat),
         lambda: checks.check_first_law(energy, traj.work + offset, traj.heat)),
        ("one altered noise coefficient (by one ulp)",
         lambda: checks.check_noise(result.manifest, ref.seed, ref.noise_count),
         lambda: checks.check_noise(bad_manifest, ref.seed, ref.noise_count)),
        ("an events.json that differs by one byte",
         lambda: checks.check_identical(artifacts, artifacts),
         lambda: checks.check_identical(artifacts, bad_artifacts)),
        ("an oracle result shifted by 1e-7", linear, lambda: linear(orc=shifted_oracle)),
        ("a sampled P(t) off by 2e-6 from exp(L t)", linear, lambda: linear(bloch=bad_bloch)),
        ("a CSV row with lambda1 + lambda2 != 1",
         lambda: checks.check_rows(cols),
         lambda: checks.check_rows(altered("lambda1", 7, 1e-9))),
        ("a CSV row with purity != (1 + |P|^2)/2",
         lambda: checks.check_rows(cols),
         lambda: checks.check_rows(altered("purity", 7, 1e-9))),
        ("an entropy that falls from one row to the next",
         lambda: checks.check_ascent(cols, dense.p0), lambda: checks.check_ascent(swapped, dense.p0)),
        ("a heat rate of 1e-9",
         lambda: checks.check_ascent(cols, dense.p0),
         lambda: checks.check_ascent(altered("heat_rate", 3, 1e-9), dense.p0)),
        ("a Pz that drifts by 1e-10",
         lambda: checks.check_ascent(cols, dense.p0),
         lambda: checks.check_ascent(altered("Pz", 3, 1e-10), dense.p0)),
        ("a first-row entropy off by 1e-9",
         lambda: checks.check_ascent(cols, dense.p0),
         lambda: checks.check_ascent(altered("entropy", 0, -1e-9), dense.p0)),
        ("a Larmor grid one row short",
         lambda: grid(n_grid, t_final, omega), lambda: grid(n_grid - 1, t_final, omega)),
    ]
    bad = 0
    for what, good, wrong in cases:
        accepted, rejected = good(), wrong()
        ok = not accepted and bool(rejected)
        bad += not ok
        detail = rejected[0] if rejected else "accepted"
        if accepted:
            detail = f"rejected the real output: {accepted[0]}"
        print(f"{'ok  ' if ok else 'FAIL'} rejects {what}: {detail}")
    print(f"{len(cases) - bad} of {len(cases)} checks reject their wrong input")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
