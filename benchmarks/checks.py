"""Output checks, computed apart from qubitdyn.

Every check takes plain data (arrays, parsed files, the benchmark's own
inputs) and returns a list of failure messages; an empty list is a pass.
Nothing here calls into qubitdyn: the references are the benchmark's own
computations (numpy eigenvalues, scipy's matrix exponential, its own
PCG64 draw, its own binary entropy) or properties the method must have.
No check compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import scipy.linalg

# the integrator's own positivity floor (IntegratorConfig.positivity_floor)
POSITIVITY_FLOOR = -1e-9
STATE_TOL = 1e-12
# first-law residual allowed, as a share of the largest |W|; the residual
# scales with the fourth power of the step and reads 4e-9 at the reference
# workload's coarser steps (3e-13 at the program's default steps)
FIRST_LAW_REL = 1e-7
# acceptance criterion 2: integrator against a closed-form propagation
LIOUVILLIAN_TOL = 1e-6
# acceptance criterion 9: density-matrix route against the Bloch route
ORACLE_TOL = 1e-8
ROW_TOL = 1e-12
HEAT_RATE_TOL = 1e-10
PZ_TOL = 1e-12

SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
EYE = np.eye(2, dtype=complex)


def check_states(states) -> list[str]:
    """Every sampled state is Hermitian, has unit trace, and is positive."""
    fails = []
    for i, rho in enumerate(states):
        rho = np.asarray(rho, dtype=complex)
        herm = float(np.max(np.abs(rho - rho.conj().T)))
        trace = abs(complex(np.trace(rho)) - 1.0)
        lam_min = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
        if herm > STATE_TOL or trace > STATE_TOL or lam_min < POSITIVITY_FLOOR:
            fails.append(
                f"state {i}: hermiticity {herm:.2e}, trace defect {trace:.2e}, "
                f"min eigenvalue {lam_min:.2e}"
            )
            break
    return fails


def check_first_law(energy, work, heat) -> list[str]:
    """max |E(t) - E(0) - W(t) - Q(t)| is tiny next to the work done."""
    energy, work, heat = (np.asarray(v, dtype=float) for v in (energy, work, heat))
    scale = float(np.max(np.abs(work)))
    if not scale > 0.0:
        return ["no work recorded: the gates did nothing"]
    residual = float(np.max(np.abs(energy - energy[0] - work - heat)))
    if residual > FIRST_LAW_REL * scale:
        return [f"first-law residual {residual:.3e} against max |W| {scale:.3e}"]
    return []


def expected_noise(seed: int, count: int) -> np.ndarray:
    """The documented draw: PCG64 uniform(-1, 1) of shape (count, 8)."""
    return np.random.Generator(np.random.PCG64(seed)).uniform(-1.0, 1.0, size=(count, 8))


def check_noise(manifest: dict, seed: int, count: int) -> list[str]:
    got = np.asarray(manifest["noise"]["coefficients"], dtype=float)
    want = expected_noise(seed, count)
    if got.shape != want.shape or not np.array_equal(got, want):
        return [f"manifest noise coefficients differ from the seed-{seed} draw"]
    return []


def check_identical(first: dict, now: dict) -> list[str]:
    """Same-seed reruns give byte-identical artifacts."""
    return [f"{name} differs from the first unit's" for name in first if first[name] != now[name]]


def _pauli_matrix(alpha0: complex, alpha) -> np.ndarray:
    return alpha0 * EYE + sum(a * s for a, s in zip(alpha, SIGMA))


def liouvillian(omega_l: float, ops) -> np.ndarray:
    """4x4 generator of vec(rho) (column stacking) for precession plus
    constant Lindblad operators given as (alpha0, alpha, gamma).

    H/hbar = -(omega_L/2) sigma_z; vec(A X B) = (B^T kron A) vec(X).
    """
    k = -0.5 * omega_l * SIGMA[2]
    gen = -1j * (np.kron(EYE, k) - np.kron(k.T, EYE))
    for alpha0, alpha, gamma in ops:
        l = _pauli_matrix(alpha0, alpha)
        ll = l.conj().T @ l
        gen = gen + gamma * (
            np.kron(l.conj(), l) - 0.5 * np.kron(EYE, ll) - 0.5 * np.kron(ll.T, EYE)
        )
    return gen


def propagate_bloch(omega_l: float, ops, p0, times) -> np.ndarray:
    """Polarization at each time from exp(L t) applied to rho(0)."""
    gen = liouvillian(omega_l, ops)
    rho0 = 0.5 * (EYE + sum(p * s for p, s in zip(p0, SIGMA)))
    vec0 = rho0.reshape(-1, order="F")
    out = []
    for t in times:
        rho = (scipy.linalg.expm(gen * t) @ vec0).reshape(2, 2, order="F")
        out.append([float(np.trace(s @ rho).real) for s in SIGMA])
    return np.array(out)


def check_linear(omega_l: float, ops, p0, times, bloch, final_bloch, oracle) -> list[str]:
    """Sampled P(t) against exp(L t); integrate's final P against the oracle's."""
    fails = []
    ref = propagate_bloch(omega_l, ops, p0, times)
    err = float(np.max(np.abs(np.asarray(bloch) - ref)))
    if not err <= LIOUVILLIAN_TOL:
        fails.append(f"P(t) differs from exp(L t) propagation by {err:.3e}")
    gap = float(np.max(np.abs(np.asarray(final_bloch) - np.asarray(oracle))))
    if not gap <= ORACLE_TOL:
        fails.append(f"integrate and integrate_bloch_oracle differ by {gap:.3e}")
    return fails


def read_csv(path) -> dict[str, np.ndarray]:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        return {}
    return {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}


def binary_entropy(p_norm: float) -> float:
    """Entropy in bits of the eigenvalues (1 +- |P|)/2."""
    total = 0.0
    for lam in (0.5 * (1.0 + p_norm), 0.5 * (1.0 - p_norm)):
        if lam > 0.0:
            total -= lam * math.log2(lam)
    return total


def check_rows(cols: dict[str, np.ndarray]) -> list[str]:
    """Every row: lambda1 + lambda2 = 1, lambda1 - lambda2 = |P|, purity = (1 + |P|^2)/2."""
    p = np.sqrt(cols["Px"] ** 2 + cols["Py"] ** 2 + cols["Pz"] ** 2)
    defects = {
        "lambda1+lambda2-1": cols["lambda1"] + cols["lambda2"] - 1.0,
        "lambda1-lambda2-|P|": cols["lambda1"] - cols["lambda2"] - p,
        "purity-(1+|P|^2)/2": cols["purity"] - 0.5 * (1.0 + p * p),
    }
    return [
        f"row {int(np.argmax(np.abs(d)))}: {name} = {float(np.max(np.abs(d))):.3e}"
        for name, d in defects.items()
        if not float(np.max(np.abs(d))) <= ROW_TOL
    ]


def check_ascent(cols: dict[str, np.ndarray], p0) -> list[str]:
    """Entropy ascent under static precession: entropy never falls, no heat
    flows, Pz (the energy) stays put, and the first row's entropy is the
    binary entropy of the initial state."""
    fails = []
    ds = np.diff(cols["entropy"])
    if not float(np.min(ds)) >= 0.0:
        fails.append(f"entropy falls by {-float(np.min(ds)):.3e} at row {int(np.argmin(ds)) + 1}")
    heat = float(np.max(np.abs(cols["heat_rate"])))
    if not heat <= HEAT_RATE_TOL:
        fails.append(f"|heat rate| reaches {heat:.3e}")
    drift = float(np.max(np.abs(cols["Pz"] - p0[2])))
    if not drift <= PZ_TOL:
        fails.append(f"Pz drifts by {drift:.3e}")
    s0 = binary_entropy(float(np.linalg.norm(p0)))
    if not abs(float(cols["entropy"][0]) - s0) <= ROW_TOL:
        fails.append(f"first-row entropy {float(cols['entropy'][0])!r} against {s0!r}")
    return fails


def check_grid(grid_rows: int, t_final: float, omega_l: float) -> list[str]:
    """larmor_grid.csv holds one row per whole Larmor period in [0, t_final]."""
    want = int(math.floor(t_final * omega_l / (2.0 * math.pi) + 1e-9)) + 1
    if grid_rows != want:
        return [f"larmor_grid.csv has {grid_rows} rows, expected {want}"]
    return []


def verify_reference(w, result, memo: dict) -> list[str]:
    traj = result.trajectory
    artifacts = {
        name: (w.out_dir / name).read_bytes() for name in ("timeseries.csv", "events.json")
    }
    memo.setdefault("artifacts", artifacts)
    return (
        check_states(traj.states)
        + check_first_law([r.energy for r in traj.rows], traj.work, traj.heat)
        + check_noise(result.manifest, w.seed, w.noise_count)
        + check_identical(memo["artifacts"], artifacts)
    )


def verify_linear(w, output, memo: dict) -> list[str]:
    fails = []
    for (p0, gens), (traj, oracle) in zip(w.cases, output):
        ops = [(op.alpha0, op.alpha, op.gamma) for op in gens.lindblads]
        fails += check_linear(
            w.omega_l, ops, p0, traj.times, traj.bloch, traj.final_bloch, oracle
        )
    return fails


def verify_dense(w, result, memo: dict) -> list[str]:
    cols = read_csv(w.out_dir / "timeseries.csv")
    with open(w.out_dir / "larmor_grid.csv", newline="") as f:
        grid_rows = sum(1 for _ in csv.DictReader(f))
    missing = [
        name for name in ("bloch.svg", "fidelity.svg", "entropy.svg", "impurity.svg")
        if not (w.out_dir / name).is_file()
    ]
    return (
        check_rows(cols)
        + check_ascent(cols, w.p0)
        + check_grid(grid_rows, w.t_final, w.omega_l)
        + [f"{name} was not written" for name in missing]
    )


VERIFY = {
    "reference": verify_reference,
    "linear_crosscheck": verify_linear,
    "dense_ascent": verify_dense,
}
