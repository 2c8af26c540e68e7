"""Scenario files, noise drawing, run artifacts, and their determinism."""

import hashlib
import json
import math

import numpy as np
import pytest
import yaml

from qubitdyn.engine import measure
from qubitdyn.generators import hamiltonian_dot
from qubitdyn.scenario import (
    CSV_HEADER,
    EVENTS_NAME,
    MANIFEST_NAME,
    RNG_ALGORITHM,
    SCHEMA_VERSION,
    TIMESERIES_NAME,
    Scenario,
    ScenarioError,
    build_generators,
    draw_noise_pulses,
    load_scenario,
    noise_pulse_starts,
    read_timeseries,
    run_scenario,
    scenario_from_dict,
    write_timeseries,
)
from qubitdyn.spincore import density_to_bloch

OMEGA_L = 0.2675
T_LARMOR = 2.0 * math.pi / OMEGA_L


def base_config(**overrides):
    data = {
        "schema_version": SCHEMA_VERSION,
        "name": "probe",
        "seed": 11,
        "level": {"omega_l": OMEGA_L},
        "initial": {"bloch": [0.5, 0.0, 0.8]},
        "time": {"t_final": 50.0},
        "outputs": {"samples": 40, "grid_report": True},
    }
    data.update(overrides)
    return data


class TestValidation:
    def test_minimal_file_loads(self, tmp_path):
        path = tmp_path / "probe.yaml"
        path.write_text(yaml.safe_dump(base_config()))
        sc = load_scenario(path)
        assert sc.name == "probe"
        assert sc.seed == 11
        assert sc.omega_l == OMEGA_L
        assert sc.t_final == 50.0
        assert tuple(sc.initial_bloch) == (0.5, 0.0, 0.8)

    def test_name_defaults_to_stem(self, tmp_path):
        data = base_config()
        del data["name"]
        path = tmp_path / "fallback.yaml"
        path.write_text(yaml.safe_dump(data))
        assert load_scenario(path).name == "fallback"

    def test_unknown_top_key_rejected(self):
        with pytest.raises(ScenarioError, match="frobnicate"):
            scenario_from_dict(base_config(frobnicate=1))

    def test_unknown_nested_key_names_path(self):
        data = base_config()
        data["level"]["detuning"] = 0.5
        with pytest.raises(ScenarioError, match="level"):
            scenario_from_dict(data)
        data = base_config()
        data["outputs"]["csv"] = True
        with pytest.raises(ScenarioError, match="outputs"):
            scenario_from_dict(data)

    def test_schema_version_checked(self):
        with pytest.raises(ScenarioError, match="schema_version"):
            scenario_from_dict(base_config(schema_version=99))

    def test_bloch_norm_checked(self):
        data = base_config()
        data["initial"]["bloch"] = [1.0, 1.0, 1.0]
        with pytest.raises(ScenarioError, match="initial.bloch"):
            scenario_from_dict(data)

    def test_t_final_required_without_gates(self):
        data = base_config()
        del data["time"]
        with pytest.raises(ScenarioError, match="t_final"):
            scenario_from_dict(data)

    def test_t_final_must_cover_schedule(self):
        data = base_config(gates={"sequence": ["not"], "n_delay": 2})
        data["time"]["t_final"] = 10.0
        with pytest.raises(ScenarioError, match="t_final"):
            scenario_from_dict(data)

    def test_gates_without_time_use_schedule_end(self):
        data = base_config(gates={"sequence": ["not"], "n_delay": 2})
        del data["time"]
        sc = scenario_from_dict(data)
        assert sc.t_final == pytest.approx(sc.schedule.t_final)

    def test_measurement_must_fit(self):
        data = base_config(
            measurements=[{"t1": 49.9, "gamma": 10.0, "direction": [0, 0, 1]}]
        )
        with pytest.raises(ScenarioError, match="measurements"):
            scenario_from_dict(data)

    def test_noise_window_must_hold_pulses(self):
        data = base_config(
            noise={"count": 30, "start": 5.0, "end": 10.0, "width": 0.47, "gamma": 0.1}
        )
        with pytest.raises(ScenarioError, match="noise"):
            scenario_from_dict(data)

    def test_coincident_noise_needs_enough_gates(self):
        data = base_config(
            gates={"sequence": ["not"], "n_delay": 2},
            noise={"count": 2, "gamma": 0.1, "coincide_gate": True},
        )
        data["time"]["t_final"] = 200.0
        with pytest.raises(ScenarioError, match="noise"):
            scenario_from_dict(data)

    def test_negative_rates_rejected(self):
        data = base_config(beretta={"gamma2": -0.1})
        with pytest.raises(ScenarioError, match="gamma2"):
            scenario_from_dict(data)
        data = base_config(
            bath={"gamma3": -0.1, "temperature": 1.0, "variant": "korsch"}
        )
        with pytest.raises(ScenarioError, match="gamma3"):
            scenario_from_dict(data)

    def test_base_step_positive(self):
        data = base_config(integrator={"base_step": 0.0})
        with pytest.raises(ScenarioError, match="base_step"):
            scenario_from_dict(data)


def stiff_config(lindblads):
    return base_config(
        time={"t_final": 2.0},
        lindblads=lindblads,
        outputs={"samples": 50, "grid_report": False},
    )


class TestStepStability:
    """RK4 at the resolved base step must not amplify a decaying mode of
    the constant Lindblad drift; sz at gamma decays transverse P at 2 gamma,
    so the default step T_L/2000 allows gamma up to about 118.6."""

    def test_stiff_dephasing_rejected_with_stable_step(self):
        with pytest.raises(ScenarioError, match="largest stable base_step") as info:
            scenario_from_dict(stiff_config([{"kind": "sz", "gamma": 150.0}]))
        suggested = float(str(info.value).rsplit(" ", 1)[1])
        assert suggested < T_LARMOR / 2000.0
        data = stiff_config([{"kind": "sz", "gamma": 150.0}])
        data["integrator"] = {"base_step": suggested}
        scenario_from_dict(data)

    def test_stable_dephasing_runs(self, tmp_path):
        sc = scenario_from_dict(stiff_config([{"kind": "sz", "gamma": 100.0}]))
        traj = run_scenario(sc, tmp_path / "run").trajectory
        px, py, pz = traj.final_bloch
        assert math.hypot(px, py) < 1e-12
        assert pz == pytest.approx(0.8, abs=1e-12)

    def test_feedback_growth_not_rejected(self, tmp_path):
        op = {"alpha0": [0.0, 0.0], "alpha": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
              "gamma": -0.01, "feedback": True}
        sc = scenario_from_dict(stiff_config([op]))
        traj = run_scenario(sc, tmp_path / "run").trajectory
        assert np.linalg.norm(traj.final_bloch) > np.linalg.norm(sc.initial_bloch)


def measured_scenario():
    """x-measurement at gamma 26.752 on P0 = (0.5, 0, 0.8); the window
    opens at t1 = 0.2 and closes at about 0.317."""
    data = base_config(
        time={"t_final": 1.0},
        measurements=[{"t1": 0.2, "direction": [1.0, 0.0, 0.0], "gamma": 26.752}],
        outputs={"samples": 50, "grid_report": False},
    )
    return scenario_from_dict(data)


class TestScenarioMeasurement:
    def test_matches_measure(self, tmp_path):
        sc = measured_scenario()
        traj = run_scenario(sc, tmp_path / "run").trajectory
        window = sc.measurements[0]
        lo, hi = window.support()
        _, rho_out = measure(
            traj.states[traj.row_index(lo)],
            window.direction,
            sc.measurement_gammas[0],
            sc.omega_l,
            t1=window.t1,
        )
        p_scenario = np.asarray(traj.rows[traj.row_index(hi)].bloch)
        assert np.max(np.abs(density_to_bloch(rho_out) - p_scenario)) <= 1e-9

    def test_power_is_work_rate(self, tmp_path):
        sc = measured_scenario()
        traj = run_scenario(sc, tmp_path / "run").trajectory
        gens = build_generators(sc)
        for row, rho in zip(traj.rows, traj.states):
            expected = np.trace(rho @ hamiltonian_dot(gens.hamiltonian, row.t)).real
            assert row.power == pytest.approx(expected, rel=1e-12, abs=1e-15)
        lo, hi = sc.measurements[0].support()
        # the support edges sit on the hold's rise and fall edges
        assert traj.rows[traj.row_index(lo)].power != 0.0
        assert traj.rows[traj.row_index(hi)].power != 0.0


class TestNoiseDraw:
    def test_equispaced_starts(self):
        data = base_config(
            noise={"count": 4, "start": 5.0, "end": 25.0, "width": 1.0, "gamma": 0.1}
        )
        sc = scenario_from_dict(data)
        starts = noise_pulse_starts(sc)
        # last pulse ends exactly at the window end
        expected = [5.0 + i * (25.0 - 1.0 - 5.0) / 3.0 for i in range(4)]
        assert starts == pytest.approx(expected, abs=1e-12)
        assert starts[-1] + 1.0 == pytest.approx(25.0, abs=1e-12)

    def test_single_pulse_at_start(self):
        data = base_config(
            noise={"count": 1, "start": 7.0, "end": 20.0, "width": 1.0, "gamma": 0.1}
        )
        sc = scenario_from_dict(data)
        assert noise_pulse_starts(sc) == pytest.approx([7.0])

    def test_coefficients_reproduce_generator_stream(self):
        data = base_config(
            noise={"count": 3, "start": 5.0, "end": 30.0, "width": 0.47, "gamma": 0.1}
        )
        sc = scenario_from_dict(data)
        ops = draw_noise_pulses(sc, np.random.default_rng(sc.seed))
        raw = np.random.default_rng(sc.seed).uniform(-1.0, 1.0, size=(3, 8))
        for op, row in zip(ops, raw):
            assert op.alpha0 == complex(row[0], row[4])
            for k in range(3):
                assert op.alpha[k] == complex(row[1 + k], row[5 + k])

    def test_same_seed_same_draw(self):
        data = base_config(
            noise={"count": 5, "start": 5.0, "end": 40.0, "width": 0.47, "gamma": 0.1}
        )
        sc = scenario_from_dict(data)
        a = draw_noise_pulses(sc, np.random.default_rng(123))
        b = draw_noise_pulses(sc, np.random.default_rng(123))
        assert len(a) == len(b) == 5
        for x, y in zip(a, b):
            assert x.alpha0 == y.alpha0
            assert x.alpha == y.alpha


class TestTimeseriesFile:
    def test_header_only_when_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_timeseries([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_round_trip_exact(self, tmp_path):
        data = base_config()
        sc = scenario_from_dict(data)
        result = run_scenario(sc, tmp_path / "run")
        cols = read_timeseries(tmp_path / "run" / TIMESERIES_NAME)
        assert list(cols) == CSV_HEADER.split(",")
        rows = result.trajectory.rows
        assert len(cols["t"]) == len(rows)
        # repr round trip keeps float equality bit-for-bit
        for j, r in enumerate(rows):
            assert cols["t"][j] == r.t
            assert cols["Px"][j] == r.bloch[0]
            assert cols["entropy"][j] == r.entropy
            assert cols["energy"][j] == r.energy


class TestRunArtifacts:
    def test_artifacts_written(self, tmp_path):
        sc = scenario_from_dict(base_config())
        out = tmp_path / "run"
        result = run_scenario(sc, out)
        assert (out / TIMESERIES_NAME).is_file()
        assert (out / EVENTS_NAME).is_file()
        assert (out / MANIFEST_NAME).is_file()
        assert result.out_dir == out

    def test_manifest_contents(self, tmp_path):
        sc = scenario_from_dict(base_config())
        out = tmp_path / "run"
        run_scenario(sc, out)
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["rng_algorithm"] == RNG_ALGORITHM
        assert manifest["seed"] == 11
        for name, key in (
            (TIMESERIES_NAME, "timeseries_sha256"),
            (EVENTS_NAME, "events_sha256"),
        ):
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert manifest["outputs"][key] == digest

    def test_seed_override_recorded(self, tmp_path):
        sc = scenario_from_dict(base_config())
        out = tmp_path / "run"
        run_scenario(sc, out, seed=77)
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        assert manifest["seed"] == 77

    def test_rerun_byte_identical(self, tmp_path):
        data = base_config(
            noise={"count": 3, "start": 5.0, "end": 40.0, "width": 0.47, "gamma": 0.05}
        )
        sc = scenario_from_dict(data)
        run_scenario(sc, tmp_path / "a")
        run_scenario(sc, tmp_path / "b")
        for name in (TIMESERIES_NAME, EVENTS_NAME):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_events_sorted_and_grid_present(self, tmp_path):
        data = base_config(gates={"sequence": ["not"], "n_delay": 2})
        data["time"]["t_final"] = 160.0
        sc = scenario_from_dict(data)
        out = tmp_path / "run"
        run_scenario(sc, out)
        events = json.loads((out / EVENTS_NAME).read_text())["events"]
        times = [e["t"] for e in events]
        assert times == sorted(times)
        kinds = {e["kind"] for e in events}
        assert "gate" in kinds
        assert "grid_sample" in kinds
        grid = [e for e in events if e["kind"] == "grid_sample"]
        for e in grid:
            assert 0.0 <= e["fidelity"] <= 1.0 + 1e-9
            assert "entropy" in e and "impurity" in e

    def test_grid_report_can_be_disabled(self, tmp_path):
        data = base_config()
        data["outputs"]["grid_report"] = False
        sc = scenario_from_dict(data)
        out = tmp_path / "run"
        run_scenario(sc, out)
        events = json.loads((out / EVENTS_NAME).read_text())["events"]
        assert all(e["kind"] != "grid_sample" for e in events)

    def test_noise_markers_in_events(self, tmp_path):
        data = base_config(
            noise={"count": 2, "start": 5.0, "end": 40.0, "width": 0.47, "gamma": 0.05}
        )
        sc = scenario_from_dict(data)
        out = tmp_path / "run"
        run_scenario(sc, out)
        events = json.loads((out / EVENTS_NAME).read_text())["events"]
        noise_events = [e for e in events if e["kind"] == "noise_pulse"]
        assert len(noise_events) == 2

    def test_svg_written_when_requested(self, tmp_path):
        data = base_config()
        data["outputs"]["svg"] = True
        sc = scenario_from_dict(data)
        out = tmp_path / "run"
        run_scenario(sc, out)
        svg = (out / "bloch.svg").read_text()
        assert svg.startswith("<svg")
        assert 'viewBox="0 0 800 500"' in svg
        # deterministic output: a second run writes identical bytes
        run_scenario(sc, tmp_path / "run2")
        assert (out / "bloch.svg").read_bytes() == (
            tmp_path / "run2" / "bloch.svg"
        ).read_bytes()


class TestResolvedEcho:
    def test_effective_values_echoed(self, tmp_path):
        data = base_config(gates={"sequence": ["not"], "n_delay": 2})
        del data["time"]
        sc = scenario_from_dict(data)
        assert sc.resolved["time"]["t_final"] == pytest.approx(sc.schedule.t_final)
        assert sc.resolved["level"]["omega_l"] == OMEGA_L
        out = tmp_path / "run"
        run_scenario(sc, out)
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        assert manifest["scenario"]["time"]["t_final"] == pytest.approx(
            sc.schedule.t_final
        )
        assert len(manifest["gates"]) == 1
        assert manifest["gates"][0]["kind"] == "not"
