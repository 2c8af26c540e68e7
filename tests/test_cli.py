"""Command-line interface: exit codes, artifacts, and printed summaries."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
import yaml

from qubitdyn.cli import main
from qubitdyn.observables import HBAR, KBOLTZ
from qubitdyn.scenario import read_timeseries

OMEGA_L = 0.2675
T_LARMOR = 2.0 * math.pi / OMEGA_L


def write_yaml(path, data):
    path.write_text(yaml.safe_dump(data))
    return str(path)


def precession_config(**overrides):
    data = {
        "schema_version": 1,
        "name": "precess",
        "seed": 3,
        "level": {"omega_l": OMEGA_L},
        "initial": {"bloch": [0.5, 0.0, 0.8]},
        "time": {"t_final": 3.0 * T_LARMOR},
        "outputs": {"samples": 60, "grid_report": True},
    }
    data.update(overrides)
    return data


class TestValidate:
    def test_good_file(self, tmp_path, capsys):
        path = write_yaml(tmp_path / "ok.yaml", precession_config())
        assert main(["validate", path]) == 0
        out = capsys.readouterr().out
        assert "ok: precess" in out

    def test_bad_bloch_reports_field(self, tmp_path, capsys):
        data = precession_config()
        data["initial"]["bloch"] = [2.0, 0.0, 0.0]
        path = write_yaml(tmp_path / "bad.yaml", data)
        assert main(["validate", path]) == 2
        err = capsys.readouterr().err
        assert "initial.bloch" in err

    def test_unknown_key_reports_path(self, tmp_path, capsys):
        data = precession_config(extras={"x": 1})
        path = write_yaml(tmp_path / "bad2.yaml", data)
        assert main(["validate", path]) == 2
        assert "extras" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.yaml")]) == 2

    def test_stiff_lindblad_exits_2(self, tmp_path, capsys):
        data = precession_config(lindblads=[{"kind": "sz", "gamma": 150.0}])
        path = write_yaml(tmp_path / "stiff.yaml", data)
        assert main(["validate", path]) == 2
        assert "largest stable base_step" in capsys.readouterr().err


    def test_initial_state_below_own_floor_exits_2(self, tmp_path, capsys):
        # |P0| - 1 = 5e-10 passes the 1 + 1e-9 bound but not a -1e-12 floor,
        # which the run would reject at t = 0
        data = precession_config()
        data["initial"]["bloch"] = [0.0, 0.0, 1.0000000005]
        path = write_yaml(tmp_path / "floor.yaml", data)
        assert main(["validate", path]) == 0
        data["integrator"] = {"positivity_floor": -1e-12}
        path = write_yaml(tmp_path / "floor.yaml", data)
        assert main(["validate", path]) == 2
        err = capsys.readouterr().err
        assert "initial.bloch" in err and "integrator.positivity_floor" in err


class TestImport:
    def test_cli_import_loads_no_scipy(self):
        code = (
            "import sys, qubitdyn.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "[]"


class TestRun:
    def test_precession_run(self, tmp_path, capsys):
        path = write_yaml(tmp_path / "p.yaml", precession_config())
        out_dir = tmp_path / "out"
        assert main(["run", path, "--out", str(out_dir)]) == 0
        text = capsys.readouterr().out
        assert "precess" in text
        assert "final P" in text
        cols = read_timeseries(out_dir / "timeseries.csv")
        assert np.max(np.abs(cols["Pz"] - 0.8)) < 1e-9
        assert (out_dir / "events.json").is_file()
        assert (out_dir / "manifest.json").is_file()

    def test_seed_override(self, tmp_path):
        path = write_yaml(tmp_path / "p.yaml", precession_config())
        out_dir = tmp_path / "out"
        assert main(["run", path, "--out", str(out_dir), "--seed", "99"]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_invalid_scenario_exits_2(self, tmp_path):
        data = precession_config()
        data["schema_version"] = 7
        path = write_yaml(tmp_path / "bad.yaml", data)
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 2


class TestOracle:
    def test_dephasing_case_passes(self, capsys):
        code = main(
            [
                "oracle",
                "--case", "sz",
                "--gamma", "0.00213",
                "--omega", str(OMEGA_L),
                "--p0", "0.5,0.2,0.8",
                "--tmax", "100",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_raising_case_reports_final(self, capsys):
        code = main(
            [
                "oracle",
                "--case", "s+",
                "--gamma", "0.00213",
                "--omega", str(OMEGA_L),
                "--p0", "0,0,-0.2",
                "--tmax", "200",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        expected_pz = 1.0 + math.exp(-0.00213 * 200.0) * (-1.2)
        final_line = [l for l in out.splitlines() if "final P" in l][0]
        inside = final_line.split("(")[1].split(")")[0]
        pz = float(inside.split(",")[-1])
        # summary prints six significant digits
        assert pz == pytest.approx(expected_pz, abs=1e-5)

    def test_transverse_case_rejects_fast_rate(self, capsys):
        code = main(
            [
                "oracle",
                "--case", "sx",
                "--gamma", str(2.0 * OMEGA_L),
                "--omega", str(OMEGA_L),
                "--p0", "0,0,0.8",
                "--tmax", "50",
            ]
        )
        assert code == 2

    def test_bad_p0_exits_2(self):
        code = main(
            [
                "oracle",
                "--case", "sz",
                "--gamma", "0.1",
                "--omega", str(OMEGA_L),
                "--p0", "definitely-not-a-vector",
                "--tmax", "10",
            ]
        )
        assert code == 2


class TestReport:
    def test_precession_grid(self, tmp_path):
        path = write_yaml(tmp_path / "p.yaml", precession_config())
        out_dir = tmp_path / "out"
        assert main(["run", path, "--out", str(out_dir)]) == 0
        assert main(["report", str(out_dir)]) == 0
        cols = {}
        lines = (out_dir / "larmor_grid.csv").read_text().splitlines()
        assert lines[0] == "t,fidelity,entropy,impurity"
        fids = [float(l.split(",")[1]) for l in lines[1:]]
        assert len(fids) >= 3
        # closed precession returns to the start each Larmor period
        assert all(abs(f - 1.0) < 1e-6 for f in fids)
        for name in ("fidelity.svg", "entropy.svg", "impurity.svg"):
            assert (out_dir / name).is_file()

    def test_missing_run_dir_exits_2(self, tmp_path):
        assert main(["report", str(tmp_path / "nothing")]) == 2

    def test_grid_report_off_exits_2(self, tmp_path):
        data = precession_config()
        data["outputs"]["grid_report"] = False
        path = write_yaml(tmp_path / "p.yaml", data)
        out_dir = tmp_path / "out"
        assert main(["run", path, "--out", str(out_dir)]) == 0
        assert main(["report", str(out_dir)]) == 2


class TestSweep:
    def test_empty_values_exit_2(self, tmp_path):
        path = write_yaml(tmp_path / "p.yaml", precession_config())
        assert main(
            ["sweep", path, "--param", "level.omega_l", "--values", "",
             "--out", str(tmp_path / "s")]
        ) == 2

    def test_unknown_param_exit_2(self, tmp_path):
        path = write_yaml(tmp_path / "p.yaml", precession_config())
        assert main(
            ["sweep", path, "--param", "level.nonsense.deep", "--values", "0.1",
             "--out", str(tmp_path / "s")]
        ) == 2

    def test_bath_temperature_sweep(self, tmp_path, capsys):
        # a cold bath freezes the initial polarization in, a hot one melts
        # it down to the thermal value tanh(hbar omega / 2 k T)
        data = {
            "schema_version": 1,
            "name": "bathsweep",
            "seed": 5,
            "level": {"omega_l": OMEGA_L},
            "initial": {"bloch": [0.0, 0.0, 0.8]},
            "time": {"t_final": 400.0},
            "bath": {"gamma3": 0.05, "temperature": 1.0, "variant": "korsch"},
            "outputs": {"samples": 30, "grid_report": False},
        }
        path = write_yaml(tmp_path / "b.yaml", data)
        out_root = tmp_path / "sweep"
        code = main(
            [
                "sweep", path,
                "--param", "bath.temperature",
                "--values", "0.00093,0.273",
                "--out", str(out_root),
            ]
        )
        assert code == 0
        summary = (out_root / "sweep_summary.csv").read_text().splitlines()
        assert summary[0] == "param,value,final_fidelity,final_Px,final_Py,final_Pz"
        rows = {l.split(",")[1]: l.split(",") for l in summary[1:]}
        pz_cold = float(rows["0.00093"][5])
        pz_hot = float(rows["0.273"][5])
        assert pz_cold == pytest.approx(0.8, abs=5e-3)
        hot_eq = math.tanh(HBAR * OMEGA_L / (2.0 * KBOLTZ * 0.273))
        assert pz_hot == pytest.approx(hot_eq, abs=5e-4)
        assert pz_hot == pytest.approx(0.0037, abs=5e-4)
