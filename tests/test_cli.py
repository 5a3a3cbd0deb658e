import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dickesim

CLI = [sys.executable, "-m", "dickesim.cli"]
# the child interpreter imports the same dickesim as these tests
SRC = str(Path(dickesim.__file__).resolve().parent.parent)
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run_cli(args, cwd=None):
    return subprocess.run(
        CLI + args, capture_output=True, text=True, cwd=cwd, env=ENV
    )


def read_csv(path: Path):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestStatistics:
    def test_outputs_and_peaks(self, tmp_path):
        result = run_cli(
            ["statistics", "-N", "20", "-C", "3", "--out", str(tmp_path)]
        )
        assert result.returncode == 0
        header, rows = read_csv(tmp_path / "statistics.csv")
        assert header == ["n", "P_n"]
        probs = {int(n): float(p) for n, p in rows}
        assert probs[0] == pytest.approx(0.1762366, rel=1e-5)
        peaks = json.loads((tmp_path / "statistics_peaks.json").read_text())
        assert [p["n"] for p in peaks["peaks"]] == [9 * m * m for m in range(11)]
        manifest = json.loads((tmp_path / "statistics_manifest.json").read_text())
        assert manifest["command"] == "statistics"
        assert manifest["parameters"]["n_atoms"] == 20
        assert "tool_version" in manifest and "timestamp" in manifest

    def test_json_format(self, tmp_path):
        result = run_cli(
            ["statistics", "-N", "6", "-C", "1", "--format", "json", "--out", str(tmp_path)]
        )
        assert result.returncode == 0
        payload = json.loads((tmp_path / "statistics.json").read_text())
        assert payload[0]["n"] == 0
        assert sum(row["P_n"] for row in payload) == pytest.approx(1.0, abs=1e-8)

    def test_gnuplot_script(self, tmp_path):
        result = run_cli(
            ["statistics", "-N", "6", "-C", "1", "--gnuplot", "--out", str(tmp_path)]
        )
        assert result.returncode == 0
        script = (tmp_path / "statistics.gp").read_text()
        assert "statistics.csv" in script

    def test_missing_required_option_exits_1(self, tmp_path):
        result = run_cli(["statistics", "-C", "3", "--out", str(tmp_path)])
        assert result.returncode == 1


class TestCollapse:
    def test_cat_summary(self, tmp_path):
        result = run_cli(
            ["collapse", "-N", "20", "-C", "3", "-n", "30", "--out", str(tmp_path)]
        )
        assert result.returncode == 0
        summary = json.loads((tmp_path / "collapse_summary.json").read_text())
        assert summary["var_Sz"] == pytest.approx(4.0, abs=1e-3)
        assert summary["lattice_peaks"] == [-2, 2]
        header, rows = read_csv(tmp_path / "collapse.csv")
        assert header == ["M", "P_a"]
        probs = {float(m): float(p) for m, p in rows}
        assert probs[0.0] == 0.0

    def test_lossy_detection_reports_coherence(self, tmp_path):
        result = run_cli(
            ["collapse", "-N", "20", "-C", "3", "-n", "36", "--mu", "0.9", "--out", str(tmp_path)]
        )
        assert result.returncode == 0
        summary = json.loads((tmp_path / "collapse_summary.json").read_text())
        expected = math.exp(-2.0 * 0.1 * 9.0 * 4.0)
        assert summary["coherence"] == pytest.approx(expected, rel=1e-6)

    def test_impossible_outcome_exits_2(self, tmp_path):
        result = run_cli(
            ["collapse", "-N", "4", "-C", "0", "-n", "5", "--out", str(tmp_path)]
        )
        assert result.returncode == 2


class TestTrajectory:
    def test_seeded_rerun_is_byte_identical(self, tmp_path):
        args = [
            "trajectory",
            "-N",
            "20",
            "--pulses",
            '[{"C": 3.0}, {"C": 3.0}]',
            "--seed",
            "7",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out", str(out1)]).returncode == 0
        assert run_cli(args + ["--out", str(out2)]).returncode == 0
        assert (out1 / "trajectory.jsonl").read_bytes() == (
            out2 / "trajectory.jsonl"
        ).read_bytes()

    def test_forced_sequence_emits_distributions(self, tmp_path):
        result = run_cli(
            [
                "trajectory",
                "-N",
                "20",
                "--pulses",
                '[{"C": 3.0, "force_n": 30}, {"C": 3.0}]',
                "--seed",
                "1",
                "--emit-dists",
                "--out",
                str(tmp_path),
            ]
        )
        assert result.returncode == 0
        records = [
            json.loads(line)
            for line in (tmp_path / "trajectory.jsonl").read_text().splitlines()
        ]
        assert records[0]["n_m"] == 30
        assert records[0]["post_var_Sz"] == pytest.approx(4.0, abs=1e-3)
        header, rows = read_csv(tmp_path / "trajectory_dist_1.csv")
        probs = [float(p) for _, p in rows]
        peak_n = max(range(6, 97), key=lambda n: probs[n])
        assert peak_n in (35, 36)  # lattice mode of the second-pulse lobe at 36

    def test_empty_pulse_list(self, tmp_path):
        result = run_cli(
            ["trajectory", "-N", "4", "--pulses", "[]", "--seed", "0", "--out", str(tmp_path)]
        )
        assert result.returncode == 0
        assert (tmp_path / "trajectory.jsonl").read_text() == ""

    def test_bad_pulses_json_exits_1(self, tmp_path):
        result = run_cli(
            ["trajectory", "-N", "4", "--pulses", "{", "--out", str(tmp_path)]
        )
        assert result.returncode == 1


class TestSqueezeScan:
    def test_decay_model(self, tmp_path):
        result = run_cli(
            [
                "squeeze-scan",
                "-N",
                "200",
                "--d-res",
                "100",
                "--c-min",
                "0.05",
                "--c-max",
                "2",
                "--c-step",
                "0.05",
                "--out",
                str(tmp_path),
            ]
        )
        assert result.returncode == 0
        summary = json.loads((tmp_path / "squeeze_scan_summary.json").read_text())
        decay = summary["decay"]
        assert abs(decay["argmin_C"] - 0.5) <= 0.05 + 1e-9
        assert decay["closed_form_C_opt"] == pytest.approx(0.5, rel=1e-9)
        assert decay["closed_form_xi_min"] == pytest.approx(0.32974, rel=1e-3)

    def test_inefficiency_model(self, tmp_path):
        result = run_cli(
            [
                "squeeze-scan",
                "-N",
                "20",
                "--mu",
                "0.85",
                "--c-min",
                "0.25",
                "--c-max",
                "5",
                "--c-step",
                "0.25",
                "--out",
                str(tmp_path),
            ]
        )
        assert result.returncode == 0
        summary = json.loads((tmp_path / "squeeze_scan_summary.json").read_text())
        assert 1.5 <= summary["inefficiency"]["argmin_C"] <= 3.0

    def test_undefined_xi_at_every_strength_exits_2(self, tmp_path):
        # at N_a = 2 a strong null outcome leaves only M = 0, which has no mean spin
        out = tmp_path / "scan"
        result = run_cli(
            ["squeeze-scan", "-N", "2", "--mu", "0.5", "--c-min", "10", "--c-max", "10", "--c-step", "1", "--out", str(out)]
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "undefined at every strength" in result.stderr
        assert not out.exists()

    def test_no_model_exits_1(self, tmp_path):
        result = run_cli(
            ["squeeze-scan", "-N", "20", "--c-min", "1", "--c-max", "2", "--c-step", "0.5", "--out", str(tmp_path)]
        )
        assert result.returncode == 1

    def test_bad_grid_exits_1(self, tmp_path):
        result = run_cli(
            [
                "squeeze-scan",
                "-N",
                "20",
                "--mu",
                "0.85",
                "--c-min",
                "2",
                "--c-max",
                "1",
                "--c-step",
                "0.5",
                "--out",
                str(tmp_path),
            ]
        )
        assert result.returncode == 1


class TestPhysical:
    @staticmethod
    def write_config(tmp_path, **overrides):
        import conftest

        config = conftest.consistent_config(**overrides)
        payload = {
            "gamma": config.gamma,
            "delta": config.delta,
            "wavelength": config.wavelength,
            "area": config.area,
            "length": config.length,
            "density": config.density,
            "N_a": config.N_a,
            "chi_sq_integral": config.chi_sq_integral,
            "N_ph": config.N_ph,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return path

    def test_valid_config(self, tmp_path):
        path = self.write_config(tmp_path)
        result = run_cli(["physical", str(path), "--out", str(tmp_path)])
        assert result.returncode == 0
        payload = json.loads((tmp_path / "physical.json").read_text())
        assert payload["eta"] < 1.0
        assert payload["C"] <= payload["C_bound"] * (1 + 1e-12)
        assert payload["C"] == pytest.approx(payload["C_photon_form"], rel=1e-9)
        assert payload["warnings"] == []

    def test_high_loss_config_warns(self, tmp_path):
        path = self.write_config(tmp_path, n_ph=1e12)
        result = run_cli(["physical", str(path), "--out", str(tmp_path)])
        assert result.returncode == 0
        payload = json.loads((tmp_path / "physical.json").read_text())
        assert any("photon loss" in w for w in payload["warnings"])

    def test_bad_config_exits_1(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"gamma": 1, "bogus": 2}')
        result = run_cli(["physical", str(path), "--out", str(tmp_path)])
        assert result.returncode == 1

    def test_missing_file_exits_1(self, tmp_path):
        result = run_cli(["physical", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert result.returncode == 1
