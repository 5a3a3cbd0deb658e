import csv
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import click
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dickesim
from dickesim import (
    PulseSpec,
    apply_pulse,
    cli,
    distribution_peaks,
    initial_coherent_spin_state,
    photon_distribution,
    run_trajectory,
)
from dickesim.errors import ConfigError, ConsistencyError, DomainError

from conftest import run_cli
from reference_paths import csv_rows

CLI = [sys.executable, "-m", "dickesim.cli"]
# the child interpreter imports the same dickesim as these tests
SRC = str(Path(dickesim.__file__).resolve().parent.parent)
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def assert_one_line_error(result, code, message):
    """Exit code and a single stderr line holding message: no traceback, no warning."""
    assert result.returncode == code
    assert message in result.stderr
    assert result.stderr.count("\n") == 1


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

    def test_peaks_are_asdict_of_distribution_peaks(self, tmp_path):
        assert run_cli(["statistics", "-N", "20", "-C", "3", "--out", str(tmp_path)]).returncode == 0
        law = photon_distribution(apply_pulse(initial_coherent_spin_state(20), 3.0))
        peaks = json.loads((tmp_path / "statistics_peaks.json").read_text())["peaks"]
        assert peaks == [asdict(p) for p in distribution_peaks(law.probabilities)]
        assert len(peaks) == 11

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

    def test_gnuplot_needs_csv_format(self, tmp_path):
        out = tmp_path / "o1"
        result = run_cli(["statistics", "-N", "6", "-C", "1", "--gnuplot", "--format", "json", "--out", str(out)])
        assert_one_line_error(result, 1, "error: --gnuplot needs --format csv")
        assert not out.exists()

    def test_missing_required_option_exits_1(self, tmp_path):
        result = run_cli(["statistics", "-C", "3", "--out", str(tmp_path)])
        assert result.returncode == 1

    @pytest.mark.parametrize(
        "args",
        [["-C", "1e150"], ["-C", "1", "--n-max", "10000000"]],
        ids=["default-length-overflows", "n-max-over-limit"],
    )
    def test_table_over_the_length_limit_exits_2(self, tmp_path, args):
        result = run_cli(["statistics", "-N", "20", *args, "--out", str(tmp_path)])
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "exceeds the limit" in result.stderr
        assert not (tmp_path / "statistics.csv").exists()


    def test_failed_run_leaves_no_out_directory(self, tmp_path):
        out = tmp_path / "o1"
        result = run_cli(["statistics", "-N", "20", "-C", "1e150", "--out", str(out)])
        assert_one_line_error(result, 2, "exceeds the limit")
        assert not out.exists()

    def test_default_table_is_a_prefix_of_the_formula_table(self, tmp_path):
        # the default table ends where the law's windows end; the formula
        # length (C S)^2 + 10 C S + 20 = 11020.000000000002 adds only zeros
        short, full = tmp_path / "short", tmp_path / "full"
        args = ["statistics", "-N", "2000", "-C", "0.1"]
        assert run_cli(args + ["--out", str(short)]).returncode == 0
        assert run_cli(args + ["--n-max", "11021", "--out", str(full)]).returncode == 0
        head = (short / "statistics.csv").read_bytes()
        whole = (full / "statistics.csv").read_bytes()
        assert whole.startswith(head) and len(head) < len(whole)
        dropped = whole[len(head) :].decode().splitlines()
        assert all(line.endswith(",0.0") for line in dropped)
        manifest = json.loads((short / "statistics_manifest.json").read_text())
        assert manifest["parameters"]["n_max"] == head.count(b"\n") - 2
        assert json.loads((full / "statistics_manifest.json").read_text())["parameters"]["n_max"] == 11021


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

    @pytest.mark.parametrize(
        "n_atoms,c,n_m,mu,arm",
        [
            ("20", "0.01", "1", "0.9", 10),  # lobe at M = 100, beyond S = 10
            ("21", "3", "36", "1", 2.5),  # lobe at M = 2: odd N_a puts every M on a half-integer
            ("21", "3", "30", "1", 1.5),
            ("20", "3", "30", "1", 2),
        ],
    )
    def test_lattice_peaks_lie_on_the_lattice(self, tmp_path, n_atoms, c, n_m, mu, arm):
        result = run_cli(["collapse", "-N", n_atoms, "-C", c, "-n", n_m, "--mu", mu, "--out", str(tmp_path)])
        assert result.returncode == 0
        summary = json.loads((tmp_path / "collapse_summary.json").read_text())
        assert summary["lattice_peaks"] == [-arm, arm]
        _, rows = read_csv(tmp_path / "collapse.csv")
        assert {-arm, arm} <= {float(m) for m, _ in rows}

    def test_lossy_collapse_beyond_the_lattice_reports_coherence_at_the_edge(self, tmp_path):
        result = run_cli(["collapse", "-N", "20", "-C", "0.01", "-n", "1", "--mu", "0.9", "--out", str(tmp_path)])
        assert result.returncode == 0
        summary = json.loads((tmp_path / "collapse_summary.json").read_text())
        # e^(-2 Gamma S^2) with Gamma = (1 - mu) C^2
        assert summary["coherence"] == pytest.approx(math.exp(-2.0 * 0.1 * 1e-4 * 100.0), rel=1e-9)

    @pytest.mark.parametrize("n_m,arm,coherence", [("36", 2.5, 1.3007297654067644e-05), ("1", 0.5, 0.6376281516217733)])
    def test_lossy_collapse_at_odd_atom_number_reports_coherence(self, tmp_path, n_m, arm, coherence):
        result = run_cli(["collapse", "-N", "21", "-C", "3", "-n", n_m, "--mu", "0.9", "--out", str(tmp_path)])
        assert result.returncode == 0
        summary = json.loads((tmp_path / "collapse_summary.json").read_text())
        assert summary["lattice_peaks"] == [-arm, arm]
        # e^(-2 Gamma M^2) at the half-integer arm, with Gamma = (1 - mu) C^2
        assert summary["coherence"] == coherence == pytest.approx(math.exp(-2.0 * 0.9 * arm * arm), rel=1e-12)

    def test_impossible_outcome_exits_2(self, tmp_path):
        result = run_cli(
            ["collapse", "-N", "4", "-C", "0", "-n", "5", "--out", str(tmp_path)]
        )
        assert result.returncode == 2

    def test_overflowing_strength_exits_2(self, tmp_path):
        # (C S)^2 = 1e402 is not a finite double
        result = run_cli(["collapse", "-N", "20", "-C", "1e200", "-n", "0", "--out", str(tmp_path)])
        assert_one_line_error(result, 2, "(C S)^2 finite")
        assert not (tmp_path / "collapse.csv").exists()

    def test_failed_run_leaves_no_out_directory(self, tmp_path):
        out = tmp_path / "o1"
        result = run_cli(["collapse", "-N", "20", "-C", "1e200", "-n", "0", "--out", str(out)])
        assert_one_line_error(result, 2, "(C S)^2 finite")
        assert not out.exists()

    @pytest.mark.parametrize("n_m", [10**306, 10**309, 10**400], ids=["lgamma-overflows", "above-float-max", "far-above"])
    def test_count_beyond_the_double_range_exits_2(self, tmp_path, n_m):
        out = tmp_path / "o1"
        result = run_cli(["collapse", "-N", "20", "-C", "1", "-n", str(n_m), "--out", str(out)])
        assert_one_line_error(result, 2, "photon count too large")
        assert not out.exists()

    def test_out_of_memory_exits_2(self, tmp_path):
        # the 100 000 001-entry arrays of N_a = 10^8 cannot fit a 1 GiB address space
        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        out = tmp_path / "o1"
        result = subprocess.run(
            CLI + ["collapse", "-N", "100000000", "-C", "0.001", "-n", "0", "--out", str(out)],
            capture_output=True,
            text=True,
            env=dict(ENV, OPENBLAS_NUM_THREADS="1"),
            preexec_fn=limit_address_space,
        )
        assert_one_line_error(result, 2, "error: out of memory: ")
        assert result.stderr.startswith("error: out of memory: ")
        assert not out.exists()


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

    def test_jsonl_lines_are_asdict_of_the_pulse_results(self, tmp_path):
        pulses = '[{"C": 0.3, "mu": 0.8}, {"C": 0.2, "force_n": 1}, {"C": 0.1, "mu": 0}]'
        assert run_cli(["trajectory", "-N", "200", "--pulses", pulses, "--seed", "3", "--out", str(tmp_path)]).returncode == 0
        specs = [PulseSpec(0.3, 0.8), PulseSpec(0.2, force_n=1), PulseSpec(0.1, 0.0)]
        run = run_trajectory(initial_coherent_spin_state(200), specs, seed=3)
        lines = (tmp_path / "trajectory.jsonl").read_text().splitlines()
        assert lines == [json.dumps({"seed": 3, **asdict(p)}) for p in run.pulses]

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

    def test_emitted_law_over_the_length_limit_exits_2(self, tmp_path):
        result = run_cli(
            ["trajectory", "-N", "20", "--pulses", '[{"C": 1e150}]', "--seed", "1", "--emit-dists", "--out", str(tmp_path)]
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "exceeds the limit" in result.stderr

    def test_unsampleable_count_exits_2(self, tmp_path):
        # branch M = +-10 has lambda = 1e22, beyond numpy's Poisson sampler
        result = run_cli(["trajectory", "-N", "20", "--pulses", '[{"C": 1e10}]', "--seed", "2", "--out", str(tmp_path)])
        assert_one_line_error(result, 2, "cannot sample a count")
        assert not (tmp_path / "trajectory.jsonl").exists()

    def test_failing_pulse_is_named_and_leaves_no_out_directory(self, tmp_path):
        out = tmp_path / "o1"
        pulses = '[{"C": 1}, {"C": 1e10}]'
        result = run_cli(["trajectory", "-N", "20", "--pulses", pulses, "--seed", "2", "--out", str(out)])
        assert_one_line_error(result, 2, "pulse 1: cannot sample a count")
        assert not out.exists()

    def test_forced_count_beyond_the_double_range_exits_2(self, tmp_path):
        out = tmp_path / "o1"
        pulses = f'[{{"C": 1, "force_n": {10**400}}}]'
        result = run_cli(["trajectory", "-N", "20", "--pulses", pulses, "--seed", "1", "--out", str(out)])
        assert_one_line_error(result, 2, "pulse 0: photon count too large")
        assert not out.exists()

    @pytest.mark.parametrize("force_n,code", [("1.5", 1), ("1.0", 0)])
    def test_forced_count_must_be_integral(self, tmp_path, force_n, code):
        pulses = f'[{{"C": 1, "force_n": {force_n}}}]'
        result = run_cli(["trajectory", "-N", "20", "--pulses", pulses, "--seed", "1", "--out", str(tmp_path)])
        if code:
            assert_one_line_error(result, code, "force_n must be an integer, got 1.5")
            assert not (tmp_path / "trajectory.jsonl").exists()
        else:
            assert result.returncode == 0
            assert json.loads((tmp_path / "trajectory.jsonl").read_text())["n_m"] == 1

    @pytest.mark.parametrize(
        "pulses,message",
        [
            ('[{"C": true, "force_n": true}]', "C must be a number, got true"),
            ('[{"C": "1e0", "force_n": "2"}]', 'C must be a number, got "1e0"'),
            ('[{"C": 1, "mu": "0.5"}]', 'mu must be a number, got "0.5"'),
            ('[{"C": 1, "force_n": true}]', "force_n must be a number, got true"),
            (f'[{{"C": {10**400}}}]', "int too large to convert to float"),
            (f'[{{"C": 1, "mu": {10**400}}}]', "int too large to convert to float"),
        ],
    )
    def test_pulse_value_that_is_not_a_float_exits_1(self, tmp_path, pulses, message):
        out = tmp_path / "o1"
        result = run_cli(["trajectory", "-N", "4", "--pulses", pulses, "--seed", "1", "--out", str(out)])
        assert_one_line_error(result, 1, f"bad --pulses value: {message}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "pulses,message",
        [
            ("[3]", "pulse 0 must be a JSON object, got 3"),
            ('["C"]', 'pulse 0 must be a JSON object, got "C"'),
            ("[[1]]", "pulse 0 must be a JSON object, got [1]"),
            ('[{"C": 1}, null]', "pulse 1 must be a JSON object, got null"),
            ('[{"mu": 1}]', "pulse 0 has no C"),
        ],
    )
    def test_pulse_that_is_not_an_object_with_a_c_exits_1(self, tmp_path, pulses, message):
        out = tmp_path / "o1"
        result = run_cli(["trajectory", "-N", "4", "--pulses", pulses, "--seed", "1", "--out", str(out)])
        assert_one_line_error(result, 1, f"bad --pulses value: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("pulses", ['[{"C": 0.5, "Mu": 0.1}]', '[{"C": 1}, {"C": 1, "force_n": 2, "n": 3}]'])
    def test_unknown_pulse_key_exits_1(self, tmp_path, pulses):
        out = tmp_path / "o1"
        result = run_cli(["trajectory", "-N", "4", "--pulses", pulses, "--seed", "1", "--out", str(out)])
        assert_one_line_error(result, 1, "bad --pulses value: unknown key")
        assert not out.exists()

    def test_negative_seed_is_a_usage_error(self, tmp_path):
        out = tmp_path / "o1"
        result = run_cli(["trajectory", "-N", "4", "--pulses", '[{"C": 1}]', "--seed", "-1", "--out", str(out)])
        assert_one_line_error(result, 1, "Invalid value for '--seed': -1 is not in the range x>=0")
        assert not out.exists()

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

    def test_decay_xi_overflowing_at_every_strength_exits_2(self, tmp_path):
        # e^(C^2 N_a / d_res) >= e^2000 at every grid point
        out = tmp_path / "scan"
        result = run_cli(
            ["squeeze-scan", "-N", "20", "--d-res", "100", "--c-min", "100", "--c-max", "200", "--c-step", "50", "--out", str(out)]
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "overflows at every strength" in result.stderr
        assert not out.exists()

    def test_decay_model_fails_before_the_inefficiency_model_runs(self, tmp_path):
        # both columns fail here; the decay column comes first, so its message is the one given
        out = tmp_path / "scan"
        result = run_cli(
            ["squeeze-scan", "-N", "2", "--d-res", "0.1", "--mu", "0.5", "--c-min", "10", "--c-max", "10", "--c-step", "1", "--out", str(out)]
        )
        assert_one_line_error(result, 2, "decay-model xi overflows at every strength")
        assert not out.exists()

    def test_one_point_grid_with_a_step_below_its_ulp(self, tmp_path):
        # c-max + c-step/2 rounds to c-min, where np.arange gives an empty grid
        result = run_cli(
            ["squeeze-scan", "-N", "20", "--mu", "0.5", "--c-min", "1", "--c-max", "1", "--c-step", "1e-17", "--out", str(tmp_path)]
        )
        assert result.returncode == 0, result.stderr
        header, rows = read_csv(tmp_path / "squeeze_scan.csv")
        assert header == ["C", "xi"]
        assert [float(c) for c, _ in rows] == [1.0]

    def test_decay_xi_overflowing_at_some_strengths_is_null_in_json(self, tmp_path):
        # grid C = 1, 51, 101: e^(C^2 N_a / d_res) overflows only at C = 101
        result = run_cli(
            ["squeeze-scan", "-N", "20", "--d-res", "100", "--c-min", "1", "--c-max", "100", "--c-step", "50", "--format", "json", "--out", str(tmp_path)]
        )
        assert result.returncode == 0
        assert "RuntimeWarning" not in result.stderr

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        rows = json.loads((tmp_path / "squeeze_scan.json").read_text(), parse_constant=reject)
        assert [row["C"] for row in rows] == [1.0, 51.0, 101.0]
        assert rows[2]["xi"] is None
        assert all(math.isfinite(row["xi"]) for row in rows[:2])
        summary = json.loads((tmp_path / "squeeze_scan_summary.json").read_text(), parse_constant=reject)
        assert summary["decay"]["argmin_C"] == 1.0

    @pytest.mark.parametrize(
        "c_max,c_step", [("1e9", "1e-9"), ("inf", "1")], ids=["too-long", "infinite"]
    )
    def test_grid_over_the_length_limit_exits_2(self, tmp_path, c_max, c_step):
        out = tmp_path / "scan"
        result = run_cli(
            ["squeeze-scan", "-N", "20", "--mu", "0.5", "--c-min", "1", "--c-max", c_max, "--c-step", c_step, "--out", str(out)]
        )
        assert_one_line_error(result, 2, "exceeds the limit")
        assert not out.exists()

    @pytest.mark.parametrize("d_res", ["inf", "nan"])
    def test_non_finite_resonant_depth_exits_2(self, tmp_path, d_res):
        # an infinite depth used to write "closed_form_C_opt": Infinity, which is not JSON
        out = tmp_path / "scan"
        result = run_cli(
            ["squeeze-scan", "-N", "20", "--d-res", d_res, "--c-min", "0.1", "--c-max", "1", "--c-step", "0.1", "--out", str(out)]
        )
        assert_one_line_error(result, 2, "0 < d_res < inf")
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

    @pytest.mark.parametrize("bound", ["--c-min", "--c-max", "--c-step"])
    def test_nan_grid_bound_exits_1(self, tmp_path, bound):
        # nan fails every comparison, so the grid rule is stated as what must hold
        grid = {"--c-min": "1", "--c-max": "2", "--c-step": "0.5", bound: "nan"}
        out = tmp_path / "scan"
        result = run_cli(["squeeze-scan", "-N", "20", "--mu", "0.8", *sum(grid.items(), ()), "--out", str(out)])
        assert_one_line_error(result, 1, "need 0 < c-min <= c-max and c-step > 0")
        assert not out.exists()


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

    @pytest.mark.parametrize("shift,code", [(0.5, 1), (0.0, 0)], ids=["fractional", "integral-float"])
    def test_atom_count_must_be_integral(self, tmp_path, shift, code):
        path = self.write_config(tmp_path)
        payload = json.loads(path.read_text())
        payload["N_a"] = payload["N_a"] + shift  # a float either way
        path.write_text(json.dumps(payload))
        result = run_cli(["physical", str(path), "--out", str(tmp_path)])
        if code:
            assert_one_line_error(result, code, "N_a must be an integer")
            assert not (tmp_path / "physical.json").exists()
        else:
            assert result.returncode == 0
            assert json.loads((tmp_path / "physical.json").read_text())["warnings"] == []

    def test_failed_run_leaves_no_out_directory(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"gamma": 1, "bogus": 2}')
        out = tmp_path / "o1"
        result = run_cli(["physical", str(path), "--out", str(out)])
        assert_one_line_error(result, 1, "config error")
        assert not out.exists()

    @pytest.mark.parametrize(
        "name,value",
        [("gamma", math.inf), ("density", math.inf), ("chi_sq_integral", math.inf), ("N_ph", math.inf), ("gamma", math.nan)],
    )
    def test_non_finite_config_value_exits_1(self, tmp_path, name, value):
        # json.dumps writes Infinity and NaN, which json.loads reads back
        path = self.write_config(tmp_path)
        path.write_text(json.dumps(dict(json.loads(path.read_text()), **{name: value})))
        out = tmp_path / "o1"
        result = run_cli(["physical", str(path), "--out", str(out)])
        assert_one_line_error(result, 1, f"{name} must be finite")
        assert not out.exists()

    def test_missing_file_exits_1(self, tmp_path):
        result = run_cli(["physical", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert result.returncode == 1


@pytest.mark.parametrize(
    "args",
    [
        ["statistics", "-N", "6", "-C", "1", "--gnuplot"],
        ["collapse", "-N", "6", "-C", "1", "-n", "2", "--format", "json"],
        ["trajectory", "-N", "6", "--pulses", '[{"C": 1}, {"C": 0.5, "mu": 0.7}]', "--seed", "3", "--emit-dists"],
        ["squeeze-scan", "-N", "6", "--d-res", "50", "--mu", "0.9", "--c-min", "0.5", "--c-max", "1", "--c-step", "0.5"],
        ["physical", "config.json"],
    ],
    ids=lambda args: args[0],
)
def test_manifest_and_stdout_name_exactly_the_files_written(tmp_path, args):
    TestPhysical.write_config(tmp_path)
    out = tmp_path / "out"
    result = run_cli([*args, "--out", str(out)], cwd=tmp_path)
    assert result.returncode == 0
    manifest = out / f"{args[0]}_manifest.json"
    written = {str(p) for p in out.rglob("*")}
    listed = json.loads(manifest.read_text())["output_paths"]
    assert len(set(listed)) == len(listed) and set(listed) | {str(manifest)} == written
    assert result.stdout == "wrote " + ", ".join([*listed, str(manifest)]) + "\n"


PULSE_STRENGTH = "pulse strength must be >= 0 with (C S)^2 finite, got C = {} at S = 2.0"
EFFICIENCY = "detection efficiency must lie in [0,1], got {}"


@pytest.mark.parametrize(
    "pulse,c,mu,n_m,message",
    [
        ('{"C": -1}', "-1", "1", "0", PULSE_STRENGTH.format(-1.0)),
        ('{"C": NaN}', "nan", "1", "0", PULSE_STRENGTH.format(math.nan)),
        ('{"C": 1, "mu": 2}', "1", "2", "0", EFFICIENCY.format(2.0)),
        ('{"C": 1, "mu": NaN}', "1", "nan", "0", EFFICIENCY.format(math.nan)),
        ('{"C": 1, "force_n": -1}', "1", "1", "-1", "photon count must be an integer >= 0, got -1"),
    ],
    ids=["C=-1", "C=NaN", "mu=2", "mu=NaN", "count=-1"],
)
def test_pulse_value_outside_the_domain_exits_2_alike_in_every_command(tmp_path, pulse, c, mu, n_m, message):
    """A C, mu or count out of range is one rule, owned by apply_pulse or the
    conditioning kernel: the same exit 2 and message from every command that
    takes it, prefixed with the pulse in trajectory.  statistics takes no mu
    or count, and squeeze-scan's grid reads no C <= 0 or NaN strength."""
    runs = {
        "trajectory": (["trajectory", "-N", "4", "--pulses", f"[{pulse}]", "--seed", "1"], f"pulse 0: {message}"),
        "collapse": (["collapse", "-N", "4", "-C", c, "-n", n_m, "--mu", mu], message),
    }
    if mu == "1" and n_m == "0":
        runs["statistics"] = (["statistics", "-N", "4", "-C", c], message)
    if c == "1" and n_m == "0":
        args = ["squeeze-scan", "-N", "4", "--mu", mu, "--c-min", "1", "--c-max", "1", "--c-step", "1"]
        runs["squeeze-scan"] = (args, message)
    for name, (args, expected) in runs.items():
        out = tmp_path / name
        result = run_cli([*args, "--out", str(out)])
        assert (result.returncode, result.stderr) == (2, f"error: {expected}\n"), name
        assert not out.exists()


@pytest.mark.parametrize(
    "error,code,prefix",
    [
        (DomainError, 2, "error: "),
        (ConfigError, 1, "config error: "),
        (ConsistencyError, 3, "internal consistency failure: "),
        (OSError, 2, "I/O error: "),
        (MemoryError, 2, "error: out of memory: "),
    ],
    ids=["DomainError", "ConfigError", "ConsistencyError", "OSError", "MemoryError"],
)
def test_each_error_class_has_one_exit_code_and_one_stderr_line(monkeypatch, capsys, error, code, prefix):
    def fail():
        raise error("it failed")

    monkeypatch.setattr(cli, "main", click.Command("fail", callback=fail))
    monkeypatch.setattr(sys, "argv", ["dickesim"])
    with pytest.raises(SystemExit) as exit_info:
        cli.run()
    assert exit_info.value.code == code
    assert capsys.readouterr() == ("", f"{prefix}it failed\n")


@pytest.mark.parametrize("args", [["--help"], ["statistics", "--help"]], ids=["dickesim", "statistics"])
def test_help_exits_0_with_usage_on_stdout(args):
    result = run_cli(args)
    assert result.returncode == 0
    assert result.stdout.startswith("Usage: ") and "Options:" in result.stdout
    assert result.stderr == ""


def test_module_entry_point_as_a_process(tmp_path):
    """python -m dickesim.cli: the exit code and streams of a real process."""
    args = ["collapse", "-N", "4", "-C", "1", "-n", "0", "--out", str(tmp_path / "ok")]
    ok = subprocess.run(CLI + args, capture_output=True, text=True, env=ENV)
    assert (ok.returncode, ok.stderr) == (0, "")
    assert ok.stdout.startswith("wrote ")
    args = ["collapse", "-N", "4", "-C", "-1", "-n", "0", "--out", str(tmp_path / "bad")]
    bad = subprocess.run(CLI + args, capture_output=True, text=True, env=ENV)
    assert_one_line_error(bad, 2, "error: pulse strength must be >= 0")
    assert bad.stdout == "" and not (tmp_path / "bad").exists()


# floats on both sides of repr's switch to exponent notation (1e-4, 1e16),
# the smallest subnormal, signed zeros, negative M values and non-finite cells
SPECIAL = [0.0, -0.0, 5e-324, 1e-4, 1e16, -2.5, -10.0, math.inf, -math.inf, math.nan]
SPECIAL += [float(np.nextafter(v, t)) for v in (1e-4, 1e16) for t in (0.0, math.inf)]
CELLS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def tables(draw):
    rows = draw(st.integers(min_value=0, max_value=40))
    ints = np.array(draw(st.lists(st.integers(-(2**62), 2**62), min_size=rows, max_size=rows)), dtype=np.int64)
    floats = [np.array(draw(st.lists(CELLS, min_size=rows, max_size=rows)), dtype=float) for _ in range(2)]
    return [ints, *floats], draw(st.integers(min_value=1, max_value=7))


class TestTableWriter:
    HEADER = ("n", "M", "P_n")

    @given(tables())
    @settings(max_examples=200, deadline=None)
    def test_csv_matches_row_by_row_writer(self, table):
        columns, chunk = table
        rows = [(int(n), float(m), float(p)) for n, m, p in zip(*columns)]
        with mock.patch.object(cli, "TABLE_CHUNK_ROWS", chunk):
            got = "".join(cli._csv_chunks(columns, self.HEADER))
        assert got == csv_rows(rows, self.HEADER)

    @given(tables())
    @settings(max_examples=200, deadline=None)
    def test_json_matches_json_dumps_with_null_for_non_finite(self, table):
        columns, _ = table
        rows = [
            {k: v if not isinstance(v, float) or math.isfinite(v) else None for k, v in zip(self.HEADER, row)}
            for row in zip(columns[0].tolist(), columns[1].tolist(), columns[2].tolist())
        ]
        with tempfile.TemporaryDirectory() as tmp:
            got = cli._emit_table(Path(tmp) / "table", columns, self.HEADER, "json").read_text()
        assert got == json.dumps(rows, indent=2) + "\n"

    def test_chunked_writing_memory_is_bounded(self, tmp_path):
        # one list of row tuples plus the whole CSV string peaks at ~64 MB
        # for these 4e5 rows; chunks of TABLE_CHUNK_ROWS keep it near 10 MB
        # at any length (tracing every allocation makes a longer table slow)
        size = 400_000
        columns = [np.arange(size), np.random.default_rng(0).random(size)]
        tracemalloc.start()
        try:
            path = cli._emit_table(tmp_path / "big", columns, ("n", "P_n"), "csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        with path.open("rb") as fh:
            fh.seek(-60, os.SEEK_END)
            last = fh.read().splitlines()[-1].decode()
        assert last == f"{size - 1},{float(columns[1][-1])!r}"
