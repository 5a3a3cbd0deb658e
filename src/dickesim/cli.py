"""Command-line surface: figure data as CSV/JSON, scans, trajectories.

Commands emit data files (never images); every invocation writes a
RunManifest JSON next to its outputs so the run can be reproduced
bit-exactly on the same platform.  Exit codes: 0 success, 1 usage/config
error, 2 domain/conditioning error, 3 internal consistency failure.
"""

from __future__ import annotations

import datetime as _dt
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import click
import numpy as np

from . import __version__
from .cat_analysis import cat_coherence, cat_peak_location
from .detection import PulseSpec, collapse, run_trajectory
from .errors import ConfigError, ConsistencyError, DickesimError, DomainError
from .physical_params import (
    PhysicalConfig,
    derive_strengths,
    measurement_strength_photon_form,
    optimal_strength,
    squeezing_with_decay,
)
from .pulse_scattering import (
    apply_pulse,
    default_n_max,
    distribution_peaks,
    photon_distribution,
)
from .spin_basis import initial_coherent_spin_state, spin_moments

# exit-code contract: usage errors are 1, not click's default 2
click.UsageError.exit_code = 1

EXIT_DOMAIN = 2
EXIT_CONSISTENCY = 3


def _write_atomic(path: Path, data: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_manifest(out_dir: Path, command: str, parameters: dict, seed: int | None, output_paths: list[Path]) -> Path:
    manifest = {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "output_paths": [str(p) for p in output_paths],
        "tool_version": __version__,
        "timestamp": _dt.datetime.now(_dt.timezone.utc).isoformat(),
    }
    path = out_dir / f"{command}_manifest.json"
    _write_atomic(path, json.dumps(manifest, indent=2) + "\n")
    return path


def _csv(rows: list[tuple], header: tuple[str, ...]) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    return buf.getvalue()


def _emit_table(path_base: Path, rows: list[tuple], header: tuple[str, ...], fmt: str) -> Path:
    if fmt == "json":
        path = path_base.with_suffix(".json")
        payload = [dict(zip(header, row)) for row in rows]
        _write_atomic(path, json.dumps(payload, indent=2) + "\n")
    else:
        path = path_base.with_suffix(".csv")
        _write_atomic(path, _csv(rows, header))
    return path


def _gnuplot_script(csv_path: Path, ylabel: str) -> str:
    return (
        "set datafile separator ','\n"
        f"set ylabel '{ylabel}'\n"
        f"plot '{csv_path.name}' using 1:2 skip 1 with linespoints notitle\n"
    )


@click.group()
def main() -> None:
    """Conditional spin squeezing from single-channel photon counting."""


def _common_out(out: str) -> Path:
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


@main.command()
@click.option("--n-atoms", "-N", "n_atoms", type=int, required=True)
@click.option("--strength", "-C", "c", type=float, required=True)
@click.option("--n-max", type=int, default=None, help="Largest tabulated photon number.")
@click.option("--out", type=click.Path(), default=".", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--gnuplot", is_flag=True, help="Also write a gnuplot script.")
def statistics(n_atoms: int, c: float, n_max: int | None, out: str, fmt: str, gnuplot: bool) -> None:
    """Tabulate the scattered-photon number distribution and its peaks."""
    out_dir = _common_out(out)
    state = initial_coherent_spin_state(n_atoms)
    joint = apply_pulse(state, c)
    if n_max is None:
        n_max = default_n_max(c, state.spin.s)
    dist = photon_distribution(joint, n_max)
    rows = [(int(n), float(p)) for n, p in enumerate(dist.probabilities)]
    table = _emit_table(out_dir / "statistics", rows, ("n", "P_n"), fmt)
    peaks = distribution_peaks(dist.probabilities)
    sidecar = out_dir / "statistics_peaks.json"
    _write_atomic(
        sidecar,
        json.dumps(
            {
                "peaks": [
                    {"n": p.n, "P": p.probability, "half_width": p.half_width}
                    for p in peaks
                ],
                "tail_mass": dist.tail_mass,
            },
            indent=2,
        )
        + "\n",
    )
    outputs = [table, sidecar]
    if gnuplot and fmt == "csv":
        gp = out_dir / "statistics.gp"
        _write_atomic(gp, _gnuplot_script(table, "P_n"))
        outputs.append(gp)
    outputs.append(
        _write_manifest(
            out_dir,
            "statistics",
            {"n_atoms": n_atoms, "C": c, "n_max": n_max, "format": fmt},
            None,
            outputs,
        )
    )
    click.echo(f"wrote {', '.join(str(p) for p in outputs)}")


@main.command("collapse")
@click.option("--n-atoms", "-N", "n_atoms", type=int, required=True)
@click.option("--strength", "-C", "c", type=float, required=True)
@click.option("--count", "-n", "n_m", type=int, required=True)
@click.option("--mu", type=float, default=1.0, show_default=True)
@click.option("--out", type=click.Path(), default=".", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
def collapse_command(n_atoms: int, c: float, n_m: int, mu: float, out: str, fmt: str) -> None:
    """Collapse the initial state on a photon-count outcome; emit P_a(M)."""
    out_dir = _common_out(out)
    state = initial_coherent_spin_state(n_atoms)
    collapsed = collapse(apply_pulse(state, c, mu), n_m)
    moments = spin_moments(collapsed)
    summary: dict = {
        "n_atoms": n_atoms,
        "C": c,
        "n_m": n_m,
        "mu": mu,
        "var_Sz": moments.var_sz,
        "xi": moments.xi,
    }
    m_values = state.spin.m_values()
    if n_m > 0 and c > 0:
        m_peak = cat_peak_location(c, n_m)
        arm = int(round(m_peak))
        summary["peak_locations"] = [-m_peak, m_peak]
        summary["lattice_peaks"] = [-arm, arm]
        if mu < 1.0 and 0 < arm <= state.spin.s_twice // 2:
            try:
                summary["coherence"] = cat_coherence(collapsed, arm)
            except DomainError:
                summary["coherence"] = None
    rows = [(float(m), float(p)) for m, p in zip(m_values, collapsed.populations())]
    table = _emit_table(out_dir / "collapse", rows, ("M", "P_a"), fmt)
    sidecar = out_dir / "collapse_summary.json"
    _write_atomic(sidecar, json.dumps(summary, indent=2) + "\n")
    outputs = [table, sidecar]
    outputs.append(
        _write_manifest(out_dir, "collapse", {"n_atoms": n_atoms, "C": c, "n_m": n_m, "mu": mu, "format": fmt}, None, outputs)
    )
    click.echo(f"wrote {', '.join(str(p) for p in outputs)}")


@main.command()
@click.option("--n-atoms", "-N", "n_atoms", type=int, required=True)
@click.option("--pulses", "pulses_json", type=str, required=True, help='JSON array of {"C":..,"mu":..,"force_n":..}.')
@click.option("--seed", type=int, default=None)
@click.option("--emit-dists", is_flag=True, help="Write per-pulse photon-distribution CSVs.")
@click.option("--out", type=click.Path(), default=".", show_default=True)
def trajectory(n_atoms: int, pulses_json: str, seed: int | None, emit_dists: bool, out: str) -> None:
    """Run a sequential-pulse measurement trajectory; emit JSONL records."""
    out_dir = _common_out(out)
    try:
        raw = json.loads(pulses_json)
        if not isinstance(raw, list):
            raise ValueError("pulses must be a JSON array")
        specs = [
            PulseSpec(
                c=float(item["C"]),
                mu=float(item.get("mu", 1.0)),
                force_n=int(item["force_n"]) if "force_n" in item else None,
            )
            for item in raw
        ]
    except (ValueError, KeyError, TypeError) as exc:
        raise click.UsageError(f"bad --pulses value: {exc}") from exc
    if seed is None:
        seed = int.from_bytes(os.urandom(4), "big")
    state = initial_coherent_spin_state(n_atoms)
    run = run_trajectory(state, specs, seed=seed, collect_distributions=emit_dists)
    jsonl_path = out_dir / "trajectory.jsonl"
    _write_atomic(jsonl_path, run.record.to_jsonl())
    outputs = [jsonl_path]
    if emit_dists and run.distributions is not None:
        for idx, dist in enumerate(run.distributions):
            rows = [(int(n), float(p)) for n, p in enumerate(dist.probabilities)]
            outputs.append(
                _emit_table(out_dir / f"trajectory_dist_{idx}", rows, ("n", "P_n"), "csv")
            )
    outputs.append(
        _write_manifest(
            out_dir,
            "trajectory",
            {"n_atoms": n_atoms, "pulses": raw, "emit_dists": emit_dists},
            seed,
            outputs,
        )
    )
    click.echo(f"wrote {', '.join(str(p) for p in outputs)}")


@main.command("squeeze-scan")
@click.option("--n-atoms", "-N", "n_atoms", type=int, required=True)
@click.option("--d-res", type=float, default=None, help="Decay model: resonant optical depth.")
@click.option("--mu", type=float, default=None, help="Inefficiency model: detection efficiency.")
@click.option("--c-min", type=float, required=True)
@click.option("--c-max", type=float, required=True)
@click.option("--c-step", type=float, required=True)
@click.option("--out", type=click.Path(), default=".", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
def squeeze_scan(
    n_atoms: int,
    d_res: float | None,
    mu: float | None,
    c_min: float,
    c_max: float,
    c_step: float,
    out: str,
    fmt: str,
) -> None:
    """Scan the squeezing parameter over a grid of pulse strengths."""
    if d_res is None and mu is None:
        raise click.UsageError("choose a model: --d-res (decay), --mu (inefficiency), or both")
    if c_step <= 0 or c_max < c_min or c_min <= 0:
        raise click.UsageError("need 0 < c-min <= c-max and c-step > 0")
    grid = np.arange(c_min, c_max + 0.5 * c_step, c_step)
    if grid.size == 0:
        raise click.UsageError("empty strength grid")

    columns: list[str] = ["C"]
    series: list[np.ndarray] = [grid]
    summary: dict = {"n_atoms": n_atoms}
    if d_res is not None:
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            xi_decay = np.array([squeezing_with_decay(c, n_atoms, d_res) for c in grid])
        columns.append("xi_decay" if mu is not None else "xi")
        series.append(xi_decay)
        k = int(np.argmin(xi_decay))
        c_opt, xi_min = optimal_strength(n_atoms, d_res)
        summary["decay"] = {
            "d_res": d_res,
            "argmin_C": float(grid[k]),
            "min_xi": float(xi_decay[k]),
            "closed_form_C_opt": c_opt,
            "closed_form_xi_min": xi_min,
        }
    if mu is not None:
        state = initial_coherent_spin_state(n_atoms)
        xis = [spin_moments(collapse(apply_pulse(state, c, mu), 0)).xi for c in grid]
        xi_mu = np.array([math.nan if xi is None else xi for xi in xis])
        if all(xi is None for xi in xis):
            raise DomainError("xi is undefined at every strength: no mean spin survives")
        columns.append("xi_inefficiency" if d_res is not None else "xi")
        series.append(xi_mu)
        k = int(np.nanargmin(xi_mu))
        summary["inefficiency"] = {
            "mu": mu,
            "argmin_C": float(grid[k]),
            "min_xi": float(xi_mu[k]),
        }
    out_dir = _common_out(out)
    rows = [tuple(float(col[i]) for col in series) for i in range(grid.size)]
    table = _emit_table(out_dir / "squeeze_scan", rows, tuple(columns), fmt)
    sidecar = out_dir / "squeeze_scan_summary.json"
    _write_atomic(sidecar, json.dumps(summary, indent=2) + "\n")
    outputs = [table, sidecar]
    outputs.append(
        _write_manifest(
            out_dir,
            "squeeze-scan",
            {
                "n_atoms": n_atoms,
                "d_res": d_res,
                "mu": mu,
                "c_min": c_min,
                "c_max": c_max,
                "c_step": c_step,
                "format": fmt,
            },
            None,
            outputs,
        )
    )
    click.echo(f"wrote {', '.join(str(p) for p in outputs)}")


@main.command()
@click.argument("config_path", type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=".", show_default=True)
def physical(config_path: str, out: str) -> None:
    """Map a laboratory config JSON to the dimensionless model parameters."""
    out_dir = _common_out(out)
    config = PhysicalConfig.from_json(Path(config_path))
    strengths = derive_strengths(config)
    c_photon = measurement_strength_photon_form(config)
    warnings_list = config.advisory_warnings()
    if strengths.eta >= 1.0:
        warnings_list.append(
            f"photon loss per atom exceeds 1 (eta = {strengths.eta:.3g}); low-damage regime violated"
        )
    if strengths.C > strengths.C_bound:
        warnings_list.append(
            f"C = {strengths.C:.3g} exceeds the bound sqrt(d_res/N_a) = {strengths.C_bound:.3g}"
        )
    if c_photon > 0 and strengths.C > 0:
        ratio = strengths.C / c_photon
        if not 0.5 <= ratio <= 2.0:
            warnings_list.append(
                f"spontaneous-emission and photon-number forms of C disagree by factor {ratio:.3g}"
            )
    payload = dict(strengths.to_dict(), C_photon_form=c_photon, warnings=warnings_list)
    result = out_dir / "physical.json"
    _write_atomic(result, json.dumps(payload, indent=2) + "\n")
    outputs = [result]
    outputs.append(
        _write_manifest(out_dir, "physical", {"config_path": str(config_path)}, None, outputs)
    )
    click.echo(f"wrote {', '.join(str(p) for p in outputs)}")


def run() -> None:
    """Entry point wrapper mapping library errors to the exit-code contract."""
    try:
        main.main(standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except click.exceptions.Abort:
        sys.exit(1)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(1)
    except ConsistencyError as exc:
        click.echo(f"internal consistency failure: {exc}", err=True)
        sys.exit(EXIT_CONSISTENCY)
    except DickesimError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_DOMAIN)
    except OSError as exc:
        click.echo(f"I/O error: {exc}", err=True)
        sys.exit(EXIT_DOMAIN)


if __name__ == "__main__":
    run()
