"""Command-line surface: figure data as CSV/JSON, scans, trajectories.

Commands emit data files (never images); every invocation writes a
RunManifest JSON next to its outputs so the run can be reproduced
bit-exactly on the same platform.  Exit codes: 0 success, 1 an unreadable
command line, else the exit_code of the dickesim.errors class raised.
"""

from __future__ import annotations

import datetime as _dt
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterable, Iterator
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from . import __version__
from .cat_analysis import cat_coherence, cat_peak_location
from .detection import PulseSpec, collapse, run_trajectory
from .errors import DickesimError, DomainError
from .physical_params import PhysicalConfig, derive_strengths, optimal_strength, squeezing_with_decay
from .pulse_scattering import (
    MAX_TABLE_LENGTH,
    PhotonDistribution,
    apply_pulse,
    distribution_peaks,
    photon_distribution,
)
from .spin_basis import initial_coherent_spin_state, spin_moments

# rows formatted per write: bounds the memory of a table, not a setting
TABLE_CHUNK_ROWS = 2**16


def _write_atomic(path: Path, chunks: Iterable[str]) -> None:
    # the output directory is made by the first write, after a command's
    # inputs are checked and its computation succeeded, so a failed run
    # leaves no directory behind
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, payload) -> None:
    _write_atomic(path, [json.dumps(payload, indent=2) + "\n"])


def _finish(out_dir: Path, command: str, parameters: dict, seed: int | None, outputs: list[Path]) -> None:
    """Write the run manifest listing the outputs, then name every file written."""
    manifest = out_dir / f"{command}_manifest.json"
    _write_json(
        manifest,
        {
            "command": command,
            "parameters": parameters,
            "seed": seed,
            "output_paths": [str(p) for p in outputs],
            "tool_version": __version__,
            "timestamp": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        },
    )
    click.echo(f"wrote {', '.join(str(p) for p in [*outputs, manifest])}")


def _csv_chunks(columns: list[np.ndarray], header: tuple[str, ...]) -> Iterator[str]:
    """Header line, then rows in chunks; repr(int) == str(int), so every cell is %r.

    Each chunk is one join over its formatted rows, so its string is
    allocated once at its final size.  One %-format over the whole chunk
    grows its result by reallocation instead; in a long-lived process that
    runs many commands (perfbench's) that left ~12 kB of RSS per 801-row table.
    """
    yield ",".join(header) + "\n"
    row = ",".join(["%r"] * len(columns)) + "\n"
    for a in range(0, columns[0].size, TABLE_CHUNK_ROWS):
        yield "".join(map(row.__mod__, zip(*(col[a : a + TABLE_CHUNK_ROWS].tolist() for col in columns))))


def _emit_table(path_base: Path, columns: list[np.ndarray], header: tuple[str, ...], fmt: str) -> Path:
    """Write equal-length numpy columns as CSV (in chunks) or JSON (null for a non-finite cell)."""
    path = path_base.with_suffix("." + fmt)
    if fmt == "json":
        cells = [[x if math.isfinite(x) else None for x in col.tolist()] for col in columns]
        _write_json(path, [dict(zip(header, row)) for row in zip(*cells)])
    else:
        _write_atomic(path, _csv_chunks(columns, header))
    return path


def _emit_law(path_base: Path, dist: PhotonDistribution, fmt: str) -> Path:
    """The (n, P_n) table of a photon-number law."""
    return _emit_table(path_base, [np.arange(dist.n_max + 1), dist.probabilities], ("n", "P_n"), fmt)


@click.group()
def main() -> None:
    """Conditional spin squeezing from single-channel photon counting."""


@main.command()
@click.option("--n-atoms", "-N", "n_atoms", type=int, required=True)
@click.option("--strength", "-C", "c", type=float, required=True)
@click.option("--n-max", type=int, default=None, help="Largest tabulated photon number.")
@click.option("--out", type=click.Path(), default=".", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--gnuplot", is_flag=True, help="Also write a gnuplot script.")
def statistics(n_atoms: int, c: float, n_max: int | None, out: str, fmt: str, gnuplot: bool) -> None:
    """Tabulate the scattered-photon number distribution and its peaks."""
    if gnuplot and fmt != "csv":
        raise click.UsageError("--gnuplot needs --format csv")
    state = initial_coherent_spin_state(n_atoms)
    joint = apply_pulse(state, c)
    dist = photon_distribution(joint, n_max)
    peaks = distribution_peaks(dist.probabilities)
    out_dir = Path(out)
    table = _emit_law(out_dir / "statistics", dist, fmt)
    sidecar = out_dir / "statistics_peaks.json"
    _write_json(sidecar, {"peaks": [asdict(p) for p in peaks], "tail_mass": dist.tail_mass})
    outputs = [table, sidecar]
    if gnuplot:
        gp = out_dir / "statistics.gp"
        script = (
            "set datafile separator ','\n"
            "set ylabel 'P_n'\n"
            f"plot '{table.name}' using 1:2 skip 1 with linespoints notitle\n"
        )
        _write_atomic(gp, [script])
        outputs.append(gp)
    _finish(out_dir, "statistics", {"n_atoms": n_atoms, "C": c, "n_max": dist.n_max, "format": fmt}, None, outputs)


@main.command("collapse")
@click.option("--n-atoms", "-N", "n_atoms", type=int, required=True)
@click.option("--strength", "-C", "c", type=float, required=True)
@click.option("--count", "-n", "n_m", type=int, required=True)
@click.option("--mu", type=float, default=1.0, show_default=True)
@click.option("--out", type=click.Path(), default=".", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
def collapse_command(n_atoms: int, c: float, n_m: int, mu: float, out: str, fmt: str) -> None:
    """Collapse the initial state on a photon-count outcome; emit P_a(M)."""
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
    m_values = state.m_values()
    if n_m > 0 and c > 0:
        m_peak = cat_peak_location(c, n_m)
        # the lattice point nearest m_peak, at most S; every M is a half-integer at odd N_a
        if state.n_atoms % 2:
            arm = min(round(m_peak - 0.5) + 0.5, state.s)
        else:
            arm = min(round(m_peak), state.n_atoms // 2)
        summary["peak_locations"] = [-m_peak, m_peak]
        summary["lattice_peaks"] = [-arm, arm]
        if mu < 1.0 and arm > 0:
            try:
                summary["coherence"] = cat_coherence(collapsed, arm)
            except DomainError:
                summary["coherence"] = None
    out_dir = Path(out)
    table = _emit_table(out_dir / "collapse", [m_values, collapsed.populations()], ("M", "P_a"), fmt)
    sidecar = out_dir / "collapse_summary.json"
    _write_json(sidecar, summary)
    _finish(out_dir, "collapse", {"n_atoms": n_atoms, "C": c, "n_m": n_m, "mu": mu, "format": fmt}, None, [table, sidecar])


def _pulse(index: int, item) -> PulseSpec:
    """One --pulses item, read in one pass: a JSON object, its keys, its C, then its
    values, each a JSON number (not a bool or a string) and force_n integral."""
    if not isinstance(item, dict):
        raise ValueError(f"pulse {index} must be a JSON object, got {json.dumps(item)}")
    if unknown := sorted(set(item) - {"C", "mu", "force_n"}):
        raise ValueError(f"unknown key {json.dumps(unknown[0])}; a pulse takes C, mu and force_n")
    if "C" not in item:
        raise ValueError(f"pulse {index} has no C")
    for key in ("C", "mu", "force_n"):
        value = item.get(key, 0)  # an absent mu or force_n passes
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{key} must be a number, got {json.dumps(value)}")
    force_n = item.get("force_n")
    if isinstance(force_n, float) and not force_n.is_integer():  # int() would drop the fraction
        raise ValueError(f"force_n must be an integer, got {force_n}")
    return PulseSpec(float(item["C"]), float(item.get("mu", 1.0)), None if force_n is None else int(force_n))


@main.command()
@click.option("--n-atoms", "-N", "n_atoms", type=int, required=True)
@click.option("--pulses", "pulses_json", type=str, required=True, help='JSON array of {"C":..,"mu":..,"force_n":..}.')
@click.option("--seed", type=click.IntRange(min=0), default=None)
@click.option("--emit-dists", is_flag=True, help="Write per-pulse photon-distribution CSVs.")
@click.option("--out", type=click.Path(), default=".", show_default=True)
def trajectory(n_atoms: int, pulses_json: str, seed: int | None, emit_dists: bool, out: str) -> None:
    """Run a sequential-pulse measurement trajectory; emit JSONL records."""
    try:
        raw = json.loads(pulses_json)
        if not isinstance(raw, list):
            raise ValueError("pulses must be a JSON array")
        specs = [_pulse(index, item) for index, item in enumerate(raw)]
    except (ValueError, OverflowError) as exc:  # OverflowError: float() of an int beyond the double range
        raise click.UsageError(f"bad --pulses value: {exc}") from exc
    if seed is None:
        seed = int.from_bytes(os.urandom(4), "big")
    state = initial_coherent_spin_state(n_atoms)
    run = run_trajectory(state, specs, seed=seed, collect_distributions=emit_dists)
    out_dir = Path(out)
    jsonl_path = out_dir / "trajectory.jsonl"
    _write_atomic(jsonl_path, [run.to_jsonl()])
    outputs = [jsonl_path]
    for idx, dist in enumerate(run.distributions or ()):
        outputs.append(_emit_law(out_dir / f"trajectory_dist_{idx}", dist, "csv"))
    _finish(out_dir, "trajectory", {"n_atoms": n_atoms, "pulses": raw, "emit_dists": emit_dists}, seed, outputs)


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
    if not (c_step > 0 and c_min > 0 and c_max >= c_min):  # a nan bound fails it too
        raise click.UsageError("need 0 < c-min <= c-max and c-step > 0")
    # np.arange's length, in Python floats: inf or nan fails the test as well
    length = (c_max + 0.5 * c_step - c_min) / c_step
    if not length <= MAX_TABLE_LENGTH:
        raise DomainError(f"strength grid of {length:.4g} points exceeds the limit of {MAX_TABLE_LENGTH}")
    # c_max + c_step/2 can round to c_min, so the one-point grid is not left to np.arange
    grid = np.array([c_min]) if c_max == c_min else np.arange(c_min, c_max + 0.5 * c_step, c_step)

    # decay first: a model whose column fails stops the scan before the next one runs
    both = d_res is not None and mu is not None
    columns, series, summary = ["C"], [grid], {"n_atoms": n_atoms}
    if d_res is not None:
        xi = np.array([squeezing_with_decay(c, n_atoms, d_res) for c in grid])  # inf where it overflows
        if np.isinf(xi).all():
            raise DomainError("decay-model xi overflows at every strength: e^(C^2 N_a / d_res) is too large")
        k = int(np.argmin(xi))
        c_opt, xi_min = optimal_strength(n_atoms, d_res)
        columns.append("xi_decay" if both else "xi")
        series.append(xi)
        summary["decay"] = {
            "d_res": d_res, "argmin_C": float(grid[k]), "min_xi": float(xi[k]),
            "closed_form_C_opt": c_opt, "closed_form_xi_min": xi_min,
        }
    if mu is not None:
        state = initial_coherent_spin_state(n_atoms)
        xis = [spin_moments(collapse(apply_pulse(state, c, mu), 0)).xi for c in grid]
        xi = np.array([math.nan if x is None else x for x in xis])  # nan where no mean spin survives
        if np.isnan(xi).all():
            raise DomainError("xi is undefined at every strength: no mean spin survives")
        k = int(np.nanargmin(xi))
        columns.append("xi_inefficiency" if both else "xi")
        series.append(xi)
        summary["inefficiency"] = {"mu": mu, "argmin_C": float(grid[k]), "min_xi": float(xi[k])}
    out_dir = Path(out)
    table = _emit_table(out_dir / "squeeze_scan", series, tuple(columns), fmt)
    sidecar = out_dir / "squeeze_scan_summary.json"
    _write_json(sidecar, summary)
    parameters = {"n_atoms": n_atoms, "d_res": d_res, "mu": mu, "c_min": c_min, "c_max": c_max, "c_step": c_step, "format": fmt}
    _finish(out_dir, "squeeze-scan", parameters, None, [table, sidecar])


@main.command()
@click.argument("config_path", type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=".", show_default=True)
def physical(config_path: str, out: str) -> None:
    """Map a laboratory config JSON to the dimensionless model parameters."""
    strengths = derive_strengths(PhysicalConfig.from_json(Path(config_path)))
    out_dir = Path(out)
    result = out_dir / "physical.json"
    _write_json(result, asdict(strengths))
    _finish(out_dir, "physical", {"config_path": str(config_path)}, None, [result])


def run() -> None:
    """Entry point wrapper mapping library errors to the exit-code contract."""
    try:
        main.main(standalone_mode=False)
    except click.UsageError as exc:  # every click error a command here can raise
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(1)
    except click.exceptions.Abort:
        sys.exit(1)
    except DickesimError as exc:
        click.echo(f"{exc.label}: {exc}", err=True)
        sys.exit(exc.exit_code)
    except OSError as exc:
        click.echo(f"I/O error: {exc}", err=True)
        sys.exit(DomainError.exit_code)
    except MemoryError as exc:
        click.echo(f"error: out of memory: {exc}", err=True)
        sys.exit(DomainError.exit_code)


if __name__ == "__main__":
    run()
