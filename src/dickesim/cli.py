"""Command-line surface: figure data as CSV/JSON, scans, trajectories.

Commands emit data files (never images); every invocation writes a
RunManifest JSON next to its outputs so the run can be reproduced
bit-exactly on the same platform.  Exit codes: 0 success, else the exit_code
of the dickesim.errors class raised (ConfigError's 1 for a bad command line).
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from ._repr_rows import repr_rows
from .cat_analysis import cat_coherence, cat_peak_location
from .detection import PulseSpec, collapse, run_trajectory
from .errors import ConfigError, DickesimError, DomainError
from .physical_params import PhysicalConfig, derive_strengths, optimal_strength, squeezing_with_decay
from .pulse_scattering import (
    MAX_TABLE_LENGTH,
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
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # umask applies, as in open(); mkstemp gives 0600
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
    print(f"wrote {', '.join(str(p) for p in [*outputs, manifest])}")


def _table_chunks(columns: list[np.ndarray], header: tuple[str, ...], fmt: str) -> Iterator[str]:
    """A table's head, its rows in chunks of TABLE_CHUNK_ROWS, then its tail.

    A header naming one column more than given marks a law: its first column,
    n, is formed per chunk, and as CSV repr_rows writes each chunk.  Other CSV
    cells are %r; JSON cells are repr, or null where not finite, the bytes of
    json.dumps(rows, indent=2).  Each chunk is one join over its rows, so its
    string is allocated once at its final size; one %-format over the chunk
    grows it by reallocation, which in a long-lived process that runs many
    commands (perfbench's) left ~12 kB of RSS per 801-row table.
    """
    size, indexed = columns[0].size, len(header) > len(columns)
    if fmt == "csv":
        head, row, sep, tail = ",".join(header) + "\n", ",".join(["%r"] * len(header)) + "\n", "", ""
    else:
        head, sep, tail = ("[\n", ",\n", "\n]\n") if size else ("[]\n", "", "")
        row = "  {\n" + ",\n".join(f"    {json.dumps(key)}: %s" for key in header) + "\n  }"
    yield head
    for a in range(0, size, TABLE_CHUNK_ROWS):
        b = min(a + TABLE_CHUNK_ROWS, size)
        if indexed and fmt == "csv":
            yield repr_rows(a, columns[0][a:b])
        else:
            cells = [col[a:b].tolist() for col in columns]
            if fmt == "json":
                cells = [[repr(x) if math.isfinite(x) else "null" for x in col] for col in cells]
            yield (sep if a else "") + sep.join(map(row.__mod__, zip(*([range(a, b)] if indexed else []), *cells)))
    yield tail


def _emit_table(path_base: Path, columns: list[np.ndarray], header: tuple[str, ...], fmt: str) -> Path:
    """Write equal-length numpy columns as CSV or JSON: every table goes through here."""
    path = path_base.with_suffix("." + fmt)
    _write_atomic(path, _table_chunks(columns, header, fmt))
    return path


def statistics(n_atoms: int, c: float, n_max: int | None, out_dir: Path, fmt: str, gnuplot: bool) -> None:
    """Tabulate the scattered-photon number distribution and its peaks."""
    if gnuplot and fmt != "csv":
        raise ConfigError("--gnuplot needs --format csv")
    state = initial_coherent_spin_state(n_atoms)
    joint = apply_pulse(state, c)
    dist = photon_distribution(joint, n_max)
    peaks = distribution_peaks(dist.probabilities)
    table = _emit_table(out_dir / "statistics", [dist.probabilities], ("n", "P_n"), fmt)
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


def collapse_command(n_atoms: int, c: float, n_m: int, mu: float, out_dir: Path, fmt: str) -> None:
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
    if n_m > 0:
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


def trajectory(n_atoms: int, pulses_json: str, seed: int | None, emit_dists: bool, out_dir: Path) -> None:
    """Run a sequential-pulse measurement trajectory; emit JSONL records."""
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    try:
        raw = json.loads(pulses_json)
        if not isinstance(raw, list):
            raise ValueError("pulses must be a JSON array")
        specs = [_pulse(index, item) for index, item in enumerate(raw)]
    except (ValueError, OverflowError) as exc:  # OverflowError: float() of an int beyond the double range
        raise ConfigError(f"bad --pulses value: {exc}") from exc
    if seed is None:
        seed = int.from_bytes(os.urandom(4), "big")
    state = initial_coherent_spin_state(n_atoms)
    run = run_trajectory(state, specs, seed=seed, collect_distributions=emit_dists)
    jsonl_path = out_dir / "trajectory.jsonl"
    _write_atomic(jsonl_path, [run.to_jsonl()])
    outputs = [jsonl_path]
    for idx, dist in enumerate(run.distributions or ()):
        outputs.append(_emit_table(out_dir / f"trajectory_dist_{idx}", [dist.probabilities], ("n", "P_n"), "csv"))
    _finish(out_dir, "trajectory", {"n_atoms": n_atoms, "pulses": raw, "emit_dists": emit_dists}, seed, outputs)


def squeeze_scan(n_atoms: int, d_res: float | None, mu: float | None, c_min: float, c_max: float, c_step: float, out_dir: Path, fmt: str) -> None:
    """Scan the squeezing parameter over a grid of pulse strengths."""
    if d_res is None and mu is None:
        raise ConfigError("choose a model: --d-res (decay), --mu (inefficiency), or both")
    if not (c_step > 0 and c_min > 0 and c_max >= c_min):  # a nan bound fails it too
        raise ConfigError("need 0 < c-min <= c-max and c-step > 0")
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
            raise DomainError(
                "decay-model xi overflows at every strength: sqrt(2) e^(C^2 N_a / d_res) / (sqrt(S) C) exceeds the double range"
            )
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
    table = _emit_table(out_dir / "squeeze_scan", series, tuple(columns), fmt)
    sidecar = out_dir / "squeeze_scan_summary.json"
    _write_json(sidecar, summary)
    parameters = {"n_atoms": n_atoms, "d_res": d_res, "mu": mu, "c_min": c_min, "c_max": c_max, "c_step": c_step, "format": fmt}
    _finish(out_dir, "squeeze-scan", parameters, None, [table, sidecar])


def physical(config_path: str, out_dir: Path) -> None:
    """Map a laboratory config JSON to the dimensionless model parameters."""
    path = Path(config_path)
    if path.is_dir() or not path.exists():  # reading it would raise OSError, exit 2
        raise ConfigError(f"config file {path} {'is a directory' if path.exists() else 'does not exist'}")
    strengths = derive_strengths(PhysicalConfig.from_json(path))
    result = out_dir / "physical.json"
    _write_json(result, asdict(strengths))
    _finish(out_dir, "physical", {"config_path": str(config_path)}, None, [result])


class _Parser(argparse.ArgumentParser):
    """argparse raising ConfigError for a command line it cannot read; a float is never an option."""

    def error(self, message: str):
        raise ConfigError(message)

    def _parse_optional(self, arg_string: str):
        try:  # argparse reads -1e200 and -inf as unknown options, and -nan as -n an
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None

    def main(self, args: list[str] | None = None, standalone_mode: bool = True) -> None:
        """Parse args (default sys.argv[1:]) and run their command.  Unless standalone_mode,
        raise what it raised; else print one stderr line and exit with its class's code."""
        if not standalone_mode:
            try:
                options = vars(self.parse_args(args))
            except ConfigError:  # argparse reports a missing option before an unknown one
                _parser(required=False).parse_args(args)  # names the unknown one, if any
                raise
            return options.pop("command")(**options)
        try:
            return self.main(args, standalone_mode=False)
        except DickesimError as exc:
            line, code = f"{exc.label}: {exc}", exc.exit_code
        except OSError as exc:
            line, code = f"I/O error: {exc}", DomainError.exit_code
        except MemoryError as exc:
            line, code = f"error: out of memory: {exc}", DomainError.exit_code
        except KeyboardInterrupt:  # Ctrl-C: end the line after ^C, no traceback
            line, code = "", 1
        print(line, file=sys.stderr)
        sys.exit(code)


def _parser(required: bool = True) -> _Parser:
    """The command-line parser; with required=False no command, option or argument is required."""
    parser = _Parser(prog="dickesim", description="Conditional spin squeezing from single-channel photon counting.", allow_abbrev=False)
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=required)

    def command(fn, name: str, atoms: bool = True, strength: bool = False, fmt: bool = False) -> _Parser:
        """fn's parser, with the options it shares with other commands."""
        sub = commands.add_parser(name, help=fn.__doc__, description=fn.__doc__, allow_abbrev=False)
        sub.set_defaults(command=fn)
        if atoms:
            sub.add_argument("--n-atoms", "-N", dest="n_atoms", type=int, required=required)
        if strength:
            sub.add_argument("--strength", "-C", dest="c", type=float, required=required)
        sub.add_argument("--out", dest="out_dir", type=Path, default=".", metavar="PATH", help="(default: %(default)s)")
        if fmt:
            sub.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")
        return sub

    sub = command(statistics, "statistics", strength=True, fmt=True)
    sub.add_argument("--n-max", type=int, help="Largest tabulated photon number.")
    sub.add_argument("--gnuplot", action="store_true", help="Also write a gnuplot script.")
    sub = command(collapse_command, "collapse", strength=True, fmt=True)
    sub.add_argument("--count", "-n", dest="n_m", type=int, required=required)
    sub.add_argument("--mu", type=float, default=1.0, help="(default: %(default)s)")
    sub = command(trajectory, "trajectory")
    sub.add_argument("--pulses", dest="pulses_json", required=required, help='JSON array of {"C":..,"mu":..,"force_n":..}.')
    sub.add_argument("--seed", type=int, help="An integer >= 0.")
    sub.add_argument("--emit-dists", action="store_true", help="Write per-pulse photon-distribution CSVs.")
    sub = command(squeeze_scan, "squeeze-scan", fmt=True)
    sub.add_argument("--d-res", type=float, help="Decay model: resonant optical depth.")
    sub.add_argument("--mu", type=float, help="Inefficiency model: detection efficiency.")
    for bound in ("--c-min", "--c-max", "--c-step"):
        sub.add_argument(bound, type=float, required=required)
    command(physical, "physical", atoms=False).add_argument("config_path", nargs=None if required else "?")
    return parser


main = _parser()  # main.main(args, standalone_mode) runs one command line
run = main.main  # the dickesim entry point: standalone, on sys.argv[1:]


if __name__ == "__main__":
    run()
