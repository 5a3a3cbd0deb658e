"""The benchmark's workloads: fixed lists of dickesim CLI commands.

A workload seed draws the inputs (strengths, efficiencies, counts, trajectory
seeds, lab configs and the command order) but never the sizes, so every seed
gives the same mix of command classes and each class costs about the same.
Each command carries the check that compares its output files with the
benchmark's own reference physics (``reference.py``).

The class counts per pass keep the latency quantiles inside one class: as
many commands are slower than the median class as faster, so cmd_p50_ms is
the middle of one class, and the class holding the 11th-slowest command of a
run (cmd_tail_ms) stays the same over the pass counts a 25 s run makes.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from reference import (
    SAMPLE_P_FLOOR,
    ConditionedState,
    Pulse,
    close,
    decay_xi,
    log_binomial_weights,
    m_values,
    photon_moments,
)

# Relative tolerance on moments and xi; the program's exact paths agree with
# the references to ~1e-13, so this only absorbs dense-matrix round-off.
REL = 1e-8
# Largest spin the truncated-Fock oracle accepts (S <= 6).
ORACLE_MAX_ATOMS = 12


@dataclass(frozen=True)
class KnownDefect:
    """A defect the ROADMAP names, and the check problems it produces."""

    name: str
    # matches a problem of check_trajectory this defect explains; group 1 is
    # the pulse index
    problem: re.Pattern[str]


POSTERIOR = KnownDefect("posterior weights at mu < 1", re.compile(r"pulse (\d+): (?:var_Sz|xi) "))
SAMPLING = KnownDefect("mu = 1 sampling law at mu < 1", re.compile(r"pulse (\d+): sampled n="))
EMITTED = KnownDefect("mu = 1 law in --emit-dists at mu < 1", re.compile(r"pulse (\d+) emitted law: "))


@dataclass
class Command:
    """One CLI invocation: its class label, arguments and output check."""

    label: str
    args: list[str]
    check: Callable[[Path], list[str]] = field(repr=False)
    # defects the command exercises, set when it runs mu < 1 pulses; they
    # can explain check problems from pulse `defects_from` on, never an
    # error the command raised
    defects: tuple[KnownDefect, ...] = ()
    defects_from: int = 0

    def explained_by(self, problems: list[str]) -> str | None:
        """The known defects behind the problems, or None if one is unexplained."""
        names = []
        for problem in problems:
            defect = next((d for d in self.defects if self._explains(d, problem)), None)
            if defect is None:
                return None
            if defect.name not in names:
                names.append(defect.name)
        return ", ".join(names) or None

    def _explains(self, defect: KnownDefect, problem: str) -> bool:
        match = defect.problem.match(problem)
        return match is not None and int(match.group(1)) >= self.defects_from


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def read_json(path: Path):
    return json.loads(path.read_text())


def check_manifest(out: Path, command: str) -> list[str]:
    manifest = read_json(out / f"{command}_manifest.json")
    missing = [p for p in manifest["output_paths"] if not Path(p).is_file()]
    errors = [f"manifest lists missing output {p}" for p in missing]
    if manifest["command"] != command:
        errors.append(f"manifest command {manifest['command']!r} != {command!r}")
    return errors


def check_law_table(probs: np.ndarray, tail: float, state: ConditionedState, c: float, mu: float) -> list[str]:
    """A tabulated count law: sums to 1 - tail and matches the reference at spot counts."""
    errors = []
    if abs(probs.sum() + tail - 1.0) > 1e-12:
        errors.append(f"sum(P) + tail = {probs.sum() + tail!r}, not 1")
    if not -1e-10 <= tail <= 1e-8:
        errors.append(f"tail mass {tail!r} outside [-1e-10, 1e-8]")
    spots = np.unique(np.linspace(0, probs.size - 1, 9).astype(int))
    spots = np.union1d(spots, [int(np.argmax(probs))])
    expected = state.count_law(c, mu, spots)
    for n, want in zip(spots, expected):
        got = probs[n]
        if want > 1e-250 and abs(got - want) > 1e-8 * want + 1e-300:
            errors.append(f"P({n}) = {got!r}, reference {want!r}")
            break
    return errors


def check_statistics(n_atoms: int, c: float) -> Callable[[Path], list[str]]:
    def check(out: Path) -> list[str]:
        header, table = read_table(out / "statistics.csv")
        probs = table[:, 1]
        side = read_json(out / "statistics_peaks.json")
        errors = check_law_table(probs, side["tail_mass"], ConditionedState(n_atoms, []), c, 1.0)
        mean_ref, std_ref = photon_moments(n_atoms, c)
        n = np.arange(probs.size)
        mean = float(np.sum(n * probs))
        std = math.sqrt(max(float(np.sum(n * n * probs)) - mean * mean, 0.0))
        if not (close(mean, mean_ref, 1e-6) and close(std, std_ref, 1e-6)):
            errors.append(f"moments ({mean}, {std}) != closed form ({mean_ref}, {std_ref})")
        peaks = [p["n"] for p in side["peaks"]]
        if int(np.argmax(probs)) not in peaks:
            errors.append("global maximum of P(n) missing from the peak list")
        return errors + check_manifest(out, "statistics")

    return check


def _oracle_populations(n_atoms: int, c: float, n_m: int) -> np.ndarray:
    from dickesim.fock_oracle import oracle_evolve, oracle_project
    from dickesim.spin_basis import initial_coherent_spin_state

    return oracle_project(oracle_evolve(initial_coherent_spin_state(n_atoms), c), n_m).populations()


def check_collapse(n_atoms: int, c: float, n_m: int, mu: float) -> Callable[[Path], list[str]]:
    # references are computed on first use; each command's inputs are fixed
    @functools.cache
    def reference() -> ConditionedState:
        return ConditionedState(n_atoms, [Pulse(c, mu, n_m)])

    @functools.cache
    def oracle() -> np.ndarray:
        return _oracle_populations(n_atoms, c, n_m)

    def check(out: Path) -> list[str]:
        ref = reference()
        _, table = read_table(out / "collapse.csv")
        pops = table[:, 1]
        summary = read_json(out / "collapse_summary.json")
        errors = []
        if np.max(np.abs(pops - ref.populations())) > 1e-10 or abs(pops.sum() - 1.0) > 1e-10:
            errors.append("populations differ from the Schur-kernel reference")
        if pops.min() < -1e-15:
            errors.append("negative population")
        if not close(summary["var_Sz"], ref.var_sz(), REL):
            errors.append(f"var_Sz {summary['var_Sz']} != reference {ref.var_sz()}")
        if not close(summary["xi"], ref.xi(), REL):
            errors.append(f"xi {summary['xi']} != reference {ref.xi()}")
        if "coherence" in summary:
            arm = summary["lattice_peaks"][1]
            want = ref.coherence(arm)
            got = summary["coherence"]
            if not close(got, want, REL) or got > 1.0 + 1e-12:
                errors.append(f"coherence {got} != reference {want}")
        if mu == 1.0 and n_atoms <= ORACLE_MAX_ATOMS:
            if np.max(np.abs(oracle() - pops)) > 1e-8:
                errors.append("populations differ from the truncated-Fock oracle")
        return errors + check_manifest(out, "collapse")

    return check


def check_squeeze_mu(n_atoms: int, mu: float, grid: list[float]) -> Callable[[Path], list[str]]:
    @functools.cache
    def reference() -> list[float]:
        return [ConditionedState(n_atoms, [Pulse(c, mu, 0)]).xi() for c in grid]

    def check(out: Path) -> list[str]:
        _, table = read_table(out / "squeeze_scan.csv")
        errors = []
        if not np.allclose(table[:, 0], grid, rtol=1e-12, atol=0.0):
            return [f"strength grid {table[:, 0].tolist()} != {grid}"]
        for (c, xi), want in zip(table, reference()):
            if not close(None if math.isnan(xi) else xi, want, REL):
                errors.append(f"xi(C={c}) = {xi} != reference {want}")
                break
        summary = read_json(out / "squeeze_scan_summary.json")["inefficiency"]
        if summary["min_xi"] != np.nanmin(table[:, 1]):
            errors.append("summary min_xi is not the table minimum")
        return errors + check_manifest(out, "squeeze-scan")

    return check


def check_squeeze_decay(n_atoms: int, d_res: float) -> Callable[[Path], list[str]]:
    def check(out: Path) -> list[str]:
        _, table = read_table(out / "squeeze_scan.csv")
        errors = [
            f"xi_decay(C={c}) = {xi} != reference"
            for c, xi in table
            if not close(xi, decay_xi(c, n_atoms, d_res), 1e-12)
        ][:1]
        summary = read_json(out / "squeeze_scan_summary.json")["decay"]
        if not close(summary["closed_form_C_opt"], math.sqrt(d_res / (2.0 * n_atoms)), 1e-12):
            errors.append("closed-form C_opt differs from sqrt(d_res / 2N)")
        if not close(summary["closed_form_xi_min"], 2.0 * math.sqrt(math.e / d_res), 1e-12):
            errors.append("closed-form xi_min differs from 2 sqrt(e / d_res)")
        return errors + check_manifest(out, "squeeze-scan")

    return check


def check_trajectory(n_atoms: int, pulses: list[dict], emit: bool) -> Callable[[Path], list[str]]:
    def check(out: Path) -> list[str]:
        records = [json.loads(line) for line in (out / "trajectory.jsonl").read_text().splitlines()]
        errors = []
        if len(records) != len(pulses):
            return [f"{len(records)} records for {len(pulses)} pulses"]
        done: list[Pulse] = []
        for k, (spec, rec) in enumerate(zip(pulses, records)):
            before = ConditionedState(n_atoms, list(done))
            c, mu, n_m = spec["C"], spec.get("mu", 1.0), rec["n_m"]
            if emit:
                _, table = read_table(out / f"trajectory_dist_{k}.csv")
                probs = table[:, 1]
                law = check_law_table(probs, 1.0 - probs.sum(), before, c, mu)
                errors += [f"pulse {k} emitted law: {e}" for e in law]
            if "force_n" in spec:
                if n_m != spec["force_n"]:
                    errors.append(f"pulse {k}: forced {spec['force_n']}, recorded {n_m}")
            else:
                tail = before.count_tail_probability(c, mu, n_m)
                if tail < SAMPLE_P_FLOOR:
                    errors.append(
                        f"pulse {k}: sampled n={n_m} has tail probability {tail:.3g} "
                        f"under the detected-count law (C={c}, mu={mu})"
                    )
            done.append(Pulse(c, mu, n_m))
            after = ConditionedState(n_atoms, list(done))
            if not close(rec["post_var_Sz"], after.var_sz(), REL):
                errors.append(f"pulse {k}: var_Sz {rec['post_var_Sz']} != reference {after.var_sz()}")
            if not close(rec["post_xi"], after.xi(), REL):
                errors.append(f"pulse {k}: xi {rec['post_xi']} != reference {after.xi()}")
        return errors + check_manifest(out, "trajectory")

    return check


def check_physical(config: dict) -> Callable[[Path], list[str]]:
    gamma, delta, lam = config["gamma"], config["delta"], config["wavelength"]
    d_res = config["density"] * lam**2 * config["length"]
    c_spon = math.sqrt(gamma * config["chi_sq_integral"]) / abs(delta)
    expected = {
        "C_spon": c_spon,
        "C": math.sqrt(3.0 / (16.0 * math.pi**2) * lam**2 / config["area"]) * c_spon,
        "d_res": d_res,
        "eta": d_res / config["N_a"] * (gamma / delta) ** 2 * config["N_ph"],
        "C_bound": math.sqrt(d_res / config["N_a"]),
        "C_photon_form": gamma / abs(delta) * d_res / config["N_a"] * math.sqrt(config["N_ph"]),
    }

    def check(out: Path) -> list[str]:
        payload = read_json(out / "physical.json")
        errors = [
            f"{key} = {payload.get(key)} != reference {want}"
            for key, want in expected.items()
            if not close(payload.get(key), want, 1e-12, 0.0)
        ]
        return errors + check_manifest(out, "physical")

    return check


def _law_count(rng: np.random.Generator, n_atoms: int, c: float) -> int:
    """A count drawn from the initial state's photon law: M, then Poisson(C^2 M^2)."""
    w = np.exp(log_binomial_weights(n_atoms))
    m = rng.choice(m_values(n_atoms), p=w / w.sum())
    return int(rng.poisson(c * c * m * m))


def _jitter(rng: np.random.Generator, value: float, frac: float = 0.01) -> float:
    return round(value * (1.0 + rng.uniform(-frac, frac)), 6)


def photon_law(rng: np.random.Generator, work: Path) -> list[Command]:
    cmds = []
    for n_atoms, c, stats, collapses in ((8, 2.0, 0, 1), (20, 3.0, 4, 2), (200, 1.0, 1, 2), (800, 0.2, 1, 1), (2000, 0.1, 1, 1)):
        for _ in range(stats):
            cj = _jitter(rng, c)
            cmds.append(Command(f"statistics N={n_atoms}", ["statistics", "-N", str(n_atoms), "-C", str(cj)], check_statistics(n_atoms, cj)))
        for _ in range(collapses):
            cj = _jitter(rng, c)
            n_m = _law_count(rng, n_atoms, cj)
            cmds.append(Command(f"collapse N={n_atoms}", ["collapse", "-N", str(n_atoms), "-C", str(cj), "-n", str(n_m)], check_collapse(n_atoms, cj, n_m, 1.0)))
    return cmds


def mixed_squeeze(rng: np.random.Generator, work: Path) -> list[Command]:
    cmds = []
    # one N = 800 collapse per pass keeps it out of the ten slowest commands
    # of a run, so cmd_tail_ms falls among the two N = 400 scans at any pass
    # count from 4 to 10
    for n_atoms, c_min, points, copies in ((200, 0.1, 4, 1), (400, 0.05, 4, 2)):
        for _ in range(copies):
            mu = round(rng.uniform(0.7, 0.95), 4)
            step = _jitter(rng, c_min)
            grid = [step + k * step for k in range(points)]  # the CLI's np.arange(c_min, .., step)
            args = ["squeeze-scan", "-N", str(n_atoms), "--mu", str(mu), "--c-min", str(step), "--c-max", str(grid[-1]), "--c-step", str(step)]
            cmds.append(Command(f"squeeze-scan --mu N={n_atoms}", args, check_squeeze_mu(n_atoms, mu, grid)))
    for n_atoms, c, copies in ((200, 1.0, 2), (400, 0.5, 3), (800, 0.3, 1)):
        for _ in range(copies):
            mu = round(rng.uniform(0.7, 0.95), 4)
            arm = int(rng.integers(3, 9))
            n_m = int(round((c * arm) ** 2))
            args = ["collapse", "-N", str(n_atoms), "-C", str(c), "-n", str(n_m), "--mu", str(mu)]
            cmds.append(Command(f"collapse --mu N={n_atoms}", args, check_collapse(n_atoms, c, n_m, mu)))
    return cmds


def _trajectory(label: str, n_atoms: int, pulses: list[dict], seed: int, emit: bool = False, defects: tuple[KnownDefect, ...] = ()) -> Command:
    args = ["trajectory", "-N", str(n_atoms), "--pulses", json.dumps(pulses), "--seed", str(seed)]
    if emit:
        args.append("--emit-dists")
    first_mixed = next((k for k, p in enumerate(pulses) if p.get("mu", 1.0) < 1.0), len(pulses))
    return Command(label, args, check_trajectory(n_atoms, pulses, emit), defects, first_mixed)


def trajectories(rng: np.random.Generator, work: Path) -> list[Command]:
    cmds = []

    def seed() -> int:
        return int(rng.integers(0, 2**31))

    # pure, Born-sampled
    for n_atoms, c, n_pulses, copies, emit in ((20, 3.0, 2, 3, False), (200, 0.5, 3, 6, False), (200, 0.5, 2, 1, True), (2000, 0.02, 2, 1, True), (2000, 0.05, 2, 1, False)):
        for _ in range(copies):
            pulses = [{"C": _jitter(rng, c)} for _ in range(n_pulses)]
            cmds.append(_trajectory(f"trajectory pure N={n_atoms}{' emit' if emit else ''}", n_atoms, pulses, seed(), emit))
    # pure, first outcome forced onto a cat
    arm = int(rng.integers(2, 5))
    cmds.append(_trajectory("trajectory forced N=20", 20, [{"C": 3.0, "force_n": 9 * arm * arm}, {"C": 3.0}], seed()))
    # a cat prepared at mu = 1, then a sampled mu < 1 pulse strong enough that
    # the mu = 1 and the mu < 1 count laws do not overlap, then a forced one
    arm = int(rng.integers(4, 6))
    mu = round(rng.uniform(0.4, 0.5), 4)
    pulses = [{"C": 3.0, "force_n": 9 * arm * arm}, {"C": 5.0, "mu": mu}, {"C": 2.0, "mu": 0.6, "force_n": int(round(0.6 * 4 * arm * arm))}]
    cmds.append(_trajectory("trajectory mixed-sampled N=20", 20, pulses, seed(), defects=(SAMPLING, POSTERIOR)))
    # mixed states carried over several mu < 1 pulses: forced and sampled
    # (the N = 200 run is the workload's costliest command; its cost follows
    # the number of eigen-branches, so its efficiencies stay fixed)
    for n_atoms, c, mu_jitter, forced, emit in ((100, 0.4, 0.05, True, False), (200, 0.3, 0.0, True, True), (100, 0.4, 0.05, False, False)):
        pulses = []
        for mu in (0.8, 0.7):
            pulse = {"C": c, "mu": round(mu + rng.uniform(-mu_jitter, mu_jitter), 4)}
            if forced:
                pulse["force_n"] = int(rng.integers(1, 5))
            pulses.append(pulse)
        kind = "forced" if forced else "sampled"
        defects = (POSTERIOR, EMITTED) if emit else (POSTERIOR,)
        cmds.append(_trajectory(f"trajectory mixed-{kind} N={n_atoms}{' emit' if emit else ''}", n_atoms, pulses, seed(), emit, defects))
    for i in range(2):
        config = lab_config(rng)
        path = work / f"lab_config_{i}.json"
        path.write_text(json.dumps(config))
        cmds.append(Command("physical", ["physical", str(path)], check_physical(config)))
    n_atoms, d_res = 2000, round(rng.uniform(50.0, 500.0), 3)
    c_opt = math.sqrt(d_res / (2.0 * n_atoms))
    args = ["squeeze-scan", "-N", str(n_atoms), "--d-res", str(d_res), "--c-min", str(round(c_opt / 4, 6)), "--c-max", str(round(3 * c_opt, 6)), "--c-step", str(round(c_opt / 8, 6))]
    cmds.append(Command("squeeze-scan --d-res", args, check_squeeze_decay(n_atoms, d_res)))
    return cmds


def lab_config(rng: np.random.Generator) -> dict:
    """A laboratory config in SI units; N_a = density * area * length."""
    area = rng.uniform(2e-8, 1e-7)
    length = rng.uniform(5e-3, 2e-2)
    n_atoms = int(rng.integers(1_000_000, 10_000_000))
    gamma = 2 * math.pi * 5.2e6
    return {
        "gamma": gamma,
        "delta": 2 * math.pi * rng.uniform(0.5e9, 2e9),
        "wavelength": rng.uniform(7.8e-7, 8.6e-7),
        "area": area,
        "length": length,
        "density": n_atoms / (area * length),
        "N_a": n_atoms,
        "chi_sq_integral": rng.uniform(1e11, 1e13),
        "N_ph": rng.uniform(1e7, 1e9),
    }


WORKLOADS = {
    "photon-law": photon_law,
    "mixed-squeeze": mixed_squeeze,
    "trajectories": trajectories,
}


def build(name: str, seed: int, work: Path) -> list[Command]:
    """The workload's command list for this seed, in the seed's order."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    cmds = WORKLOADS[name](rng, work)
    order = rng.permutation(len(cmds))
    return [cmds[i] for i in order]
