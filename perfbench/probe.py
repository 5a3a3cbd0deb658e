#!/usr/bin/env python3
"""Feasibility probe: the largest N_a each dickesim command handles within budget.

    python3 perfbench/probe.py

Runs every CLI command at N_a = 20, 200, 2000 and 20000 as its own child
process (``python3 -m dickesim.cli``, so the exit-code contract applies) under
an address-space rlimit equal to the benchmark's memory budget (1 GB, which
every workload stays under) and a wall-time budget, so no probe can allocate
past the budget.  BLAS runs on one thread, as in the timed runs.  Reports, per command, the largest
feasible N_a and, for each infeasible run, whether it ended with a documented
exit code (1-3, no traceback) or otherwise (a traceback, a timeout, a signal).

This is not one of the gated timing runs: it moves in ladder steps and takes
minutes.  It imports only the standard library, so the parent has no BLAS
threads when it forks the children.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SIZES = (20, 200, 2000, 20000)
DOCUMENTED_EXITS = {1, 2, 3}
# Address-space budget per probe: the benchmark's memory budget.
MEMORY_BUDGET_MB = 1024
WALL_BUDGET_S = 30.0


def commands(n_atoms: int, config: Path) -> dict[str, list[str]]:
    """The probed command lines; statistics at C = 1 is the cat-scale photon law."""
    cat = json.dumps([{"C": 1.0}, {"C": 1.0, "mu": 0.9}])
    return {
        "statistics -C 1": ["statistics", "-N", str(n_atoms), "-C", "1"],
        "statistics -C 0.1": ["statistics", "-N", str(n_atoms), "-C", "0.1"],
        "collapse": ["collapse", "-N", str(n_atoms), "-C", "0.1", "-n", "4"],
        "collapse --mu": ["collapse", "-N", str(n_atoms), "-C", "0.1", "-n", "4", "--mu", "0.9"],
        "trajectory": ["trajectory", "-N", str(n_atoms), "--pulses", cat, "--seed", "1"],
        "squeeze-scan --mu": ["squeeze-scan", "-N", str(n_atoms), "--mu", "0.9", "--c-min", "0.1", "--c-max", "0.3", "--c-step", "0.1"],
        "squeeze-scan --d-res": ["squeeze-scan", "-N", str(n_atoms), "--d-res", "100", "--c-min", "0.05", "--c-max", "2", "--c-step", "0.05"],
        "physical": ["physical", str(config)],
    }


def lab_config(n_atoms: int) -> dict:
    area, length, gamma, n_ph, lam = 5e-8, 1e-2, 2 * 3.141592653589793 * 5.2e6, 1e8, 852e-9
    return {
        "gamma": gamma, "delta": 2 * 3.141592653589793 * 1e9, "wavelength": lam, "area": area,
        "length": length, "density": n_atoms / (area * length), "N_a": n_atoms,
        "chi_sq_integral": 16.0 * 3.141592653589793**2 / 3.0 * gamma * n_ph * lam**2 / area, "N_ph": n_ph,
    }


def run_one(args: list[str], out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    limit = MEMORY_BUDGET_MB * 2**20

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    log = out / "stderr.txt"
    start = time.perf_counter()
    with open(log, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "dickesim.cli", *args, "--out", str(out)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err, preexec_fn=cap,
        )
        timed_out = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start > WALL_BUDGET_S:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                timed_out = True
                break
            time.sleep(0.05)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    wall = time.perf_counter() - start
    stderr = log.read_text()
    code = proc.returncode
    result = {"exit": code, "wall_s": round(wall, 3), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}
    if timed_out:
        result["outcome"] = "timeout"
    elif code == 0:
        result["outcome"] = "ok"
    elif code < 0:
        result["outcome"] = f"signal {signal.Signals(-code).name}"
    else:
        result["outcome"] = "error"
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        result["message"] = last[:200]
    result["documented"] = code == 0 or (code in DOCUMENTED_EXITS and "Traceback" not in stderr and not timed_out)
    return result


def main() -> None:
    if not (SRC / "dickesim" / "cli.py").is_file():
        print(f"probe: no dickesim sources at {SRC}", file=sys.stderr)
        sys.exit(2)

    work = ROOT / ".perfbench" / f"probe-{os.getpid()}"
    report: dict[str, dict] = {}
    try:
        for n_atoms in SIZES:
            config = work / f"lab_{n_atoms}.json"
            config.parent.mkdir(parents=True, exist_ok=True)
            config.write_text(json.dumps(lab_config(n_atoms)))
            for name, args in commands(n_atoms, config).items():
                res = run_one(args, work / f"{name.replace(' ', '_')}-{n_atoms}")
                report.setdefault(name, {})[str(n_atoms)] = res
                print(f"{name:22s} N_a={n_atoms:<6d} {res['outcome']:8s} exit={res['exit']:<4d} "
                      f"{res['wall_s']:8.2f} s {res['peak_rss_mb']:8.1f} MB documented={res['documented']}"
                      + (f"  {res['message']}" if "message" in res else ""), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = {
        "memory_budget_mb": MEMORY_BUDGET_MB,
        "wall_budget_s": WALL_BUDGET_S,
        "largest_feasible_n_atoms": {
            name: max([int(n) for n, r in runs.items() if r["outcome"] == "ok"], default=None)
            for name, runs in report.items()
        },
        # None where every size was feasible
        "infeasible_exit_documented": {
            name: all(failed) if (failed := [r["documented"] for r in runs.values() if r["outcome"] != "ok"]) else None
            for name, runs in report.items()
        },
        "runs": report,
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / "probe.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps({k: summary[k] for k in ("largest_feasible_n_atoms", "infeasible_exit_documented")}))


if __name__ == "__main__":
    main()
