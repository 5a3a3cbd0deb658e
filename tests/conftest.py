import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest

from dickesim import cli
from dickesim.physical_params import PhysicalConfig


def run_cli(args, cwd=None) -> subprocess.CompletedProcess:
    """`dickesim ARGS` run in this process, reported as a subprocess would be.

    cli.run() reads args as sys.argv[1:], from cwd if given, with stdout and
    stderr captured; the SystemExit it raises becomes the return code.  A
    warning raises here (filterwarnings = "error"), which is stricter than
    the stray stderr line a subprocess would print.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    returncode = 0
    previous = os.getcwd()  # contextlib.chdir needs Python 3.11
    try:
        if cwd is not None:
            os.chdir(cwd)
        with mock.patch.object(sys, "argv", ["dickesim", *args]), redirect_stdout(stdout), redirect_stderr(stderr):
            cli.run()
    except SystemExit as exc:
        returncode = 0 if exc.code is None else exc.code
    finally:
        os.chdir(previous)
    return subprocess.CompletedProcess(["dickesim", *args], returncode, stdout.getvalue(), stderr.getvalue())


def consistent_config(
    wavelength: float = 852e-9,
    area: float = 5e-8,
    length: float = 1e-2,
    n_atoms: int = 6_900_000,
    gamma: float = 2 * math.pi * 5.2e6,
    delta: float = 2 * math.pi * 1.0e9,
    n_ph: float = 1e8,
) -> PhysicalConfig:
    """A self-consistent laboratory config.

    The atomic density is fixed so that N_a = density * area * length exactly,
    and the pulse energy integral is fixed so that the spontaneous-emission
    and photon-number forms of the measurement strength coincide exactly.
    """
    density = n_atoms / (area * length)
    chi_sq_integral = (16.0 * math.pi**2 / 3.0) * gamma * n_ph * wavelength**2 / area
    return PhysicalConfig(
        gamma=gamma,
        delta=delta,
        wavelength=wavelength,
        area=area,
        length=length,
        density=density,
        N_a=n_atoms,
        chi_sq_integral=chi_sq_integral,
        N_ph=n_ph,
    )


@pytest.fixture
def lab_config() -> PhysicalConfig:
    return consistent_config()
