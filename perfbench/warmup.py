"""Fresh-interpreter set-up: import dickesim.cli, then finish one command.

Run as ``python3 perfbench/warmup.py OUT_DIR`` with ``src`` on PYTHONPATH.
It imports nothing else before dickesim, so ``-X importtime`` sees the
program's own import cost.  Prints {"import_s": .., "warmup_s": ..}.
"""

import json
import sys
import time

# Small, but it runs the dense paths (matrix products, an eigenvalue solve),
# so first-call BLAS/LAPACK start-up is part of set-up.
WARMUP = ["collapse", "-N", "20", "-C", "3", "-n", "36", "--mu", "0.9"]


def main() -> None:
    t0 = time.perf_counter()
    from dickesim.cli import main as cli

    t1 = time.perf_counter()
    cli.main(WARMUP + ["--out", sys.argv[1]], standalone_mode=False)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "warmup_s": t2 - t1}))


if __name__ == "__main__":
    main()
