"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload austral --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` runs the traced, layer-by-layer composition and prints the
per-layer metrics, writing its trace under ``perfbench/out/``.  The last
line of standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("austral", "chess", "serve", "stream")
OUT_DIR = ROOT / "perfbench" / "out"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources under {ROOT / 'src'}; "
            "run it from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # One BLAS thread: the program runs its own threads (serving workers),
    # and a BLAS pool of one thread per core on top of them measures the
    # scheduler of a small shared machine, not the program.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"

    from perfbench import batch, serve, stream

    trace = bool(args.trace)
    if args.workload in batch.WORKLOADS:
        result = batch.run(args.workload, args.seed, args.seconds, trace, OUT_DIR)
    elif args.workload == "serve":
        result = serve.run(args.seed, args.seconds, trace, OUT_DIR)
    else:
        result = stream.run(args.seed, args.seconds, trace, OUT_DIR)
    print(json.dumps(result.payload(trace), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
