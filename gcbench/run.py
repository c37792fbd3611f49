"""gcstar benchmark: one command for every end-to-end or per-layer metric.

Run from the root of a checkout:

    python3 gcbench/run.py --workload {suite,spectrum-ladder,sections} \
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the checkout, never from an
installed copy.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it report every metric with its unit, the machine record and the
output digest.  Full results (and, with ``--trace 1``, the spans) are
written under ``gcbench/out/``.  See ``gcbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# BLAS threads of this process only; fixed before numpy is first imported.
BLAS_THREADS = 1

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["suite", "spectrum-ladder", "sections"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gcstar", "__init__.py")):
        print(f"gcbench: no gcstar package under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    import gcstar
    if os.path.dirname(os.path.abspath(gcstar.__file__)) != os.path.join(SRC, "gcstar"):
        print(f"gcbench: gcstar imported from {gcstar.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import harness

    os.makedirs(OUT, exist_ok=True)
    result, lines, _ = harness.run(args.workload, args.seed, args.seconds,
                                   args.trace, SRC, OUT, BLAS_THREADS)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
