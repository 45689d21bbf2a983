"""compalg benchmark.

Run from the repository root:

    python3 benchmarks/run.py --workload witness-stream --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --selftest

Each workload is a closed loop: one single-threaded caller in one process
sends the next operation only after the previous one returned.  Every
output is checked (see checks.py); an exception or a failed check counts
as a failed operation.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run, and writes its spans
to ``.bench_out/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
BENCHMARK.json lists every metric; METRICS.md says what each one means.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main():
    if not (SRC / "compalg" / "__init__.py").is_file():
        print(f"error: no compalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
