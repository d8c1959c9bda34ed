"""Benchmark entry point, run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the exit code is 0 only when every
output check passed. Manifest, result and (traced) spans go to
`.bench_out/<workload>/trace<0|1>/`.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One BLAS thread: fewer threads vary less between runs on a shared
# machine. Recorded in the manifest.
BLAS_THREADS = "1"


def main() -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fgsam", "__init__.py")):
        print(f"error: no fgsam sources under {src}", file=sys.stderr)
        return 2
    # set before numpy is first imported, which fixes the BLAS pool size
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ["FGSAM_THREADS"] = "1"
    sys.path.insert(0, src)
    import bench
    return bench.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
