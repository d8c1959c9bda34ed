"""Digest the benchmark's protocol outputs and the CLI's run directories
in one or more checkouts.

    python3 tools/trace_digest.py CHECKOUT [CHECKOUT ...]

For each checkout, one subprocess imports that checkout's own `src` and
`perfbench` and runs one protocol round (`workloads.run_round`) of every
benchmark workload at seeds 0 and 17, with one BLAS thread. Each
(workload, seed) pair gets a SHA-256 over every arm's trace rows without
their `wall_ms`, its evaluation counts, its test accuracy and its best
validation accuracy, so two checkouts whose digests agree computed the same
floats, bit for bit. The subprocess then runs each command of `CLI_RUNS`
through the checkout's own `cli.run`, on a dense 200-node and a sparse
6 000-node CSBM in a temporary directory and with the same relative paths
for every checkout, so that the config echoes match. Each run directory
gets a SHA-256 over its files as `tests/run_dir_reader.py` (next to this
file) reads them, without the wall-time fields. The subprocess runs this file, so a checkout that lacks
it can be digested too.

One line per pair or command gives each checkout's digest and, with two or
more checkouts, `same` or `DIFFERENT`. The exit code is 1 if a digest
differs or a checkout fails, else 0.

    python3 tools/trace_digest.py --write tests/golden_digests.json CHECKOUT

writes the checkout's digests and this interpreter's environment
fingerprint (`bench_record.fingerprint`) to the file that
`tests/test_golden_digests.py` holds the working tree to. Rewrite it only
with a change that moves the arithmetic on purpose.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))
from run_dir_reader import read_run_dir  # noqa: E402

import bench_record  # noqa: E402

SEEDS = (0, 17)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SHORT = ("--episodes", "20", "--val-interval", "5", "--val-tasks", "4",
         "--test-tasks", "6", "--hidden", "8", "--k", "2")
# (output directory, argv) of every command whose run directory is
# digested, in run order; each path is relative to the temporary directory
CLI_RUNS = (
    ("graph", ("gen-csbm", "--k", "8", "--nodes-per-class", "25", "--p",
               "0.35", "--q", "0.05", "--dist", "3", "--dim", "8")),
    ("fsnc", ("fsnc", "--graph", "graph", "--optimizer", "fgsam+",
              "--repeats", "2", *SHORT)),
    ("compare", ("compare", "--graph", "graph", "--repeats", "2", *SHORT)),
    ("drift", ("drift", "--graph", "graph", *SHORT)),
    ("rho-sweep", ("rho-sweep", "--graph", "graph", "--optimizer", "fgsam",
                   "--rhos", "0.01,0.1", *SHORT)),
    ("nc", ("nc", "--graph", "graph", "--episodes", "20")),
    ("landscape", ("landscape", "--graph", "graph", "--checkpoint",
                   "nc/best.ckpt", "--grid-points", "7")),
    ("bench", ("bench", "--episodes", "2")),
    # a 6 000-node graph of mean degree 3.5: with one layer a run fills A.X
    # from a slice of A, the 1 775 rows its tasks read; with three, whose
    # 5 635 rows hold 97% of A's entries, it fills all of A.X
    ("sparse", ("gen-csbm", "--k", "6", "--nodes-per-class", "1000", "--p",
                "0.003", "--q", "0.0001", "--dist", "3", "--dim", "8")),
    ("fsnc-layers1", ("fsnc", "--graph", "sparse", "--layers", "1",
                      "--repeats", "2", *SHORT)),
    ("compare-layers3", ("compare", "--graph", "sparse", "--layers", "3",
                         "--repeats", "2", *SHORT)),
    # full-batch training at one layer, which cuts no slice, and at three,
    # whose last layer runs on a wide slice above two n-row layers
    ("nc-layers1", ("nc", "--graph", "graph", "--episodes", "20",
                    "--layers", "1")),
    ("nc-layers3", ("nc", "--graph", "graph", "--episodes", "20",
                    "--layers", "3", "--scheme", "mean-neighbors")),
)


def digest(results) -> str:
    """SHA-256 of a round's arm results (`workloads.ArmResult`, in arm
    order): each arm's name, trace rows without `wall_ms`, evaluation
    counts, test accuracy and best validation accuracy. Floats enter by
    their shortest repr, so a move of one ulp changes the digest."""
    arms = [{"arm": r.arm,
             "trace": [{k: v for k, v in row.items() if k != "wall_ms"}
                       for row in r.trace],
             "gnn_evals": r.gnn_evals, "mlp_evals": r.mlp_evals,
             "test_acc": r.test_acc, "best_val_acc": r.best_val_acc}
            for r in results]
    text = json.dumps(arms, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def digest_run_dir(outdir) -> str:
    """SHA-256 of a run directory as `read_run_dir` reads it: every file
    under its relative path, without the wall-time fields."""
    h = hashlib.sha256()
    for name, content in sorted(read_run_dir(outdir).items()):
        if not isinstance(content, bytes):
            content = json.dumps(content, sort_keys=True).encode()
        h.update(f"{name}\0{len(content)}\0".encode())
        h.update(content)
    return h.hexdigest()


def cli_digests(cli) -> dict:
    """{"cli/<directory>": digest} of the run directories of `CLI_RUNS`,
    each run by `cli.run` with its printed lines dropped."""
    digests = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for out, argv in CLI_RUNS:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.run([*argv, "--out", out])
                if code != 0:
                    raise RuntimeError(f"{argv[0]} exited with {code}")
                digests[f"cli/{out}"] = digest_run_dir(out)
        finally:
            os.chdir(cwd)
    return digests


def worker(checkout) -> int:
    """Print {"workload/seed" or "cli/<directory>": digest} for the
    checkout's own code."""
    src = os.path.join(checkout, "src")
    sys.path[:0] = [src, os.path.join(checkout, "perfbench")]
    import fgsam
    import workloads as wl
    from fgsam import cli
    if os.path.dirname(os.path.dirname(fgsam.__file__)) != src:
        print(f"error: fgsam imported from {fgsam.__file__}, not {src}",
              file=sys.stderr)
        return 1
    digests = {}
    for name, workload in wl.WORKLOADS.items():
        for seed in SEEDS:
            variant = wl.variant_of(seed)
            inputs = wl.setup(workload, variant)
            digests[f"{name}/{seed}"] = digest(
                wl.run_round(workload, inputs, variant))
    digests.update(cli_digests(cli))
    print(json.dumps(digests))
    return 0


def run_checkout(checkout):
    """The checkout's digests by pair, or None if its worker failed."""
    env = {**os.environ, **{var: "1" for var in BLAS_VARS}}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", checkout],
        cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{checkout}: worker failed\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkouts", nargs="+")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write", metavar="PATH",
                        help="write the one checkout's digests and this "
                             "interpreter's fingerprint to PATH as JSON")
    args = parser.parse_args(argv)
    checkouts = [os.path.abspath(c) for c in args.checkouts]
    if args.worker:
        return worker(checkouts[0])
    if args.write and len(checkouts) != 1:
        parser.error("--write takes one checkout")
    runs = [run_checkout(c) for c in checkouts]
    if None in runs:
        return 1
    if args.write:
        with open(args.write, "w") as fh:
            json.dump({"fingerprint": bench_record.fingerprint(),
                       "digests": runs[0]}, fh, indent=2)
            fh.write("\n")
    for i, checkout in enumerate(checkouts):
        print(f"[{i}] {checkout}")
    differ = False
    for pair in runs[0]:
        digests = [run[pair] for run in runs]
        line = f"{pair:19s} " + " ".join(digests)
        if len(runs) > 1:
            same = len(set(digests)) == 1
            differ = differ or not same
            line += "  same" if same else "  DIFFERENT"
        print(line)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
