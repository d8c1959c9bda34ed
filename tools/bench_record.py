"""Entries of a committed benchmark record, `BENCH_<workload>.json`.

The record is a JSON list of entries, oldest first. `append` adds entries
at its end and never rewrites one. `tools/bench_pairs.py --record` appends
one entry per side of its pairs: the runs of one checkout at one seed.
An entry holds:

- `revision`: the checkout's git commit from the run manifest, or null
  outside a git checkout or where `src/fgsam` has uncommitted changes
  (`revision`), and `source`: the SHA-256 of its `src/fgsam/*.py` files,
  which names an uncommitted tree too;
- `seed` and `runs`, the number of runs N;
- `metrics`: each metric's median and quartiles over the N runs;
- `fgsam_plus_over_adam`: the mean FGSAM+ step over the Adam step at
  k = 2, 3 and 4, from the median step p50s: per k steps FGSAM+ takes
  one exact step and k - 1 approximate ones, and the cost of a branch's
  step does not depend on k;
- `manifest`: the first run's manifest (versions, threads, host speed).

`fingerprint()` is the part of a manifest that decides a run's floats
besides the code: the Python, numpy and scipy versions and the BLAS
vendor. `tests/golden_digests.json` records it beside its digests.
"""

import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess

import numpy as np
import scipy

K_VALUES = (2, 3, 4)


def quartiles(values):
    """(first quartile, median, third quartile), linearly interpolated."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def fgsam_plus_over_adam(p50: dict, k: int) -> float:
    """(exact + (k - 1) * approx) / k / adam, from step p50s."""
    exact = p50["step_ms_p50.fgsam_plus.exact"]
    approx = p50["step_ms_p50.fgsam_plus.approx"]
    return (exact + (k - 1) * approx) / k / p50["step_ms_p50.adam"]


def entry(runs, manifest, seed, source, revision) -> dict:
    """The entry of `runs`, a list of {metric: value}, one per run of one
    checkout at `seed`, whose first run wrote `manifest`; `source` and
    `revision` are the checkout's `source_hash` and `revision`."""
    names = [name for name in runs[0] if all(name in run for run in runs)]
    metrics = {}
    for name in names:
        q1, median, q3 = quartiles([run[name] for run in runs])
        metrics[name] = {"median": median, "q1": q1, "q3": q3}
    medians = {name: m["median"] for name, m in metrics.items()}
    return {"revision": revision, "source": source,
            "seed": seed, "runs": len(runs), "metrics": metrics,
            "fgsam_plus_over_adam": {str(k): fgsam_plus_over_adam(medians, k)
                                     for k in K_VALUES},
            "manifest": manifest}


def source_hash(checkout) -> str:
    """SHA-256 over the names and bytes of `src/fgsam/*.py`, in name
    order."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(checkout, "src", "fgsam",
                                              "*.py"))):
        digest.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def revision(checkout, manifest):
    """The commit whose `src/fgsam` the checkout's runs measured: the
    manifest's `git_commit`, or None where `git status --porcelain` lists a
    change under `src/fgsam`, since no commit holds that tree."""
    status = subprocess.run(["git", "status", "--porcelain", "--",
                             os.path.join("src", "fgsam")], cwd=checkout,
                            capture_output=True, text=True)
    return None if status.stdout.strip() else manifest.get("git_commit")


def append(path, entries) -> None:
    """Add `entries` at the end of the record at `path`, made if missing."""
    record = []
    if os.path.exists(path):
        with open(path) as fh:
            record = json.load(fh)
    record.extend(entries)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


def fingerprint() -> dict:
    """This interpreter's `python`, `numpy`, `scipy` and `blas_vendor`, as
    `perfbench/bench.py` writes them into a run's manifest."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_vendor": f"{blas.get('name')} {blas.get('version')}"}
