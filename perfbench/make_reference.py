"""Regenerate the stored reference outputs in `reference.json`:

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs one protocol round per input variant of each named workload (all by
default) with the benchmark's settings and records, per arm, the final test
accuracy, best validation accuracy and last training loss. Entries of
workloads not named are kept. Run it only when a workload's settings change;
outputs of a changed program are checked against the stored ones.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import checks  # noqa: E402
import workloads as wl  # noqa: E402


def main(names) -> int:
    path = os.path.join(HERE, "reference.json")
    stored = {}
    if os.path.exists(path):
        with open(path) as fh:
            stored = json.load(fh)
    for name in names or sorted(wl.WORKLOADS):
        workload = wl.WORKLOADS[name]
        variants = {}
        for variant in range(wl.VARIANTS):
            inputs = wl.setup(workload, variant)
            results = wl.run_round(workload, inputs, variant)
            for res in results:
                check = checks.check_arm(workload, res, wl.HP.k)
                if check.failed:
                    print("\n".join(check.problems), file=sys.stderr)
                    return 1
            variants[str(variant)] = {r.arm: checks.reference_entry(r)
                                      for r in results}
            print(f"{name} variant {variant} done", flush=True)
        stored[name] = {"spec": wl.spec(workload), "variants": variants}
        with open(path, "w") as fh:
            json.dump(stored, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
