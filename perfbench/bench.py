"""Benchmark runner: set-up, timed protocol rounds, output check, metrics.

A run replays the workload's fixed number of rounds of set-up plus protocol
(four arms). With tracing off it reports the end-to-end metrics: the
fastest set-up, the sum of each arm's fastest replay, and step percentiles
over each step's fastest replay, each stated at the reference host speed
(hostspeed.py). With tracing on it runs half of the rounds
untraced and half traced, and reports the per-layer metrics and the
tracing overhead.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import subprocess
import sys
import time

import numpy as np
import scipy

from fgsam import analysis
import checks
import hostspeed
import tracing
import workloads as wl

# The second seed that a claimed gain must also hold on. It was not used
# while the benchmark was tuned.
HOLDOUT_SEED = 17
STEP_KEYS = ("adam", "sam", "fgsam", "fgsam_plus.exact", "fgsam_plus.approx")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def timed_rounds(workload, variant, count, until, tracer=None, kernel=None):
    """`count` rounds of fresh set-ups followed by the protocol (four arms).
    No round starts after the `until` clock reading, which only a host far
    slower than the one the counts were chosen on reaches; at least one
    round runs. Setting up before every round spreads the set-up samples
    over the run, as the protocol samples are. A calibration `kernel`, when
    given, is sampled before each round's first set-up and after every
    set-up and arm. Returns (rounds, set-up times, round walls, input
    hash)."""
    rounds, setups, walls = [], [], []
    inputs = None
    sample = kernel.sample if kernel is not None else lambda: None
    while not rounds or (len(rounds) < count
                         and time.perf_counter() < until):
        sample()
        for _ in range(wl.SETUPS_PER_ROUND):
            inputs = None  # so that two graphs are never resident at once
            start = time.perf_counter()
            if tracer is None:
                inputs = wl.setup(workload, variant)
            else:
                with tracer.span("bench.setup"):
                    inputs = wl.setup(workload, variant)
            setups.append(time.perf_counter() - start)
            sample()
        start = time.perf_counter()
        rounds.append(wl.run_round(workload, inputs, variant, tracer,
                                   wl.arm_order(len(rounds)), sample))
        walls.append(time.perf_counter() - start)
    graph = inputs.graph
    return rounds, setups, walls, analysis.content_hash(
        graph.features, graph.edges, graph.labels)


def best_step_times(rounds) -> dict:
    """Each step's fastest `wall_ms` over the replayed rounds, per arm.

    Rounds replay identical work, and other tenants of the host can only
    add time, so the fastest replay of a step is its cost with the least
    interference. FGSAM+ is split by branch because its steps are bimodal.
    """
    samples = {key: [] for key in STEP_KEYS}
    for arm_index, first in enumerate(rounds[0]):
        steps = min(len(results[arm_index].trace) for results in rounds)
        for t in range(steps):
            key = tracing.arm_key(first.arm)
            if first.arm == "fgsam+":
                key = f"{key}.{first.trace[t]['branch']}"
            samples[key].append(min(results[arm_index].trace[t]["wall_ms"]
                                    for results in rounds))
    return samples


def best_arm_walls(rounds) -> dict:
    """Each arm's fastest wall time (s) over the replayed rounds."""
    return {res.arm: min(results[i].wall_s for results in rounds)
            for i, res in enumerate(rounds[0])}


def end_to_end(rounds, setup_durations, scale=1.0) -> dict:
    """The end-to-end metrics, every timing multiplied by `scale`."""
    m = {"setup_s": scale * min(setup_durations),
         "protocol_s": scale * sum(best_arm_walls(rounds).values()),
         "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
         / 1024.0}
    for key, values in best_step_times(rounds).items():
        m[f"step_ms_p50.{key}"] = scale * float(np.percentile(values, 50))
        m[f"step_ms_p90.{key}"] = scale * float(np.percentile(values, 90))
    return m


def ledger(rounds) -> list:
    """The cost ledger: each arm's evaluation counts and fastest wall time,
    with the ratio against adam."""
    best = best_arm_walls(rounds)
    return analysis.cost_report({
        res.arm: {"gnn_evals": res.gnn_evals, "mlp_evals": res.mlp_evals,
                  "wall_seconds": best[res.arm]} for res in rounds[0]})


def check_rounds(workload, rounds, reference) -> checks.CheckResult:
    total = checks.CheckResult()
    for results in rounds:
        for res in results:
            ref = None if reference is None else reference[res.arm]
            total.add(checks.check_arm(workload, res, wl.HP.k, ref))
    return total


def measure(workload, variant, seconds, trace, reference):
    """Set up and run one benchmark measurement. Returns (metrics, check,
    details), where details feed the manifest and the written result."""
    start = time.perf_counter()
    count = wl.ROUNDS[workload.name]
    if not trace:
        kernel = hostspeed.Kernel(wl.CALIBRATION[workload.name])
        rounds, setups, walls, input_hash = timed_rounds(
            workload, variant, count, start + seconds, kernel=kernel)
        calibration = {"samples_s": kernel.samples, "scale": kernel.scale(),
                       "unscaled": end_to_end(rounds, setups)}
        metrics = end_to_end(rounds, setups, calibration["scale"])
        traced, spans = [], None
    else:
        count = max(1, count // 2)
        rounds, setups, walls, input_hash = timed_rounds(
            workload, variant, count, start + seconds / 2)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced, _, _, _ = timed_rounds(workload, variant, count,
                                           start + seconds, tracer)
        calibration = None
        spans = tracer.spans
        metrics = tracing.layer_metrics(spans, wl.ARMS, wl.LAYERS)
        metrics.update(
            (f"optim.wall_ratio_vs_adam.{tracing.arm_key(row['optimizer'])}",
             row["wall_ratio_vs_adam"])
            for row in ledger(rounds) if row["optimizer"] != "adam")
        metrics["trace.overhead_s"] = (sum(best_arm_walls(traced).values())
                                       - sum(best_arm_walls(rounds).values()))
    check = check_rounds(workload, rounds + traced, reference)
    details = {
        "rounds": len(rounds), "traced_rounds": len(traced),
        "round_walls_s": walls, "setup_durations_s": setups,
        "ledger": ledger(rounds),
        "steps_per_figure": {k: len(v) for k, v in
                             best_step_times(rounds).items()},
        "input_hash": input_hash,
        "calibration": calibration,
        "spans": spans,
    }
    return metrics, check, details


def git_commit(root):
    """The checked-out commit, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def manifest(args, workload, details, root) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name, "seed": args.seed,
        "variant": wl.variant_of(args.seed),
        "holdout_seed": HOLDOUT_SEED, "tracing": bool(args.trace),
        "run_seconds": args.seconds, "spec": wl.spec(workload),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "FGSAM_THREADS": os.environ.get("FGSAM_THREADS"),
        "nproc": os.cpu_count(), "git_commit": git_commit(root),
        "input_hash": details["input_hash"],
        "rounds": details["rounds"], "traced_rounds": details["traced_rounds"],
        "steps_per_figure": details["steps_per_figure"],
        "setups": len(details["setup_durations_s"]),
        "host_speed_scale": (details["calibration"] or {}).get("scale"),
    }


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, else the requested one."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_",
                     None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS")


def main(argv, root) -> int:
    args = parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    variant = wl.variant_of(args.seed)
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        reference = checks.load_reference(
            os.path.join(here, "reference.json"), workload,
            wl.spec(workload), variant)
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    metrics, check, details = measure(workload, variant, args.seconds,
                                      args.trace, reference)
    info = manifest(args, workload, details, root)
    outdir = os.path.join(root, ".bench_out", workload.name,
                          f"trace{args.trace}")
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(info, fh, indent=2)
        fh.write("\n")
    result = {"correct": check.failed == 0, "attempted": check.attempted,
              "failed": check.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    with open(os.path.join(outdir, "result.json"), "w") as fh:
        json.dump({**result, "problems": check.problems,
                   "ledger": details["ledger"],
                   "round_walls_s": details["round_walls_s"],
                   "setup_durations_s": details["setup_durations_s"],
                   "calibration": details["calibration"]},
                  fh, indent=2)
        fh.write("\n")
    if details["spans"] is not None:
        tracing.write_spans(os.path.join(outdir, "spans.csv.gz"),
                            details["spans"])
    print(f"{workload.name} seed {args.seed} (input variant {variant}), "
          f"{info['rounds']} rounds, {info['traced_rounds']} traced, "
          f"input {info['input_hash'][:12]}")
    for problem in check.problems[:20]:
        print(f"FAILED {problem}")
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1
