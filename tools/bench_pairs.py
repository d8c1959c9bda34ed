"""Run the benchmark in alternating pairs on two checkouts and summarize.

    python3 tools/bench_pairs.py PARENT CHANGE --workload fsnc-small \\
        --seed 0 --pairs 10 --seconds 40 [--record]

Each pair runs `perfbench/run.py --trace 0` once in each checkout, one after
the other; even pairs run PARENT first and odd pairs CHANGE first, so that a
slow spell on the shared host falls on both sides alike. Every run's result
line goes to standard error as it arrives. Besides the run's metrics, each
run gives `round_s`, the median wall of its protocol rounds net of the
host-speed samples taken inside them (`round_wall`), which counts the work
that `protocol_s`'s best-of rule drops. The summary
gives, for every metric, each side's median and quartiles, the change's
relative move, how many pairs the change won (ties count for neither side)
and a verdict:

- `gain`: over at least 10 pairs (`GAIN_PAIRS`), the change won at least
  9 of every 10 and its median is better than the parent's by more than
  the parent's interquartile range;
- `worse`: the change's median is worse by more than the metric's bound
  in the parent's BENCHMARK.json;
- `unresolved`: the parent's interquartile range exceeds that bound and
  not every change run beats every parent run;
- `ok`: none of these.

With `--record`, each side's runs become one entry appended to
`BENCH_<workload>.json` in the CHANGE checkout (`bench_record.py`). A
side with uncommitted changes under `src/fgsam` is recorded with a null
`revision`, and named by its source hash alone.

The exit code is 1 if any run was not `correct` or failed, else 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import bench_record


# the fewest pairs a `gain` verdict rests on: a set of 2 pairs can win
# both by chance on a metric that did not move
GAIN_PAIRS = 10


def summarize(parent_runs, change_runs, better, bounds):
    """One row per metric present in every run of both sides.

    `parent_runs` and `change_runs` are equally long lists of
    {metric: value}, pair i being (parent_runs[i], change_runs[i]);
    `better[name]` is "lower" or "higher" (default "lower") and
    `bounds[name]` the relative bound, if any."""
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("need the same positive number of runs per side")
    names = [name for name in parent_runs[0]
             if all(name in run for run in parent_runs + change_runs)]
    rows = []
    for name in names:
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        old = [run[name] for run in parent_runs]
        new = [run[name] for run in change_runs]
        wins = sum(sign * b < sign * a for a, b in zip(old, new))
        p_q1, p_med, p_q3 = bench_record.quartiles(old)
        c_q1, c_med, c_q3 = bench_record.quartiles(new)
        gain = sign * (p_med - c_med)          # > 0: the change is better
        claim = (len(old) >= GAIN_PAIRS and 10 * wins >= 9 * len(old)
                 and gain > p_q3 - p_q1)
        bound = bounds.get(name)
        scale = abs(p_med) if p_med else 1.0
        if claim:
            verdict = "gain"
        elif bound is not None and -gain > bound * scale:
            verdict = "worse"
        elif (bound is not None and p_q3 - p_q1 > bound * scale
              and not all(sign * b < sign * a for a in old for b in new)):
            verdict = "unresolved"
        else:
            verdict = "ok"
        rows.append({"metric": name, "parent": (p_q1, p_med, p_q3),
                     "change": (c_q1, c_med, c_q3),
                     "rel": (c_med - p_med) / scale, "wins": wins,
                     "pairs": len(old), "claim": claim, "verdict": verdict})
    return rows


def format_rows(rows) -> str:
    lines = [f"{'metric':34s} {'parent median [q1, q3]':>30s} "
             f"{'change median [q1, q3]':>30s} {'move':>7s} {'wins':>6s} "
             f"verdict"]
    for row in rows:
        cells = [f"{m:.4g} [{a:.4g}, {b:.4g}]"
                 for a, m, b in (row["parent"], row["change"])]
        wins = f"{row['wins']}/{row['pairs']}"
        lines.append(f"{row['metric']:34s} {cells[0]:>30s} {cells[1]:>30s} "
                     f"{row['rel']:+7.1%} {wins:>6s} {row['verdict']}")
    return "\n".join(lines)


# `timed_rounds` in perfbench/bench.py samples the host-speed kernel before
# each round's set-ups and after each of its 2 set-ups and 4 arms; the last
# 4 of those 7 samples fall inside the round's timed wall
SAMPLES_PER_ROUND = 7
SAMPLES_IN_WALL = 4


def round_walls(result) -> list:
    """Each round wall of an untraced run's `result.json` (`round_walls_s`,
    unscaled), less the host-speed samples (`calibration.samples_s`) taken
    inside it."""
    walls = result["round_walls_s"]
    samples = (result.get("calibration") or {}).get("samples_s") or []
    if len(samples) != SAMPLES_PER_ROUND * len(walls):
        raise ValueError(f"{len(samples)} calibration samples for "
                         f"{len(walls)} rounds, expected "
                         f"{SAMPLES_PER_ROUND} per round")
    return [wall - sum(samples[SAMPLES_PER_ROUND * (i + 1) - SAMPLES_IN_WALL:
                               SAMPLES_PER_ROUND * (i + 1)])
            for i, wall in enumerate(walls)]


def round_wall(result) -> float:
    """The median of a run's net round walls (`round_walls`). A round runs
    the four arms one after another, so its wall includes the work of its
    first arm that the others reuse, which `protocol_s`, a sum of each
    arm's fastest round, leaves out."""
    return statistics.median(round_walls(result))


def run_once(checkout, workload, seed, seconds):
    """One untraced benchmark run in `checkout`: (metrics, ok, manifest)."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(proc.stderr, file=sys.stderr)
        return {}, False, None
    print(json.dumps({"checkout": checkout, **result}), file=sys.stderr)
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    outdir = os.path.join(checkout, ".bench_out", workload, "trace0")
    with open(os.path.join(outdir, "result.json")) as fh:
        metrics["round_s"] = round_wall(json.load(fh))
    with open(os.path.join(outdir, "manifest.json")) as fh:
        manifest = json.load(fh)
    return metrics, proc.returncode == 0 and result["correct"], manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--record", action="store_true",
                        help="append each side's entry to BENCH_<workload>"
                             ".json in the CHANGE checkout")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    with open(os.path.join(args.parent, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["end_to_end"] + spec["per_layer"]
    better = {m["name"]: m["better"] for m in declared}
    bounds = {m["name"]: m["bound"] for m in declared if "bound" in m}
    runs = {args.parent: [], args.change: []}
    manifests = {}     # each side's first manifest
    all_ok = True
    for i in range(args.pairs):
        order = [args.parent, args.change]
        for checkout in order if i % 2 == 0 else order[::-1]:
            metrics, ok, manifest = run_once(checkout, args.workload,
                                             args.seed, args.seconds)
            runs[checkout].append(metrics)
            manifests.setdefault(checkout, manifest)
            all_ok = all_ok and ok
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs, "
          f"{args.seconds:g} s runs")
    if all_ok:
        print(format_rows(summarize(runs[args.parent], runs[args.change],
                                    better, bounds)))
        if args.record:
            path = os.path.join(args.change, f"BENCH_{args.workload}.json")
            bench_record.append(path, [
                bench_record.entry(runs[side], manifests[side], args.seed,
                                   bench_record.source_hash(side),
                                   bench_record.revision(side,
                                                         manifests[side]))
                for side in (args.parent, args.change)])
            print(f"appended 2 entries to {path}")
        return 0
    print("error: a run was not correct; see standard error")
    return 1


if __name__ == "__main__":
    sys.exit(main())
