"""The benchmark's workloads: set-up from a seed, and one protocol round
that runs the four optimizer arms one after another through the public
entry points, the way `fgsam compare` does."""

import json
import random
import time
from dataclasses import asdict, dataclass

# Layers are reached through their modules, so that the tracer's rebinding
# of module attributes sees every call.
from fgsam import cli, fsnc, graphcore, optim

import hostspeed

ARMS = optim.OPTIMIZER_NAMES
# Every workload: hidden 16, 2 layers, default lr, rho 0.05, lambda 0.5, k 2.
HIDDEN = 16
LAYERS = 2
HP = optim.Hyperparams(rho=0.05, lambda_topo=0.5, k=2)
# Input variants 0 to VARIANTS - 1 have stored reference outputs. Any
# integer seed is accepted and selects variant `seed % VARIANTS`, which
# each run prints and records in its manifest: seeds 0-99 are the variants
# themselves, and a seed that differs from another by a multiple of
# VARIANTS repeats its inputs.
VARIANTS = 100


def variant_of(seed: int) -> int:
    return seed % VARIANTS


@dataclass(frozen=True)
class Workload:
    name: str
    scheme: str
    steps: int               # optimizer steps (episodes) per arm
    val_interval: int
    csbm: tuple = None       # CsbmParams fields but the seed; None: bench graph
    split: tuple = None      # TRAIN/VAL/NOVEL classes; None: node masks
    val_tasks: int = 0
    test_tasks: int = 0

    @property
    def episodic(self) -> bool:
        return self.split is not None

    @property
    def val_rounds(self) -> int:
        return self.steps // self.val_interval

    @property
    def eval_tasks(self) -> int:
        """Evaluation tasks per arm: validation tasks plus test tasks."""
        if self.episodic:
            return self.val_rounds * self.val_tasks + self.test_tasks
        return self.val_rounds + 1


WORKLOADS = {w.name: w for w in (
    Workload("nc-bench", "gcn-sym", steps=20, val_interval=10),
    Workload("fsnc-large", "gcn-sym", steps=8, val_interval=4,
             csbm=(20, 1000, 0.015, 0.0002, 4.0, 128), split=(16, 2, 2),
             val_tasks=3, test_tasks=3),
    Workload("fsnc-small", "mean-neighbors", steps=100, val_interval=10,
             csbm=(8, 25, 0.35, 0.05, 3.0, 8), split=(4, 2, 2),
             val_tasks=20, test_tasks=100),
)}

# Protocol rounds per run, each after fresh set-ups. The counts are fixed so
# that every timing is the fastest of the same number of replays whatever
# the code's speed. They fill 28-35 s of a 40 s run on a shared 2-vCPU
# x86-64 VM (rounds of about 3.1 s, 6 s and 0.7 s with their set-ups). A
# traced run spends half of them untraced and half traced.
ROUNDS = {"nc-bench": 9, "fsnc-large": 5, "fsnc-small": 50}
# Set-ups per round; `setup_s` is the fastest of all of a run's set-ups.
SETUPS_PER_ROUND = 2
# Host-speed calibration (hostspeed.py): a synthetic graph of the
# workload's size (half of it for fsnc-large, to keep samples short),
# forwards per sample so that a sample takes 5-30 ms, and a sample time
# of the host in its fast state, measured on a shared 2-vCPU x86-64 VM.
CALIBRATION = {
    "nc-bench": hostspeed.Calibration(5000, 100270, 128, reps=1,
                                      ref_s=0.0185),
    "fsnc-large": hostspeed.Calibration(10000, 93958, 128, reps=1,
                                        ref_s=0.0240),
    "fsnc-small": hostspeed.Calibration(200, 1668, 8, reps=100,
                                        ref_s=0.0050),
}


def spec(workload: Workload) -> dict:
    """Every setting that decides a workload's outputs, as stored with its
    reference outputs."""
    return json.loads(json.dumps({"workload": asdict(workload),
                                  "hp": asdict(HP), "hidden": HIDDEN,
                                  "layers": LAYERS}))


@dataclass
class Inputs:
    graph: object
    masks: tuple = None
    split: object = None


def setup(workload: Workload, variant: int) -> Inputs:
    """Generate the graph and build the operator, masks and split. The
    protocol entry points build their own operator; this one is built only
    to time it as the set-up cost that a precomputed propagation would add
    to, and is not kept."""
    if workload.csbm is None:
        graph = cli.bench_instance(variant)
    else:
        graph = graphcore.generate_csbm(
            graphcore.CsbmParams(*workload.csbm, seed=variant))
    graphcore.normalize(graph, workload.scheme)
    if workload.episodic:
        split = fsnc.split_classes(graph.num_classes, workload.split, variant)
        return Inputs(graph, split=split)
    return Inputs(graph, masks=cli.make_nc_masks(graph, variant))


@dataclass
class ArmResult:
    arm: str
    wall_s: float
    trace: list            # the protocol's per-step trace rows
    gnn_evals: int
    mlp_evals: int
    test_acc: float
    best_val_acc: float


def run_arm(workload: Workload, inputs: Inputs, arm: str,
            variant: int) -> ArmResult:
    # patience above the number of validation rounds: early stopping is off
    patience = workload.val_rounds + 1
    start = time.perf_counter()
    if workload.episodic:
        config = fsnc.ProtocolConfig(
            repeats=1, episodes=workload.steps, patience=patience,
            val_interval=workload.val_interval, val_tasks=workload.val_tasks,
            test_tasks=workload.test_tasks, layers=LAYERS, hidden=HIDDEN,
            scheme=workload.scheme, optimizer=arm, hp=HP, seed=variant)
        report = fsnc.train_protocol(config, inputs.graph, inputs.split)
        wall = time.perf_counter() - start
        rep = report.repeats[0]
        return ArmResult(arm, wall, rep.trace, report.gnn_evals,
                         report.mlp_evals, rep.test_acc_mean,
                         rep.best_val_acc)
    config = fsnc.NCConfig(
        steps=workload.steps, patience=patience,
        val_interval=workload.val_interval, layers=LAYERS, hidden=HIDDEN,
        scheme=workload.scheme, optimizer=arm, hp=HP, seed=variant)
    report = fsnc.standard_nc_train(config, inputs.graph, inputs.masks)
    wall = time.perf_counter() - start
    return ArmResult(arm, wall, report.trace, report.gnn_evals,
                     report.mlp_evals, report.test_acc, report.best_val_acc)


def arm_order(round_index: int) -> list:
    """The order the arms run in, in round `round_index`: a fixed shuffle
    per round. A neighbour on the shared host whose load repeats with a
    period close to a round's would otherwise slow the same arm in every
    round, so that no replay of it runs undisturbed."""
    return random.Random(round_index).sample(ARMS, len(ARMS))


def run_round(workload: Workload, inputs: Inputs, variant: int,
              tracer=None, order=ARMS, after_arm=None) -> list:
    """One protocol round: the four arms, one after another in `order`,
    calling `after_arm()`, when given, after each. Results come back in
    `ARMS` order."""
    results = {}
    for arm in order:
        if tracer is None:
            results[arm] = run_arm(workload, inputs, arm, variant)
        else:
            tracer.arm = arm
            try:
                with tracer.span("bench.arm"):
                    results[arm] = run_arm(workload, inputs, arm, variant)
            finally:
                tracer.arm = None
        if after_arm is not None:
            after_arm()
    return [results[arm] for arm in ARMS]
