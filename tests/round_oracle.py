"""Test-side oracle of evaluation rounds: tasks drawn one `Episode` at a
time, as the sampler did before rounds were drawn into one array, and
each task scored by the accuracy of its own `proto_head_oracle.proto_head`
call, as evaluation did before the batched head, so that `fsnc.draw_round` and `fsnc.task_accuracy` can
be compared bit for bit against them."""

import numpy as np

import fgsam.model as mdl
from fgsam import fsnc
from proto_head_oracle import proto_head


def sample_episode(graph, classes, way, shot, query, rng) -> fsnc.Episode:
    classes = np.asarray(classes)
    if classes.size < way:
        raise fsnc.FsncError(
            f"need {way} classes, only {classes.size} available")
    chosen = rng.choice(classes, size=way, replace=False)
    pools = graph.class_nodes
    support, query_idx = [], []
    for c in chosen:
        pool = pools[c] if 0 <= c < len(pools) else pools[:0]
        if len(pool) < shot + query:
            raise fsnc.FsncError(
                f"class {c} has {len(pool)} nodes, needs {shot + query}")
        picked = rng.choice(pool, size=shot + query, replace=False)
        support.append(picked[:shot])
        query_idx.append(picked[shot:])
    return fsnc.Episode(way=way, shot=shot, query_per_class=query,
                        classes=chosen, support_idx=np.concatenate(support),
                        query_idx=np.concatenate(query_idx))


def draw_tasks(graph, classes, way, shot, query, tasks, rng) -> list:
    """`tasks` episodes drawn one after another from `rng`."""
    return [sample_episode(graph, classes, way, shot, query, rng)
            for _ in range(tasks)]


def task_rows(episodes) -> np.ndarray:
    """The sorted union of the episodes' rows."""
    return np.unique(np.concatenate([e.rows for e in episodes]))


def task_accuracy(params, graph, operator, episodes, blocks):
    """Mean and standard deviation of the per-task `proto_head` accuracies,
    after one forward over the union of the tasks' rows (`blocks` are
    `model.blocks_for` of `task_rows`, or None for all n rows)."""
    emb = mdl.forward(params, graph, operator, blocks).logits
    accs = []
    for e in episodes:
        # the union's last-layer rows are sorted
        local = (e.rows if blocks is None
                 else np.searchsorted(blocks[-1].rows, e.rows))
        accs.append(proto_head(emb[local], e, compute_grad=False)[1])
    return float(np.mean(accs)), float(np.std(accs))
