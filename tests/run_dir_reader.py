"""One reader of a run directory, for the tests that compare two runs."""

import csv
import json
import os

WALL_FIELDS = ("wall_ms", "wall_seconds", "wall_ratio_vs_adam")


def read_run_dir(outdir):
    """Every file under `outdir`, keyed by its path relative to it, with
    the wall-time fields dropped. A JSON file is its text re-dumped with
    sorted keys (so NaNs compare equal), without the wall fields at the top
    level and in each of its repeats; a CSV file is its rows without the
    wall columns; any other file is its bytes."""
    files = {}
    for root, _, names in os.walk(outdir):
        for name in names:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, outdir)
            if name.endswith(".json"):
                with open(path) as fh:
                    blob = json.load(fh)
                for record in [blob, *blob.get("repeats", [])]:
                    for key in WALL_FIELDS:
                        record.pop(key, None)
                files[rel] = json.dumps(blob, sort_keys=True)
            elif name.endswith(".csv"):
                with open(path, newline="") as fh:
                    files[rel] = [{k: v for k, v in row.items()
                                   if k not in WALL_FIELDS}
                                  for row in csv.DictReader(fh)]
            else:
                with open(path, "rb") as fh:
                    files[rel] = fh.read()
    return files
