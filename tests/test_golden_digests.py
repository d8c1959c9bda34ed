"""The working tree computes the floats recorded in
`tests/golden_digests.json`, bit for bit: every benchmark workload's
protocol round at seeds 0 and 17 and every CLI run directory of
`tools/trace_digest.py`, digested in a subprocess on this checkout's own
code. A change that moves the arithmetic on purpose rewrites the file
(`tools/trace_digest.py --write`) and says which digests moved and why."""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))
import bench_record  # noqa: E402
import trace_digest  # noqa: E402

GOLDEN = os.path.join(ROOT, "tests", "golden_digests.json")


def test_working_tree_gives_the_golden_digests():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    here = bench_record.fingerprint()
    if here != golden["fingerprint"]:
        pytest.skip(f"the golden digests were taken under "
                    f"{golden['fingerprint']}, this interpreter is {here}")
    got = trace_digest.run_checkout(ROOT)
    assert got is not None, "the digest worker failed"
    want = golden["digests"]
    differ = sorted(name for name in want.keys() | got.keys()
                    if want.get(name) != got.get(name))
    assert not differ, f"digests differ from {GOLDEN}: {', '.join(differ)}"
