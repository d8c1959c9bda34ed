"""The benchmark tracer rebinds `(owner, attribute)` pairs of the fgsam
modules by name. Each pair must be an attribute defined on its owner, so a
deletion or rename under `src/fgsam` that would break a traced benchmark run
fails here."""

import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "tracing.py")


def test_every_traced_target_is_defined_on_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [tracing.span_name(owner, attr)
               for owner, attr in tracing.TARGETS
               if attr not in vars(owner)]
    assert missing == []
