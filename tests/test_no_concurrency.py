"""Nothing in `src` starts a thread or a process: every command runs its
work, `compare`'s arms included, one step after another in the calling
thread, so a run's order of operations and its floats are fixed."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "fgsam")
CONCURRENCY_MODULES = {"concurrent", "threading", "multiprocessing"}


def concurrency_imports(source, name="<source>"):
    """The imports of `source` from a module that starts threads or
    processes."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        found += [f"{module} at line {node.lineno}" for module in modules
                  if module.split(".")[0] in CONCURRENCY_MODULES]
    return found


def test_src_starts_no_threads_or_processes():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    offenders = {}
    for path in paths:
        with open(path) as fh:
            found = concurrency_imports(fh.read(), path)
        if found:
            offenders[os.path.basename(path)] = found
    assert offenders == {}


def test_the_guard_sees_every_form_of_import():
    source = ("import threading\n"
              "import multiprocessing.pool as mp\n"
              "from concurrent.futures import ThreadPoolExecutor\n"
              "import os, threading\n"
              "from . import optim\n")
    assert concurrency_imports(source) == [
        "threading at line 1", "multiprocessing.pool at line 2",
        "concurrent.futures at line 3", "threading at line 4"]
