"""Only `cli` (run directories), `graphcore` (graph files) and `model`
(checkpoints) read or write files, so each file format is decided in one
module: the engine and the analysis instruments return records and leave
their files to the CLI."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "fgsam")
FILE_IO_MODULES = {"cli", "graphcore", "model"}
FORMAT_MODULES = {"csv", "json"}
# calls that open a file, as a builtin or as an attribute (`io.open`,
# `np.savetxt`, ...)
FILE_CALLS = {"open", "load", "loadtxt", "save", "savetxt", "savez",
              "fromfile", "tofile"}


def file_io(path):
    """The `csv` / `json` imports and file-opening calls of a module."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.split(".")[0] in FORMAT_MODULES]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] in FORMAT_MODULES:
                found.append(node.module)
        elif isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name == "open" or (isinstance(func, ast.Attribute)
                                  and name in FILE_CALLS):
                found.append(f"{name}() at line {node.lineno}")
    return found


def modules():
    return {os.path.basename(path)[:-3]: path
            for path in sorted(glob.glob(os.path.join(SRC, "*.py")))}


def test_only_cli_graphcore_and_model_do_file_io():
    offenders = {name: file_io(path) for name, path in modules().items()
                 if name not in FILE_IO_MODULES and file_io(path)}
    assert offenders == {}


def test_the_guard_sees_the_file_io_it_allows():
    found = {name: file_io(modules()[name]) for name in FILE_IO_MODULES}
    assert {"csv", "json"} <= set(found["cli"])
    assert any(call.startswith("open()") for call in found["cli"])
    assert any(call.startswith("savetxt()") for call in found["graphcore"])
    assert any(call.startswith("open()") for call in found["model"])
