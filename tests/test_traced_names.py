"""Every polypack function that perfbench's tracer hooks exists by its name.

`perfbench/workload.py` installs spans and counters on polypack functions by
module attribute name (`tr.install(pp.<module>, "<name>", ...)` and
`tr.install_generator`); a renamed or deleted function would break its
`--trace 1` run, which these tests do not otherwise collect.  The file is
only read here.
"""

import ast
import importlib
from pathlib import Path

WORKLOAD = Path(__file__).resolve().parents[1] / "perfbench" / "workload.py"


def hooked_names():
    """(module, name) per tracer install call in the workload script."""
    for node in ast.walk(ast.parse(WORKLOAD.read_text(), str(WORKLOAD))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("install", "install_generator")):
            module, name = node.args[:2]
            assert isinstance(module, ast.Attribute) and isinstance(name, ast.Constant)
            yield module.attr, name.value


def test_hooked_names_exist():
    hooks = sorted(set(hooked_names()))
    assert ("runtime", "iter_point_chunks") in hooks and len(hooks) > 10
    missing = [f"polypack.{m}.{n}" for m, n in hooks
               if not hasattr(importlib.import_module(f"polypack.{m}"), n)]
    assert missing == []
