"""The traced benchmark finds package functions by name; every name must resolve.

perfbench/tracing.py wraps each entry of its TRACED table in place.  A name
that no longer exists makes `perfbench/run.py --trace 1` fail with a
KeyError, so deleting or renaming a traced function must update the table.
"""

import importlib.util
from pathlib import Path

import permahank
import permahank.cli  # noqa: F401  (the table names cli.main)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    tracing = load_tracing()
    for name, module, attr, _ in tracing.TRACED:
        _, _, fn = tracing.resolve(permahank, module, attr)
        assert callable(fn), name
