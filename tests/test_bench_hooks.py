"""The traced benchmark run patches heatlab at the names listed in
bench/tracing.py ``HOOKS``; a refactor that moves or renames one of them
would break that run without failing any other test.

Claims:
    - every hooked (module, qualified name) resolves in heatlab
    - a hooked method sits in its class's own ``__dict__``, where
      ``Recorder.install`` looks it up and patches it
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # its dataclasses resolve their module there
    spec.loader.exec_module(tracing)
    return [(module, qualname) for module, qualname, _ in tracing.HOOKS]


@pytest.mark.parametrize("module_name, qualname", _hooks())
def test_bench_hook_resolves(module_name, qualname):
    module = importlib.import_module(f"heatlab.{module_name}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        owner = getattr(module, cls_name)
        assert attr in vars(owner), f"{qualname} is not defined on {cls_name} itself"
        assert callable(vars(owner)[attr])
    else:
        assert callable(getattr(module, qualname))
