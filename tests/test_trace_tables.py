"""perfbench's tracer wraps program callables by (module, attribute) name; a
rename or deletion under src/ would break `perfbench/run.py --trace 1` only
when a traced run starts. This reads the tables without installing them."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_attribute_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    sys.modules.pop("tracing")
    assert Path(tracing.__file__).parent == PERFBENCH
    missing = []
    for module_name, attr in [*tracing.TIMED, *tracing.COUNTED]:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
