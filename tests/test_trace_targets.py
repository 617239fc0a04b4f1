"""`perfbench/run.py --trace 1` wraps each (module, attribute) listed in
`perfbench/spans.py`; a refactor that renames one breaks the traced run."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_call_site_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans._targets()
    assert targets
    for module, attr, _ in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
